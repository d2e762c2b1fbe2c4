"""Half-line Schroedinger potentials with prescribed embedded eigenvalues.

Builds oscillatory (von Neumann-Wigner style) potentials whose Dirichlet
operator on the half-line has the prescribed positive eigenvalues mu_j^2,
together with the machinery to verify the construction numerically:
independent oracles (quadrature, finite differences, Runge-Kutta shooting),
a discretized spectral probe, and the spherically symmetric 3D lift.
"""

__version__ = "0.1.0"

from ewlab.kernel import ModelConfig

__all__ = ["ModelConfig", "__version__"]
