"""Kernel closed forms: trig vectors, Gram matrices, bounds, validation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlab.kernel import (
    ConfigError,
    ModelConfig,
    gram_matrix_stack,
    h_bound,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.oracle import quadrature_gram


def taylor_sin(x: float) -> float:
    # library-independent power series; fine for |x| < 4 at double precision
    term = total = x
    k = 1
    while abs(term) > 1e-20:
        term *= -x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def taylor_cos(x: float) -> float:
    term = total = 1.0
    k = 1
    while abs(term) > 1e-20:
        term *= -x * x / ((2 * k - 1) * (2 * k))
        total += term
        k += 1
    return total


MU3 = ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
MU1 = ModelConfig([1.0], [1.0])
MU21 = ModelConfig([2.0, 1.0], [1.0, 1.0])


def h_stack(config, radii):
    return h_matrix_stack(config, radii, trig_s(config, radii),
                          trig_c(config, radii))


def test_trig_s_special_values():
    assert trig_s(MU1, [0.0])[0, 0] == 0.0
    assert trig_s(MU1, [np.pi / 2])[0, 0] == 1.0


def test_trig_c_special_values():
    assert trig_c(MU1, [0.0])[0, 0] == 1.0
    got = trig_c(MU21, [np.pi])[0]
    assert abs(got[0] - 1.0) <= 1e-15
    assert abs(got[1] + 1.0) <= 1e-15


def test_trig_vectors_match_series_oracle():
    s = trig_s(MU3, [0.7, 1.1])
    c = trig_c(MU3, [0.7, 1.1])
    assert s.shape == c.shape == (2, 3)
    for k, r in enumerate((0.7, 1.1)):
        for j, mu in enumerate((3.0, 2.0, 1.0)):
            assert abs(s[k, j] - taylor_sin(mu * r)) <= 5e-16
            assert abs(c[k, j] - taylor_cos(mu * r)) <= 5e-16


def test_gram_entry_diagonal_formula():
    radii = np.array([0.3, 1.0, np.pi, 12.5])
    g = gram_matrix_stack(MU1, radii)
    for k, r in enumerate(radii):
        assert g[k, 0, 0] == pytest.approx(r / 2 - np.sin(2 * r) / 4,
                                           abs=1e-15)


def test_gram_entry_zero_radius():
    assert np.all(gram_matrix_stack(MU21, [0.0]) == 0.0)
    assert np.all(gram_matrix_stack(MU1, [0.0]) == 0.0)


def test_gram_entry_off_diagonal_closed_form():
    want = np.sin(1.0) / 2 - np.sin(3.0) / 6
    got = gram_matrix_stack(MU21, [1.0])[0, 0, 1]
    assert got == pytest.approx(want, abs=1e-15)
    assert abs(got - quadrature_gram(2.0, 1.0, 1.0)) <= 1e-10


def test_gram_entry_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        gram_matrix_stack(ModelConfig([1.0, 0.0], [1.0, 1.0]), [1.0])
    with pytest.raises(ValueError):
        gram_matrix_stack(ModelConfig([1.0, -2.0], [1.0, 1.0]), [1.0])


def test_gram_matrix_zero_and_symmetry():
    assert np.all(gram_matrix_stack(MU3, [0.0]) == 0.0)
    g = gram_matrix_stack(MU3, [2.5, 40.1])
    assert np.array_equal(g, g.transpose(0, 2, 1))


def test_gram_matrix_single_frequency():
    r = 1.7
    g = gram_matrix_stack(MU1, [r])
    assert g.shape == (1, 1, 1)
    assert g[0, 0, 0] == pytest.approx(r / 2 - np.sin(2 * r) / 4, abs=1e-15)


def test_gram_matrix_against_quadrature():
    g = gram_matrix_stack(MU3, [2.5])[0]
    for i in range(3):
        for j in range(3):
            q = quadrature_gram(MU3.mu[i], MU3.mu[j], 2.5)
            assert abs(g[i, j] - q) <= 1e-10


def test_quadrature_agreement_on_seeded_triples():
    rng = np.random.default_rng(5)
    triples = [(int(i), int(j), float(rng.uniform(0.0, 20.0)))
               for i, j in (rng.integers(0, 3, size=2) for _ in range(20))]
    g = gram_matrix_stack(MU3, [r for _, _, r in triples])
    for k, (i, j, r) in enumerate(triples):
        assert abs(g[k, i, j]
                   - quadrature_gram(MU3.mu[i], MU3.mu[j], r)) <= 1e-10


def test_h_matrix_values():
    r = 0.9
    h = h_stack(MU1, [r])
    assert h[0, 0, 0] == pytest.approx(-np.sin(2 * r) / 4, abs=1e-16)
    assert np.all(h_stack(MU3, [0.0]) == 0.0)


def test_sin_is_bitwise_odd():
    # mirroring a close pair's h_ij gives the bits of h_ji's own sines:
    # d r and t r change sign, not bits
    x = np.random.default_rng(9).uniform(-1e5, 1e5, 100_000)
    x = np.concatenate([x, [0.0, 1e-300, np.pi, 1e4 * np.pi]])
    assert np.array_equal(np.sin(-x), -np.sin(x))


admissible_mu = st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8,
                         unique=True).map(lambda v: sorted(v, reverse=True))


def h_reference(mu, radii):
    """H at each radius to 40 digits from the float mu and r taken as exact:
    mu_i -+ mu_j and the sine arguments are formed without rounding."""
    exact = {"exact": True}
    with mpmath.workdps(40):
        def h(mi, mj, r):
            if mi == mj:
                return -mpmath.sin(2 * mpmath.fmul(mi, r, **exact)) / (4 * mi)
            d, t = mpmath.fsub(mi, mj, **exact), mpmath.fadd(mi, mj, **exact)
            return (mpmath.sin(mpmath.fmul(d, r, **exact)) / (2 * d)
                    - mpmath.sin(mpmath.fmul(t, r, **exact)) / (2 * t))
        mu = [mpmath.mpf(float(m)) for m in mu]
        return [[[h(mi, mj, mpmath.mpf(float(r))) for mj in mu] for mi in mu]
                for r in radii]


def h_error_bound(mu, radii):
    """The builder's rounding estimate per entry, mu_i the larger frequency:
    4 eps (1 + mu_i r) / (mu_i - mu_j) for a product pair, mu_i in place of
    the difference on the diagonal, and 4 eps (r + 1 / (mu_i + mu_j)) for a
    close pair, mu_i - mu_j < mu_i / 2^10, which keeps its two sines."""
    mu, r = np.asarray(mu), np.asarray(radii)[:, None, None]
    big = np.maximum.outer(mu, mu)
    d = np.abs(np.subtract.outer(mu, mu)) + np.diag(mu)
    close = d < big / 1024
    eps = np.finfo(float).eps
    return np.where(close, 4 * eps * (r + 1.0 / np.add.outer(mu, mu)),
                    4 * eps * (1.0 + big * r) / d)


def assert_h_accurate(mu, radii):
    cfg = ModelConfig(mu, np.ones(len(mu)))
    radii = np.array(radii, dtype=float)
    h = h_stack(cfg, radii)
    assert np.array_equal(h, h.transpose(0, 2, 1))
    with mpmath.workdps(40):
        error = np.array([[[float(abs(mpmath.mpf(float(x)) - want))
                            for x, want in zip(row, wrow)]
                           for row, wrow in zip(hk, wk)]
                          for hk, wk in zip(h, h_reference(cfg.mu, radii))])
    assert np.all(error <= h_error_bound(cfg.mu, radii))


BUILD_WIDE_MU = [4.950718, 4.776975, 4.564229, 4.388213, 4.205101, 4.047009,
                 3.867318, 3.645063, 3.494856, 3.333929, 3.142881, 2.96525,
                 2.768815, 2.600906, 2.347741, 2.162964, 2.005424, 1.852445,
                 1.646509, 1.43719, 1.262763, 1.110716, 0.770777, 0.561909]


@pytest.mark.parametrize("mu, radii", [
    (BUILD_WIDE_MU, np.concatenate([[0.0], np.geomspace(1e-3, 4e3, 9)])),
    ([1.001, 1.0], np.geomspace(1e-3, 4e3, 40)),  # products, d = mu_1 / 1001
    ([1.0000001, 1.0], np.geomspace(1e-3, 4e3, 40)),  # a close pair: sines
    ([1e306, 1.0], [0.0, 1e-300, 1e-3, 0.5, 7.3, 80.0]),  # 2 mu_1 r finite
], ids=["n24", "product_pair", "close_pair", "mu_1e306"])
def test_h_matrix_stack_is_accurate_and_symmetric(mu, radii):
    assert_h_accurate(mu, radii)


@settings(max_examples=60, deadline=None)
@given(mu=admissible_mu,
       radii=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
def test_h_matrix_stack_is_accurate_and_symmetric_property(mu, radii):
    assert_h_accurate(mu, radii)


def test_h_relation_to_gram():
    # g_ij = h_ij off the diagonal, g_ii = r/2 + h_ii
    r = 3.3
    g = gram_matrix_stack(MU3, [r])[0]
    h = h_stack(MU3, [r])[0]
    assert np.allclose(g - h, np.diag([r / 2] * 3), atol=1e-15, rtol=0.0)


def test_h_uniform_bound_two_frequencies():
    cap = 0.5 + 1.0 / 6.0  # 1/(2|2-1|) + 1/(2(2+1))
    h = h_stack(MU21, np.linspace(0.0, 200.0, 4001))
    assert np.max(np.abs(h[:, 0, 1])) <= cap
    assert h_bound(MU21)[0, 1] == pytest.approx(cap, abs=1e-16)
    assert h_bound(MU21)[1, 0] == pytest.approx(cap, abs=1e-16)
    assert h_bound(MU3)[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-16)


def test_gram_cubic_bound():
    # |g_ij(r)| <= mu_i mu_j r^3 on a grid
    outer = np.outer(MU3.mu, MU3.mu)
    radii = np.linspace(0.01, 5.0, 100)
    g = gram_matrix_stack(MU3, radii)
    assert np.all(np.abs(g) <= outer * radii[:, None, None] ** 3)


def test_gram_derivative_is_rank_one():
    # central FD of G tends to s.ts at order h^2
    r = 2.7
    s = trig_s(MU3, [r])[0]
    target = np.outer(s, s)

    def defect(h):
        fd = (gram_matrix_stack(MU3, [r + h])[0]
              - gram_matrix_stack(MU3, [r - h])[0]) / (2 * h)
        return np.max(np.abs(fd - target))

    d1, d2 = defect(1e-4), defect(5e-5)
    assert d1 <= 1e-6
    assert 3.0 <= d1 / d2 <= 5.0


def quadratic_forms(config, radii, xi):
    """<xi_k, G(r_k) xi_k> per radius, as verify's gram_positivity takes them."""
    xi = np.asarray(xi, dtype=complex)
    g = gram_matrix_stack(config, radii)
    return np.real(np.einsum("ki,kij,kj->k", xi.conj(), g, xi))


def test_positivity_single_frequency_at_pi():
    got = quadratic_forms(MU1, [np.pi], np.array([[1.0]]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(np.pi / 2, abs=1e-15)


def test_positivity_two_frequency_combination():
    g = gram_matrix_stack(MU21, [1.0])[0]
    want = g[0, 0] + g[1, 1] - 2 * g[0, 1]
    got = quadratic_forms(MU21, [1.0], np.array([[1.0, -1.0]]))[0]
    assert got > 0.0
    assert got == pytest.approx(want, abs=1e-15)


def test_positivity_seeded_trials():
    rng = np.random.default_rng(17)
    radii = np.repeat([0.1, 1.0, 10.0, 100.0], 100)
    xi = rng.standard_normal((400, 3)) + 1j * rng.standard_normal((400, 3))
    assert np.all(quadratic_forms(MU3, radii, xi) > 0.0)


def test_frequency_validation_messages():
    with pytest.raises(ConfigError, match=r"mu_1 <= mu_2"):
        ModelConfig([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConfigError, match=r"mu_2 <= 0"):
        ModelConfig([3.0, -2.0], [1.0, 1.0])
    with pytest.raises(ConfigError, match=r"mu_1 <= 0"):
        ModelConfig([0.0], [1.0])
    # a JSON 1e400 parses to inf
    with pytest.raises(ConfigError, match=r"mu_1 is not finite"):
        ModelConfig([float("inf")], [1.0])
    # finite frequencies whose sums overflow are out of range too
    with pytest.raises(ConfigError, match=r"2 mu_1 is not finite"):
        ModelConfig([1e308, 1.0], [1.0, 1.0])
    ModelConfig([8e307, 1.0], [1.0, 1.0])


def test_coupling_validation_messages():
    with pytest.raises(ConfigError, match=r"a_1 == 0"):
        ModelConfig([2.0, 1.0], [0.0, 1.0])
    with pytest.raises(ConfigError, match=r"Re\(a_2\) < 0"):
        ModelConfig([2.0, 1.0], [1.0, -0.5 + 1j])
    # purely imaginary couplings are admissible
    ModelConfig([2.0, 1.0], [1j, 2.0])


def test_model_config_length_mismatch():
    with pytest.raises(ConfigError, match="len"):
        ModelConfig([2.0, 1.0], [1.0])
    # mu is checked first, then a, then the lengths
    with pytest.raises(ConfigError, match=r"mu_1 <= mu_2"):
        ModelConfig([1.0, 2.0], [0.0])
    with pytest.raises(ConfigError, match=r"a_1 == 0"):
        ModelConfig([2.0, 1.0], [0.0])


def test_model_config_arrays():
    cfg = ModelConfig([2, 1], [1.0 + 1j, 2.0])
    assert cfg.mu.dtype == float and cfg.a.dtype == complex
    assert np.array_equal(cfg.mu, [2.0, 1.0])
    assert np.array_equal(cfg.a, [1.0 + 1j, 2.0])
    assert cfg.n == 2
    assert not cfg.is_real
    assert ModelConfig([1.0], [3.0]).is_real
