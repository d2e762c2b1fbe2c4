"""In-process tracing of ewlab's layers from outside the package.

`Tracer` wraps the public functions of each ewlab module, plus the CLI
helpers that format and write output, and records one span per call: name,
layer, start, end, parent, and counts taken from the arguments and the
return value at that boundary. A wrapper replaces the function under every
name that refers to it in every loaded `ewlab` module, which covers
`from ewlab.x import f` bindings. `verify.run_verification` imports
`w_function` inside its body, which reads the patched module attribute at
call time. `DenseLU` and `TridiagonalLU` are wrapped at `__init__` and `solve`
on the class, so code that holds the class keeps using the same class.
Everything is restored on exit. Spans stay in memory until written out.

`layer_metrics` turns the spans of one traced `ewlab.cli.main` call into the
per-layer metrics listed in PER_LAYER. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["LAYERS", "PER_LAYER", "Span", "Tracer", "layer_metrics",
           "write_spans"]

LAYERS = ("kernel", "linalg", "construct", "oracle", "spectral_probe",
          "verify", "cli")

# cli.main is left unwrapped: it is the traced call itself.
CLI_FUNCTIONS = ("load_config", "cmd_build", "cmd_verify", "cmd_probe",
                 "cmd_expand", "_write_atomic")
WRAPPED_METHODS = {"DenseLU": ("__init__", "solve"),
                   "TridiagonalLU": ("__init__", "solve")}

KERNEL_STACKS = ("kernel.gram_matrix_stack", "kernel.h_matrix_stack")
KERNEL_SCALARS = tuple(f"kernel.{f}" for f in (
    "gram_entry", "h_entry", "gram_matrix", "h_matrix", "trig_s", "trig_c"))
CONSTRUCT_SCALARS = tuple(f"construct.{f}" for f in (
    "potential_value", "eigenfunction_values", "potential_asymptotics",
    "w_function", "eigenfunction_large_r", "resolvent_apply",
    "log_det_derivative", "log_det_second_difference"))
ORACLE_FITS = tuple(f"oracle.{f}" for f in (
    "potential_expansion_fits", "eigenfunction_asymptotics",
    "inverse_matrix_asymptotics", "inverse_small_r_slope",
    "vprime_asymptotics", "fit_decay_slope"))

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this table.
PER_LAYER = (
    ("kernel.self_s", "s", "lower"),
    ("kernel.stack_calls", "count", "lower"),
    ("kernel.stack_points", "count", "lower"),
    ("kernel.stack_bytes", "B", "lower"),
    ("kernel.scalar_calls", "count", "lower"),
    ("linalg.batched_solve_s", "s", "lower"),
    ("linalg.batched_systems", "count", "lower"),
    ("linalg.batched_flops", "flop", "lower"),
    ("linalg.dense_lu_calls", "count", "lower"),
    ("linalg.dense_lu_s", "s", "lower"),
    ("linalg.tridiag_factor_s", "s", "lower"),
    ("linalg.tridiag_solve_s", "s", "lower"),
    ("linalg.tridiag_solves", "count", "lower"),
    ("linalg.tridiag_rows", "count", "lower"),
    ("construct.self_s", "s", "lower"),
    ("construct.sample_grid_calls", "count", "lower"),
    ("construct.sample_grid_points", "count", "lower"),
    ("construct.sample_grid_distinct_ratio", "ratio", "higher"),
    ("construct.scalar_calls", "count", "lower"),
    ("oracle.quadrature_s", "s", "lower"),
    ("oracle.quadrature_calls", "count", "lower"),
    ("oracle.shooting_s", "s", "lower"),
    ("oracle.shooting_steps", "count", "lower"),
    ("oracle.residual_s", "s", "lower"),
    ("oracle.fits_s", "s", "lower"),
    ("spectral_probe.self_s", "s", "lower"),
    ("spectral_probe.build_hamiltonian_s", "s", "lower"),
    ("spectral_probe.probes", "count", "lower"),
    ("spectral_probe.iterations", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


@dataclass
class Span:
    name: str                 # "<layer>.<function>" or "<layer>.<Class>.<method>"
    layer: str
    start: float
    end: float
    parent: int               # index of the enclosing span, -1 at the top
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batched_flops(k: int, n: int, m: int) -> int:
    """Complex multiply-adds of batched_solve counted as 8 real flops each.

    Per system: elimination step i does (n-i-1) divisions, (n-i-1)^2 updates
    and (n-i-1) m right-hand-side updates; back substitution (n-i-1) m
    multiply-adds plus m divisions per row. Computed from shapes.
    """
    per = sum((n - i - 1) * (1 + (n - i - 1) + 2 * m) + m for i in range(n))
    return 8 * k * per


def _count(name: str, args: tuple, result) -> dict:
    """Work counts at the boundary of one call, from arguments and result."""
    if name in KERNEL_STACKS:
        k, n = len(args[1]), args[0].n
        return {"points": k, "bytes": k * n * n * 8}
    if name == "construct.sample_grid":
        radii = np.ascontiguousarray(args[1], dtype=float)
        return {"points": radii.size,
                "grid": hashlib.sha1(radii.tobytes()).hexdigest()}
    if name == "linalg.batched_solve":
        mats, rhs = args[0], args[1]
        k, n = mats.shape[0], mats.shape[1]
        m = 1 if np.ndim(rhs) == 2 else rhs.shape[2]
        return {"systems": k, "flops": _batched_flops(k, n, m)}
    if name == "linalg.TridiagonalLU.__init__":
        return {"rows": args[1].size}
    if name == "linalg.TridiagonalLU.solve":
        return {"rows": args[0].size}
    if name == "oracle.shooting_compare":
        return {"steps": args[1].count - 1}
    if name == "spectral_probe.inverse_iteration":
        return {"iterations": result.iterations}
    if name == "verify.run_verification":
        return {"checks": len(result.checks),
                "failed": sum(not c.passed for c in result.checks)}
    if name == "cli._write_atomic":
        return {"bytes": len(args[1].encode())}
    return {}


def _targets(module) -> tuple:
    """The layer name of an ewlab module and the functions traced in it."""
    layer = module.__name__.rsplit(".", 1)[1]
    if layer == "cli":
        return layer, CLI_FUNCTIONS
    return layer, [f for f in module.__all__
                   if inspect.isfunction(getattr(module, f))
                   and getattr(module, f).__module__ == module.__name__]


class Tracer:
    """Context manager that traces ewlab's layers while it is entered."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.counts = _count(name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [importlib.import_module(f"ewlab.{m}") for m in LAYERS]
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "ewlab" or name.startswith("ewlab.")]
        for module in modules:
            layer, names = _targets(module)
            for fname in names:
                orig = getattr(module, fname)
                traced = self._wrap(layer, f"{layer}.{fname}", orig)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            self._restore.append((holder, attr, orig))
                            setattr(holder, attr, traced)
            for cls_name, methods in WRAPPED_METHODS.items():
                cls = getattr(module, cls_name, None)
                if cls is None or cls.__module__ != module.__name__:
                    continue
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(
                        layer, f"{layer}.{cls_name}.{meth}", orig))

    def __exit__(self, *exc) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()


def write_spans(path, runs: list) -> None:
    """Write the spans of every traced call as JSON lines, once, at the end."""
    with open(path, "w") as fh:
        for run, spans in enumerate(runs):
            for index, span in enumerate(spans):
                fh.write(json.dumps({"run": run, "id": index, **asdict(span)})
                         + "\n")


def _self_times(spans: list) -> list:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _outermost(spans: list, names) -> float:
    """Total duration of spans in names that are not nested in another one."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer metrics of one traced call whose wall time was `wall`."""
    own = _self_times(spans)

    def self_s(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    def calls(*names):
        return sum(1 for s in spans if s.name in names)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def inclusive(*names):
        return _outermost(spans, names)

    grids = [s.counts["grid"] for s in spans
             if s.name == "construct.sample_grid" and "grid" in s.counts]
    return {
        "kernel.self_s": self_s("kernel"),
        "kernel.stack_calls": calls(*KERNEL_STACKS),
        "kernel.stack_points": sum(total(n, "points") for n in KERNEL_STACKS),
        "kernel.stack_bytes": sum(total(n, "bytes") for n in KERNEL_STACKS),
        "kernel.scalar_calls": calls(*KERNEL_SCALARS),
        "linalg.batched_solve_s": inclusive("linalg.batched_solve"),
        "linalg.batched_systems": total("linalg.batched_solve", "systems"),
        "linalg.batched_flops": total("linalg.batched_solve", "flops"),
        "linalg.dense_lu_calls": calls("linalg.DenseLU.__init__"),
        "linalg.dense_lu_s": inclusive("linalg.DenseLU.__init__",
                                       "linalg.DenseLU.solve"),
        "linalg.tridiag_factor_s": inclusive("linalg.TridiagonalLU.__init__"),
        "linalg.tridiag_solve_s": inclusive("linalg.TridiagonalLU.solve"),
        "linalg.tridiag_solves": calls("linalg.TridiagonalLU.solve"),
        "linalg.tridiag_rows": (total("linalg.TridiagonalLU.__init__", "rows")
                                + total("linalg.TridiagonalLU.solve", "rows")),
        "construct.self_s": self_s("construct"),
        "construct.sample_grid_calls": len(grids),
        "construct.sample_grid_points": total("construct.sample_grid", "points"),
        "construct.sample_grid_distinct_ratio": (
            len(set(grids)) / len(grids) if grids else 1.0),
        "construct.scalar_calls": calls(*CONSTRUCT_SCALARS),
        "oracle.quadrature_s": inclusive("oracle.quadrature_gram"),
        "oracle.quadrature_calls": calls("oracle.quadrature_gram"),
        "oracle.shooting_s": sum(t for s, t in zip(spans, own)
                                 if s.name == "oracle.shooting_compare"),
        "oracle.shooting_steps": total("oracle.shooting_compare", "steps"),
        "oracle.residual_s": inclusive("oracle.residual_eigen_equation"),
        "oracle.fits_s": inclusive(*ORACLE_FITS),
        "spectral_probe.self_s": self_s("spectral_probe"),
        "spectral_probe.build_hamiltonian_s": inclusive(
            "spectral_probe.build_hamiltonian"),
        "spectral_probe.probes": calls("spectral_probe.inverse_iteration"),
        "spectral_probe.iterations": total("spectral_probe.inverse_iteration",
                                           "iterations"),
        "verify.self_s": self_s("verify"),
        "verify.checks": total("verify.run_verification", "checks"),
        "verify.checks_failed": total("verify.run_verification", "failed"),
        "cli.load_config_s": inclusive("cli.load_config"),
        "cli.emit_s": sum(t for s, t in zip(spans, own)
                          if s.name == "cli.cmd_build"),
        "cli.write_s": inclusive("cli._write_atomic"),
        "cli.out_bytes": total("cli._write_atomic", "bytes"),
        "trace.coverage": sum(s.duration for s in spans if s.parent < 0) / wall,
    }
