"""Command-line front end.

Four subcommands, all driven by a single JSON config:

    ewlab build  --config c.json [--out data.csv]
    ewlab verify --config c.json [--out report.json]
    ewlab probe  --config c.json [--out report.json] [--sweep K] [--free]
    ewlab expand --config c.json [r1 r2 ...]

Config schema:

    {"mu": [3, 2, 1],
     "a": [[1, 0], [1, 0], [1, 0]],      # [re, im] pairs; bare reals allowed
     "grid": {"start": 0, "end": 50, "step": 0.01},
     "seed": 0}

Everything is deterministic given (config, seed): no timestamps, seeded
generators only, file writes are atomic (temp file + rename, with the mode
the umask gives a new file), and repeated runs produce byte-identical bytes.
Exit codes: 0 all checks pass, 1 a check, probe or numerical step failed,
2 invalid input (ConfigError, GridError).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from ewlab import __version__
from ewlab.construct import potential_terms, sample_blocks, sample_grid
from ewlab.kernel import ConfigError, GridError, GridSpec, ModelConfig
from ewlab.spectral_probe import (
    aligned_correlation,
    build_hamiltonian,
    free_laplacian_eigenvalue,
    inverse_iteration,
    probe_embedded,
)
from ewlab.verify import run_verification

__all__ = ["RunConfig", "load_config", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: model, grid, output destination, seed."""

    model: ModelConfig
    grid: GridSpec
    output_path: str | None
    seed: int


def _float(value, key: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is an integer beyond float range") from None


def _parse_complex_list(raw) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError('"a" must be a non-empty list')
    values = []
    for k, item in enumerate(raw, start=1):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            values.append(complex(_float(item, f"a_{k}")))
        elif (isinstance(item, list) and len(item) == 2
              and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in item)):
            values.append(complex(*(_float(x, f"a_{k}") for x in item)))
        else:
            raise ConfigError(f"a_{k} must be a number or an [re, im] pair")
    return values


def load_config(path: str, out: str | None = None,
                grid_override: str | None = None) -> RunConfig:
    """Parse and validate a config file; raises ConfigError/GridError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("mu", "a", "grid"):
        if key not in doc:
            raise ConfigError(f'missing key "{key}"')
    mu = doc["mu"]
    if (not isinstance(mu, list) or not mu
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in mu)):
        raise ConfigError('"mu" must be a non-empty list of numbers')
    model = ModelConfig([_float(x, f"mu_{j}") for j, x in enumerate(mu, 1)],
                        _parse_complex_list(doc["a"]))
    if grid_override is not None:
        parts = grid_override.split(",")
        if len(parts) != 3:
            raise ConfigError("--grid-override needs start,end,step")
        try:
            start, end, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad --grid-override: {exc}") from exc
    else:
        grid_doc = doc["grid"]
        if not isinstance(grid_doc, dict):
            raise ConfigError('"grid" must be an object')
        for key in ("start", "end", "step"):
            if key not in grid_doc:
                raise ConfigError(f'missing key "grid.{key}"')
            if (not isinstance(grid_doc[key], (int, float))
                    or isinstance(grid_doc[key], bool)):
                raise ConfigError(f'"grid.{key}" must be a number')
        start, end, step = (_float(grid_doc[k], f"grid.{k}")
                            for k in ("start", "end", "step"))
    grid = GridSpec(start, end, step)
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError('"seed" must be a non-negative integer')
    # checked here, before any work, so a bad --out never fails at the end
    if out is not None and not os.path.isdir(os.path.dirname(
            os.path.abspath(out))):
        raise ConfigError(f"--out {out}: parent is not an existing directory")
    return RunConfig(model=model, grid=grid, output_path=out, seed=seed)


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file that appears at path, with the umask's mode, only on success.

    Writes go to a temp file in the same directory, renamed over path when
    the block exits cleanly and deleted when it raises.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ewlab-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        # mkstemp creates 0600; give the file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_atomic(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _config_echo(rc: RunConfig) -> dict:
    return {
        "mu": [float(x) for x in rc.model.mu],
        "a": [[float(z.real), float(z.imag)] for z in rc.model.a],
        "grid": {"start": rc.grid.r_start, "end": rc.grid.r_end,
                 "step": rc.grid.step},
        "seed": rc.seed,
        "version": __version__,
    }


def cmd_build(rc: RunConfig) -> int:
    """Sample the construction on the grid and emit one CSV row per radius.

    Columns: r, V_re, V_im, then (vj_re, vj_im) for j = 1..n, then W; all
    floats at 17 significant digits so the file round-trips doubles exactly.
    Rows are formatted and written one block of construct.sample_blocks at
    a time, into the atomic temp file with --out, so neither the sample nor
    the text exists in full (on stdout, a failing block follows the rows
    printed before it); each block is one % over its repeated row template.
    """
    radii = rc.grid.radii()
    n = rc.model.n
    header = "r,V_re,V_im," + ",".join(
        f"v{j}_re,v{j}_im" for j in range(1, n + 1)) + ",W\n"
    row = ",".join(["%.17g"] * (2 * n + 4)) + "\n"
    out = rc.output_path
    with (contextlib.nullcontext(sys.stdout) if out is None
          else _atomic_file(out)) as fh:
        fh.write(header)
        for block, v, _, big_v, w in sample_blocks(rc.model, radii):
            # view(float) interleaves (re, im) but needs a C-ordered complex
            # copy of the strided, possibly real v; + 0.0 folds -0.0 into 0
            table = np.column_stack([radii[block], big_v.real, big_v.imag,
                                     v.astype(complex, order="C").view(float),
                                     w]) + 0.0
            fh.write(row * len(table) % tuple(table.ravel().tolist()))
    return 0


def cmd_verify(rc: RunConfig) -> int:
    """Run the invariant suite; print one line per check, report as JSON."""
    report = run_verification(rc.model, seed=rc.seed)
    for line in report.lines():
        print(line)
    if rc.output_path is not None:
        _write_atomic(rc.output_path, report.to_json())
    return 0 if report.passed else 1


def _probe_free(rc: RunConfig) -> dict:
    t = build_hamiltonian(rc.grid, np.zeros(rc.grid.count - 2))
    modes = []
    for k in (1, 2, 3):
        analytic = free_laplacian_eigenvalue(rc.grid, k)
        res = inverse_iteration(t, analytic + 1e-6 * max(analytic, 1e-3),
                                seed=rc.seed)
        modes.append({
            "k": k,
            "analytic": analytic,
            "estimate": [res.eigval_estimate.real, res.eigval_estimate.imag],
            "abs_error": abs(res.eigval_estimate - analytic),
            "iterations": res.iterations,
        })
    return {"free_modes": modes}


def _sample_couplings(rng: np.random.Generator, n: int) -> np.ndarray:
    # admissible by construction: Re in [0.5, 2.5], Im in [-1, 1]
    return rng.uniform(0.5, 2.5, n) + 1j * rng.uniform(-1.0, 1.0, n)


def cmd_probe(rc: RunConfig, sweep: int = 0, free: bool = False) -> int:
    """Probe the discretized operator at each prescribed eigenvalue.

    With --sweep K, additionally reruns the probe for K seeded admissible
    coupling matrices and reports the spread of the eigenvalue estimates
    next to the single-run error floor (the estimates should agree: the
    eigenvalues do not depend on the couplings).
    """
    if sweep < 0:
        raise ConfigError(f"--sweep {sweep} must be non-negative")
    doc = _config_echo(rc)
    doc["note"] = ("truncated-grid probe: locates discrete eigenpairs near "
                   "each shift; the essential spectrum is not visible here")
    if free:
        doc.update(_probe_free(rc))
        _emit(json.dumps(doc, indent=2) + "\n", rc.output_path)
        worst = max(m["abs_error"] for m in doc["free_modes"])
        return 0 if worst <= 1e-10 else 1
    results = probe_embedded(rc.model, rc.grid)
    out = []
    for res in results:
        out.append({
            "j": res.j + 1,
            "shift": res.shift,
            "eigval_estimate": [res.eigval_estimate.real,
                                res.eigval_estimate.imag],
            "abs_error": abs(res.eigval_estimate - res.shift),
            "residual": res.residual,
            "boundary_leak": res.boundary_leak,
            "iterations": res.iterations,
            "start_mode": res.start_mode,
            "correlation_vs_sampled": aligned_correlation(
                res.vector, res.start_vector),
        })
    doc["results"] = out
    if sweep > 0:
        rng = np.random.default_rng(rc.seed)
        couplings = [_sample_couplings(rng, rc.model.n) for _ in range(sweep)]
        estimates: dict = {str(j + 1): [] for j in range(rc.model.n)}
        for k, a in enumerate(couplings, start=1):
            swept = ModelConfig(rc.model.mu, a)
            try:
                for res in probe_embedded(swept, rc.grid):
                    estimates[str(res.j + 1)].append(res.eigval_estimate)
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                raise RuntimeError(
                    f"--sweep coupling {k} of {sweep}: {exc}") from exc
        sweep_doc: dict = {
            "count": sweep,
            "couplings": [[[z.real, z.imag] for z in a] for a in couplings],
            "estimates": {j: [[z.real, z.imag] for z in v]
                          for j, v in estimates.items()},
        }
        for j, vals in estimates.items():
            arr = np.array(vals)
            mean = arr.mean()
            shift = rc.model.mu[int(j) - 1] ** 2
            sweep_doc.setdefault("spread", {})[j] = float(
                np.max(np.abs(arr - mean)))
            sweep_doc.setdefault("error_floor", {})[j] = float(
                np.max(np.abs(arr - shift)))
        doc["sweep"] = sweep_doc
    _emit(json.dumps(doc, indent=2) + "\n", rc.output_path)
    return 0


def cmd_expand(rc: RunConfig, radii: list) -> int:
    """Print the two-term expansion of V against its exact value."""
    if not radii:
        radii = [50.0, 100.0, 200.0]
    for r in radii:
        if not 0.0 < r < math.inf:
            raise ConfigError(
                f"expansion radius {r} must be positive and finite")
    cols = ("r", "V_re", "V_im", "leading", "second_re", "second_im",
            "|remainder|", "|remainder|*r^3", "W")
    ps = sample_grid(rc.model, np.array(radii))
    leading, second = potential_terms(rc.model, ps.radii, ps.w)
    rows = [cols]
    for k, r in enumerate(radii):
        value = ps.V[k]
        rem = abs(value - leading[k] - second[k])
        rows.append((f"{r:g}", f"{value.real:.10e}", f"{value.imag:.10e}",
                     f"{leading[k]:.10e}", f"{second[k].real:.10e}",
                     f"{second[k].imag:.10e}", f"{rem:.10e}",
                     f"{rem * r**3:.10e}", f"{ps.w[k]:.10e}"))
    widths = [max(len(row[c]) for row in rows) for c in range(len(cols))]
    text = "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in rows) + "\n"
    _emit(text, rc.output_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewlab",
        description=("construct half-line potentials with prescribed "
                     "embedded eigenvalues and verify them numerically"),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "build": "sample (V, v, W) on the grid and write CSV",
        "verify": "run the verification suite and report each check",
        "probe": "inverse-iteration probe of the discretized operator",
        "expand": "tabulate the large-r expansion of V at given radii",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name in ("build", "probe"):
            p.add_argument("--grid-override", default=None,
                           metavar="START,END,STEP",
                           help="replace the config grid for this run")
        if name == "probe":
            p.add_argument("--sweep", type=int, default=0, metavar="K",
                           help="rerun with K seeded admissible couplings")
            p.add_argument("--free", action="store_true",
                           help="probe the zero-potential operator instead")
        if name == "expand":
            p.add_argument("radii", nargs="*", type=float,
                           help="radii to tabulate (default 50 100 200)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = load_config(args.config, out=args.out,
                         grid_override=getattr(args, "grid_override", None))
        if args.command == "build":
            return cmd_build(rc)
        if args.command == "verify":
            return cmd_verify(rc)
        if args.command == "probe":
            return cmd_probe(rc, sweep=args.sweep, free=args.free)
        return cmd_expand(rc, list(args.radii))
    except (ConfigError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        # every numerical failure: singular or failed invariants, no
        # convergence, unstable steps, unfittable data
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
