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
draws from Python's random.Random(seed) only, file writes are atomic (temp
file + rename, with the mode the umask gives a new file), and repeated runs
produce byte-identical bytes. Exit codes: 0 all checks pass, 1 a check,
probe or numerical step failed or the output could not be written, 2
invalid input (ConfigError, GridError).

A command imports the modules it runs when it runs, after its own checks:
load_config and the input errors it reports need only ewlab.kernel, and
no command loads numpy.random.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from ewlab import __version__
from ewlab.kernel import ConfigError, GridError, GridSpec, ModelConfig

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
    # checked before any work, so a bad --out never fails at the end; a path
    # with no file name ('' or 'dir/') names a directory
    if out is not None and (os.path.isdir(out) or not os.path.basename(out)):
        raise ConfigError(f"--out {out}: is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
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


def _split(a: np.ndarray) -> tuple:
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


# 10^k for k <= 22 is a double (5^22 < 2^53); built from Python ints, so
# that no numpy kernel rounds them
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_DIGITS = 17
_MARK = 1  # a byte that no formatted value contains
# values formatted at a time: _format_rows holds about 200 bytes a value,
# so 1.6 MB here (8,192 and 16,384 ran fastest in-process on build-wide's
# tables, 4,096 and 32,768 about 10% slower)
_SLICE_VALUES = 8192


def _two_product(a: np.ndarray, k: np.ndarray) -> tuple:
    """(hi, lo) with hi = fl(a 10^k) and hi + lo = a 10^k exactly (Dekker)."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decimal(ax: np.ndarray) -> tuple:
    """(q, e) for each ax in (1e-6, 1e17): ax rounded half to even to 17
    significant digits is q 10^(e - 16), with q in [10^16, 10^17).

    np.log10 only guesses e: e moves until |x| 10^(16-e), formed exactly as
    hi + lo, lies in [10^16, 10^17), so q does not depend on its last bits.
    """
    k = 16 - np.clip(np.floor(np.log10(ax)), -6, 16).astype(np.intp)
    hi, lo = _two_product(ax, k)
    while True:
        up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        off = np.flatnonzero(up | down)
        if not off.size:
            break
        k[off] += down[off].astype(np.intp) - up[off]
        hi[off], lo[off] = _two_product(ax[off], k[off])
    # hi >= 2^53 is an even integer, so rint's ties to even are q's
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    e = 16 - k
    carry = q == 10**_DIGITS
    q[carry] = 10**(_DIGITS - 1)
    e[carry] += 1
    return q, e


def _format_rows(table: np.ndarray) -> str:
    """The rows of a 2-D float table as CSV text: each value exactly as
    '%.17g' % x gives it, ',' between values and '\\n' after each row.

    x = 0 and 1e-6 < |x| < 1e17 take _decimal's digits in %g's layout
    (fixed from e = -4 to 16, else d.ddde-0X; trailing zeros and a bare
    point dropped). Every other value (nan, inf, tiny or huge) takes
    '%.17g' itself.
    """
    x = table.ravel()
    m, count = table.shape[1], x.size
    ax = np.abs(x)
    zero = ax == 0.0
    fast = zero | ((ax > 1e-6) & (ax < 1e17))
    q, e = _decimal(np.where(fast & ~zero, ax, 1.0))
    q[zero] = 0
    e[zero] = 0
    # the 17 digits, most significant first, by int32 division in 3 parts
    top = q // 10**12
    rest = q - top * 10**12
    mid = rest // 10**6
    parts = (top.astype(np.int32), mid.astype(np.int32),
             (rest - mid * 10**6).astype(np.int32))
    # rows 1 to 17 of pad hold the digits and rows 0 and 18 stay empty, so
    # that pad[:-1] is the digits one slot later, behind a point
    pad = np.zeros((_DIGITS + 2, count), np.uint8)
    row = _DIGITS + 1
    for part, width in zip(parts[::-1], (6, 6, 5)):
        for _ in range(width):
            row -= 1
            tens = part // 10
            pad[row] = part - tens * 10
            part = tens
    # the digits up to the last nonzero one; 0 for x = 0
    rank = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]
    significant = (rank * (pad[1:-1] != 0)).max(axis=0)
    pad[1:-1] += ord("0")
    sci = e < -4
    # digits before the point: e + 1 in fixed notation, 1 in scientific,
    # none below 1 (there the point sits ahead of the digits, at slot 2)
    whole = np.where(sci, 1, np.maximum(e + 1, 0)).astype(np.uint8)
    # the point's slot among the digits (255: none there), and the count
    # of those slots that stay: the point and every digit before it or up
    # to the last nonzero one
    shown = (whole > 0) & (significant > whole)
    point = np.where(shown, whole, 255).astype(np.uint8)
    used = np.maximum(significant, whole) + shown
    # 29 slots a value, 0 where empty: sign, "0." and up to three zeros
    # below 1, 17 digits with a point among them, e-0X, separator
    slots = np.zeros((29, count), np.uint8)
    slots[0] = np.where(np.signbit(x), ord("-"), 0)
    below = ~sci & (e < 0)
    slots[1] = np.where(below, ord("0"), 0)
    slots[2] = np.where(below, ord("."), 0)
    for j in range(3):  # e = -2, -3, -4 put 1, 2, 3 zeros after the point
        slots[3 + j] = np.where(below & (e < -1 - j), ord("0"), 0)
    at = np.arange(_DIGITS + 1, dtype=np.uint8)[:, None]
    area = slots[6:24]
    area[...] = pad[1:]
    np.copyto(area, pad[:-1], where=at > point)
    area *= at < used
    np.copyto(area, ord("."), where=at == point)
    slots[24] = np.where(sci, ord("e"), 0)
    slots[25] = np.where(sci, ord("-"), 0)
    slots[26] = np.where(sci, ord("0"), 0)
    slots[27] = np.where(sci, ord("0") - e, 0)
    slow = np.flatnonzero(~fast)
    slots[:28, slow] = 0
    slots[0, slow] = _MARK
    slots[28] = ord(",")
    slots[28, m - 1::m] = ord("\n")
    text = slots.T.tobytes().translate(None, b"\0").decode("ascii")
    if not slow.size:
        return text
    pieces = text.split(chr(_MARK))
    others = ["%.17g" % v for v in x[slow].tolist()]
    return pieces[0] + "".join(f + p for f, p in zip(others, pieces[1:]))


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

    Columns: r, V_re, V_im, then (vj_re, vj_im) for j = 1..n, then W; each
    float as '%.17g' writes it, so the file round-trips doubles exactly.
    Rows are formatted and written one block of construct.sample_blocks at
    a time, into the atomic temp file with --out, so neither the sample nor
    the text exists in full (on stdout, a failing block follows the rows
    printed before it). _format_rows writes the text with numpy, in slices
    of _SLICE_VALUES values.
    """
    rc.model.check_radius(rc.grid.r_end)
    from ewlab.construct import sample_blocks
    n = rc.model.n
    header = "r,V_re,V_im," + ",".join(
        f"v{j}_re,v{j}_im" for j in range(1, n + 1)) + ",W\n"
    rows = max(1, _SLICE_VALUES // (2 * n + 4))
    out = rc.output_path
    with (contextlib.nullcontext(sys.stdout) if out is None
          else _atomic_file(out)) as fh:
        fh.write(header)
        for _, r, v, _, big_v, w in sample_blocks(rc.model, rc.grid):
            # view(float) interleaves (re, im) but needs a C-ordered complex
            # copy of the strided, possibly real v; + 0.0 folds -0.0 into 0
            table = np.column_stack([r, big_v.real, big_v.imag,
                                     v.astype(complex, order="C").view(float),
                                     w]) + 0.0
            for start in range(0, len(table), rows):
                fh.write(_format_rows(table[start:start + rows]))
    return 0


def cmd_verify(rc: RunConfig) -> int:
    """Run the invariant suite; print one line per check, report as JSON."""
    from ewlab.verify import run_verification
    report = run_verification(rc.model, seed=rc.seed)
    for line in report.lines():
        print(line)
    if rc.output_path is not None:
        _write_atomic(rc.output_path, report.to_json())
    return 0 if report.passed else 1


def _probe_free(rc: RunConfig) -> dict:
    if rc.grid.count < 5:  # the 3 modes probed need 3 interior nodes
        raise GridError(f"--free needs at least 3 interior grid nodes; this "
                        f"one has {rc.grid.count - 2}")
    from ewlab.spectral_probe import (build_hamiltonian,
                                      free_laplacian_eigenvalue,
                                      inverse_iteration, seeded_start)
    t = build_hamiltonian(rc.grid, np.zeros(rc.grid.count - 2))
    start = seeded_start(t.size, rc.seed)  # one draw serves every mode
    modes = []
    for k in (1, 2, 3):
        analytic = free_laplacian_eigenvalue(rc.grid, k)
        res = inverse_iteration(t, analytic + 1e-6 * max(analytic, 1e-3),
                                start=start)
        modes.append({
            "k": k,
            "analytic": analytic,
            "estimate": [res.eigval_estimate.real, res.eigval_estimate.imag],
            "abs_error": abs(res.eigval_estimate - analytic),
            "iterations": res.iterations,
        })
    return {"free_modes": modes}


def cmd_probe(rc: RunConfig, sweep: int = 0, free: bool = False) -> int:
    """Probe the discretized operator at each prescribed eigenvalue.

    Result j (from 1) is the probe at mu_j^2, started from the sampled
    eigenfunction v_j; --free starts its three modes from one seeded draw.
    With --sweep K, additionally reruns the probe for K admissible coupling
    matrices drawn from random.Random(seed) and reports the spread of the
    eigenvalue estimates next to the single-run error floor (the estimates
    should agree: the eigenvalues do not depend on the couplings).
    """
    if sweep < 0:
        raise ConfigError(f"--sweep {sweep} must be non-negative")
    if free and sweep:
        raise ConfigError(f"--free excludes --sweep {sweep}")
    doc = _config_echo(rc)
    doc["note"] = ("truncated-grid probe: locates discrete eigenpairs near "
                   "each shift; the essential spectrum is not visible here")
    if free:  # the free operator does not depend on mu
        doc.update(_probe_free(rc))
        _emit(json.dumps(doc, indent=2) + "\n", rc.output_path)
        worst = max(m["abs_error"] for m in doc["free_modes"])
        return 0 if worst <= 1e-10 else 1
    rc.model.check_radius(rc.grid.r_end)
    from ewlab.spectral_probe import aligned_correlation, probe_embedded
    doc["results"] = [{
        "j": j,
        "shift": res.shift,
        "eigval_estimate": [res.eigval_estimate.real,
                            res.eigval_estimate.imag],
        "abs_error": abs(res.eigval_estimate - res.shift),
        "residual": res.residual,
        "boundary_leak": leak,
        "iterations": res.iterations,
        "start_mode": "sampled eigenfunction",
        "correlation_vs_sampled": aligned_correlation(
            res.vector, res.start_vector),
    } for j, (res, leak) in enumerate(probe_embedded(rc.model, rc.grid),
                                      start=1)]
    if sweep > 0:
        rng, n = random.Random(rc.seed), rc.model.n
        # admissible by construction: Re in [0.5, 2.5], Im in [-1, 1]
        couplings = [[complex(rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0))
                      for _ in range(n)] for _ in range(sweep)]
        estimates: dict = {str(j + 1): [] for j in range(n)}
        for k, a in enumerate(couplings, start=1):
            swept = ModelConfig(rc.model.mu, a)
            try:
                for j, (res, _) in enumerate(probe_embedded(swept, rc.grid),
                                             start=1):
                    estimates[str(j)].append(res.eigval_estimate)
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                raise RuntimeError(
                    f"--sweep coupling {k} of {sweep}: {exc}") from exc
        sweep_doc: dict = {
            "count": sweep,
            "couplings": [[[z.real, z.imag] for z in a] for a in couplings],
            "estimates": {j: [[z.real, z.imag] for z in v]
                          for j, v in estimates.items()},
        }
        arrays = {j: np.array(vals) for j, vals in estimates.items()}
        sweep_doc["spread"] = {j: float(np.max(np.abs(x - x.mean())))
                               for j, x in arrays.items()}
        sweep_doc["error_floor"] = {
            j: float(np.max(np.abs(x - rc.model.mu[int(j) - 1] ** 2)))
            for j, x in arrays.items()}
        doc["sweep"] = sweep_doc
    _emit(json.dumps(doc, indent=2) + "\n", rc.output_path)
    return 0


def cmd_expand(rc: RunConfig, radii: list) -> int:
    """Print the two-term expansion of V against its exact value."""
    if not radii:
        radii = [50.0, 100.0, 200.0]
    for r in radii:
        try:  # the table's r^3 and V's second term 8 / r^2 are floats too
            fits = 0.0 < r and math.isfinite(r**3 + 8.0 / r**2)
        except (OverflowError, ZeroDivisionError):
            fits = False
        if not fits:
            raise ConfigError(f"expansion radius {r} must be positive and "
                              f"finite, as must r^3 and 8/r^2")
    rc.model.check_radius(max(radii))
    from ewlab.construct import potential_terms, sample_blocks
    cols = ("r", "V_re", "V_im", "leading", "second_re", "second_im",
            "|remainder|", "|remainder|*r^3", "W")
    rows = [cols]
    for block, r_block, _, _, big_v, w in sample_blocks(rc.model, radii):
        terms = potential_terms(rc.model, r_block, w)
        for r, value, lead, sec, w_r in zip(radii[block], big_v, *terms, w):
            rem = abs(value - lead - sec)
            rows.append((f"{r:g}", *(f"{x:.10e}" for x in (
                value.real, value.imag, lead, sec.real, sec.imag, rem,
                rem * r**3, w_r))))
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
            code = cmd_build(rc)
        elif args.command == "verify":
            code = cmd_verify(rc)
        elif args.command == "probe":
            code = cmd_probe(rc, sweep=args.sweep, free=args.free)
        else:
            code = cmd_expand(rc, list(args.radii))
        sys.stdout.flush()  # a failed write to stdout raises here, not at exit
        return code
    except (ConfigError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError, RuntimeError, ValueError) as exc:
        # numerical failures (singular or failed invariants, no convergence,
        # unstable steps, unfittable data) and output that cannot be written
        if isinstance(exc, BrokenPipeError):  # so the exit flush is silent
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
