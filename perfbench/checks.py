"""Correctness checks on CLI outputs, independent of ewlab's code.

Nothing here imports ewlab. Each check reads an output file plus the config
the benchmark generated and returns a list of problems; an empty list means
the output passed.

build: header, row count, radii, finite values, Dirichlet data at r = 0, and
two finite-difference identities computed from the CSV columns alone, both
with 5-point stencils on the interior rows:

  * the eigen-equation residual  -v_j'' + (V - mu_j^2) v_j = 0;
  * the definition of the potential  V = 2 (sum_j sin(mu_j r) v_j)'.

Both defects and the data decay like 1/r, so both are weighted by (1 + r)
and divided by the largest weighted term. The 5-point truncation error is
about (h w)^4 / 30 relative for a highest frequency w = 2 max mu, so the
tolerance (2 h max mu)^4 leaves a margin of about 30.

verify: every check in the report passes.

probe: every estimate, from the single probe and from the sweep, lies within
PROBE_TOL of mu_j^2, and so does the sweep spread.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["PROBE_TOL", "check_build", "check_output", "check_probe",
           "check_verify", "csv_header"]

# Measured |estimate - mu_j^2| is up to about 2e-3 on the probe-sweep grid
# (R = 200, h = 0.01); an estimate off by 1e-2 must fail.
PROBE_TOL = 5e-3


def csv_header(n: int) -> str:
    return "r,V_re,V_im," + ",".join(
        f"v{j}_re,v{j}_im" for j in range(1, n + 1)) + ",W"


def _d1(y: np.ndarray, h: float) -> np.ndarray:
    return (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)


def _d2(y: np.ndarray, h: float) -> np.ndarray:
    return (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1]
            - y[4:]) / (12.0 * h * h)


def check_build(config: dict, path: Path) -> list:
    mu = np.asarray(config["mu"], dtype=float)
    n = mu.size
    start, end, step = (config["grid"][k] for k in ("start", "end", "step"))
    rows = int(round((end - start) / step)) + 1
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != csv_header(n):
            return [f"header {header[:60]!r} is not {csv_header(n)[:60]!r}"]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, 3 + 2 * n + 1):
        return [f"table shape {data.shape}, expected {(rows, 3 + 2 * n + 1)}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite value in the table"]
    problems = []
    r = data[:, 0]
    if np.max(np.abs(r - (start + step * np.arange(rows)))) > 1e-9 * max(1.0, end):
        problems.append("radius column is not the configured grid")
    big_v = data[:, 1] + 1j * data[:, 2]
    v = data[:, 3:3 + 2 * n:2] + 1j * data[:, 4:4 + 2 * n:2]
    if start == 0.0 and (big_v[0] != 0.0 or np.any(v[0] != 0.0)):
        problems.append("V(0) or v(0) is not exactly 0")
    tol = (2.0 * step * float(np.max(mu))) ** 4
    weight = 1.0 + r
    inner = weight[2:-2]
    residual = -_d2(v, step) + (big_v[2:-2, None] - mu**2) * v[2:-2]
    scale = float(np.max(np.abs(mu**2 * v) * weight[:, None]))
    eigen = float(np.max(np.abs(residual) * inner[:, None])) / scale
    if not eigen <= tol:
        problems.append(f"eigen-equation residual {eigen:.3e} > {tol:.3e}")
    f = 2.0 * np.sum(np.sin(np.outer(r, mu)) * v, axis=1)
    defect = np.abs(big_v[2:-2] - _d1(f, step)) * inner
    definition = float(np.max(defect)) / float(np.max(np.abs(big_v) * weight))
    if not definition <= tol:
        problems.append(f"V = 2 (sum s_j v_j)' defect {definition:.3e} > {tol:.3e}")
    return problems


def check_verify(config: dict, path: Path) -> list:
    report = json.loads(Path(path).read_text())
    checks = report.get("checks", {})
    if not checks:
        return ["report has no checks"]
    failed = [name for name, c in checks.items() if c.get("pass") is not True]
    problems = [f"check {name} did not pass" for name in failed]
    if report.get("pass") is not True:
        problems.append("report verdict is not pass")
    return problems


def check_probe(config: dict, path: Path) -> list:
    doc = json.loads(Path(path).read_text())
    shifts = [float(m) ** 2 for m in config["mu"]]
    n = len(shifts)
    results = doc.get("results", [])
    if sorted(res["j"] for res in results) != list(range(1, n + 1)):
        return [f"results do not cover j = 1..{n}"]
    problems = []
    for res in results:
        shift = shifts[res["j"] - 1]
        err = abs(complex(*res["eigval_estimate"]) - shift)
        if not err <= PROBE_TOL:
            problems.append(f"probe j={res['j']}: |estimate - mu^2| = {err:.3e}")
        if not res["abs_error"] <= PROBE_TOL:
            problems.append(f"probe j={res['j']}: abs_error {res['abs_error']:.3e}")
    sweep = doc.get("sweep")
    if sweep is not None:
        for j, values in sweep["estimates"].items():
            est = [complex(*z) for z in values]
            if len(est) != sweep["count"]:
                problems.append(f"sweep j={j}: {len(est)} of {sweep['count']} estimates")
            worst = max((abs(z - shifts[int(j) - 1]) for z in est), default=math.inf)
            if not worst <= PROBE_TOL:
                problems.append(f"sweep j={j}: |estimate - mu^2| = {worst:.3e}")
            if not sweep["spread"][j] <= PROBE_TOL:
                problems.append(f"sweep j={j}: spread {sweep['spread'][j]:.3e}")
    return problems


_CHECKS = {"build": check_build, "verify": check_verify, "probe": check_probe}


def check_output(command: str, config: dict, path: Path) -> list:
    """Problems with the output of `ewlab <command>` on config; [] if none."""
    try:
        return _CHECKS[command](config, path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {command} output: {exc!r}"]
