"""Compare every CLI output of this checkout with another checkout's.

    python3 tools/compare_outputs.py PARENT_CHECKOUT

Runs `build`, `verify`, `probe` (single, `--sweep 5` and `--free`) and
`expand` (default radii, `1 7.5 300` and 1,100 radii from 0.5 to 550) on
`configs/*.json`, on the seed-3 and seed-101 configs of every perfbench
workload and on the EDGES below, in both checkouts, on each of three AXES:
OPENBLAS_NUM_THREADS at 1, at 2, and at 1 with numpy's run-time CPU
dispatch held to its baseline kernels (NPY_DISABLE_CPU_FEATURES, set in
the child only; ROADMAP item 8). Each run is `python -m ewlab.cli ...
--out FILE` with PYTHONPATH set to the checkout's src/. It prints every
difference in stdout, stderr, exit code or the bytes of FILE, then for
each axis the number of runs that differ and, for each command, the
fields or columns that differ, then one summary line, and exits 1 if
anything differed.
Where both FILEs parse as JSON, a difference in their bytes is printed as
the dotted key paths whose values differ, each with the largest relative
change of its numeric leaves (`sweep.estimates (rel 4.6e-13)`, say);
where both are CSV of the same shape, as the columns that differ, each
with the number of rows in which it does.

Both checkouts read the same config files, written once from this
checkout's perfbench/workloads.py. Needs only the standard library and
numpy (for workloads.py).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

from workloads import WORKLOADS, write_configs  # noqa: E402

SEEDS = (3, 101)
# (name, environment of the child): BLAS threads, and numpy's dispatch held
# to the kernels it builds without AVX2 or AVX-512
AXES = (
    ("threads=1", {"OPENBLAS_NUM_THREADS": "1"}),
    ("threads=2", {"OPENBLAS_NUM_THREADS": "2"}),
    ("dispatch=baseline", {"OPENBLAS_NUM_THREADS": "1",
                           "NPY_DISABLE_CPU_FEATURES":
                               "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}),
)
COMMANDS = (
    ("build",),
    ("verify",),
    ("probe",),
    ("probe", "--sweep", "5"),
    ("probe", "--free"),
    ("expand",),
    ("expand", "1", "7.5", "300"),
    # 1,100 radii: three 512-radius blocks at n = 24, so two boundaries
    ("expand", *(f"{k / 2:g}" for k in range(1, 1101))),
)
WORKERS = 2  # two runs at a time: each is one process of modest size

# Configs whose verify fails or whose systems are ill-conditioned, so that
# failing verdicts and exit 1 are compared too, a real n = 12 config,
# whose RK4 windows (1,365 steps, 5,461 quarter-step radii) are each
# sampled in several blocks of 546 radii, a complex high-frequency probe
# on 19,999 interior nodes, where the 49-row tridiagonal blocks pivot in
# some rows and not in others
# and numpy multiplies a 16,384-entry or longer temporary in place (the
# other edges have 4,999), a complex n = 5 config, whose rows numpy
# sums pairwise with a remainder (n = 12 is the real side of that
# threshold, n <= 3 the in-order side), and a complex probe on 24 interior
# nodes, too few for any block split, so the tridiagonal LU is one block
# of every row: (name, mu, a, grid end).
EDGES = (
    ("low-frequency", [1e-3], [1.0], 50.0),
    ("near-gap", [1.0000001, 1.0], [1.0, 1.0], 50.0),
    ("tiny-coupling", [2.0, 1.0], [1e-12, 1.0], 50.0),
    ("high-frequency", [40.0, 1.0], [1.0, 1.0], 50.0),
    ("imaginary", [2.0, 1.0], [[0.0, 1.0], [0.0, 2.0]], 50.0),
    ("real-n12", np.linspace(3.0, 0.5, 12).tolist(), [1.0] * 12, 50.0),
    ("high-frequency-long", [40.0, 1.0], [[0.7, -0.9], [2.0, 0.4]], 200.0),
    ("complex-n5", np.linspace(3.0, 1.0, 5).tolist(), [[1.0, 0.5]] * 5,
     50.0),
    ("one-block-probe", [2.0, 1.0], [[1.0, 0.5], [2.0, -0.3]], 0.25),
)


def configs(directory: Path) -> list:
    paths = sorted((HERE / "configs").glob("*.json"))
    for seed in SEEDS:
        for w in WORKLOADS.values():
            sub = directory / f"seed{seed}"
            sub.mkdir(exist_ok=True)
            paths += [path for path, _ in write_configs(w, seed, sub)]
    sub = directory / "edges"
    sub.mkdir()
    for name, mu, a, end in EDGES:
        path = sub / f"{name}.json"
        path.write_text(json.dumps({"mu": mu, "a": a, "grid": {
            "start": 0.0, "end": end, "step": 0.01}, "seed": 0}))
        paths.append(path)
    return paths


def run(checkout: Path, command: tuple, config: Path, axis: dict,
        out: Path) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None) of one CLI run."""
    threads = axis["OPENBLAS_NUM_THREADS"]
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, **axis)
    argv = [sys.executable, "-m", "ewlab.cli", command[0], "--config",
            str(config), "--out", str(out), *command[1:]]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          timeout=900)
    data = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, data


def changed_fields(old, new, path: tuple = ()) -> list:
    """(dotted key path, old value, new value) where two parsed JSON
    documents differ.

    Objects are compared key by key, and so are lists of objects of the same
    length, by index; any other value (a list of numbers, say) is one
    field, compared by its JSON text, so that NaN equals NaN.
    """
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)
            and all(isinstance(x, dict) for x in old + new)):
        old, new = dict(enumerate(old)), dict(enumerate(new))
    if not (isinstance(old, dict) and isinstance(new, dict)):
        differ = json.dumps(old) != json.dumps(new)
        return [(".".join(path) or "(document)", old, new)] if differ else []
    fields = []
    for key in {**old, **new}:
        if key in old and key in new:
            fields += changed_fields(old[key], new[key], (*path, str(key)))
        else:
            fields.append((".".join((*path, str(key))), old.get(key),
                           new.get(key)))
    return fields


def numbers(value) -> list:
    """The numeric leaves of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return [value] if is_number else []


def relative_change(old, new) -> str:
    """The largest |new - old| / |old| over the paired numeric leaves of two
    values: inf where a zero or non-finite leaf changed, "n/a" where the
    leaves do not pair up (a key or a list entry added, a string changed)."""
    a, b = numbers(old), numbers(new)
    if not a or len(a) != len(b):
        return "n/a"
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        finite = x != 0 and math.isfinite(x) and math.isfinite(y)
        worst = max(worst, abs(y - x) / abs(x) if finite else math.inf)
    return f"{worst:.2g}"


def changed_columns(old: bytes, new: bytes) -> list:
    """(column name, rows that differ) where two CSV texts of the same shape
    and at least two columns differ; [] where they are not such texts."""
    old_rows = [line.split(b",") for line in old.splitlines()]
    new_rows = [line.split(b",") for line in new.splitlines()]
    if (len(old_rows) < 2 or len(old_rows[0]) < 2
            or len(old_rows) != len(new_rows)
            or old_rows[0] != new_rows[0]
            or len({len(row) for row in old_rows + new_rows}) != 1):
        return []
    header = old_rows[0]
    counts = [sum(a[c] != b[c] for a, b in zip(old_rows[1:], new_rows[1:]))
              for c in range(len(header))]
    return [(header[c].decode(), count) for c, count in enumerate(counts)
            if count]


def differing_fields(name: str, old, new) -> tuple:
    """Where one output differs: ("fields", [(key path, largest relative
    change)]) for changed JSON, ("columns", [(column, changed rows)]) for
    changed CSV of the same shape, else ("", [(name, both values)])."""
    if name == "--out bytes" and old is not None and new is not None:
        try:
            fields = changed_fields(json.loads(old), json.loads(new))
        except ValueError:  # CSV or text
            columns = changed_columns(old, new)
            if columns:
                return "columns", [(column, f"{count} rows")
                                   for column, count in columns]
        else:
            if fields:  # none when only the formatting differs
                return "fields", [(path, f"rel {relative_change(a, b)}")
                                  for path, a, b in fields]
    return "", [(name, f"{old!r:.200} -> {new!r:.200}")]


def describe(name: str, old, new) -> str:
    """One difference: the changed JSON fields or CSV columns of --out, each
    with its largest relative change or its count of changed rows, else
    both values."""
    kind, fields = differing_fields(name, old, new)
    if not kind:
        return f"{name}: {fields[0][1]}"
    return f"--out {kind}: " + ", ".join(
        f"{field} ({detail})" for field, detail in fields)


def label(command: tuple) -> str:
    """A command's words, or its subcommand and count of radii when long."""
    if len(command) > 4:
        return f"{command[0]} ({len(command) - 1} radii)"
    return " ".join(command)


def compare(job: tuple) -> tuple:
    """(axis name, command label, differing field names, DIFF lines) of one
    job."""
    parent, command, config, (axis, env), scratch = job
    tag = f"{label(command)} {config.parent.name}/{config.name} {axis}"
    key = f"{COMMANDS.index(command)}-{config.parent.name}-{config.stem}-" \
          f"{axis.replace('=', '-')}"
    results = [run(root, command, config, env, scratch / f"{key}-{side}")
               for side, root in (("parent", parent), ("change", HERE))]
    names = ("exit code", "stdout", "stderr", "--out bytes")
    differ = [(name, old, new) for name, old, new in zip(names, *results)
              if old != new]
    fields = sorted({field for item in differ
                     for field, _ in differing_fields(*item)[1]})
    return (axis, label(command), fields,
            [f"DIFF {tag}: {describe(*item)}" for item in differ])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "ewlab").is_dir():
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        scratch = Path(tmp)
        jobs = [(parent, command, config, axis, scratch)
                for config in configs(scratch)
                for command in COMMANDS for axis in AXES]
        differ = {name: 0 for name, _ in AXES}
        where: dict = {name: {} for name, _ in AXES}
        with ThreadPoolExecutor(WORKERS) as pool:
            for axis, command, fields, lines in pool.map(compare, jobs):
                differ[axis] += bool(lines)
                where[axis].setdefault(command, set()).update(fields)
                for line in lines:
                    print(line, flush=True)
    for name, _ in AXES:
        print(f"{name}: {len(jobs) // len(AXES)} runs, {differ[name]} differ")
        for command, fields in sorted(where[name].items()):
            if fields:
                print(f"  {command}: {', '.join(sorted(fields))}")
    total = sum(differ.values())
    print(f"{len(jobs)} runs compared, {total} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
