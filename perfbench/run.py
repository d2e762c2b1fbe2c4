"""Benchmark for the ewlab CLI: time, memory and set-up to a checked result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/ewlab. The seed generates
the workload's configs (see workloads.py); ewlab receives only those files.

--trace 0 runs `python -m ewlab.cli ...` with PYTHONPATH=src as one child
process at a time for S seconds (at least MIN_INVOCATIONS of them), taking
the configs in turn, and checks every output (see checks.py). It reports,
as medians over the run:

    cpu_s        CPU seconds (user + system) per invocation, from wait4,
                 at the reference speed (below)
    peak_rss_mb  the child's peak RSS from wait4 (ru_maxrss)
    setup_s      CPU seconds, at the reference speed, of a fresh
                 interpreter that imports ewlab.cli and runs load_config
                 on the config, SETUPS_PER_INVOCATION of them before each
                 invocation

Before each invocation, each set-up is followed by a child that runs
REFERENCE_CODE, a fixed computation that does not use ewlab. Each set-up,
and the invocation, is scaled by REFERENCE_S / (the CPU seconds of the
reference that runs right after the set-up or right before the
invocation): a host that runs the reference 20% slower for a while runs
the CLI about as much slower, and the scaling takes that out.

The run also prints the unscaled medians of wall seconds (spawn to exit),
CPU seconds, set-up and reference CPU seconds, and keeps every sample in
its record. Wall time is no metric: on a shared virtual machine it also
counts the time the host deschedules the virtual CPU.

It reports the failure ratio as `failed` out of `attempted` invocations. A
failure is a nonzero exit, a timeout, a failed check, or output bytes that
differ from the run's first invocation on the same config.

--trace 1 uses the first config only. It checks one untraced child, then
calls ewlab.cli.main in this process: once to warm up, then alternating
untraced and traced calls (see spans.py) until they have taken S seconds.
It reports the per-layer metrics as medians over the traced calls. Every
in-process output must equal the child's bytes.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The run's samples, environment and (with --trace 1) its
spans are written under .perfbench-run/ at the checkout root.
"""

import os

# One BLAS thread for the children and for the in-process calls: probe
# bytes depend on the thread count, so bytes are compared at one count only.
# The pin has to be in place before numpy loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_output  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import CONFIGS_PER_RUN, WORKLOADS, write_configs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"
SETUPS_PER_INVOCATION = 2
MIN_INVOCATIONS = 2 * CONFIGS_PER_RUN  # each config's bytes compared once
RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_CODE = ("import sys; from ewlab.cli import load_config; "
              "load_config(sys.argv[1])")
# A fixed computation that does not touch ewlab: the interpreter start and
# numpy import of a set-up, batched small solves, vector arithmetic, a
# Python loop and number formatting, the kinds of work the CLI does. Its CPU
# time measures how fast the machine runs such work at the moment.
REFERENCE_CODE = """
import numpy as np
a = np.random.default_rng(0).standard_normal((2000, 6, 6))
for _ in range(10):
    np.linalg.solve(a, a)
b = np.linspace(0.0, 100.0, 200001)
for _ in range(10):
    np.sin(b) * np.cos(b)
x = 0.0
for i in range(100000):
    x += (i % 7) * 0.5
",".join(f"{v:.6e}" for v in b[:10000])
"""
# About the reference's median CPU seconds on the baseline machine (see
# README.md). Each set-up and each invocation is scaled by REFERENCE_S / (the
# CPU seconds of the reference next to it).
REFERENCE_S = 0.40
END_TO_END_UNITS = {"cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = "src"
    return env


def spawn(argv: list, timeout: float, stderr_path: Path) -> Child:
    """Run argv from the checkout root; CPU time and peak RSS from wait4."""
    with open(stderr_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-400:]
    return Child(wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode, tail)


def cli_argv(w, config: Path, out: Path) -> list:
    return [sys.executable, "-m", "ewlab.cli", w.command[0], "--config",
            str(config), "--out", str(out), *w.command[1:]]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Judge:
    """Checks each output of one run against its checks and the first bytes
    made from the same config."""

    def __init__(self, w, docs: list) -> None:
        self.w, self.docs = w, docs
        self.references: dict = {}
        self.attempted = 0
        self.problems: list = []

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.problems})

    def judge(self, code: int, out: Path, detail: str = "",
              config: int = 0) -> None:
        index = self.attempted
        self.attempted += 1
        found = []
        if code != 0:
            found.append(f"exit code {code} {detail}".strip())
        elif not out.is_file():
            found.append("no output file")
        elif config not in self.references:
            found = check_output(self.w.command[0], self.docs[config], out)
            self.references[config] = _digest(out)
        elif _digest(out) != self.references[config]:
            found.append(f"output bytes differ from the first output of "
                         f"config {config}")
        out.unlink(missing_ok=True)
        self.problems.extend((index, p) for p in found)


def _setup_argv(config: Path) -> list:
    return [sys.executable, "-c", SETUP_CODE, str(config)]


def timed_run(w, configs: list, judge: Judge, work: Path, seconds: float,
              deadline: float) -> tuple:
    reference_argv = [sys.executable, "-c", REFERENCE_CODE]
    # warm-up: bytecode, page cache
    spawn(_setup_argv(configs[0]), 60.0, work / "stderr")
    spawn(reference_argv, 60.0, work / "stderr")
    setups, references, children = [], [], []
    scaled_setups, scaled_cpu = [], []
    start = time.perf_counter()
    while len(children) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        left = deadline - time.perf_counter()
        longest = max((c.wall for c in children), default=0.0)
        if children and left < 2.0 * longest + 10.0:
            break
        which = len(children) % len(configs)
        config = configs[which]
        # Each set-up is followed by a reference, and the invocation follows
        # the last reference. The CPU time of the same work drifts with the
        # host's load within seconds, so each set-up and the invocation are
        # scaled by the reference next to them. Scaling by the reference
        # two places earlier left most of the spread between runs in place.
        for _ in range(SETUPS_PER_INVOCATION):
            setup = spawn(_setup_argv(config), 60.0, work / "stderr")
            reference = spawn(reference_argv, 60.0, work / "stderr")
            setups.append(setup)
            references.append(reference)
            scaled_setups.append(setup.cpu * REFERENCE_S / reference.cpu)
        out = work / "out"
        child = spawn(cli_argv(w, config, out), max(left - 5.0, 1.0),
                      work / "stderr")
        children.append(child)
        scaled_cpu.append(child.cpu * REFERENCE_S / reference.cpu)
        judge.judge(child.code, out, child.stderr, which)
    raw = {
        "wall_s": statistics.median(c.wall for c in children),
        "cpu_s": statistics.median(c.cpu for c in children),
        "setup_s": statistics.median(s.cpu for s in setups),
        "reference_s": statistics.median(r.cpu for r in references),
    }
    metrics = {
        "cpu_s": statistics.median(scaled_cpu),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        "setup_s": statistics.median(scaled_setups),
    }
    samples = {"raw": raw,
               "invocations": [vars(c) for c in children],
               "setups": [vars(s) for s in setups],
               "references": [vars(r) for r in references]}
    failures = [s.stderr for s in setups + references if s.code != 0]
    return metrics, samples, failures


def _call_main(main, argv: list) -> tuple:
    """Wall time, exit code and error text of one in-process CLI call."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code, error = main(argv), ""
        except Exception:  # the run goes on and counts the call as failed
            code, error = -1, traceback.format_exc()[-400:]
        wall = time.perf_counter() - start
    return wall, code, error


def traced_run(w, config: Path, judge: Judge, work: Path, seconds: float,
               deadline: float) -> tuple:
    out = work / "out"
    child = spawn(cli_argv(w, config, out), max(deadline - time.perf_counter(), 1.0),
                  work / "stderr")
    judge.judge(child.code, out, child.stderr)
    sys.path.insert(0, str(ROOT / "src"))
    from ewlab.cli import main

    argv = cli_argv(w, config, out)[3:]
    # warm-up: the first in-process call pays one-time costs
    _, code, error = _call_main(main, argv)
    judge.judge(code, out, error)
    plain, traced, per_call, runs = [], [], [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        if traced and deadline - time.perf_counter() < 2.5 * (plain[-1] + traced[-1]):
            break
        # alternate which call goes first so neither side always runs colder
        for traced_call in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            tracer = Tracer()
            with tracer if traced_call else contextlib.nullcontext():
                wall, code, error = _call_main(main, argv)
            judge.judge(code, out, error)
            if traced_call:
                traced.append(wall)
                runs.append(tracer.spans)
                per_call.append(layer_metrics(tracer.spans, wall))
            else:
                plain.append(wall)
    metrics = {name: statistics.median(m[name] for m in per_call)
               for name in per_call[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    samples = {"untraced_wall": plain, "traced_wall": traced,
               "per_call": per_call}
    return metrics, samples, runs


def environment(seed: int) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "ewlab" / "cli.py").is_file():
        print(f"error: no ewlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    try:
        written = write_configs(w, args.seed, work)
        configs = [path for path, _ in written]
        docs = [doc for _, doc in written]
        judge = Judge(w, docs)
        if args.trace:
            metrics, samples, runs = traced_run(w, configs[0], judge, work,
                                                args.seconds, deadline)
            units = {name: unit for name, unit, _ in PER_LAYER}
            write_spans(RUN_DIR / f"{w.name}-seed{args.seed}.spans.jsonl", runs)
            setup_failures = []
        else:
            metrics, samples, setup_failures = timed_run(
                w, configs, judge, work, args.seconds, deadline)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"invocation {i}: {p}" for i, p in judge.problems]
    problems += [f"set-up or reference failed: {tail}"
                 for tail in setup_failures]
    for p in problems:
        print(f"FAIL {p}")
    fail_ratio = judge.failed / judge.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in samples["raw"].items():
            print(f"raw {name} {value:.6g} s (median, not scaled)")
    print(f"fail_ratio {fail_ratio:.6g} ({judge.failed}/{judge.attempted})")
    result = {
        "correct": not problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": w.name, "trace": args.trace, "environment": env,
              "configs": docs, "problems": problems, "fail_ratio": fail_ratio,
              "samples": samples, **result}
    (RUN_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
