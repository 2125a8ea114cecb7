"""Benchmark of the randsemigroup command line, end to end and per layer.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload sweep_unconstrained --seed 0 --seconds 20 --trace 0

--trace 0 runs fresh ``python -m randsemigroup.cli`` processes back to back
for --seconds seconds of measured wall time and reports the end-to-end
metrics, their times scaled to a reference machine speed that a fixed
calibration kernel measures between invocations (see ``speed_probe``).
--trace 1 replays the plan's first invocations in this process at one
worker, once untraced and once traced, and reports the per-layer metrics.  Either way every output is checked: a nonzero exit, stderr
output or malformed stdout fails the invocation, the first invocation of
two pinned seeds must print exactly the pinned bytes, and a seed-keyed
sample of trials is recomputed by an independent oracle.  The last line of
stdout is one JSON object; a readable table goes to stderr.  Metric names
and units come from BENCHMARK.json; the layer-to-end-to-end predictions are
in perfbench/predictions.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import spot_check
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Plan, check_stdout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PINNED_SEEDS = (0, 104729)  # the default seed and one hold-out seed
SETUP_PROBES = 9
SPEED_PROBES = 16
# CPU seconds one calibration kernel takes on the reference machine: about
# its mean on the shared 2-core x86-64 container of the README's baseline
REFERENCE_KERNEL_S = 0.010
BUDGET_S = 170.0  # every run ends within 180 s, a slow program included

SETUP_PROBE = (
    "import sys; from randsemigroup import cli; "
    "cli.build_parser().parse_args(sys.argv[1:])"
)

_started = time.perf_counter()


def _time_left() -> float:
    return BUDGET_S - (time.perf_counter() - _started)


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], workers: int) -> Invocation:
    """One fresh CLI process; CPU time and peak RSS include its pool children."""
    env = dict(os.environ, PYTHONPATH=str(SRC), RANDSEMIGROUP_WORKERS=str(workers))
    cmd = [sys.executable, "-m", "randsemigroup.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    watchdog = threading.Timer(max(_time_left(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()  # EOF once the CLI and its pool workers have exited
    reader.join()
    watchdog.cancel()
    # wait4 reports this child alone, its reaped pool workers included
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Invocation(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      proc.returncode, out.decode(), err[0].decode())


def setup_seconds(argv: list[str]) -> float:
    """Median wall time of a fresh interpreter importing the CLI and parsing argv."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_PROBE, *argv]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=max(_time_left(), 1.0))
        if probe:  # the first probe only fills the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _kernel() -> int:
    """Fixed work in the package's own idiom: integer loops, big-integer
    bit shifts on q = 10007 bits and a heap walk.  It calls no package
    code, so no change to the package can move it."""
    acc = 0
    for i in range(25000):
        acc += i * i % 7
    q = 10007
    full = (1 << q) - 1
    x = full - 12345
    for shift in range(1, 120):
        acc ^= ((x << shift) | (x >> (q - shift))) & full
    heap: list[int] = []
    for i in range(8000):
        heapq.heappush(heap, i * 7919 % q)
    while heap:
        acc += heapq.heappop(heap)
    return acc


def speed_probe(cpus: list[int]) -> list[float]:
    """CPU seconds of SPEED_PROBES back-to-back calibration kernels, shared
    out over ``cpus``, the CPUs the CLI runs on.

    Each of the container's CPUs runs, largely independently of the other,
    in a fast and a slow state (the kernel takes up to 1.5 times as long in
    the slow one), and the share of slow time drifts from second to second
    and over minutes.  The CLI's CPU and wall times move with that share.
    Kernel times probed between the invocations of a run, on the CPUs the
    invocations run on, estimate the share, so the run's times can be
    scaled to the reference speed.  Returns with this process on ``cpus``.
    """
    times = []
    for cpu in cpus:
        _pin({cpu})
        for _ in range(SPEED_PROBES // len(cpus)):
            start = time.process_time()
            _kernel()
            times.append(time.process_time() - start)
    _pin(set(cpus))
    return times


def _pin(cpus: set[int]) -> None:
    """Restrict this process, and the processes it starts, to ``cpus``."""
    os.sched_setaffinity(0, cpus)


class Checker:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.problems: list[str] = []

    def invocation(self, inv: Invocation) -> bool:
        self.attempted += 1
        reason = None
        if inv.returncode != 0:
            reason = f"exit code {inv.returncode}"
        elif inv.stderr:
            reason = f"stderr output: {inv.stderr.strip()[:200]}"
        else:
            reason = check_stdout(self.workload, inv.argv, inv.stdout)
        if reason:
            self.problems.append(f"{' '.join(inv.argv)}: {reason}")
        return reason is None

    def same(self, what: str, got: str, want: str) -> None:
        self.attempted += 1
        if got != want:
            self.problems.append(f"{what}: output differs")

    def pinned(self) -> None:
        pins = json.loads((HERE / "pinned.json").read_text())[self.workload.name]
        for seed in PINNED_SEEDS:
            inv = run_cli(Plan(self.workload, seed).argv(0), self.workload.workers)
            if self.invocation(inv):
                self.same(f"pinned output of seed {seed}",
                          hashlib.sha256(inv.stdout.encode()).hexdigest(), pins[str(seed)])

    def oracle(self, plan: Plan) -> None:
        attempted, problems = spot_check(plan)
        self.attempted += attempted
        self.problems += problems


def end_to_end(plan: Plan, seconds: float, checker: Checker) -> dict[str, float]:
    """Invocations back to back until their wall times add up to ``seconds``.

    A one-worker workload runs on one CPU, so that the probes see the CPU
    the CLI saw.  Each invocation's wall and CPU times are scaled by the
    reference kernel time over the mean kernel time of the probes just
    before and just after it; the times reported are the interquartile
    means (the mean of the middle half) of these scaled times.  The
    unscaled interquartile means are returned too, under ``raw.`` names.
    """
    w = plan.workload
    setup = setup_seconds(w.argv(plan.cli_seed(0)))
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:1] if w.workers == 1 else allowed
    runs: list[Invocation] = []
    try:
        probes = [statistics.fmean(speed_probe(cpus))]
        while sum(inv.wall_s for inv in runs) < seconds and _time_left() > 0:
            inv = run_cli(plan.argv(len(runs)), w.workers)
            probes.append(statistics.fmean(speed_probe(cpus)))
            checker.invocation(inv)
            runs.append(inv)
    finally:
        _pin(set(allowed))
    scale = [2 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(probes, probes[1:])]
    wall = [inv.wall_s for inv in runs]
    cpu = [inv.cpu_s for inv in runs]
    return {
        "trials_per_s": w.trials / _iq_mean([t * f for t, f in zip(wall, scale)]),
        "cpu_ms_per_trial": 1000 * _iq_mean([t * f for t, f in zip(cpu, scale)]) / w.trials,
        "setup_s": setup,
        "peak_rss_mb": max(inv.maxrss_kb for inv in runs) / 1024,
        "raw.trials_per_s": w.trials / _iq_mean(wall),
        "raw.cpu_ms_per_trial": 1000 * _iq_mean(cpu) / w.trials,
        "raw.speed_scale": statistics.fmean(scale),
        "raw.invocations": len(runs),
    }


def _iq_mean(values: list[float]) -> float:
    """Mean of the middle half: a quarter of the values dropped at each end."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _in_process(argvs: list[list[str]]) -> tuple[float, str]:
    """Run the CLI in this process at one worker; (wall s, stdout)."""
    from randsemigroup import cli, harness

    # start cold, as a fresh process does: the prime window is cached per process
    clear = getattr(getattr(harness, "_prime_window", None), "cache_clear", None)
    if clear:
        clear()
    buffer = io.StringIO()
    previous = os.environ.get("RANDSEMIGROUP_WORKERS")
    os.environ["RANDSEMIGROUP_WORKERS"] = "1"
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            codes = [cli.main(argv) for argv in argvs]
        wall = time.perf_counter() - start
    finally:
        if previous is None:
            del os.environ["RANDSEMIGROUP_WORKERS"]
        else:
            os.environ["RANDSEMIGROUP_WORKERS"] = previous
    if any(codes):
        raise RuntimeError(f"in-process CLI exit codes {codes}")
    return wall, buffer.getvalue()


def traced_run(argvs: list[list[str]]) -> tuple[dict[str, float], str, Tracer]:
    """One traced in-process run; the metrics include its wall as trace.wall_s."""
    tracer = Tracer()
    tracer.install()
    try:
        wall, text = _in_process(argvs)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.wall_s"] = wall
    return metrics, text, tracer


def per_layer(plan: Plan, checker: Checker) -> dict[str, float]:
    w = plan.workload
    argvs = [plan.argv(i) for i in range(w.trace_invocations)]
    # untraced runs on both sides of the traced one, so warm-up is not overhead
    before, serial_text = _in_process(argvs)
    metrics, traced_text, tracer = traced_run(argvs)
    after, _ = _in_process(argvs)
    serial_wall = (before + after) / 2
    checker.same("traced run against untraced run", traced_text, serial_text)
    configured = [run_cli(argv, w.workers) for argv in argvs]
    for inv in configured:
        checker.invocation(inv)
    checker.same(f"{w.workers}-worker run against in-process run",
                 "".join(inv.stdout for inv in configured), serial_text)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{w.name}-seed{plan.seed}.json")
    metrics["trace.overhead_s"] = metrics.pop("trace.wall_s") - serial_wall
    metrics["harness.parallel_efficiency"] = serial_wall / (
        w.workers * sum(inv.wall_s for inv in configured))
    return metrics


def _load_package() -> None:
    """Refuse to run without the package source beside the benchmark."""
    if not (SRC / "randsemigroup" / "cli.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import randsemigroup

    if Path(randsemigroup.__file__).resolve().parent != SRC / "randsemigroup":
        sys.exit(f"perfbench: imported randsemigroup from {randsemigroup.__file__}, not {SRC}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _load_package()
    plan = Plan(WORKLOADS[args.workload], args.seed)
    checker = Checker(plan.workload)
    checker.pinned()  # also the warm-up: bytecode, page cache, host caches
    if args.trace:
        values = per_layer(plan, checker)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plan, args.seconds, checker)
        wanted = spec["end_to_end"]
    checker.oracle(plan)

    failed = len(checker.problems)
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']:36} {values[m['name']]:>16.6g} {m['unit']}", file=sys.stderr)
    for name in sorted(k for k in values if k.startswith("raw.")):
        print(f"{name:36} {values[name]:>16.6g}", file=sys.stderr)
    print(f"{'failed_share':36} {failed / checker.attempted:>16.6g} "
          f"({failed} of {checker.attempted} operations)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
