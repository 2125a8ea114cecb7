"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py          # check the benchmark against the program
    python3 perfbench/selftest.py --pin    # print pinned.json for the current program

It checks that the computed counts of two traced runs repeat exactly, that
the oracle rejects wrong invariants, that the pinned outputs still match,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import run
from run import PINNED_SEEDS, Checker, run_cli, traced_run
from workloads import WORKLOADS, Plan


def pins() -> dict:
    return {
        name: {str(seed): hashlib.sha256(
            run_cli(Plan(w, seed).argv(0), w.workers).stdout.encode()).hexdigest()
            for seed in PINNED_SEEDS}
        for name, w in WORKLOADS.items()
    }


def main() -> int:
    run._load_package()
    if sys.argv[1:] == ["--pin"]:
        print(json.dumps(pins(), indent=2))
        return 0
    from oracle import brute_invariants_match
    from randsemigroup.semigroup import normalize_generators
    from tracing import COUNT_METRICS

    failures = []
    gens = normalize_generators([6, 9, 20])
    if not brute_invariants_match(gens, 43, 22) or brute_invariants_match(gens, 37, 22) \
            or brute_invariants_match(gens, 43, 21):
        failures.append("brute oracle does not tell right invariants from wrong ones")

    for name, w in WORKLOADS.items():
        plan = Plan(w, 3)
        argvs = [plan.argv(i) for i in range(w.trace_invocations)]
        first, text_a, _ = traced_run(argvs)
        second, text_b, _ = traced_run(argvs)
        changed = [m for m in COUNT_METRICS if first[m] != second[m]]
        if changed or text_a != text_b:
            failures.append(f"{name}: traced runs differ in {changed or 'stdout'}")
        checker = Checker(w)
        checker.pinned()
        failures += [f"{name}: {p}" for p in checker.problems]
        print(f"{name}: counts {dict((m, first[m]) for m in COUNT_METRICS)}", file=sys.stderr)

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coverage", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("benchmark ran without the package source")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
