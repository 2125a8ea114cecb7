"""The four benchmark workloads: how each turns a benchmark seed into CLI
invocations, and how each checks what the CLI printed.

A workload is a stream of invocations of ``python -m randsemigroup.cli``.
Invocation i of benchmark seed s gets its own CLI ``--seed``, drawn from a
``random.Random`` keyed by (workload, s), so the same seed always gives the
same inputs.  Every invocation of a workload runs the same number of trials.

``events`` needs one more step.  About 6% of its trials at p = 0.005 reach
stage d2, and each of those costs about 0.7 s (one residue table with
modulus q ~ 30k), against about 5 ms for the rest.  Left to chance, the
number of d2 trials in a 20 s run swings by a quarter from seed to seed and
so does every timing.  The plan therefore keeps only CLI seeds whose
``EVENTS_TRIALS`` trials hold exactly ``EVENTS_D2`` trials that reach d2,
judged by replaying the frozen selection stream (no residue table is
computed): the mix is fixed near its natural rate and the seed picks which
trials.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

EVENTS_P = 0.005
EVENTS_TRIALS = 32
EVENTS_D2 = 2


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    base_argv: tuple[str, ...]
    trials_per_p: int
    # invocations the traced run replays, from the start of the plan
    trace_invocations: int

    def option(self, flag: str) -> str | None:
        argv = self.base_argv
        return argv[argv.index(flag) + 1] if flag in argv else None

    @property
    def p_list(self) -> list[float]:
        """The sweep's p values in the order the CSV lists them."""
        return sorted(map(float, self.option("--p-list").split(",")), reverse=True)

    @property
    def trials(self) -> int:
        """Trials one invocation runs (summed over the p list for sweeps)."""
        return self.trials_per_p * (len(self.p_list) if self.base_argv[0] == "sweep" else 1)

    def argv(self, cli_seed: int) -> list[str]:
        return [*self.base_argv, "--trials", str(self.trials_per_p), "--seed", str(cli_seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_unconstrained", 2,
                 ("sweep", "--p-list", "0.02,0.01,0.005"), 100, 1),
        Workload("sweep_bounded", 1,
                 ("sweep", "--M", "auto", "--p-list", "0.5,0.3,0.1,0.05"), 2000, 1),
        Workload("events", 1,
                 ("events", "--p", str(EVENTS_P)), EVENTS_TRIALS, 2),
        Workload("coverage", 1,
                 ("sumset", "--q", "10007", "--b", "3"), 100, 1),
    )
}


class Plan:
    """The seed-determined sequence of CLI seeds for one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._cli_seeds: list[int] = []
        # events only: trial indices that reach d2, per planned CLI seed
        self.d2_trials: dict[int, list[int]] = {}

    def cli_seed(self, i: int) -> int:
        while len(self._cli_seeds) <= i:
            self._cli_seeds.append(self._next_seed())
        return self._cli_seeds[i]

    def argv(self, i: int) -> list[str]:
        return self.workload.argv(self.cli_seed(i))

    def _next_seed(self) -> int:
        while True:
            candidate = self._rng.getrandbits(31)
            if self.workload.name != "events":
                return candidate
            hits = _events_d2_trials(candidate, EVENTS_TRIALS, EVENTS_D2)
            if hits is not None:
                self.d2_trials[candidate] = hits
                return candidate


@lru_cache(maxsize=None)
def _events_window() -> tuple[int, frozenset[int]]:
    from randsemigroup import harness, sumsets

    f = harness.prime_window_base(EVENTS_P)
    n_max = math.ceil(6 * f)
    primes = frozenset(n for n in range(2, n_max + 1) if f < n <= 6 * f and sumsets.is_prime(n))
    return n_max, primes


def _events_d2_trials(cli_seed: int, trials: int, want: int) -> list[int] | None:
    """Indices of the trials that reach d2, or None unless there are ``want``.

    Replays only the selection stream (frozen by the package's stream
    format) and the d2 count rule; no residue table is computed.
    """
    from randsemigroup import rng as rng_mod

    n_max, primes = _events_window()
    p = EVENTS_P
    hits = []
    for t in range(trials):
        stream = rng_mod.substream(cli_seed, rng_mod.TAG_EVENTS, t)
        draw = stream.random
        selected = [n for n in range(1, n_max + 1) if draw() < p]
        chosen = [n for n in selected if n in primes]
        if not chosen:
            continue
        q = max(chosen)
        if sum(1 for n in selected if n < q) >= math.ceil(12 * math.log2(q)):
            hits.append(t)
            if len(hits) > want:
                return None
    return hits if len(hits) == want else None


# ---------------------------------------------------------------------------
# checks on what one invocation printed
# ---------------------------------------------------------------------------

_SWEEP_HEADER = (
    "p,trials,mean_F,ci95_F,mean_g,ci95_g,mean_e,ci95_e,"
    "mean_stop_index,wilf_violations,excluded_trials"
)


def check_stdout(workload: Workload, argv: list[str], text: str) -> str | None:
    """A reason the output is malformed, or None when its shape is right."""
    lines = text.splitlines()
    seed = argv[argv.index("--seed") + 1]
    if workload.base_argv[0] == "sweep":
        p_list = workload.p_list
        if len(lines) != 3 + len(p_list) or lines[2] != _SWEEP_HEADER:
            return "sweep CSV has the wrong shape"
        if not lines[0].endswith(f"seed={seed}"):
            return "sweep CSV comment does not carry the seed"
        for line, p in zip(lines[3:], p_list):
            cells = line.split(",")
            if len(cells) != 11 or float(cells[0]) != p:
                return f"sweep row for p={p} is malformed: {line!r}"
            if int(cells[1]) != workload.trials_per_p:
                return f"sweep row for p={p} reports {cells[1]} trials"
            if int(cells[10]) < workload.trials_per_p and "" in cells[2:8]:
                return f"sweep row for p={p} lacks a mean"
            if workload.option("--M") is None and (cells[8] == "" or cells[10] != "0"):
                return f"unconstrained sweep row for p={p} lacks stop index or excludes trials"
        return None
    if workload.base_argv[0] == "events":
        prefixes = ("p=", "pr_not_d1=", "pr_not_d2_given_d1=", "pr_not_d3_given_d12=",
                    "frobenius_within_cap_given_d3=", "small_generator_check")
        if len(lines) != len(prefixes) or not all(
            line.startswith(pre) for line, pre in zip(lines, prefixes)
        ):
            return "events output has the wrong shape"
        if lines[0] != f"p={EVENTS_P:.6g} trials={workload.trials}":
            return f"events header is {lines[0]!r}"
        return None
    # sumset
    fields = dict(part.split("=", 1) for part in text.split())
    q, b = int(workload.option("--q")), float(workload.option("--b"))
    k = math.ceil(b * math.log2(q))
    if len(lines) != 1 or fields.get("q") != str(q) or fields.get("k") != str(k) \
            or fields.get("s") != str(2 * k) or fields.get("trials") != str(workload.trials):
        return f"sumset output is malformed: {text!r}"
    if not 0 <= int(fields["failures"]) <= workload.trials:
        return "sumset failure count out of range"
    return None
