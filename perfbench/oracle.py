"""Independent spot-checks of sampled trials, run outside the timed region.

Semigroup invariants are certified by the brute bit-packed membership scan
(``semigroup.membership_table``), never by a residue table: with m the least
generator, F is the Frobenius number and g the genus exactly when, on
[0, F + m], the largest non-member is F and there are g non-members (the m
members after F make every larger integer a member).  Coverage results are
recomputed by a plain (k - 1)-step linear fold of ``add_sets`` in place of
the binary powering of ``k_fold_sumset``.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

from workloads import EVENTS_P, Plan


def brute_invariants_match(gens, frobenius: int, genus: int) -> bool:
    from randsemigroup import semigroup

    if frobenius == -1:
        return genus == 0 and gens.elements[0] == 1
    limit = frobenius + gens.elements[0]
    bits = semigroup.membership_table(gens, limit).bits
    gaps = ~bits & ((1 << (limit + 1)) - 1)
    return gaps.bit_length() - 1 == frobenius and gaps.bit_count() == genus


@contextmanager
def _capture(module, attr: str, sink: list):
    """Record the arguments and result of every call to module.attr."""
    original = getattr(module, attr)

    def recording(*args):
        result = original(*args)
        sink.append((args, result))
        return result

    setattr(module, attr, recording)
    try:
        yield sink
    finally:
        setattr(module, attr, original)


def _check_sweep(plan: Plan, pick: random.Random) -> tuple[int, list[str]]:
    from randsemigroup import harness, sampler

    w = plan.workload
    bounded = w.option("--M") is not None
    cli_seed = plan.cli_seed(0)
    attempted, problems = 0, []
    for p in w.p_list:
        t = pick.randrange(w.trials_per_p)
        if bounded:
            gens = sampler.sample_bounded(sampler.ErConfig(p, math.ceil(50 / p), cli_seed), t)
            if gens.gcd != 1:
                continue  # excluded by the sweep as well
            stop = None
        else:
            trace = sampler.sample_unconstrained(p, cli_seed, t)
            gens, stop = trace.gens, trace.stop_index
        attempted += 1
        inv = harness.invariants(gens)
        ok = brute_invariants_match(gens, inv.frobenius, inv.genus)
        if stop is not None:
            ok = ok and inv.frobenius < stop
        if not ok:
            problems.append(f"oracle mismatch: p={p} seed={cli_seed} trial={t} gens={gens.elements}")
    return attempted, problems


def _check_events(plan: Plan, pick: random.Random) -> tuple[int, list[str]]:
    from randsemigroup import harness

    cli_seed = plan.cli_seed(0)
    t = pick.choice(plan.d2_trials[cli_seed])
    with _capture(harness, "apery_set", []) as calls:
        outcome = harness.event_pipeline_trial(EVENTS_P, cli_seed, t)
    if not outcome.d2 or len(calls) != 1:
        return 1, [f"events trial {t} of seed {cli_seed} was planned to reach d2"]
    (gens, q), table = calls[0]
    inv = harness.invariants(gens)
    if (outcome.max_apery - q != inv.frobenius
            or sum(e // q for e in table.entries) != inv.genus
            or not brute_invariants_match(gens, inv.frobenius, inv.genus)):
        return 1, [f"oracle mismatch: events seed={cli_seed} trial={t} q={q}"]
    return 1, []


def _check_coverage(plan: Plan, pick: random.Random) -> tuple[int, list[str]]:
    from randsemigroup import sumsets

    w = plan.workload
    q, b = int(w.option("--q")), float(w.option("--b"))
    cli_seed = plan.cli_seed(0)
    trials = pick.sample(range(w.trials), 2)
    problems = []
    for t in trials:
        with _capture(sumsets, "k_fold_sumset", []) as calls:
            covered = sumsets.coverage_trial(q, b, cli_seed, t)
        (a, k), _ = calls[0]
        acc = a
        for _ in range(k - 1):
            acc = sumsets.add_sets(acc, a)
        if acc.is_full != covered:
            problems.append(f"oracle mismatch: coverage seed={cli_seed} trial={t}")
    return len(trials), problems


def spot_check(plan: Plan) -> tuple[int, list[str]]:
    """(checks attempted, problems found) for a seed-keyed sample of trials
    from the plan's first invocation."""
    pick = random.Random(f"perfbench-oracle:{plan.workload.name}:{plan.seed}")
    check = {"sweep": _check_sweep, "events": _check_events, "sumset": _check_coverage}
    return check[plan.workload.base_argv[0]](plan, pick)
