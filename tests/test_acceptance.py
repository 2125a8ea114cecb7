"""Acceptance gate: one pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion also asserts, so a plain pytest run fails if any criterion does.
Each criterion carries a wall-clock budget that is part of the assertion.
"""

import math
import random
import time
from math import comb

import pytest

from randsemigroup import (
    CyclicSubset,
    ErConfig,
    add_sets,
    conjecture_fit,
    count_subsets_with_sum,
    coverage_failure_bound,
    estimate_event_failures,
    event_pipeline_trial,
    frobenius,
    genus,
    invariants,
    k_fold_sumset,
    membership_table,
    normalize_generators,
    pipeline_outcome,
    run_coverage_experiment,
    run_sweep,
    sample_bounded,
    sample_unconstrained,
    sweep_csv,
    theoretical_bounds,
)
from randsemigroup.harness import _prime_window
from randsemigroup.rng import WORKERS_ENV_VAR, substream


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_two_generator_exactness():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    checked = 0
    mismatches = 0
    while checked < 500:
        n1 = rng.randint(2, 499)
        n2 = rng.randint(n1 + 1, 500)
        if math.gcd(n1, n2) != 1:
            continue
        checked += 1
        if frobenius(normalize_generators([n1, n2])) != (n1 - 1) * (n2 - 1) - 1:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _report(
        "two-generator exactness",
        ok,
        f"{checked} coprime pairs, {mismatches} mismatches, {elapsed:.2f}s (budget 5s)",
    )


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2002)
    mismatches = 0
    for _ in range(1000):
        while True:
            elems = [rng.randint(2, 200) for _ in range(rng.randint(2, 6))]
            if math.gcd(*elems) == 1:
                break
        gens = normalize_generators(elems)
        limit = 2 * max(elems) ** 2
        bits = membership_table(gens, limit).bits
        comp = ~bits & ((1 << (limit + 1)) - 1)
        f_brute = comp.bit_length() - 1 if comp else -1
        g_brute = comp.bit_count()
        if frobenius(gens) != f_brute or genus(gens) != g_brute:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        "oracle equivalence",
        ok,
        f"1000 sets vs membership scan to 2*max^2, {mismatches} mismatches, "
        f"{elapsed:.2f}s (budget 30s)",
    )


def test_03_subset_sum_count_identity():
    t0 = time.perf_counter()
    failures = 0
    cells = 0
    for q in (2, 3, 5, 7, 11, 13):
        for k in range(1, q):
            expected = comb(q, k) // q
            counts = [count_subsets_with_sum(q, k, z) for z in range(q)]
            cells += q
            if any(c != expected for c in counts) or len(set(counts)) != 1:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    _report(
        "subset-sum count identity",
        ok,
        f"exhaustive q<=13, {cells} (q,k,z) cells, {failures} failing (q,k), "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_04_coverage_experiments():
    t0 = time.perf_counter()
    small = run_coverage_experiment(101, 3.0, 2000, 4004)
    rate = small.empirical_rate
    se = math.sqrt(rate * (1 - rate) / small.trials)
    bound_101 = coverage_failure_bound(101, 3.0)
    small_ok = rate <= bound_101 + 3 * se
    large = run_coverage_experiment(1009, 4.0, 500, 4004)
    large_ok = large.failures <= 1
    elapsed = time.perf_counter() - t0
    ok = small_ok and large_ok and elapsed < 60.0
    _report(
        "coverage experiments",
        ok,
        f"(101,3): rate={rate:.4f} <= {bound_101:.4f}+3se; "
        f"(1009,4): failures={large.failures} <= 1; {elapsed:.2f}s (budget 60s)",
    )


def test_05_expectation_bracketing(monkeypatch):
    t0 = time.perf_counter()
    trials = 10_000
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    rows = run_sweep([0.5, 0.3], trials, 5005, M="auto")
    details = []
    ok = True
    for row in rows:
        rec = theoretical_bounds(row.p)
        for label, mean, half, lo, hi in (
            ("e", row.mean_e, row.ci95_e, rec.embedding_lower, rec.embedding_upper),
            ("g", row.mean_g, row.ci95_g, rec.genus_lower, rec.genus_upper),
            ("F", row.mean_F, row.ci95_F, rec.frobenius_lower, rec.frobenius_upper),
        ):
            se = half / 1.96
            inside = lo - 3 * se <= mean <= hi + 3 * se
            ok = ok and inside
            details.append(f"p={row.p} {label}={mean:.4f} in [{lo:.4f},{hi:.4f}]")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "expectation bracketing",
        ok,
        "; ".join(details) + f"; {elapsed:.2f}s (budget 60s)",
    )


def test_06_small_generator_count_consistency():
    t0 = time.perf_counter()
    rep = estimate_event_failures(0.1, 100_000, 6006).small_generator_check
    elapsed = time.perf_counter() - t0
    if rep is None:
        _report("small-generator count consistency", False, "no d1 successes")
        return
    ok = rep.within_5se and elapsed < 120.0
    _report(
        "small-generator count consistency",
        ok,
        f"n_d1={rep.n_d1}, |diff|={abs(rep.diff):.5f} < 5*se={5 * rep.se:.5f}, "
        f"{elapsed:.2f}s (budget 120s)",
    )


def test_07_scaling_diagnostic_and_determinism():
    t0 = time.perf_counter()
    p_list = [0.04, 0.02, 0.01]
    rows = run_sweep(p_list, 1000, 7007)
    fit = conjecture_fit(rows)
    finite = all(
        math.isfinite(rf) and rf > 0 and math.isfinite(re) and re > 0
        for _, rf, re in fit.points
    )
    rerun = run_sweep(p_list, 1000, 7007)
    csv_a = sweep_csv(rows, 7007, "unconstrained")
    csv_b = sweep_csv(rerun, 7007, "unconstrained")
    identical = csv_a == csv_b
    elapsed = time.perf_counter() - t0
    ok = finite and identical and elapsed < 600.0
    ratios = ", ".join(f"p={p}: F~{rf:.3f} e~{re:.3f}" for p, rf, re in fit.points)
    _report(
        "scaling diagnostic and determinism",
        ok,
        f"{ratios}; rerun CSV identical={identical}; {elapsed:.2f}s (budget 600s)",
    )


def _coupling_holds() -> bool:
    grid = [0.05, 0.1, 0.2, 0.4, 0.7, 0.9]
    for trial in range(20):
        previous: set = set()
        for p in grid:
            gens = set(sample_bounded(ErConfig(p, 250, 8008), trial).elements)
            if not previous <= gens:
                return False
            previous = gens
    return True


def _stopping_soundness_holds() -> bool:
    for p, seed in ((0.3, 81), (0.15, 82)):
        for trial in range(5):
            trace = sample_unconstrained(p, seed, trial)
            base = invariants(trace.gens)
            f = base.frobenius
            extras = ([1], [2, 17]) if f == -1 else ([f + 1], [f + 2, f + 17])
            for extra in extras:
                extended = normalize_generators(list(trace.gens.elements) + extra)
                if invariants(extended) != base:
                    return False
    return True


def _nesting_holds() -> bool:
    _, n_max, _ = _prime_window(0.1)
    forced = pipeline_outcome(0.1, list(range(1, n_max + 1)), substream(8, 0, 0))
    if not (forced.d1 and forced.d2 and forced.d3):
        return False
    empty = pipeline_outcome(0.1, [], substream(8, 0, 1))
    if empty.d1 or empty.d2 or empty.d3:
        return False
    for trial in range(400):
        out = event_pipeline_trial(0.12, 8008, trial)
        if out.d3 and not out.d2:
            return False
        if out.d2 and not out.d1:
            return False
        if out.d1 != (out.q is not None):
            return False
    return True


def _fold_identity_holds() -> bool:
    rng = random.Random(8008)
    for q in (4, 5, 6, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31):
        for _ in range(4):
            size = rng.randint(1, q)
            elems = rng.sample(range(q), size)
            a = CyclicSubset.from_elements(q, elems)
            for k in (2, 3, 5):
                folded = a
                for _ in range(k - 1):
                    folded = add_sets(folded, a)
                if k_fold_sumset(a, k) != folded:
                    return False
    return True


def _worker_independence_holds() -> bool:
    def at(workers, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(WORKERS_ENV_VAR, str(workers))
            return run_sweep(*args, **kwargs)

    u1 = at(1, [0.3], 60, 23)
    u2 = at(2, [0.3], 60, 23)
    b1 = at(1, [0.25], 60, 24, M=60)
    b2 = at(3, [0.25], 60, 24, M=60)
    return u1 == u2 and b1 == b2


def test_08_property_suites():
    t0 = time.perf_counter()
    results = {
        "coupling": _coupling_holds(),
        "stopping": _stopping_soundness_holds(),
        "nesting": _nesting_holds(),
        "fold": _fold_identity_holds(),
        "workers": _worker_independence_holds(),
    }
    elapsed = time.perf_counter() - t0
    ok = all(results.values())
    _report(
        "property suites",
        ok,
        ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items())
        + f"; {elapsed:.2f}s",
    )
