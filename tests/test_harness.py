"""Harness behavior: bounds, sweeps, CSV, diagnostics, and the event stages."""

import math

import pytest

from randsemigroup import (
    EventOutcome,
    GeneratorSet,
    InternalInvariantError,
    SemigroupInvariants,
    conditional_frobenius_tail,
    conjecture_fit,
    estimate_event_failures,
    event_pipeline_trial,
    frobenius_whp_cap,
    pipeline_outcome,
    polylog_frobenius_cap,
    prime_window_base,
    run_sweep,
    sweep_csv,
    theoretical_bounds,
    wilson_proportion,
)
from randsemigroup import harness
from randsemigroup.harness import (
    SWEEP_CSV_HEADER,
    SweepRow,
    _check_pointwise,
    _fmt,
    _mean_and_se,
    _prime_window,
)
from randsemigroup.rng import TAG_EVENTS, WORKERS_ENV_VAR, resolve_workers, substream
from randsemigroup.sumsets import is_prime


def test_theoretical_bounds_frozen_values():
    rec = theoretical_bounds(0.5)
    assert abs(rec.embedding_upper - 3.5) < 1e-12
    assert abs(rec.embedding_lower - 2.75 / 1.625) < 1e-12  # 1.6923...
    assert abs(rec.genus_upper - 3.5) < 1e-12
    assert abs(rec.frobenius_upper - 7.0) < 1e-12
    assert rec.genus_lower == rec.frobenius_lower
    assert abs(prime_window_base(0.01) - 2120.7592) < 1e-3


def test_bounds_formulas_evaluate_directly():
    for p in (0.05, 0.1, 0.3, 0.5):
        rec = theoretical_bounds(p)
        assert rec.embedding_lower == (6 - 8 * p + 3 * p**2) / (2 - 2 * p**2 + p**3)
        assert rec.embedding_upper == (2 - p**2) / p
        assert rec.genus_upper == (1 - p) * (2 - p**2) / p**2
        assert rec.frobenius_upper == 2 * rec.genus_upper
        f = (1 / p) * math.log(1 / p) ** 2
        assert abs(rec.prime_window_base - f) < 1e-9
        assert abs(rec.frobenius_whp_cap - 36 * f * math.log2(6 * f)) < 1e-6
        u = rec.frobenius_whp_cap
        assert rec.frobenius_tail_mean_bound == 8 / p**4 + 4 * u / p**2 + u**2
    assert abs(polylog_frobenius_cap(0.1, 2.0) - 2.0 * 10 * math.log(10) ** 3) < 1e-9
    assert conditional_frobenius_tail(0.5, 0.0) == 8 / 0.5**4
    with pytest.raises(ValueError):
        theoretical_bounds(0.0)


@pytest.mark.parametrize("p, u", [(1e-100, 0.0), (1e-78, 0.0), (0.5, 1e200)])
def test_conditional_frobenius_tail_refuses_a_bound_that_is_not_a_finite_double(p, u):
    # 1e-100: p**4 underflows to 0; 1e-78: 8/p^4 overflows to inf; u = 1e200: u**2 overflows
    with pytest.raises(ValueError) as info:
        conditional_frobenius_tail(p, u)
    assert str(info.value) == f"the Frobenius tail bound at p = {p}, u = {u} is not a finite double"


def test_conditional_frobenius_tail_keeps_its_finite_values():
    assert conditional_frobenius_tail(0.5, 0.0) == 128.0
    assert conditional_frobenius_tail(1e-60, 0.0) == 8.0 / 1e-60**4


def test_mean_and_standard_error():
    assert _mean_and_se([7]) == (7.0, 0.0)  # one value: no spread estimate
    mean, se = _mean_and_se([1, 2, 3, 4])
    assert mean == 2.5
    assert abs(se - math.sqrt((5 / 3) / 4)) < 1e-15  # s^2 = 5/3 over n = 4
    mean, se = _mean_and_se([0.5, -1.5, 2.0])
    assert abs(mean - 1 / 3) < 1e-15
    assert abs(se - math.sqrt((37 / 12) / 3)) < 1e-15  # s^2 = (222/36) / 2
    # summed left to right: 1e16 + 1 rounds back to 1e16 twice, where a
    # compensated sum (math.fsum) would keep both ones
    values = [1e16, 1.0, 1.0]
    assert _mean_and_se(values)[0] == 1e16 / 3 != math.fsum(values) / 3


def test_wilson_proportion():
    zero = wilson_proportion(0, 10)
    assert zero.fraction == 0.0 and zero.ci_low == 0.0
    assert abs(zero.ci_high - 1.96**2 / (10 + 1.96**2)) < 1e-12
    half = wilson_proportion(5, 10)
    assert abs((half.ci_low + half.ci_high) / 2 - 0.5) < 1e-12
    full = wilson_proportion(10, 10)
    assert full.ci_high == 1.0 and full.ci_low > 0.6
    with pytest.raises(ValueError):
        wilson_proportion(0, 0)


def run_sweep_at(workers, *args, **kwargs):
    """run_sweep with RANDSEMIGROUP_WORKERS set to ``workers`` for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(WORKERS_ENV_VAR, str(workers))
        return run_sweep(*args, **kwargs)


def test_sweep_determinism_and_input_order():
    a = run_sweep_at(1, [0.2, 0.4], 30, 17)
    b = run_sweep_at(1, [0.4, 0.2], 30, 17)
    assert a == b
    assert [r.p for r in a] == [0.4, 0.2]  # descending
    single = run_sweep_at(1, [0.3], 1, 5)
    assert single == run_sweep_at(1, [0.3], 1, 5)
    assert single[0].ci95_F == 0.0  # one trial: no spread estimate


def test_sweep_worker_count_does_not_change_output():
    one = run_sweep_at(1, [0.3], 48, 23)
    two = run_sweep_at(2, [0.3], 48, 23)
    assert one == two
    b_one = run_sweep_at(1, [0.25], 40, 29, M=40)
    b_two = run_sweep_at(3, [0.25], 40, 29, M=40)
    assert b_one == b_two


@pytest.mark.parametrize("M", [None, "auto"])
def test_multi_p_sweep_worker_count_does_not_change_output(M):
    # one pool serves every p; a job is one trial index at every p
    one = run_sweep_at(1, [0.2, 0.1, 0.05], 40, 37, M=M)
    assert one == run_sweep_at(2, [0.2, 0.1, 0.05], 40, 37, M=M)


def test_resolve_workers(monkeypatch):
    monkeypatch.setenv("RANDSEMIGROUP_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.delenv("RANDSEMIGROUP_WORKERS")
    assert resolve_workers() >= 1
    monkeypatch.setenv("RANDSEMIGROUP_WORKERS", "0")
    with pytest.raises(ValueError):
        resolve_workers()


def test_bounded_sweep_exclusions_and_warning():
    with pytest.warns(UserWarning, match="below 10/p"):
        rows = run_sweep_at(1, [0.01], 5, 0, M=2)
    row = rows[0]
    assert row.excluded_trials == 5  # every draw had gcd != 1 (or was empty)
    assert row.mean_F is None and row.mean_stop_index is None
    assert row.wilf_violations == 0


def test_bounded_sweep_counts_partial_exclusions():
    with pytest.warns(UserWarning):
        rows = run_sweep_at(1, [0.05], 300, 11, M=4)
    row = rows[0]
    assert 0 < row.excluded_trials < 300
    assert row.mean_F is not None


def test_sweep_job_count_is_trials_times_distinct_p(monkeypatch):
    def no_work(*args):
        raise AssertionError("trials started before the job count was checked")

    monkeypatch.setattr(harness, "run_trials", no_work)
    with pytest.raises(ValueError) as info:  # three p listed, two distinct
        run_sweep([0.5, 0.4, 0.5], (1 << 23) + 1, 0, M=10)
    assert str(info.value) == (
        "trials x distinct p is 16777218, above the size limit 2^24 = 16777216"
    )


def forge_rows(monkeypatch, *rows):
    """Make run_sweep's engine call return ``rows``, one per trial, each cell
    (F, g, e, stop, wilf holds) or None, in descending p."""

    def forged(fn, trials, *head):
        assert fn is harness._sweep_trial and trials == len(rows)
        return [list(row) for row in rows]

    monkeypatch.setattr(harness, "run_trials", forged)


@pytest.mark.parametrize("M", [None, 60])
def test_coupling_audit_accepts_F_and_g_falling_with_p_and_any_e(monkeypatch, M):
    # e rises as p rises (2 at p = 0.3, 4 at 0.4): e is never audited
    forge_rows(
        monkeypatch,
        [(5, 3, 4, 6, True), (5, 3, 2, 6, True), (9, 6, 3, 10, True)],
        [(3, 2, 2, 4, True), None, (8, 5, 2, 9, True)],
    )
    rows = run_sweep([0.2, 0.3, 0.4], 2, 0, M=M)
    assert [r.mean_F for r in rows] == [4.0, 5.0, 8.5]  # each cell reads its own column
    assert [r.mean_e for r in rows] == [3.0, 2.0, 2.5]
    assert [r.excluded_trials for r in rows] == [0, 1, 0]


@pytest.mark.parametrize("M", [None, 60])
@pytest.mark.parametrize(
    "rises",
    [
        [(9, 5, 2, 10, True), (7, 5, 2, 8, True), (11, 6, 2, 12, True)],  # F
        [(7, 6, 2, 10, True), (7, 5, 2, 8, True), (11, 6, 2, 12, True)],  # g
        [(9, 5, 2, 10, True), None, (8, 6, 2, 12, True)],  # F, across an exclusion
    ],
    ids=["F", "g", "F-past-excluded"],
)
def test_coupling_audit_rejects_F_or_g_rising_with_p(monkeypatch, M, rises):
    forge_rows(monkeypatch, [(3, 2, 2, 4, True), (5, 3, 2, 6, True), (8, 5, 2, 9, True)], rises)
    with pytest.raises(InternalInvariantError, match="^coupling violation in trial 1: "):
        run_sweep([0.4, 0.3, 0.2], 2, 0, M=M)


def test_coupling_audit_skips_auto_M_sweeps(monkeypatch):
    # M = ceil(50/p) changes with p, so the semigroups need not nest
    forge_rows(monkeypatch, [(9, 6, 2, 10, True), (7, 5, 2, 8, True)])
    rows = run_sweep([0.4, 0.2], 1, 0, M="auto")
    assert [r.mean_F for r in rows] == [9.0, 7.0]


def test_sweep_csv_format():
    rows = run_sweep_at(1, [0.4, 0.2], 25, 31, M=60)
    text = sweep_csv(rows, 31, "bounded(M=60)")
    lines = text.splitlines()
    assert lines[0].startswith("# ") and lines[1].startswith("# ")
    assert lines[2] == SWEEP_CSV_HEADER
    assert len(lines) == 5
    first = lines[3].split(",")
    assert first[0] == "0.4" and first[1] == "25"
    assert first[8] == ""  # bounded mode: stop index undefined -> empty field
    assert text == sweep_csv(rows, 31, "bounded(M=60)")
    # unconstrained rows fill the stop column
    u_rows = run_sweep_at(1, [0.3], 10, 7)
    u_line = sweep_csv(u_rows, 7, "unconstrained").splitlines()[3]
    assert u_line.split(",")[8] != ""


def test_float_formatting_six_significant_digits():
    assert _fmt(1 / 3) == "0.333333"
    assert _fmt(1234567.0) == "1.23457e+06"
    assert _fmt(2.5) == "2.5"
    assert _fmt(None) == ""
    assert _fmt(7) == "7"


def test_conjecture_fit_identity_rows():
    rows = []
    for p in (0.08, 0.04, 0.01):
        denom = math.log2(1 / p)
        rows.append(
            SweepRow(p, 100, denom / p, 1.0, denom / p / 2, 1.0, denom, 0.1, None, 0, 0)
        )
    fit = conjecture_fit(rows)
    assert all(abs(rf - 1) < 1e-12 and abs(re - 1) < 1e-12 for _, rf, re in fit.points)
    assert abs(fit.ratio_F_spread - 1) < 1e-12
    assert [pt[0] for pt in fit.points] == [0.08, 0.04, 0.01]


def test_conjecture_fit_preconditions():
    row = lambda p: SweepRow(p, 10, 5.0, 1.0, 3.0, 1.0, 2.0, 0.5, None, 0, 0)
    with pytest.raises(ValueError, match="at least 3"):
        conjecture_fit([row(0.1), row(0.01)])
    with pytest.raises(ValueError, match="factor of 4"):
        conjecture_fit([row(0.1), row(0.08), row(0.05)])


def test_pointwise_checker_rejects_corrupt_invariants():
    bad = SemigroupInvariants(5, 10, 2, GeneratorSet((2, 3), 1))  # g > F + 1
    with pytest.raises(InternalInvariantError):
        _check_pointwise(bad)
    bad_nat = SemigroupInvariants(-1, 1, 1, GeneratorSet((1,), 1))
    with pytest.raises(InternalInvariantError):
        _check_pointwise(bad_nat)


@pytest.mark.parametrize(
    "frob, gen_count, emb, minimal",
    [
        (7, 4, 4, (3, 5)),  # e > m
        (1, 1, 2, (3, 5)),  # m > F + 1
        (7, 3, 2, (3, 5)),  # g < (F + 1) / 2
        (7, 8, 2, (3, 5)),  # g > F
        (-1, 0, 1, (2,)),  # gap-free yet m != 1
    ],
)
def test_pointwise_checker_enforces_textbook_bounds(frob, gen_count, emb, minimal):
    _check_pointwise(SemigroupInvariants(7, 4, 2, GeneratorSet((3, 5), 1)))
    forged = SemigroupInvariants(frob, gen_count, emb, GeneratorSet(minimal, 1))
    with pytest.raises(InternalInvariantError):
        _check_pointwise(forged)


def test_prime_window_contents():
    f, n_max, primes = _prime_window(0.1)
    assert abs(f - 53.019) < 1e-2
    assert n_max == math.ceil(6 * f)
    assert primes, "window always holds a prime for f >= 2"
    assert all(f < q <= 6 * f and is_prime(q) for q in primes)
    assert min(primes) == 59 and max(primes) == 317
    with pytest.raises(ValueError, match="f\\(p\\) >= 2"):
        event_pipeline_trial(0.5, 1, 0)  # f(0.5) < 2: window undefined


def _least_p(holds):
    """Least p (by bisection) with holds(f(p)); f falls as p grows."""
    lo, hi = 1e-4, 0.13
    for _ in range(200):
        mid = (lo + hi) / 2
        if holds(prime_window_base(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def _is_prime_window(p):
    f, n_max, _ = _prime_window(p)
    return frozenset(n for n in range(2, n_max + 1) if f < n <= 6 * f and is_prime(n))


@pytest.mark.parametrize("p", [0.005, 0.0123, 0.05, 0.1, 0.12, 0.127])
def test_sieved_prime_window_equals_primality_tests(p):
    assert _prime_window(p)[2] == _is_prime_window(p)


# (prime N, scale): p values with scale * f(p) within 1e-6 of N, on both sides.
@pytest.mark.parametrize("target, scale", [(53, 1), (317, 6), (5623, 1), (33679, 6)])
def test_sieved_prime_window_at_both_ends(target, scale):
    at = _least_p(lambda f: scale * f <= target)
    above = math.nextafter(at, 0.0)  # the greatest p with scale * f > N
    below = _least_p(lambda f: scale * f < target)
    for p in (at, above, below):
        assert abs(scale * prime_window_base(p) - target) < 1e-6
        assert _prime_window(p)[2] == _is_prime_window(p)
    if scale == 1:  # open left end (f: N is in only while f < N
        assert target in _prime_window(below)[2]
        assert target not in _prime_window(above)[2]
    else:  # closed right end 6f]: N is in while N <= 6f
        assert target in _prime_window(above)[2]
        assert target not in _prime_window(below)[2]


def test_pipeline_forced_streams():
    _, n_max, _ = _prime_window(0.1)
    rng = substream(0, 0, 0)
    out = pipeline_outcome(0.1, list(range(1, n_max + 1)), rng)
    assert out.d1 and out.d2 and out.d3
    assert out.q == 317 and out.small_generator_count == 316
    assert out.max_apery is not None
    assert out.max_apery <= 6 * out.q * math.log2(out.q)
    assert out.frobenius_within_cap is True  # set on d3 outcomes only
    none = pipeline_outcome(0.1, [], substream(0, 0, 1))
    assert none == pipeline_outcome(0.1, [], substream(0, 0, 2))
    assert not none.d1 and none.q is None and none.max_apery is None
    assert none.small_generator_count == 0 and none.frobenius_within_cap is None


def test_pipeline_takes_largest_selected_window_prime():
    out = pipeline_outcome(0.1, [59, 61], substream(1, 2, 3))
    assert out.d1 and out.q == 61
    assert out.small_generator_count == 1  # only 59 lies below q
    assert not out.d2  # needs ceil(12*log2(61)) = 72 small generators
    assert out.frobenius_within_cap is None


def test_event_trial_determinism_and_nesting():
    assert event_pipeline_trial(0.1, 7, 3) == event_pipeline_trial(0.1, 7, 3)
    for t in range(150):
        out = event_pipeline_trial(0.12, 13, t)
        if out.d3:
            assert out.d2
        if out.d2:
            assert out.d1 and out.max_apery is not None
        assert out.d1 == (out.q is not None)
        if not out.d1:
            assert out.small_generator_count == 0 and out.max_apery is None


def test_event_selection_draws_the_whole_window_then_stops(monkeypatch):
    # one draw per integer of 1..N, so the d3 subset draw starts at draw N + 1
    p = 0.05
    _, n_max, _ = _prime_window(p)
    fresh = substream(7, TAG_EVENTS, 2)
    draws = [fresh.random() for _ in range(n_max + 1)]
    seen = []
    monkeypatch.setattr(harness, "pipeline_outcome", lambda p, sel, rng: seen.append((sel, rng)))
    event_pipeline_trial(p, 7, 2)
    (selected, rng), = seen
    assert selected == [n for n in range(1, n_max + 1) if draws[n - 1] < p]
    assert rng.random() == draws[n_max]


def test_estimate_event_failures_shape():
    rep = estimate_event_failures(0.25, 400, 7)
    assert rep == estimate_event_failures(0.25, 400, 7)
    assert rep.trials == 400
    assert 0.0 <= rep.pr_not_d1.fraction <= 1.0
    assert rep.pr_not_d1.denominator == 400
    # desk-scale p: the d2 threshold dwarfs the expected generator count
    assert rep.pr_not_d2_given_d1 is not None
    assert rep.pr_not_d2_given_d1.fraction == 1.0
    assert rep.pr_not_d3_given_d12 is None  # no conditioning events: absent
    assert rep.frobenius_within_cap_given_d3 is None


def test_estimate_event_failures_absent_conditionals():
    # seed chosen so neither of the two trials selects a window prime
    rep = estimate_event_failures(0.3, 2, 182)
    assert rep.pr_not_d1.fraction == 1.0
    assert rep.pr_not_d2_given_d1 is None
    assert rep.pr_not_d3_given_d12 is None
    assert rep.small_generator_check is None


def test_not_d1_rate_decreases_with_p():
    hi = estimate_event_failures(0.1, 3000, 5).pr_not_d1.fraction
    lo = estimate_event_failures(0.02, 3000, 5).pr_not_d1.fraction
    assert hi > lo


def test_expected_small_generators_check_passes():
    rep = estimate_event_failures(0.2, 4000, 99).small_generator_check
    assert rep is not None
    assert rep.n_d1 > 3000
    assert rep.within_5se
    assert abs(rep.mean_count - rep.mean_expected - rep.diff) < 1e-9


def test_events_walk_each_trial_once(monkeypatch):
    calls = []

    def counting_substream(*key):
        calls.append(key)
        return substream(*key)

    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(harness, "substream", counting_substream)
    report = estimate_event_failures(0.1, 300, 41)
    assert len(calls) == 300
    assert report.small_generator_check.n_d1 == report.pr_not_d2_given_d1.denominator


def test_event_fold_counts_each_stage(monkeypatch):
    # one trial per stage outcome: not d1, d1 only, d2 without d3, d3
    staged = [
        EventOutcome(False, False, False, None, 0, None),
        EventOutcome(True, False, False, 211, 10, None),
        EventOutcome(True, True, False, 223, 40, 10**9),
        EventOutcome(True, True, True, 227, 41, 1000, True),
    ]
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(harness, "pipeline_outcome", lambda p, sel, rng: staged.pop(0))
    report = estimate_event_failures(0.1, 4, 0)
    assert (report.pr_not_d1.numerator, report.pr_not_d1.denominator) == (1, 4)
    assert (report.pr_not_d2_given_d1.numerator, report.pr_not_d2_given_d1.denominator) == (1, 3)
    assert (report.pr_not_d3_given_d12.numerator, report.pr_not_d3_given_d12.denominator) == (1, 2)
    assert report.frobenius_within_cap_given_d3.denominator == 1
    assert report.frobenius_within_cap_given_d3.numerator == 1
    check = report.small_generator_check
    assert check.n_d1 == 3 and check.mean_count == (10 + 40 + 41) / 3
    assert abs(check.mean_expected - (210 + 222 + 226) * 0.1 / 3) < 1e-12


def test_within_cap_reads_the_frobenius_number_of_every_selected_integer(monkeypatch):
    p = 0.12
    _, n_max, _ = _prime_window(p)
    selected = list(range(2, n_max + 1))
    cap = frobenius_whp_cap(p)
    for frob, within in ((math.floor(cap), True), (math.floor(cap) + 1, False)):
        seen = []
        monkeypatch.setattr(harness, "frobenius", lambda gens: seen.append(gens) or frob)
        out = pipeline_outcome(p, selected, substream(3, 1, 4))
        assert out.d3 and out.frobenius_within_cap is within
        assert seen == [harness.normalize_generators(selected)]


def test_forced_d3_upper_bounds_full_frobenius():
    # with everything selected, the d3 cap dominates the full semigroup's F,
    # which is -1 here since 1 is selected
    _, n_max, _ = _prime_window(0.12)
    out = pipeline_outcome(0.12, list(range(1, n_max + 1)), substream(3, 1, 4))
    assert out.d3
    assert out.max_apery <= frobenius_whp_cap(0.12)
