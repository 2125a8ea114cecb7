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
    WORKERS_ENV_VAR,
    SweepRow,
    _check_pointwise,
    _fmt,
    _prime_window,
    resolve_workers,
)
from randsemigroup.rng import substream
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


def test_sweep_determinism_and_input_order():
    a = run_sweep([0.2, 0.4], 30, 17, workers=1)
    b = run_sweep([0.4, 0.2], 30, 17, workers=1)
    assert a == b
    assert [r.p for r in a] == [0.4, 0.2]  # descending
    single = run_sweep([0.3], 1, 5, workers=1)
    assert single == run_sweep([0.3], 1, 5, workers=1)
    assert single[0].ci95_F == 0.0  # one trial: no spread estimate


def test_sweep_worker_count_does_not_change_output():
    one = run_sweep([0.3], 48, 23, workers=1)
    two = run_sweep([0.3], 48, 23, workers=2)
    assert one == two
    b_one = run_sweep([0.25], 40, 29, M=40, workers=1)
    b_two = run_sweep([0.25], 40, 29, M=40, workers=3)
    assert b_one == b_two


@pytest.mark.parametrize("M", [None, "auto"])
def test_multi_p_sweep_worker_count_does_not_change_output(M):
    # one pool serves every p, so chunks of the flattened jobs cross p boundaries
    one = run_sweep([0.2, 0.1, 0.05], 40, 37, M=M, workers=1)
    assert one == run_sweep([0.2, 0.1, 0.05], 40, 37, M=M, workers=2)


def test_resolve_workers(monkeypatch):
    assert resolve_workers(2) == 2
    monkeypatch.setenv("RANDSEMIGROUP_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.delenv("RANDSEMIGROUP_WORKERS")
    assert resolve_workers() >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_bounded_sweep_exclusions_and_warning():
    with pytest.warns(UserWarning, match="below 10/p"):
        rows = run_sweep([0.01], 5, 0, M=2, workers=1)
    row = rows[0]
    assert row.excluded_trials == 5  # every draw had gcd != 1 (or was empty)
    assert row.mean_F is None and row.mean_stop_index is None
    assert row.wilf_violations == 0


def test_bounded_sweep_counts_partial_exclusions():
    with pytest.warns(UserWarning):
        rows = run_sweep([0.05], 300, 11, M=4, workers=1)
    row = rows[0]
    assert 0 < row.excluded_trials < 300
    assert row.mean_F is not None


def test_sweep_csv_format():
    rows = run_sweep([0.4, 0.2], 25, 31, M=60, workers=1)
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
    u_rows = run_sweep([0.3], 10, 7, workers=1)
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


def test_pipeline_forced_streams():
    _, n_max, _ = _prime_window(0.1)
    rng = substream(0, 0, 0)
    out = pipeline_outcome(0.1, list(range(1, n_max + 1)), rng)
    assert out.d1 and out.d2 and out.d3
    assert out.q == 317 and out.small_generator_count == 316
    assert out.max_apery is not None
    assert out.max_apery <= 6 * out.q * math.log2(out.q)
    none = pipeline_outcome(0.1, [], substream(0, 0, 1))
    assert none == pipeline_outcome(0.1, [], substream(0, 0, 2))
    assert not none.d1 and none.q is None and none.max_apery is None
    assert none.small_generator_count == 0


def test_pipeline_takes_largest_selected_window_prime():
    out = pipeline_outcome(0.1, [59, 61], substream(1, 2, 3))
    assert out.d1 and out.q == 61
    assert out.small_generator_count == 1  # only 59 lies below q
    assert not out.d2  # needs ceil(12*log2(61)) = 72 small generators


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
        EventOutcome(True, True, True, 227, 41, 1000),
    ]
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(harness, "pipeline_outcome", lambda p, sel, rng: staged.pop(0))
    report = estimate_event_failures(0.1, 4, 0)
    assert (report.pr_not_d1.numerator, report.pr_not_d1.denominator) == (1, 4)
    assert (report.pr_not_d2_given_d1.numerator, report.pr_not_d2_given_d1.denominator) == (1, 3)
    assert (report.pr_not_d3_given_d12.numerator, report.pr_not_d3_given_d12.denominator) == (1, 2)
    assert report.frobenius_within_cap_given_d3.denominator == 1
    check = report.small_generator_check
    assert check.n_d1 == 3 and check.mean_count == (10 + 40 + 41) / 3
    assert abs(check.mean_expected - (210 + 222 + 226) * 0.1 / 3) < 1e-12


def test_forced_d3_upper_bounds_full_frobenius():
    # with everything selected, the d3 cap dominates the full semigroup's F,
    # which is -1 here since 1 is selected
    _, n_max, _ = _prime_window(0.12)
    out = pipeline_outcome(0.12, list(range(1, n_max + 1)), substream(3, 1, 4))
    assert out.d3
    assert out.max_apery <= frobenius_whp_cap(0.12)
