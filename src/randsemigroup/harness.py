"""Monte Carlo experiments over random numerical semigroups.

Four instrument groups share this module:

* closed-form expectation bounds for the bounded model (``theoretical_bounds``),
* seeded sweeps over p producing CSV rows with normal-approximation
  confidence intervals (``run_sweep`` / ``sweep_csv``),
* growth-rate diagnostics for the scaling guess F ~ (1/p) log2(1/p) and
  e ~ log2(1/p) (``conjecture_fit``; descriptive, makes no pass/fail claim),
* the staged event pipeline behind the high-probability Frobenius cap
  (``estimate_event_failures`` runs the one trial, ``event_pipeline_trial``).

Determinism contract: every trial draws from a substream keyed by
(master_seed, stream tag, trial index); trials run on ``rng.run_trials``
and per-metric tallies are merged in trial order.  Output therefore never
depends on the worker count, which defaults to all cores (at most
``rng.MAX_WORKERS``) and is set only by the RANDSEMIGROUP_WORKERS
environment variable.  Sweeps run trial-major: one engine job is one trial
index at every p, since every p reads that trial's one stream.

Proportions carry Wilson score intervals; conditional proportions with an
empty conditioning set are reported as absent (None / empty CSV field),
never as zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import compress
from typing import Literal, Optional, Sequence

from .rng import TAG_EVENTS, TAG_SAMPLE, check_size, draw_subset, run_trials, substream
from .sampler import check_probability, check_unconstrained_probability, select, walk
# invariants is imported so that harness.invariants keeps resolving
from .semigroup import (
    SemigroupInvariants,
    apery_set,
    frobenius,
    invariants,
    normalize_generators,
    table_invariants,
    wilf_check,
)


class InternalInvariantError(RuntimeError):
    """A computed result violated a cross-check that must always hold."""


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRecord:
    """Expectation bounds and growth scales at one selection probability.

    embedding/genus/frobenius_{lower,upper} bracket the expected values of
    the three invariants in the bounded model as M grows.  The lower
    bracket is shared by genus and Frobenius number.  prime_window_base is
    f(p) = (1/p) ln(1/p)^2, the left end of the prime window used by the
    event pipeline; frobenius_whp_cap = 36 f(p) log2(6 f(p)) is the cap
    that holds with probability -> 1 as p -> 0; frobenius_tail_mean_bound
    bounds the conditional mean of the Frobenius number above that cap.
    """

    p: float
    embedding_lower: float
    embedding_upper: float
    genus_lower: float
    genus_upper: float
    frobenius_lower: float
    frobenius_upper: float
    prime_window_base: float
    frobenius_whp_cap: float
    frobenius_tail_mean_bound: float


def prime_window_base(p: float) -> float:
    """f(p) = (1/p) * ln(1/p)^2."""
    check_probability(p)
    return (1.0 / p) * math.log(1.0 / p) ** 2


def frobenius_whp_cap(p: float) -> float:
    """u(p) = 36 * f(p) * log2(6 * f(p)), the with-high-probability cap."""
    f = prime_window_base(p)
    return 36.0 * f * math.log2(6.0 * f)


def polylog_frobenius_cap(p: float, scale: float) -> float:
    """The same cap in its generic form: scale * (1/p) * ln(1/p)^3."""
    check_probability(p)
    return scale * (1.0 / p) * math.log(1.0 / p) ** 3


def conditional_frobenius_tail(p: float, u: float) -> float:
    """Upper bound for E[F | F >= u]: 8/p^4 + 4u/p^2 + u^2, a finite double."""
    check_probability(p)
    try:
        bound = 8.0 / p**4 + 4.0 * u / p**2 + u**2
        if math.isfinite(bound):  # 8/p^4 is inf below p ~ 1.4e-77
            return bound
    except ArithmeticError:  # p**4 underflows to 0 below p ~ 1e-81
        pass
    raise ValueError(f"the Frobenius tail bound at p = {p}, u = {u} is not a finite double")


def theoretical_bounds(p: float) -> BoundsRecord:
    """Evaluate every closed form at one p in (0, 1); each must be a finite double."""
    check_probability(p)
    shared_lower = (6 - 14 * p + 11 * p**2 - 3 * p**3) / (
        2 * p - 2 * p**3 + p**4
    )
    u = frobenius_whp_cap(p)
    try:
        record = BoundsRecord(
            p=p,
            embedding_lower=(6 - 8 * p + 3 * p**2) / (2 - 2 * p**2 + p**3),
            embedding_upper=(2 - p**2) / p,
            genus_lower=shared_lower,
            genus_upper=(1 - p) * (2 - p**2) / p**2,
            frobenius_lower=shared_lower,
            frobenius_upper=2 * (1 - p) * (2 - p**2) / p**2,
            prime_window_base=prime_window_base(p),
            frobenius_whp_cap=u,
            frobenius_tail_mean_bound=conditional_frobenius_tail(p, u),
        )
        if all(map(math.isfinite, astuple(record))):
            return record
    except (ArithmeticError, ValueError):  # an underflowed divisor, or a non-finite tail bound
        pass
    raise ValueError(f"the closed-form bounds at p = {p} are not all finite doubles")


# ---------------------------------------------------------------------------
# proportions
# ---------------------------------------------------------------------------

_Z95 = 1.96


@dataclass(frozen=True)
class Proportion:
    """k-out-of-n frequency with a 95% Wilson score interval."""

    numerator: int
    denominator: int
    fraction: float
    ci_low: float
    ci_high: float


def wilson_proportion(numerator: int, denominator: int) -> Proportion:
    if denominator < 1:
        raise ValueError("denominator must be >= 1; absent data is None, not 0/0")
    n = denominator
    phat = numerator / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return Proportion(numerator, n, phat, max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """Aggregates of one (p, trials) cell.

    Means and half-widths are None when no trial was included (then
    excluded_trials == trials); mean_stop_index is None in bounded mode.
    ci95_* are half-widths from the normal approximation 1.96 * sd / sqrt(n).
    """

    p: float
    trials: int
    mean_F: Optional[float]
    ci95_F: Optional[float]
    mean_g: Optional[float]
    ci95_g: Optional[float]
    mean_e: Optional[float]
    ci95_e: Optional[float]
    mean_stop_index: Optional[float]
    wilf_violations: int
    excluded_trials: int


def _check_pointwise(inv: SemigroupInvariants) -> None:
    # e <= m <= F + 1 and (F + 1)/2 <= g <= F hold for every cofinite semigroup
    # (Rosales & Garcia-Sanchez, Numerical Semigroups, 2009); a failure here
    # means the computation itself broke (CLI maps this to exit code 3).
    f, g, e = inv.frobenius, inv.genus, inv.embedding_dimension
    m = inv.minimal_generators.elements[0]
    if f == -1:
        ok = g == 0 and e == 1 and m == 1
    else:
        ok = e <= m <= f + 1 and f + 1 <= 2 * g and g <= f
    if not ok:
        raise InternalInvariantError(
            f"invariant violation: F={f} g={g} e={e} gens={inv.minimal_generators.elements}"
        )


def _sweep_cell(
    p: float, bound: Optional[int], master_seed: int, trial_index: int
) -> Optional[tuple]:
    walked = walk(substream(master_seed, TAG_SAMPLE, trial_index), p, bound)
    if walked is None:
        return None  # bounded draw with gcd != 1: excluded
    _, minimal, minima, stop = walked
    inv = table_invariants(minima, tuple(minimal))
    _check_pointwise(inv)
    return inv.frobenius, inv.genus, inv.embedding_dimension, stop, wilf_check(inv).holds


def _sweep_trial(cells: Sequence[tuple], master_seed: int, trial_index: int) -> list:
    """Trial ``trial_index`` at every (p, bound) cell, in cell order."""
    return [_sweep_cell(p, bound, master_seed, trial_index) for p, bound in cells]


def _check_coupling(cells: Sequence[tuple], rows: Sequence[list]) -> None:
    # n is kept iff u_n < p on one shared stream, so within a trial the
    # semigroup at a larger p contains the one at a smaller p, and F and g
    # cannot rise with p (e can).  Cells run in descending p; excluded
    # draws are skipped, since containment also holds across them.
    for t, row in enumerate(rows):
        kept = [(p, r) for (p, _), r in zip(cells, row) if r is not None]
        for (p_hi, hi), (p_lo, lo) in zip(kept, kept[1:]):
            if hi[0] > lo[0] or hi[1] > lo[1]:
                raise InternalInvariantError(
                    f"coupling violation in trial {t}: (F, g) = {hi[:2]} at p = {p_hi} "
                    f"but {lo[:2]} at p = {p_lo}"
                )


def _mean_and_se(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error sqrt(s^2 / n); the error is 0 for one value."""
    n = len(values)
    total = total_sq = 0
    for v in values:  # not sum(): it compensates float sums from Python 3.12 on
        total += v
        total_sq += v * v
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = (total_sq - total * total / n) / (n - 1)
    return mean, math.sqrt(max(0.0, var) / n)


def run_sweep(
    p_list: Sequence[float],
    trials: int,
    master_seed: int,
    M: int | None | Literal["auto"] = None,
) -> list[SweepRow]:
    """One SweepRow per p, processed and returned in descending p order.

    M=None samples the unconstrained model; an integer M (or "auto",
    meaning ceil(50/p) per p) samples the bounded one, where draws with
    gcd != 1 are excluded from the means and counted in excluded_trials.
    Both models run one keep-to-keep walk per trial (``sampler.walk``) and
    read F, g and e off its residue table and minimal generators; nothing
    is refolded.  A bounded trial stops at its stop index, past which no
    integer changes the semigroup, rather than drawing all of 1..M.
    Before any trial runs, p_list must be nonempty and every p and its
    per-p size are checked: the bound M, or the unconstrained walk span
    ceil(64/p), must not exceed the size limit (``rng.check_size``), nor
    may the result count, trials times the number of distinct p.
    Every trial runs in one ``run_trials`` call, trial-major (one job is
    one trial index at every p); per-metric tallies are exact integer sums
    folded in trial order, so results are identical for every worker count.
    Unless M is "auto", whose M changes with p, F and g must not rise with
    p within a trial (``_check_coupling``), or InternalInvariantError.
    """
    if not p_list:
        raise ValueError("p_list must hold at least one p")
    if M is not None and M != "auto" and M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    check = check_probability if M is not None else check_unconstrained_probability
    cells = []
    for p in sorted(set(p_list), reverse=True):
        check(p)
        bound = math.ceil(50 / p) if M == "auto" else M
        if bound is not None:
            check_size(f"M = ceil(50/p) at p = {p}" if M == "auto" else "M", bound)
        cells.append((p, bound))
    check_size("trials x distinct p", trials * len(cells))
    results = run_trials(_sweep_trial, trials, cells, master_seed)
    if M != "auto":
        _check_coupling(cells, results)

    rows = []
    for i, (p, bound) in enumerate(cells):
        if bound is not None and bound < 10 / p:
            warnings.warn(
                f"M = {bound} is below 10/p = {10 / p:.0f} at p = {p}; "
                "bounded-model means will be badly truncated",
                stacklevel=2,
            )
        kept = [row[i] for row in results if row[i] is not None]
        if not kept:
            rows.append(
                SweepRow(p, trials, None, None, None, None, None, None, None, 0, trials)
            )
            continue
        fs, gs, es, stops, wilf_ok = zip(*kept)
        mean_f, se_f = _mean_and_se(fs)
        mean_g, se_g = _mean_and_se(gs)
        mean_e, se_e = _mean_and_se(es)
        rows.append(
            SweepRow(
                p=p,
                trials=trials,
                mean_F=mean_f,
                ci95_F=_Z95 * se_f,
                mean_g=mean_g,
                ci95_g=_Z95 * se_g,
                mean_e=mean_e,
                ci95_e=_Z95 * se_e,
                mean_stop_index=sum(stops) / len(kept) if bound is None else None,
                wilf_violations=wilf_ok.count(False),
                excluded_trials=trials - len(kept),
            )
        )
    return rows


SWEEP_CSV_HEADER = (
    "p,trials,mean_F,ci95_F,mean_g,ci95_g,mean_e,ci95_e,"
    "mean_stop_index,wilf_violations,excluded_trials"
)


def _fmt(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def sweep_csv(rows: Sequence[SweepRow], master_seed: int, mode: str) -> str:
    """Render rows (descending p) as CSV; floats carry 6 significant digits.

    Comment lines hold only deterministic metadata, so rerunning a sweep
    with the same seed reproduces the file byte for byte.
    """
    ordered = sorted(rows, key=lambda r: r.p, reverse=True)
    lines = [
        f"# random numerical semigroup sweep: mode={mode} seed={master_seed}",
        "# means with 95% normal-approximation half-widths; empty field = not defined",
        SWEEP_CSV_HEADER,
    ]
    for r in ordered:
        lines.append(
            ",".join(
                [
                    _fmt(r.p),
                    str(r.trials),
                    _fmt(r.mean_F),
                    _fmt(r.ci95_F),
                    _fmt(r.mean_g),
                    _fmt(r.ci95_g),
                    _fmt(r.mean_e),
                    _fmt(r.ci95_e),
                    _fmt(r.mean_stop_index),
                    str(r.wilf_violations),
                    str(r.excluded_trials),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# growth-rate diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureDiagnostics:
    """ratio_F = mean_F * p / log2(1/p) and ratio_e = mean_e / log2(1/p)
    per row, plus max/min spreads.  Flat ratios across a wide p range are
    consistent with F ~ (1/p) log2(1/p) and e ~ log2(1/p); nothing is
    asserted either way."""

    points: tuple[tuple[float, float, float], ...]  # (p, ratio_F, ratio_e)
    ratio_F_spread: float
    ratio_e_spread: float


def conjecture_fit(rows: Sequence[SweepRow]) -> ConjectureDiagnostics:
    """Descriptive scaling ratios from sweep rows (needs >= 3 rows, p span >= 4x)."""
    usable = [r for r in rows if r.mean_F is not None and r.mean_e is not None]
    if len(usable) < 3:
        raise ValueError("need at least 3 sweep rows with defined means")
    ps = [r.p for r in usable]
    if max(ps) / min(ps) < 4:
        raise ValueError("rows must span at least a factor of 4 in p")
    points = []
    for r in sorted(usable, key=lambda r: r.p, reverse=True):
        denom = math.log2(1 / r.p)
        points.append((r.p, r.mean_F * r.p / denom, r.mean_e / denom))
    ratio_f = [x[1] for x in points]
    ratio_e = [x[2] for x in points]

    def spread(vals: list[float]) -> float:
        lo = min(vals)
        return math.inf if lo <= 0 else max(vals) / lo

    return ConjectureDiagnostics(tuple(points), spread(ratio_f), spread(ratio_e))


# ---------------------------------------------------------------------------
# event pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventOutcome:
    """Staged events of one pipeline trial; d3 implies d2 implies d1.

    d1: a prime in the window (f(p), 6 f(p)] was selected; q is the largest.
    d2: additionally at least ceil(12 log2 q) integers below q were selected
        (small_generator_count is that count, 0 when d1 fails).
    d3: additionally the largest residue-class minimum with respect to q of
        the semigroup generated by a uniform ceil(12 log2 q)-subset of the
        selected integers below q together with q (max_apery) is at most
        6 q log2 q.
    frobenius_within_cap (d3 only, else None): the Frobenius number of the
        semigroup generated by *all* selected integers is at most u(p).
    """

    d1: bool
    d2: bool
    d3: bool
    q: Optional[int]
    small_generator_count: int
    max_apery: Optional[int]
    frobenius_within_cap: Optional[bool] = None


@lru_cache(maxsize=None)
def _prime_window(p: float) -> tuple[float, int, frozenset[int]]:
    """(f(p), examination cutoff N = ceil(6 f(p)), primes in (f, 6f]).

    The primes come from a sieve of Eratosthenes up to N, and each trial
    draws N uniforms, so N is held to the size limit (``rng.check_size``)
    before the sieve is allocated.
    """
    f = prime_window_base(p)
    if f < 2:
        raise ValueError(
            f"prime window needs f(p) >= 2 but f({p}) = {f:.3f}; use a smaller p"
        )
    n_max = math.ceil(6 * f)
    check_size(f"prime window ceil(6 f(p)) at p = {p}", n_max)
    sieve = bytearray([1]) * (n_max + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n_max) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n_max + 1, i)))
    lo, hi = math.floor(f) + 1, math.floor(6 * f)  # the integers n with f < n <= 6f
    return f, n_max, frozenset(compress(range(lo, hi + 1), sieve[lo : hi + 1]))


def pipeline_outcome(
    p: float, selected: Sequence[int], rng
) -> EventOutcome:
    """Evaluate the staged events for one realized selection.

    ``selected`` is the list of integers kept from 1..ceil(6 f(p)); ``rng``
    supplies the uniform subset draw for the d3 stage (consumed only when
    d2 holds).  Split from the sampling loop so tests can force streams.
    """
    _, _, primes = _prime_window(p)
    selected_primes = [n for n in selected if n in primes]
    if not selected_primes:
        return EventOutcome(False, False, False, None, 0, None)
    q = max(selected_primes)
    below = [n for n in selected if n < q]
    count = len(below)
    need = math.ceil(12 * math.log2(q))
    if count < need:
        return EventOutcome(True, False, False, q, count, None)
    # uniform need-subset of the selected integers below q
    gens = normalize_generators([below[i] for i in draw_subset(rng, count, need)] + [q])
    max_apery = max(apery_set(gens, q).entries)
    if max_apery > 6 * q * math.log2(q):
        return EventOutcome(True, True, False, q, count, max_apery)
    within = frobenius(normalize_generators(selected)) <= frobenius_whp_cap(p)
    return EventOutcome(True, True, True, q, count, max_apery, within)


def event_pipeline_trial(p: float, master_seed: int, trial_index: int) -> EventOutcome:
    """Select from 1..N on the trial substream, then stage the selection.

    N = ceil(6 f(p)), and exactly N draws are made, so the stream is left
    at draw N + 1, where ``pipeline_outcome`` starts the d3 subset draw.
    """
    _, n_max, _ = _prime_window(p)
    rng = substream(master_seed, TAG_EVENTS, trial_index)
    return pipeline_outcome(p, list(select(rng, p, 1, n_max + 1)), rng)


@dataclass(frozen=True)
class SmallGeneratorReport:
    """Paired comparison of the selected-below-q count G against (q-1)p.

    Among d1-successful trials the conditional mean of G given q is
    exactly (q-1)p, so the mean of D = G - (q-1)p should sit within a few
    standard errors of zero.  within_5se records |mean D| < 5 * se(D).
    """

    p: float
    trials: int
    n_d1: int
    mean_count: float
    mean_expected: float
    diff: float
    se: float
    within_5se: bool


@dataclass(frozen=True)
class EventFailureReport:
    """Stage failure frequencies; conditionals are None when unobserved.

    frobenius_within_cap_given_d3 reports how often the Frobenius number
    of the semigroup generated by *all* selected integers stays within
    u(p) = 36 f(p) log2(6 f(p)) among d3-successful trials (it always
    should: the d3 cap 6 q log2 q is at most u(p)).  small_generator_check
    compares mean G with mean (q-1)p over the same trials' d1 successes
    (see ``SmallGeneratorReport``); it is None when no trial reached d1.
    """

    p: float
    trials: int
    pr_not_d1: Proportion
    pr_not_d2_given_d1: Optional[Proportion]
    pr_not_d3_given_d12: Optional[Proportion]
    frobenius_within_cap_given_d3: Optional[Proportion]
    small_generator_check: Optional[SmallGeneratorReport]


def _small_generator_check(
    p: float, trials: int, d1: Sequence[EventOutcome]
) -> Optional[SmallGeneratorReport]:
    """Mean G against mean (q-1)p over the d1 outcomes, in trial order."""
    if not d1:
        return None
    counts = [outcome.small_generator_count for outcome in d1]
    expected = [(outcome.q - 1) * p for outcome in d1]
    mean_d, se = _mean_and_se([g - e for g, e in zip(counts, expected)])
    return SmallGeneratorReport(
        p=p,
        trials=trials,
        n_d1=len(d1),
        mean_count=_mean_and_se(counts)[0],
        mean_expected=_mean_and_se(expected)[0],
        diff=mean_d,
        se=se,
        within_5se=abs(mean_d) < 5 * se if se > 0 else mean_d == 0,
    )


def estimate_event_failures(
    p: float, trials: int, master_seed: int
) -> EventFailureReport:
    """Monte Carlo stage-failure estimates with Wilson intervals, and the
    small-generator check, from one walk over the trials."""
    _prime_window(p)  # reject an undefined window before any trial runs
    results = run_trials(event_pipeline_trial, trials, p, master_seed)
    d1 = [outcome for outcome in results if outcome.d1]
    n_d12 = sum(1 for outcome in d1 if outcome.d2)
    within_cap = [outcome.frobenius_within_cap for outcome in results if outcome.d3]
    return EventFailureReport(
        p=p,
        trials=trials,
        pr_not_d1=wilson_proportion(trials - len(d1), trials),
        pr_not_d2_given_d1=wilson_proportion(len(d1) - n_d12, len(d1)) if d1 else None,
        pr_not_d3_given_d12=(
            wilson_proportion(n_d12 - len(within_cap), n_d12) if n_d12 else None
        ),
        frobenius_within_cap_given_d3=(
            wilson_proportion(sum(within_cap), len(within_cap)) if within_cap else None
        ),
        small_generator_check=_small_generator_check(p, trials, d1),
    )
