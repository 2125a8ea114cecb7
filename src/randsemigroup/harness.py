"""Monte Carlo experiments over random numerical semigroups.

Four instrument groups share this module:

* closed-form expectation bounds for the bounded model (``theoretical_bounds``),
* seeded sweeps over p producing CSV rows with normal-approximation
  confidence intervals (``run_sweep`` / ``sweep_csv``),
* growth-rate diagnostics for the scaling guess F ~ (1/p) log2(1/p) and
  e ~ log2(1/p) (``conjecture_fit``; descriptive, makes no pass/fail claim),
* the staged event pipeline behind the high-probability Frobenius cap
  (``event_pipeline_trial`` and the estimators built on it).

Determinism contract: every trial draws from a substream keyed by
(master_seed, stream tag, trial index); per-metric tallies are exact
integer sums merged in trial order.  Output therefore never depends on
the worker count, which defaults to all cores and can be overridden with
the RANDSEMIGROUP_WORKERS environment variable or a ``workers=`` argument.

Proportions carry Wilson score intervals; conditional proportions with an
empty conditioning set are reported as absent (None / empty CSV field),
never as zero.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Optional, Sequence

from .rng import TAG_EVENTS, randbelow, substream
from .sampler import ErConfig, sample_bounded, sample_unconstrained
from .semigroup import (
    GeneratorSet,
    SemigroupInvariants,
    apery_set,
    frobenius,
    invariants,
    normalize_generators,
    wilf_check,
)
from .sumsets import is_prime

WORKERS_ENV_VAR = "RANDSEMIGROUP_WORKERS"


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
    _check_probability(p)
    return (1.0 / p) * math.log(1.0 / p) ** 2


def frobenius_whp_cap(p: float) -> float:
    """u(p) = 36 * f(p) * log2(6 * f(p)), the with-high-probability cap."""
    f = prime_window_base(p)
    return 36.0 * f * math.log2(6.0 * f)


def polylog_frobenius_cap(p: float, scale: float) -> float:
    """The same cap in its generic form: scale * (1/p) * ln(1/p)^3."""
    _check_probability(p)
    return scale * (1.0 / p) * math.log(1.0 / p) ** 3


def conditional_frobenius_tail(p: float, u: float) -> float:
    """Upper bound for E[F | F >= u]: 8/p^4 + 4u/p^2 + u^2."""
    _check_probability(p)
    return 8.0 / p**4 + 4.0 * u / p**2 + u**2


def theoretical_bounds(p: float) -> BoundsRecord:
    """Evaluate every closed form at one p in (0, 1)."""
    _check_probability(p)
    shared_lower = (6 - 14 * p + 11 * p**2 - 3 * p**3) / (
        2 * p - 2 * p**3 + p**4
    )
    u = frobenius_whp_cap(p)
    return BoundsRecord(
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


def _check_probability(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")


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


def _sweep_trial(args: tuple) -> tuple:
    p, bound, master_seed, trial_index = args
    if bound is None:
        trace = sample_unconstrained(p, master_seed, trial_index)
        gens: GeneratorSet = trace.gens
        stop = trace.stop_index
    else:
        gens = sample_bounded(ErConfig(p, bound, master_seed), trial_index)
        stop = None
        if gens.gcd != 1:
            return (trial_index, None)
    inv = invariants(gens)
    _check_pointwise(inv)
    return (
        trial_index,
        (
            inv.frobenius,
            inv.genus,
            inv.embedding_dimension,
            stop,
            wilf_check(inv).holds,
        ),
    )


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else RANDSEMIGROUP_WORKERS, else all cores."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _mean_and_ci(total: int, total_sq: int, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = (total_sq - total * total / n) / (n - 1)
    return mean, _Z95 * math.sqrt(max(0.0, var) / n)


def run_sweep(
    p_list: Sequence[float],
    trials: int,
    master_seed: int,
    M: int | None | Literal["auto"] = None,
    workers: Optional[int] = None,
) -> list[SweepRow]:
    """One SweepRow per p, processed and returned in descending p order.

    M=None samples the unconstrained model; an integer M (or "auto",
    meaning ceil(50/p) per p) samples the bounded one, where draws with
    gcd != 1 are excluded from the means and counted in excluded_trials.
    Per-metric tallies are exact integer sums folded in trial order, so
    results are identical for every worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for p in p_list:
        _check_probability(p)
    if M is not None and M != "auto" and M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    workers = resolve_workers(workers)

    rows = []
    for p in sorted(set(p_list), reverse=True):
        bound = math.ceil(50 / p) if M == "auto" else M
        if bound is not None and bound < 10 / p:
            warnings.warn(
                f"M = {bound} is below 10/p = {10 / p:.0f} at p = {p}; "
                "bounded-model means will be badly truncated",
                stacklevel=2,
            )
        args = [(p, bound, master_seed, t) for t in range(trials)]
        if workers == 1:
            results = [_sweep_trial(a) for a in args]
        else:
            chunk = max(1, trials // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_trial, args, chunksize=chunk))
        results.sort(key=lambda r: r[0])  # merge tallies in trial order

        sums = {"F": 0, "g": 0, "e": 0, "stop": 0}
        sqs = {"F": 0, "g": 0, "e": 0}
        included = 0
        wilf_violations = 0
        for _, payload in results:
            if payload is None:
                continue
            f, g, e, stop, wilf_ok = payload
            included += 1
            sums["F"] += f
            sums["g"] += g
            sums["e"] += e
            sqs["F"] += f * f
            sqs["g"] += g * g
            sqs["e"] += e * e
            if stop is not None:
                sums["stop"] += stop
            if not wilf_ok:
                wilf_violations += 1

        if included == 0:
            rows.append(
                SweepRow(p, trials, None, None, None, None, None, None, None, 0, trials)
            )
            continue
        mean_f, ci_f = _mean_and_ci(sums["F"], sqs["F"], included)
        mean_g, ci_g = _mean_and_ci(sums["g"], sqs["g"], included)
        mean_e, ci_e = _mean_and_ci(sums["e"], sqs["e"], included)
        mean_stop = sums["stop"] / included if bound is None else None
        rows.append(
            SweepRow(
                p=p,
                trials=trials,
                mean_F=mean_f,
                ci95_F=ci_f,
                mean_g=mean_g,
                ci95_g=ci_g,
                mean_e=mean_e,
                ci95_e=ci_e,
                mean_stop_index=mean_stop,
                wilf_violations=wilf_violations,
                excluded_trials=trials - included,
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
    """

    d1: bool
    d2: bool
    d3: bool
    q: Optional[int]
    small_generator_count: int
    max_apery: Optional[int]


@lru_cache(maxsize=None)
def _prime_window(p: float) -> tuple[float, int, frozenset[int]]:
    """(f(p), examination cutoff N = ceil(6 f(p)), primes in (f, 6f])."""
    f = prime_window_base(p)
    if f < 2:
        raise ValueError(
            f"prime window needs f(p) >= 2 but f({p}) = {f:.3f}; use a smaller p"
        )
    n_max = math.ceil(6 * f)
    primes = frozenset(
        n for n in range(2, n_max + 1) if f < n <= 6 * f and is_prime(n)
    )
    return f, n_max, primes


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
    # uniform need-subset of the selected integers below q (partial shuffle)
    pool = list(below)
    for i in range(need):
        j = i + randbelow(rng, len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    gens = normalize_generators(pool[:need] + [q])
    max_apery = max(apery_set(gens, q).entries)
    d3 = max_apery <= 6 * q * math.log2(q)
    return EventOutcome(True, True, d3, q, count, max_apery)


def event_pipeline_trial(p: float, master_seed: int, trial_index: int) -> EventOutcome:
    """Sample 1..ceil(6 f(p)) at rate p on the trial substream, then stage."""
    _, n_max, _ = _prime_window(p)
    rng = substream(master_seed, TAG_EVENTS, trial_index)
    selected = [n for n in range(1, n_max + 1) if rng.random() < p]
    return pipeline_outcome(p, selected, rng)


@dataclass(frozen=True)
class EventFailureReport:
    """Stage failure frequencies; conditionals are None when unobserved.

    frobenius_within_cap_given_d3 reports how often the Frobenius number
    of the semigroup generated by *all* selected integers stays within
    u(p) = 36 f(p) log2(6 f(p)) among d3-successful trials (it always
    should: the d3 cap 6 q log2 q is at most u(p)).
    """

    p: float
    trials: int
    pr_not_d1: Proportion
    pr_not_d2_given_d1: Optional[Proportion]
    pr_not_d3_given_d12: Optional[Proportion]
    frobenius_within_cap_given_d3: Optional[Proportion]


def estimate_event_failures(
    p: float, trials: int, master_seed: int
) -> EventFailureReport:
    """Monte Carlo stage-failure estimates with Wilson intervals."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _, n_max, _ = _prime_window(p)
    cap = frobenius_whp_cap(p)
    n_d1 = n_d12 = n_d3 = 0
    not_d2 = not_d3 = 0
    within_cap = 0
    for t in range(trials):
        rng = substream(master_seed, TAG_EVENTS, t)
        selected = [n for n in range(1, n_max + 1) if rng.random() < p]
        outcome = pipeline_outcome(p, selected, rng)
        if not outcome.d1:
            continue
        n_d1 += 1
        if not outcome.d2:
            not_d2 += 1
            continue
        n_d12 += 1
        if not outcome.d3:
            not_d3 += 1
            continue
        n_d3 += 1
        f = frobenius(normalize_generators(selected))
        if f <= cap:
            within_cap += 1
    return EventFailureReport(
        p=p,
        trials=trials,
        pr_not_d1=wilson_proportion(trials - n_d1, trials),
        pr_not_d2_given_d1=wilson_proportion(not_d2, n_d1) if n_d1 else None,
        pr_not_d3_given_d12=wilson_proportion(not_d3, n_d12) if n_d12 else None,
        frobenius_within_cap_given_d3=(
            wilson_proportion(within_cap, n_d3) if n_d3 else None
        ),
    )


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


def expected_small_generators_check(
    p: float, trials: int, master_seed: int
) -> Optional[SmallGeneratorReport]:
    """Check mean G against mean (q-1)p; None when no trial reached d1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _, n_max, primes = _prime_window(p)
    n_d1 = 0
    sum_g = 0
    sum_expected = 0.0
    sum_d = 0.0
    sum_d2 = 0.0
    for t in range(trials):
        rng = substream(master_seed, TAG_EVENTS, t)
        selected = [n for n in range(1, n_max + 1) if rng.random() < p]
        selected_primes = [n for n in selected if n in primes]
        if not selected_primes:
            continue
        q = max(selected_primes)
        g = sum(1 for n in selected if n < q)
        expected = (q - 1) * p
        n_d1 += 1
        sum_g += g
        sum_expected += expected
        d = g - expected
        sum_d += d
        sum_d2 += d * d
    if n_d1 == 0:
        return None
    mean_d = sum_d / n_d1
    var_d = (sum_d2 - sum_d * sum_d / n_d1) / (n_d1 - 1) if n_d1 > 1 else 0.0
    se = math.sqrt(max(0.0, var_d) / n_d1)
    return SmallGeneratorReport(
        p=p,
        trials=trials,
        n_d1=n_d1,
        mean_count=sum_g / n_d1,
        mean_expected=sum_expected / n_d1,
        diff=mean_d,
        se=se,
        within_5se=abs(mean_d) < 5 * se if se > 0 else mean_d == 0,
    )
