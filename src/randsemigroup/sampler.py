"""Random generator sets: each positive integer is kept with probability p.

Selection draws exactly one uniform u_n per integer n (in increasing n)
from the trial's substream and keeps n iff u_n < p; ``select`` is the one
place that rule is written.  Consequences, both tested: for a fixed master
seed and trial index, raising p can only add generators (coupling), and
the bounded and unconstrained samplers agree on any shared prefix of
integers because they consume the same stream.

One walk serves both models.  ``walk`` goes from keep to keep, keeping
the residue-class minima modulo its first keep m and folding in each
later keep with ``extend_minima``, so F = max(minima) - m: infinite until
the gcd reaches 1.  Keeps arrive in increasing order, and a sum of larger
integers cannot reach a smaller one, so a keep that is not yet a member is
exactly a minimal generator: the walk takes that answer from
``extend_minima``, as ``semigroup.invariants`` does, and sweeps read
F, g and e off its table (``semigroup.table_invariants``) instead of
rebuilding it with ``invariants``.  F changes only at such a keep, and
every n past F is already a member, so the walk draws only while n <= F
and tests the stop once per keep: the stop index max(last keep, F) + 1 is
the first n (checked before examining n) at which the keeps so far have
gcd 1 and F < n, and no later keep could change the semigroup.  The
unconstrained model has no cutoff M, so it ends there.  With a bound M
the walk also draws no further than M, and returns None when the keeps in
1..M have gcd > 1; ``sample_bounded`` still draws all of 1..M and returns
that raw draw.  While the gcd exceeds 1 the unconstrained walk fails safe
instead of walking forever: if ceil(64/p) consecutive integers bring no
keep (probability about e^-64) it raises ``RuntimeError``.  That span is
held to the package's one size limit (``rng.check_size``), so p must be at
least 2^-18, checked before any draw.  The first keep, which sizes the
walk's residue table and the one ``invariants`` builds for a
``sample_unconstrained`` draw, then lies within the span, so neither
table exceeds the limit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .rng import TAG_SAMPLE, check_size, substream
from .semigroup import GeneratorSet, extend_minima


def check_probability(p: float) -> None:
    """Reject a selection probability outside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")


def check_unconstrained_probability(p: float) -> None:
    """``check_probability``, and hold the fail-safe span ceil(64/p) to the size limit."""
    check_probability(p)
    check_size(f"unconstrained walk span ceil(64/p) at p = {p}", math.ceil(64 / p))


def select(rng: random.Random, p: float, start: int, stop: int) -> Iterator[int]:
    """Yield each n of range(start, stop) with u_n < p, in increasing order.

    u_n is the next ``rng.random()`` draw, taken only when the consumer asks
    for the next keep: exhausting the iterator makes exactly stop - start
    draws, and a consumer that stops after a keep leaves the stream just
    past that keep's draw.
    """
    draw = rng.random
    for n in range(start, stop):
        if draw() < p:
            yield n


@dataclass(frozen=True)
class ErConfig:
    """Bounded-model parameters: keep each of 1..M with probability p."""

    p: float
    M: int
    master_seed: int

    def __post_init__(self) -> None:
        check_probability(self.p)
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        check_size("M", self.M)


@dataclass(frozen=True)
class SampleTrace:
    """Unconstrained sample: generators and stopping point.

    stop_index is the first integer at which the stopping condition held
    (it was not examined; draws cover 1..stop_index-1), so every generator
    is < stop_index and the sample consumed stop_index - 1 draws.
    """

    gens: GeneratorSet
    stop_index: int


def sample_bounded(config: ErConfig, trial_index: int) -> GeneratorSet:
    """One draw from the bounded model; gcd may be != 1 (caller decides)."""
    rng = substream(config.master_seed, TAG_SAMPLE, trial_index)
    selected = tuple(select(rng, config.p, 1, config.M + 1))
    return GeneratorSet(selected, math.gcd(*selected))


def sample_unconstrained(p: float, master_seed: int, trial_index: int) -> SampleTrace:
    """One draw from the unconstrained model; terminates with probability 1."""
    check_unconstrained_probability(p)
    keeps, _, _, stop = walk(substream(master_seed, TAG_SAMPLE, trial_index), p)
    return SampleTrace(GeneratorSet(tuple(keeps), 1), stop)


def walk(rng: random.Random, p: float, M: Optional[int] = None) -> Optional[tuple]:
    """Walk keep to keep: (keeps, minimal generators, minima, stop index).

    minima are the residue-class minima modulo the first keep.  Without a
    bound M the walk ends at the stop index; with one it also ends past M,
    and returns None when the keeps in 1..M have gcd > 1.  The stream is an
    argument so that tests can feed scripted streams to the stopping rule.
    """
    span = math.ceil(64 / p) if M is None else M  # bounded: no gap ends the walk before M
    keeps: list[int] = []
    minimal: list[int] = []
    minima: list = []
    frob = math.inf
    last = 0
    while True:
        end = last + 1 + span if frob == math.inf else frob + 1
        n = next(select(rng, p, last + 1, end if M is None else min(end, M + 1)), None)
        if n is None:
            break
        keeps.append(n)
        last = n
        if not minima:
            minima = [0] + [math.inf] * (n - 1)
        elif not extend_minima(minima, n):
            continue  # already a member: the table and F stay as they are
        minimal.append(n)
        frob = max(minima) - keeps[0]
    if frob == math.inf:
        if M is not None:
            return None
        raise RuntimeError(
            f"no integer kept in the {span} integers after {last} while the gcd "
            f"of the {len(keeps)} kept so far is {math.gcd(*keeps)} (p={p}); "
            "a gap this long has probability about e^-64"
        )
    return keeps, minimal, minima, max(last, frob) + 1
