"""Random generator sets: each positive integer is kept with probability p.

Selection draws exactly one uniform u_n per integer n (in increasing n)
from the trial's substream and keeps n iff u_n < p.  Consequences, both
tested: for a fixed master seed and trial index, raising p can only add
generators (coupling), and the bounded and unconstrained samplers agree
on any shared prefix of integers because they consume the same stream.

The unconstrained sampler has no cutoff M, so it must stop on its own.
It examines n = 1, 2, 3, ... and stops at the first n (checked before
examining n) such that the set selected so far has gcd 1 and Frobenius
number < n.  From that point on, every unexamined integer is already a
member of the generated semigroup, so no later selection could change the
semigroup or any invariant; the returned generators determine everything.
The sampler keeps the residue-class minima modulo its first selected
integer m and folds in each later one with ``extend_minima``, so the
Frobenius number is max(minima) - m: infinite until the gcd reaches 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .rng import TAG_SAMPLE, substream
from .semigroup import GeneratorSet, extend_minima


@dataclass(frozen=True)
class ErConfig:
    """Bounded-model parameters: keep each of 1..M with probability p."""

    p: float
    M: int
    master_seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")


@dataclass(frozen=True)
class SampleTrace:
    """Unconstrained sample: generators, stopping point, and draw count.

    stop_index is the first integer at which the stopping condition held
    (it was not examined; draws cover 1..stop_index-1), so every generator
    is < stop_index and uniform_draws_consumed == stop_index - 1.
    """

    gens: GeneratorSet
    stop_index: int
    uniform_draws_consumed: int


def sample_bounded(config: ErConfig, trial_index: int) -> GeneratorSet:
    """One draw from the bounded model; gcd may be != 1 (caller decides)."""
    rng = substream(config.master_seed, TAG_SAMPLE, trial_index)
    p = config.p
    selected: list[int] = []
    g = 0
    for n in range(1, config.M + 1):
        if rng.random() < p:
            selected.append(n)
            g = math.gcd(g, n)
    return GeneratorSet(tuple(selected), g)


def sample_unconstrained(p: float, master_seed: int, trial_index: int) -> SampleTrace:
    """One draw from the unconstrained model; terminates with probability 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    rng = substream(master_seed, TAG_SAMPLE, trial_index)
    return _sample_unconstrained_from(rng, p, 2**32)


def _sample_unconstrained_from(
    rng: random.Random, p: float, iteration_cap: int
) -> SampleTrace:
    # Split out so tests can feed scripted streams to the stopping rule.
    selected: list[int] = []
    minima: list = []
    frob = math.inf
    n = 0
    while True:
        n += 1
        if frob < n:
            return SampleTrace(GeneratorSet(tuple(selected), 1), n, n - 1)
        if n > iteration_cap:
            raise RuntimeError(
                f"stopping rule not reached within {iteration_cap} integers "
                f"(p={p}, selected {len(selected)} generators, "
                f"gcd={math.gcd(*selected)}); "
                "seed/trial combination appears pathological"
            )
        if rng.random() < p:
            selected.append(n)
            if minima:
                extend_minima(minima, n)
            else:
                minima = [0] + [math.inf] * (n - 1)
            frob = max(minima) - selected[0]
