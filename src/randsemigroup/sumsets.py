"""k-fold sumsets of subsets of Z_q, subset-sum counts, and coverage trials.

Subsets of Z_q are bit-packed (bit r set iff residue r is a member), so a
sumset step S + A ORs the shifts S << a for a in A into one wide integer and
wraps it mod q once.  The k-fold sumset folds S <- S + A, k - 1 times, and
stops as soon as S is all of Z_q, which is exact because Z_q + A = Z_q for
nonempty A.  For prime q, Cauchy-Davenport (|S + A| >= min(q, |S| + |A| - 1))
bounds the steps by ceil((q - |A|) / (|A| - 1)) when |A| >= 2.  The coverage
experiment draws a uniform random s-subset A of Z_q with s = 2*ceil(b*log2 q)
and asks whether the k-fold sumset of A with k = ceil(b*log2 q) is all of
Z_q; the probability that it is not is at most

    (2*b*log2(q) + 3) / q^(b-2),

which ``coverage_failure_bound`` evaluates; A comes from ``rng.draw_subset``.
Exact subset-sum counts obey, for prime q and 1 <= k < q, |{A : |A| = k,
sum(A) = z (mod q)}| = C(q,k)/q independently of z, which
``count_subsets_with_sum`` checks on small cases by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .rng import TAG_COVERAGE, check_size, draw_subset, run_trials, substream

# Deterministic Miller-Rabin witnesses, valid for all n < 2^64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n <= 2^64 - 1."""
    if n >= 1 << 64:
        raise ValueError("is_prime is only deterministic below 2^64")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CyclicSubset:
    """Immutable subset of Z_q, bit-packed: bit r set iff r is a member."""

    q: int
    bits: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.bits < 0 or self.bits >> self.q:
            raise ValueError("bits outside [0, 2^q)")

    @classmethod
    def from_elements(cls, q: int, elements: Iterable[int]) -> "CyclicSubset":
        bits = 0
        for e in elements:
            if not 0 <= e < q:
                raise ValueError(f"element {e} outside Z_{q}")
            bits |= 1 << e
        return cls(q, bits)

    @classmethod
    def full(cls, q: int) -> "CyclicSubset":
        return cls(q, (1 << q) - 1)

    def elements(self) -> tuple[int, ...]:
        digits = bin(self.bits)[:1:-1]  # digits[r] is bit r
        members = []
        r = digits.find("1")
        while r >= 0:
            members.append(r)
            r = digits.find("1", r + 1)
        return tuple(members)

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.q and bool((self.bits >> r) & 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.q) - 1


def _shift_or(bits: int, shifts: Iterable[int], q: int) -> int:
    """OR of the cyclic shifts of bits (< 2^q) by each e in shifts (0 <= e < q)."""
    wide = 0
    for e in shifts:
        wide |= bits << e
    return (wide & ((1 << q) - 1)) | (wide >> q)


def add_sets(x: CyclicSubset, y: CyclicSubset) -> CyclicSubset:
    """{a + b mod q : a in x, b in y}; empty if either operand is empty."""
    if x.q != y.q:
        raise ValueError(f"modulus mismatch: {x.q} != {y.q}")
    q = x.q
    if x.bits == 0 or y.bits == 0:
        return CyclicSubset(q, 0)
    if x.is_full or y.is_full:  # both known nonempty here
        return CyclicSubset.full(q)
    if x.size > y.size:  # shift the larger set by members of the smaller
        x, y = y, x
    return CyclicSubset(q, _shift_or(y.bits, x.elements(), q))


def k_fold_sumset(a: CyclicSubset, k: int) -> CyclicSubset:
    """A + A + ... + A (k summands, repetition allowed).

    Folds acc <- acc + A up to k - 1 times and stops once acc is all of Z_q,
    which every further summand keeps.  For prime q and |A| >= 2 each step
    grows acc by at least |A| - 1 (Cauchy-Davenport), so at most
    ceil((q - |A|) / (|A| - 1)) steps run whatever k is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if a.bits == 0:
        raise ValueError("k-fold sumset of the empty set is undefined")
    q = a.q
    full = (1 << q) - 1
    shifts = a.elements()
    acc = a.bits
    for _ in range(k - 1):
        if acc == full:
            break
        acc = _shift_or(acc, shifts, q)
    return CyclicSubset(q, acc)


def k_distinct_sumset(a: CyclicSubset, k: int) -> CyclicSubset:
    """Sums of k *distinct* members of a (a subset of the k-fold sumset)."""
    if not 1 <= k <= a.size:
        raise ValueError(f"k must be in [1, {a.size}], got {k}")
    # layers[c] = residues reachable as a sum of c distinct members so far
    layers = [0] * (k + 1)
    layers[0] = 1
    for e in a.elements():
        for c in range(k, 0, -1):
            if layers[c - 1]:
                layers[c] |= _shift_or(layers[c - 1], (e,), a.q)
    return CyclicSubset(a.q, layers[k])


_BRUTE_LIMIT = 10**7


def count_subsets_with_sum(q: int, k: int, z: int) -> int:
    """Number of k-element subsets of Z_q with sum congruent to z mod q.

    Counts by enumeration, so it checks the closed form C(q, k)/q rather
    than using it; refuses when C(q, k) > 10^7.  Requires q prime and
    1 <= k < q.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    if not 1 <= k < q:
        raise ValueError(f"k must satisfy 1 <= k < q, got {k}")
    z %= q
    total = math.comb(q, k)
    if total > _BRUTE_LIMIT:
        raise ValueError(
            f"C({q},{k}) = {total} subsets is too many to enumerate; "
            f"the closed form C(q, k)/q = {total // q} holds for prime q"
        )
    return sum(1 for c in combinations(range(q), k) if sum(c) % q == z)


def coverage_failure_bound(q: int, b: float) -> float:
    """(2*b*log2(q) + 3) / q^(b-2); a bound on the non-coverage probability."""
    numerator = 2 * b * math.log2(q) + 3
    try:
        return numerator / q ** (b - 2)
    except OverflowError:  # q^(b-2) > the largest double: 0 only below the least one
        return math.exp(math.log(numerator) - (b - 2) * math.log(q))


def _summands(q: int, b: float) -> int:
    """k = ceil(b*log2 q) for prime q within the size limit, finite b > 0, s = 2k <= q."""
    check_size("q", q)
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"b must be finite and > 0, got {b}")
    k = math.ceil(min(b * math.log2(q), q))  # min: b*log2 q may overflow to inf
    if 2 * k > q:
        raise ValueError(f"subset size 2*ceil(b*log2 q) exceeds q = {q} at b = {b}")
    return k


def coverage_trial(q: int, b: float, master_seed: int, trial_index: int) -> bool:
    """One coverage draw: uniform s-subset A, true iff k*A covers Z_q.

    s = 2*ceil(b*log2 q) and k = ceil(b*log2 q) (ceilings throughout).
    The subset is ``draw_subset(rng, q, s)`` on the trial's substream, so
    each trial is reproducible in isolation.
    """
    k = _summands(q, b)
    bits = 0
    for r in draw_subset(substream(master_seed, TAG_COVERAGE, trial_index), q, 2 * k):
        bits |= 1 << r
    return k_fold_sumset(CyclicSubset(q, bits), k).is_full


@dataclass(frozen=True)
class CoverageExperiment:
    """Tally of coverage trials at fixed (q, b) plus the proved bound."""

    q: int
    b: float
    s: int
    k: int
    trials: int
    failures: int
    bound: float

    @property
    def empirical_rate(self) -> float:
        return self.failures / self.trials


def run_coverage_experiment(
    q: int, b: float, trials: int, master_seed: int
) -> CoverageExperiment:
    """Coverage trials run by ``run_trials``; failures counts non-covering draws."""
    k = _summands(q, b)
    covered = run_trials(coverage_trial, trials, q, b, master_seed)
    failures = covered.count(False)
    return CoverageExperiment(
        q, b, 2 * k, k, trials, failures, coverage_failure_bound(q, b)
    )
