"""Exact invariants of numerical semigroups given by finite generator sets.

For a finite set A of positive integers, <A> is the set of all finite sums
of elements of A (including the empty sum 0).  When gcd(A) = 1 the
complement N \\ <A> is finite and three classical invariants are defined:

* Frobenius number F: the largest integer not in <A>.  For the gap-free
  case <A> = N we use the convention F = -1 (so F + 1 is always the start
  of the final cofinite run).
* genus g: the number of positive integers not in <A>.
* embedding dimension e: the size of the unique minimal generating set,
  the elements of <A> \\ {0} that are not a sum of two nonzero elements.

Everything exact runs through the table of residue-class minima with
respect to a nonzero element m of the semigroup: entry i is the least
element of <A> congruent to i mod m.  Then

    F = max(entries) - m          and         g = sum_i floor(entries[i] / m),

and x >= 0 is a member exactly when x >= entries[x mod m].  One kernel,
``extend_minima``, builds every such table modulo the least generator l: it
folds one generator into the minima in a single O(l) round-robin pass, so
batch tables and the sampler's incremental table are the same code, and no
interval of integers is ever scanned.  It reports whether the generator
was new, and folded in increasing order a generator is minimal exactly
when it is new (a sum of nonzero members equal to it uses only smaller
generators), so one fold gives the table and the minimal generators.
The table for any other member m is read off the table mod l in O(m),
since its entries are the members x with x - m not in <A>; it is never
folded mod m.  ``membership_table`` is the independent bit-packed scan
kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rng import check_size


class InvalidGeneratorError(ValueError):
    """A proposed generator is not a positive integer."""


class NotCofiniteError(ValueError):
    """gcd of the generators is not 1, so the complement is infinite."""


@dataclass(frozen=True)
class GeneratorSet:
    """Sorted, duplicate-free generators plus their gcd (0 when empty)."""

    elements: tuple[int, ...]
    gcd: int

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_cofinite(self) -> bool:
        return self.gcd == 1


def normalize_generators(raw: Iterable[int]) -> GeneratorSet:
    """Validate, sort, and deduplicate raw generators.

    Raises InvalidGeneratorError unless every value is an integer >= 1.
    An empty input is allowed and yields gcd 0 (the trivial semigroup {0}).
    """
    seen = set()
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InvalidGeneratorError(f"generator {v!r} is not an integer")
        if v < 1:
            raise InvalidGeneratorError(f"generator {v} is not positive")
        seen.add(v)
    elements = tuple(sorted(seen))
    return GeneratorSet(elements, math.gcd(*elements) if elements else 0)


@dataclass(frozen=True)
class MembershipTable:
    """Bit-packed membership of <A> on [0, limit]: bit x set iff x in <A>."""

    bits: int
    limit: int

    def __len__(self) -> int:
        return self.limit + 1

    def __getitem__(self, x: int) -> bool:
        if not 0 <= x <= self.limit:
            raise IndexError(f"{x} outside table range [0, {self.limit}]")
        return bool((self.bits >> x) & 1)

    def members(self) -> list[int]:
        return [x for x in range(self.limit + 1) if (self.bits >> x) & 1]


def membership_table(gens: GeneratorSet, limit: int) -> MembershipTable:
    """All sums of generators up to ``limit`` (works for any gcd).

    Unbounded-knapsack closure on a bitset: for each generator a, OR-ing
    the table with its own shift by a doubles the reachable multiples of
    a, so each generator closes in O(log limit) big-int operations.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    mask = (1 << (limit + 1)) - 1
    bits = 1  # the empty sum
    for a in gens.elements:
        if a > limit:
            break  # elements are sorted; nothing below the cutoff remains
        prev = -1
        while bits != prev:
            prev = bits
            bits |= (bits << a) & mask
    return MembershipTable(bits, limit)


@dataclass(frozen=True)
class AperyTable:
    """Residue-class minima of <A> with respect to m: entries[i] is the
    least element congruent to i mod m.  entries[0] is always 0."""

    m: int
    entries: tuple[int, ...]


def extend_minima(entries: list, a: int) -> bool:
    """Fold generator a into the residue-class minima mod m = len(entries).

    In place; unreached classes hold math.inf.  Round-robin update of
    Böcker & Lipták (Algorithmica 2007): adding a links the classes into
    gcd(a mod m, m) cycles i -> (i + a) mod m.  Walking each cycle once from
    its current minimum, new = min(old, previous + a) settles every class,
    since nothing can improve the cycle's minimum itself.  Returns False at
    once when a is already a member, and True once a is folded in.
    """
    m = len(entries)
    r = a % m
    if a >= entries[r]:
        return False
    d = math.gcd(r, m)
    for c in range(d):
        cycle = entries[c::d]
        best = min(cycle)
        if best == math.inf:
            continue  # no class of this cycle is reached yet
        i = c + d * cycle.index(best)
        for _ in range(m // d - 1):
            i += r
            if i >= m:
                i -= m
            best += a
            e = entries[i]
            if e < best:
                best = e
            else:
                entries[i] = best
    return True


def _fold(gens: GeneratorSet) -> tuple[list, tuple[int, ...]]:
    """Class minima modulo the least generator l, and the minimal generators.

    The sorted generators are folded in one by one: l is minimal, and each
    later one is minimal exactly when ``extend_minima`` finds it new.
    """
    least = gens.elements[0]
    check_size("least generator", least)
    w = [0] + [math.inf] * (least - 1)
    return w, (least, *(a for a in gens.elements[1:] if extend_minima(w, a)))


def apery_set(gens: GeneratorSet, m: int) -> AperyTable:
    """Class minima mod m, read off the fold modulo the least generator l.

    Requires gcd(gens + {m}) = 1 (otherwise some class is unreachable and
    NotCofiniteError is raised) and m in <A> (otherwise the minima would
    not coincide with {x in <A> : x - m not in <A>}; ValueError).  Costs
    O(l * len(gens) + m): the table w mod l comes from ``_fold``; for
    m != l, the members x = r (mod l) with x - m outside <A> are exactly
    range(w[r], w[(r - m) % l] + m, l), and these m values are the minima
    mod m.  Both tables are O(l) and O(m) lists, so l and m are held to the
    size limit before either is made.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    w = _fold(gens)[0] if gens.elements else []
    check_size("m", m)
    if math.gcd(gens.gcd, m) != 1:
        raise NotCofiniteError(
            f"gcd(generators + {{{m}}}) = {math.gcd(gens.gcd, m)} != 1; "
            "some residue class mod m is never reached"
        )
    if not w or m < w[m % len(w)]:
        raise ValueError(f"m = {m} is not an element of the semigroup")
    least = len(w)
    if m == least:
        return AperyTable(m, tuple(w))
    entries = [0] * m
    for r in range(least):
        for x in range(w[r], w[(r - m) % least] + m, least):
            entries[x % m] = x
    return AperyTable(m, tuple(entries))


def frobenius(gens: GeneratorSet) -> int:
    """Largest integer outside <A> (-1 when <A> = N), read off ``invariants``."""
    return invariants(gens).frobenius


def genus(gens: GeneratorSet) -> int:
    """Number of positive integers outside <A>, read off ``invariants``."""
    return invariants(gens).genus


def minimal_generators(gens: GeneratorSet) -> GeneratorSet:
    """The unique minimal generating set of <A>."""
    return invariants(gens).minimal_generators


@dataclass(frozen=True)
class SemigroupInvariants:
    frobenius: int
    genus: int
    embedding_dimension: int
    minimal_generators: GeneratorSet


def invariants(gens: GeneratorSet) -> SemigroupInvariants:
    """Frobenius number, genus, and minimal generators from one fold
    modulo the least generator (``_fold``); needs gcd 1."""
    if gens.gcd != 1:
        raise NotCofiniteError(f"gcd of generators is {gens.gcd}; invariants need gcd 1")
    return table_invariants(*_fold(gens))


def table_invariants(w: Sequence, minimal: tuple[int, ...]) -> SemigroupInvariants:
    """Invariants read off the class minima w modulo a member m = len(w),
    given the minimal generators: F = max(w) - m and g = sum(w[i] // m)."""
    m = len(w)
    return SemigroupInvariants(
        max(w) - m, sum(e // m for e in w), len(minimal), GeneratorSet(minimal, 1)
    )


@dataclass(frozen=True)
class WilfReport:
    """Exact check of (F + 1 - g) / (F + 1) >= 1 / e.

    Both sides are Fractions, no rounding.  For F = -1 the quantities are
    undefined; by convention the report holds with lhs recorded as 1.
    A failing report is surveillance output, never an assertion: callers
    count violations, they do not crash.
    """

    holds: bool
    lhs: Fraction
    rhs: Fraction


def wilf_check(inv: SemigroupInvariants) -> WilfReport:
    rhs = Fraction(1, inv.embedding_dimension)
    if inv.frobenius == -1:
        return WilfReport(True, Fraction(1), rhs)
    lhs = Fraction(inv.frobenius + 1 - inv.genus, inv.frobenius + 1)
    return WilfReport(lhs >= rhs, lhs, rhs)
