"""Core semigroup computations checked against independent brute-force oracles.

The oracles never touch the bitset or residue-table code paths: membership
comes from a BFS closure over sums, residue-class minima from scanning that
closure, and the gap invariants from the closure's complement.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from randsemigroup import (
    AperyTable,
    GeneratorSet,
    InvalidGeneratorError,
    NotCofiniteError,
    apery_set,
    frobenius,
    genus,
    invariants,
    membership_table,
    minimal_generators,
    normalize_generators,
    wilf_check,
)


def closure_members(elements, limit):
    """All sums of elements up to limit, by plain BFS on a set."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for a in elements:
            y = x + a
            if y <= limit and y not in members:
                members.add(y)
                frontier.append(y)
    return members


def oracle_gap_invariants(elements, limit):
    """(frobenius, genus) read off the closure's complement."""
    members = closure_members(elements, limit)
    gaps = [x for x in range(limit + 1) if x not in members]
    return (max(gaps) if gaps else -1, len(gaps))


def oracle_apery(elements, m):
    """Least member of each residue class mod m, from the closure."""
    limit = m * max(elements) + m  # class minima need at most m-1 summands
    members = sorted(closure_members(elements, limit))
    minima = {}
    for x in members:
        minima.setdefault(x % m, x)
    return tuple(minima[i] for i in range(m))


def random_cofinite_elements(rng, max_element, max_size=6):
    while True:
        size = rng.randint(1, max_size)
        els = sorted(rng.sample(range(2, max_element + 1), size))
        if math.gcd(*els) == 1:
            return els


def test_normalize_sorts_and_dedupes():
    g = normalize_generators([5, 3, 5, 8])
    assert g.elements == (3, 5, 8)
    assert g.gcd == 1 and g.is_cofinite
    assert normalize_generators([]).gcd == 0
    assert normalize_generators([4, 6]).gcd == 2
    assert list(normalize_generators([2, 1])) == [1, 2]


@pytest.mark.parametrize("bad", [[0], [-3], [3, 0, 5], [2.5], [True]])
def test_normalize_rejects_non_positive_integers(bad):
    with pytest.raises(InvalidGeneratorError):
        normalize_generators(bad)


def test_membership_frozen_examples():
    t = membership_table(normalize_generators([3, 5]), 8)
    assert t.members() == [0, 3, 5, 6, 8]
    assert len(t) == 9
    assert t[7] is False and t[6] is True
    assert membership_table(normalize_generators([]), 4).members() == [0]
    # gcd > 1 is allowed: the table is simply the generated numerical set
    assert membership_table(normalize_generators([4, 6]), 13).members() == [0, 4, 6, 8, 10, 12]
    with pytest.raises(IndexError):
        t[9]
    with pytest.raises(ValueError):
        membership_table(normalize_generators([3]), -1)


def test_membership_matches_closure_oracle():
    rng = random.Random(101)
    for _ in range(60):
        els = random_cofinite_elements(rng, 60)
        limit = rng.randint(0, 400)
        table = membership_table(normalize_generators(els), limit)
        expected = closure_members(els, limit)
        assert table.members() == sorted(expected)


def test_apery_frozen_examples():
    assert apery_set(normalize_generators([3, 5]), 3) == AperyTable(3, (0, 10, 5))
    assert apery_set(normalize_generators([2, 3]), 2).entries == (0, 3)
    assert apery_set(normalize_generators([1]), 1).entries == (0,)


def test_apery_matches_oracle_and_invariants():
    rng = random.Random(202)
    for _ in range(40):
        els = random_cofinite_elements(rng, 40)
        gens = normalize_generators(els)
        m = rng.choice(els)
        table = apery_set(gens, m)
        assert table.entries == oracle_apery(els, m)
        assert table.entries[0] == 0
        assert len(table.entries) == m
        assert len(set(table.entries)) == m
        members = closure_members(els, m * max(els) + m)
        for i, x in enumerate(table.entries):
            assert x % m == i
            assert x in members
            assert x - m not in members  # class minimum: one step down leaves <A>


def test_apery_frobenius_agrees_for_every_member_m():
    gens = normalize_generators([3, 5])
    for m in (3, 5, 8, 10):  # all members of <3,5>
        assert max(apery_set(gens, m).entries) - m == 7


def test_apery_errors():
    with pytest.raises(NotCofiniteError):
        apery_set(normalize_generators([2, 4]), 2)
    with pytest.raises(ValueError, match="not an element"):
        apery_set(normalize_generators([3, 5]), 4)
    with pytest.raises(ValueError):
        apery_set(normalize_generators([3, 5]), 0)


@pytest.mark.parametrize(
    "gens, m, what",
    [
        ([(1 << 24) + 1, (1 << 24) + 2], (1 << 24) + 1, "least generator"),
        ([2, 3], (1 << 24) + 1, "m"),
    ],
)
def test_apery_rejects_oversized_tables_before_allocating(gens, m, what):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            apery_set(normalize_generators(gens), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{what} is 16777217, above the size limit 2^24 = 16777216"
    assert peak < 1 << 20  # a table of 2^24 entries would take 128 MiB


def test_frobenius_frozen_examples():
    assert frobenius(normalize_generators([3, 5])) == 7
    assert frobenius(normalize_generators([2, 3])) == 1
    assert frobenius(normalize_generators([1])) == -1  # gap-free convention
    assert frobenius(normalize_generators([6, 9, 20])) == 43


def test_frobenius_two_generator_formula():
    rng = random.Random(303)
    for _ in range(30):
        a = rng.randint(2, 60)
        b = rng.randint(2, 60)
        if math.gcd(a, b) != 1 or a == b:
            continue
        assert frobenius(normalize_generators([a, b])) == (a - 1) * (b - 1) - 1


def test_frobenius_errors():
    with pytest.raises(NotCofiniteError):
        frobenius(normalize_generators([]))
    with pytest.raises(NotCofiniteError):
        frobenius(normalize_generators([4, 6]))


def test_genus_frozen_examples():
    assert genus(normalize_generators([3, 5])) == 4  # gaps 1, 2, 4, 7
    assert genus(normalize_generators([2, 3])) == 1
    assert genus(normalize_generators([1])) == 0
    assert genus(normalize_generators([6, 9, 20])) == 22


def test_gap_invariants_match_oracle():
    rng = random.Random(404)
    for _ in range(40):
        els = random_cofinite_elements(rng, 50)
        gens = normalize_generators(els)
        limit = 2 * max(els) ** 2
        f_expected, g_expected = oracle_gap_invariants(els, limit)
        assert frobenius(gens) == f_expected
        assert genus(gens) == g_expected


def test_minimal_generators_frozen_examples():
    assert minimal_generators(normalize_generators([3, 5, 8])).elements == (3, 5)
    assert minimal_generators(normalize_generators([4, 6, 9])).elements == (4, 6, 9)
    assert minimal_generators(normalize_generators([1, 7])).elements == (1,)


def test_minimal_generators_properties():
    rng = random.Random(505)
    for _ in range(30):
        els = random_cofinite_elements(rng, 40)
        gens = normalize_generators(els)
        minimal = minimal_generators(gens)
        limit = 2 * max(els) ** 2
        full = closure_members(els, limit)
        assert closure_members(minimal.elements, limit) == full
        # brute minimality: no element is a sum of two nonzero members
        small = sorted(full - {0})
        member_set = full
        for a in minimal.elements:
            assert not any(x < a and a - x in member_set for x in small if x < a)
        # dropping any minimal element changes the semigroup
        for a in minimal.elements:
            rest = tuple(x for x in minimal.elements if x != a)
            assert closure_members(rest, limit) != full


def test_invariants_bundle():
    inv = invariants(normalize_generators([6, 9, 20]))
    assert (inv.frobenius, inv.genus, inv.embedding_dimension) == (43, 22, 3)
    assert inv.minimal_generators.elements == (6, 9, 20)
    nat = invariants(normalize_generators([1]))
    assert (nat.frobenius, nat.genus, nat.embedding_dimension) == (-1, 0, 1)
    assert nat.minimal_generators.elements == (1,)


def test_invariants_pointwise_relations():
    rng = random.Random(606)
    for _ in range(50):
        els = random_cofinite_elements(rng, 80)
        inv = invariants(normalize_generators(els))
        f, g, e = inv.frobenius, inv.genus, inv.embedding_dimension
        m = inv.minimal_generators.elements[0]
        if f == -1:
            assert g == 0 and e == 1 and m == 1
        else:
            assert e <= m <= f + 1
            assert (f + 1) / 2 <= g <= f
        assert e == len(inv.minimal_generators)


def test_wilf_check():
    report = wilf_check(invariants(normalize_generators([3, 5])))
    assert report.holds and report.lhs == Fraction(1, 2) == report.rhs
    nat = wilf_check(invariants(normalize_generators([1])))
    assert nat.holds and nat.rhs == Fraction(1, 1)
    big = wilf_check(invariants(normalize_generators([6, 9, 20])))
    assert big.holds and big.lhs == Fraction(1, 2) and big.rhs == Fraction(1, 3)


def test_wilf_surveillance_over_random_sets():
    rng = random.Random(707)
    violations = 0
    for _ in range(100):
        els = random_cofinite_elements(rng, 120)
        if not wilf_check(invariants(normalize_generators(els))).holds:
            violations += 1  # counted, never crashed on
    assert violations == 0
