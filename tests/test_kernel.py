"""Property tests of the residue-table kernel against brute-force oracles.

The oracles read only ``membership_table``, the bit-packed closure scan,
never a residue table: class minima are the least member of each class,
Frobenius numbers the largest zero bit below a Schur bound.  The samplers
are also checked against per-integer reference loops: one draw, one
selection test and one stop test per integer, and the walk that sweeps
read F, g and e off is checked against ``invariants`` of the full draw.
Since the walk and ``invariants`` both take minimality from the answer of
``extend_minima``, minimal generators are also checked against the bitset
definition, and that answer against the brute minima.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from randsemigroup import (  # noqa: E402
    ErConfig,
    NotCofiniteError,
    SampleTrace,
    apery_set,
    frobenius,
    genus,
    membership_table,
    minimal_generators,
    normalize_generators,
    sample_bounded,
    sample_unconstrained,
)
from randsemigroup.rng import TAG_SAMPLE, substream  # noqa: E402
from randsemigroup.sampler import walk  # noqa: E402
from randsemigroup.semigroup import (  # noqa: E402
    GeneratorSet,
    extend_minima,
    invariants,
    table_invariants,
)

elements = st.lists(st.integers(1, 60), min_size=1, max_size=6)
cofinite = elements.filter(lambda els: math.gcd(*els) == 1)


def brute_minima(m, els):
    """Least member of <m, els> in each class mod m; inf when unreached."""
    limit = m * max([m, *els])  # a class minimum needs fewer than m summands
    bits = membership_table(normalize_generators([m, *els]), limit).bits
    minima = [math.inf] * m
    for x, bit in enumerate(reversed(bin(bits))):  # x ascending; the "0b" prefix ends it
        if bit == "1" and minima[x % m] == math.inf:
            minima[x % m] = x
    return minima


def brute_frobenius(els):
    """Largest non-member of <els> (gcd 1), or -1; inf when gcd > 1."""
    if math.gcd(*els) != 1:
        return math.inf
    limit = min(els) * max(els)  # Schur: F < (min - 1)(max - 1)
    bits = membership_table(normalize_generators(els), limit).bits
    gaps = ~bits & ((1 << (limit + 1)) - 1)
    return gaps.bit_length() - 1


def brute_minimal(gens):
    """Generators a with no generator g < a such that a - g is a member."""
    bits = membership_table(gens, gens.elements[-1]).bits
    return tuple(
        a
        for a in gens.elements
        if not any(g < a and (bits >> (a - g)) & 1 for g in gens.elements)
    )


def fold(m, els):
    entries = [0] + [math.inf] * (m - 1)
    for a in els:
        extend_minima(entries, a)
    return entries


@settings(max_examples=150, deadline=None)
@given(cofinite, st.data())
def test_fold_in_any_order_equals_apery_set(els, data):
    gens = normalize_generators(els)
    m = data.draw(st.sampled_from(gens.elements))
    order = data.draw(st.permutations(els))
    assert tuple(fold(m, order)) == apery_set(gens, m).entries


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 36), elements)
@example(6, [4, 3])  # gcd(4, 6) = 2: two cycles, one still unreached
@example(12, [8, 9, 10, 30])
def test_each_fold_matches_brute_minima(m, els):
    # Covers updates with gcd(a mod m, m) > 1 and the inf entries of classes
    # that stay unreached until the gcd of <m, ...> drops to 1.  The kernel
    # answers True exactly when a was not yet a member, by the brute minima.
    entries = [0] + [math.inf] * (m - 1)
    before = brute_minima(m, [])
    for k, a in enumerate(els):
        assert extend_minima(entries, a) is (a < before[a % m])
        before = brute_minima(m, els[: k + 1])
        assert entries == before


def test_fold_frozen_example_with_unreached_classes():
    inf = math.inf
    assert fold(6, [4]) == [0, inf, 8, inf, 4, inf]
    assert fold(6, [4, 3]) == [0, 7, 8, 3, 4, 11]


@settings(max_examples=100, deadline=None)
@given(cofinite, st.data())
def test_extending_by_a_member_changes_nothing(els, data):
    gens = normalize_generators(els)
    m = gens.elements[0]
    entries = list(apery_set(gens, m).entries)
    i = data.draw(st.integers(0, m - 1))
    member = entries[i] + m * data.draw(st.integers(0, 5))
    assert extend_minima(entries, member) is False
    assert tuple(entries) == apery_set(gens, m).entries


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.6), st.integers(0, 2**32), st.integers(0, 50))
def test_sampler_frobenius_matches_gap_scan(p, seed, trial):
    # The sampler stops at the first n with F < n, where F only changes at
    # a keep, so the stop index pins the Frobenius number after the last
    # keep L: stop_index = max(L, F) + 1, and F before L was >= L.
    trace = sample_unconstrained(p, seed, trial)
    els = list(trace.gens.elements)
    last = els[-1]
    assert trace.stop_index == max(last, brute_frobenius(els)) + 1
    if len(els) > 1:
        assert brute_frobenius(els[:-1]) >= last


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.05, 0.9),
    st.one_of(st.none(), st.integers(1, 60)),
    st.integers(0, 2**32),
    st.integers(0, 50),
)
@example(0.2, 12, 0, 7)  # draw (4, 11): F = 29 >= M
@example(0.2, 12, 0, 8)  # draw (8, 12): gcd 4, excluded
def test_walk_reads_the_invariants_of_the_full_draw(p, M, seed, trial):
    walked = walk(substream(seed, TAG_SAMPLE, trial), p, M)
    if M is None:
        gens = sample_unconstrained(p, seed, trial).gens
    else:
        gens = sample_bounded(ErConfig(p, M, seed), trial)
        assert (walked is None) == (gens.gcd != 1)
        if walked is None:
            return
    keeps, minimal, minima, _ = walked
    assert keeps == list(gens.elements[: len(keeps)])
    assert table_invariants(minima, tuple(minimal)) == invariants(gens)
    assert tuple(minimal) == brute_minimal(gens)  # the walk and invariants share one rule


def reference_bounded(p, M, seed, trial):
    rng = substream(seed, TAG_SAMPLE, trial)
    selected = []
    g = 0
    for n in range(1, M + 1):
        if rng.random() < p:
            selected.append(n)
            g = math.gcd(g, n)
    return GeneratorSet(tuple(selected), g)


def reference_unconstrained(p, seed, trial):
    rng = substream(seed, TAG_SAMPLE, trial)
    selected = []
    minima = []
    frob = math.inf
    n = 0
    while True:
        n += 1
        if frob < n:
            return SampleTrace(GeneratorSet(tuple(selected), 1), n)
        if rng.random() < p:
            selected.append(n)
            if minima:
                extend_minima(minima, n)
            else:
                minima = [0] + [math.inf] * (n - 1)
            frob = max(minima) - selected[0]


@settings(max_examples=100, deadline=None)
@given(st.floats(0.001, 0.999), st.integers(0, 2**32), st.integers(0, 50), st.integers(1, 2000))
@example(0.001, 0, 0, 1)
@example(0.999, 0, 0, 2000)
def test_samplers_match_per_integer_reference_loops(p, seed, trial, M):
    assert sample_bounded(ErConfig(p, M, seed), trial) == reference_bounded(p, M, seed, trial)
    assert sample_unconstrained(p, seed, trial) == reference_unconstrained(p, seed, trial)


@settings(max_examples=150, deadline=None)
@given(cofinite)
def test_minimal_generators_match_bitset_definition(els):
    gens = normalize_generators(els)
    assert minimal_generators(gens).elements == brute_minimal(gens)


small_cofinite = st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(
    lambda els: math.gcd(*els) == 1
)


@settings(max_examples=150, deadline=None)
@given(small_cofinite, st.sampled_from(["generator", "non-generator", "beyond F"]), st.data())
def test_apery_set_for_any_member_matches_brute_minima(els, kind, data):
    # Any member m, not only the least generator the table is folded over.
    gens = normalize_generators(els)
    f = brute_frobenius(els)
    if kind == "generator":
        m = data.draw(st.sampled_from(gens.elements))
    elif kind == "non-generator":
        top = 2 * gens.elements[-1]  # a member and no generator
        bits = membership_table(gens, top).bits
        others = [x for x in range(1, top + 1) if (bits >> x) & 1 and x not in gens.elements]
        m = data.draw(st.sampled_from(others))
    else:
        m = max(f + 1, 1) + data.draw(st.integers(0, 30))  # every m > F is a member
    w = apery_set(gens, m).entries
    assert list(w) == brute_minima(m, els)
    assert max(w) - m == frobenius(gens) == f
    assert Fraction(sum(w), m) - Fraction(m - 1, 2) == genus(gens)  # Selmer 1977


@pytest.mark.parametrize(
    "els, m, error, message",
    [
        ([], 1, ValueError, "m = 1 is not an element of the semigroup"),
        ([], 2, NotCofiniteError, "gcd(generators + {2}) = 2 != 1; "
                                  "some residue class mod m is never reached"),
        ([3, 5], 4, ValueError, "m = 4 is not an element of the semigroup"),
        ([3, 5], 7, ValueError, "m = 7 is not an element of the semigroup"),
        ([4, 6], 3, ValueError, "m = 3 is not an element of the semigroup"),
        ([4, 6], 6, NotCofiniteError, "gcd(generators + {6}) = 2 != 1; "
                                      "some residue class mod m is never reached"),
        ([3, 5], 0, ValueError, "m must be a positive integer"),
    ],
)
def test_apery_set_edge_cases_keep_their_errors(els, m, error, message):
    with pytest.raises(ValueError) as info:
        apery_set(normalize_generators(els), m)
    assert info.type is error
    assert str(info.value) == message
