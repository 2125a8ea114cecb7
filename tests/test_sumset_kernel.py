"""Property tests of the Z_q sumset kernel against the set-based brute
oracles in ``oracles.py``, which share no code with the kernel under test."""

import math
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from randsemigroup import (  # noqa: E402
    CyclicSubset,
    add_sets,
    coverage_trial,
    k_distinct_sumset,
    k_fold_sumset,
)
from randsemigroup import sumsets  # noqa: E402
from randsemigroup.rng import TAG_COVERAGE, draw_subset, randbelow, substream  # noqa: E402

from oracles import brute_add, brute_k_fold  # noqa: E402


def subset(q, els):
    return CyclicSubset.from_elements(q, els)


@st.composite
def modulus_and_set(draw, q_max=40, min_size=1):
    q = draw(st.integers(1, q_max))
    els = draw(st.sets(st.integers(0, q - 1), min_size=min(min_size, q)))
    return q, els


@settings(max_examples=200, deadline=None)
@given(modulus_and_set(), st.integers(1, 12))
@example((7, {3}), 1)  # k = 1 returns A itself
@example((12, {0, 5}), 6)  # A contains 0: the folds are nested
@example((13, set(range(13))), 5)  # full A
@example((1, {0}), 3)  # Z_1
def test_k_fold_matches_brute(q_els, k):
    q, els = q_els
    assert set(k_fold_sumset(subset(q, els), k).elements()) == brute_k_fold(q, els, k)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(12, 4), (12, 3), (15, 5), (30, 6), (64, 8), (45, 9)]),
       st.data(), st.integers(1, 25))
def test_k_fold_inside_a_coset_never_fills(q_d, data, k):
    """A inside c + dZ_q (d | q, d > 1) keeps kA inside kc + dZ_q, so the
    early exit never fires and every one of the k - 1 steps must run."""
    q, d = q_d
    c = data.draw(st.integers(0, d - 1))
    coset = range(c, q, d)
    els = data.draw(st.sets(st.sampled_from(coset), min_size=1))
    got = set(k_fold_sumset(subset(q, els), k).elements())
    assert got == brute_k_fold(q, els, k)
    assert got <= set(range(k * c % d, q, d))


@settings(max_examples=200, deadline=None)
@given(modulus_and_set(min_size=0), st.data())
def test_add_sets_matches_brute(q_xs, data):
    q, xs = q_xs
    ys = data.draw(st.sets(st.integers(0, q - 1)))
    got = set(add_sets(subset(q, xs), subset(q, ys)).elements())
    assert got == brute_add(q, xs, ys)


@settings(max_examples=150, deadline=None)
@given(modulus_and_set(q_max=25), st.data())
def test_k_distinct_matches_brute(q_els, data):
    q, els = q_els
    k = data.draw(st.integers(1, min(len(els), 5)))
    got = set(k_distinct_sumset(subset(q, els), k).elements())
    assert got == {sum(c) % q for c in combinations(els, k)}


Q_LARGE = 10007


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.integers(0, (1 << Q_LARGE) - 1),
    st.sets(st.integers(0, Q_LARGE - 1), max_size=100).map(lambda s: sum(1 << r for r in s)),
))
@example((1 << Q_LARGE) - 1)
@example(1 << (Q_LARGE - 1))
@example(0)
def test_elements_matches_per_bit_scan(bits):
    scan = tuple(r for r in range(Q_LARGE) if (bits >> r) & 1)
    assert CyclicSubset(Q_LARGE, bits).elements() == scan


def dense_fisher_yates(rng, n, k):
    """The first k slots of a partial Fisher-Yates shuffle of list(range(n))."""
    pool = list(range(n))
    for i in range(k):
        j = i + randbelow(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 2**64 - 1))
@example((1, 1), 0)  # n = 1
@example((1, 0), 0)
@example((64, 64), 5)  # k = n: the whole shuffle
@example((1000, 999), 6)
def test_draw_subset_equals_dense_shuffle(n_k, seed):
    n, k = n_k
    sparse, dense = substream(seed, TAG_COVERAGE, 0), substream(seed, TAG_COVERAGE, 0)
    assert draw_subset(sparse, n, k) == dense_fisher_yates(dense, n, k)
    assert sparse.getstate() == dense.getstate()  # the same randbelow calls, in order


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(101, 0.6), (101, 3.0), (211, 0.5), (1009, 1.0), (10007, 3.0)]),
       st.integers(0, 2**32), st.integers(0, 10**6))
def test_coverage_trial_subset_and_outcome(q_b, master_seed, trial_index):
    q, b = q_b
    k = math.ceil(b * math.log2(q))
    calls = []
    original = sumsets.k_fold_sumset

    def recording(a, k_arg):
        calls.append((a, k_arg))
        return original(a, k_arg)

    sumsets.k_fold_sumset = recording
    try:
        covered = coverage_trial(q, b, master_seed, trial_index)
    finally:
        sumsets.k_fold_sumset = original
    (a, k_arg), = calls
    drawn = dense_fisher_yates(substream(master_seed, TAG_COVERAGE, trial_index), q, 2 * k)
    assert k_arg == k
    assert a.elements() == tuple(sorted(drawn))
    if q <= 1009:
        assert covered == (len(brute_k_fold(q, drawn, k)) == q)
