"""Cyclic sumsets, subset-sum counts, and coverage trials versus brute force."""

import math
import random
import sys
from decimal import Decimal, localcontext
from itertools import combinations

import pytest

from randsemigroup import (
    CyclicSubset,
    add_sets,
    count_subsets_with_sum,
    coverage_failure_bound,
    coverage_trial,
    is_prime,
    k_distinct_sumset,
    k_fold_sumset,
    run_coverage_experiment,
)

from oracles import brute_add, brute_k_fold


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_against_trial_division():
    for n in range(4000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**64 - 59)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_cyclic_subset_basics():
    a = CyclicSubset.from_elements(7, [2, 5, 2])
    assert a.elements() == (2, 5)
    assert a.size == 2 and 5 in a and 3 not in a
    assert CyclicSubset.full(7).is_full
    with pytest.raises(ValueError):
        CyclicSubset.from_elements(7, [7])
    with pytest.raises(ValueError):
        CyclicSubset(5, 1 << 5)


def test_add_sets_frozen_examples():
    z7 = lambda els: CyclicSubset.from_elements(7, els)
    assert add_sets(z7([0]), z7([2, 5])).elements() == (2, 5)
    assert add_sets(CyclicSubset.full(7), z7([3])).is_full
    z5 = lambda els: CyclicSubset.from_elements(5, els)
    assert add_sets(z5([1, 2]), z5([1, 2])).elements() == (2, 3, 4)
    assert add_sets(z5([]), z5([1, 2])).elements() == ()
    with pytest.raises(ValueError, match="mismatch"):
        add_sets(z5([1]), z7([1]))


def test_add_sets_matches_brute_force():
    rng = random.Random(11)
    for q in (5, 7, 13, 17):
        for _ in range(20):
            xs = rng.sample(range(q), rng.randint(0, q))
            ys = rng.sample(range(q), rng.randint(0, q))
            got = add_sets(
                CyclicSubset.from_elements(q, xs), CyclicSubset.from_elements(q, ys)
            )
            expected = brute_add(q, xs, ys) if xs and ys else set()
            assert set(got.elements()) == expected


def test_k_fold_frozen_examples():
    z5 = CyclicSubset.from_elements(5, [0, 1])
    assert k_fold_sumset(z5, 3).elements() == (0, 1, 2, 3)
    single = CyclicSubset.from_elements(7, [1])
    assert k_fold_sumset(single, 7).elements() == (0,)
    a = CyclicSubset.from_elements(9, [2, 5])
    assert k_fold_sumset(a, 1) == a
    with pytest.raises(ValueError):
        k_fold_sumset(a, 0)
    with pytest.raises(ValueError):
        k_fold_sumset(CyclicSubset.from_elements(5, []), 2)


def test_k_fold_matches_brute_force_small_q():
    rng = random.Random(23)
    for q in (5, 7, 11, 19, 31):
        for _ in range(12):
            xs = rng.sample(range(q), rng.randint(1, min(q, 6)))
            k = rng.randint(1, 6)
            got = k_fold_sumset(CyclicSubset.from_elements(q, xs), k)
            assert set(got.elements()) == brute_k_fold(q, xs, k)


def test_k_fold_monotone_with_zero():
    rng = random.Random(37)
    for _ in range(15):
        q = rng.choice([7, 11, 13])
        xs = set(rng.sample(range(q), rng.randint(1, 4))) | {0}
        a = CyclicSubset.from_elements(q, xs)
        prev = k_fold_sumset(a, 1)
        for k in range(2, 6):
            cur = k_fold_sumset(a, k)
            assert prev.bits & cur.bits == prev.bits  # subset
            prev = cur


def test_k_distinct_frozen_and_properties():
    a = CyclicSubset.from_elements(7, [1, 2, 3])
    assert k_distinct_sumset(a, 2).elements() == (3, 4, 5)
    assert k_distinct_sumset(a, 1) == a
    assert k_distinct_sumset(a, 3).elements() == (6,)  # forced full sum
    with pytest.raises(ValueError):
        k_distinct_sumset(a, 4)
    rng = random.Random(41)
    for q in (7, 11, 13):
        for _ in range(10):
            xs = rng.sample(range(q), rng.randint(1, q))
            k = rng.randint(1, min(len(xs), 5))
            sub = CyclicSubset.from_elements(q, xs)
            got = set(k_distinct_sumset(sub, k).elements())
            expected = {sum(c) % q for c in combinations(xs, k)}
            assert got == expected
            fold = set(k_fold_sumset(sub, k).elements())
            assert got <= fold


def test_count_subsets_frozen_examples():
    assert count_subsets_with_sum(7, 3, 0) == 5
    assert count_subsets_with_sum(5, 1, 2) == 1
    assert count_subsets_with_sum(11, 4, 6) == math.comb(11, 4) // 11


def test_count_subsets_methods_agree_and_z_free():
    for q in (5, 7):
        for k in range(1, q):
            closed = math.comb(q, k) // q
            for z in range(q):
                assert count_subsets_with_sum(q, k, z) == closed


def test_count_subsets_errors():
    with pytest.raises(ValueError, match="prime"):
        count_subsets_with_sum(6, 2, 0)
    with pytest.raises(ValueError):
        count_subsets_with_sum(7, 0, 0)
    with pytest.raises(ValueError):
        count_subsets_with_sum(7, 7, 0)
    with pytest.raises(ValueError, match="closed") as info:
        count_subsets_with_sum(101, 50, 0)  # C(101,50) far beyond enumeration
    assert f"C(q, k)/q = {math.comb(101, 50) // 101} " in str(info.value)


def test_coverage_failure_bound_values():
    assert abs(coverage_failure_bound(101, 3) - 0.425240) < 1e-5
    assert abs(coverage_failure_bound(10**6 + 3, 4) - 1.6245e-10) / 1.6245e-10 < 1e-3
    assert coverage_failure_bound(101, 2) > 1  # vacuous below b = 3ish


def decimal_failure_bound(q, b):
    """(2*b*log2(q) + 3) / q^(b-2) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        ln_q, b = Decimal(q).ln(), Decimal(b)
        return (2 * b * ln_q / Decimal(2).ln() + 3) / ((b - 2) * ln_q).exp()


# q^(b-2) leaves the double range at b = 2 + ln(DBL_MAX) / ln(q): about
# 79.057 for q = 10007 and 155.79 for q = 101.
@pytest.mark.parametrize(
    "q, b", [(10007, 79.0), (10007, 79.06), (10007, 79.1), (101, 155.7), (101, 155.9)]
)
def test_coverage_failure_bound_on_both_sides_of_the_overflow(q, b):
    exact = decimal_failure_bound(q, b)
    assert exact > Decimal(sys.float_info.min)  # a normal double: 15+ digits to compare
    assert abs(Decimal(coverage_failure_bound(q, b)) / exact - 1) < Decimal("5e-7")


def test_coverage_failure_bound_is_zero_only_below_the_least_double():
    least = Decimal(math.ulp(0.0))  # the least positive (subnormal) double
    assert decimal_failure_bound(10007, 80.5) > least
    assert coverage_failure_bound(10007, 80.5) > 0.0
    assert decimal_failure_bound(10007, 300) < least
    assert coverage_failure_bound(10007, 300) == 0.0


def test_coverage_trial_determinism_and_errors():
    assert coverage_trial(101, 3, 7, 0) == coverage_trial(101, 3, 7, 0)
    with pytest.raises(ValueError, match="exceeds q"):
        coverage_trial(13, 3, 1, 0)  # s = 2*ceil(3 log2 13) = 24 > 13
    with pytest.raises(ValueError, match="prime"):
        coverage_trial(100, 3, 1, 0)
    for bad_b in (math.inf, math.nan, 0, -1.0):
        with pytest.raises(ValueError, match="b must be finite and > 0"):
            coverage_trial(101, bad_b, 1, 0)
        with pytest.raises(ValueError, match="b must be finite and > 0"):
            run_coverage_experiment(101, bad_b, 3, 1)


def test_coverage_rejects_modulus_above_size_limit():
    with pytest.raises(ValueError) as info:
        run_coverage_experiment(16777259, 3, 1, 0)  # the least prime above 2^24
    assert str(info.value) == "q is 16777259, above the size limit 2^24 = 16777216"
    with pytest.raises(ValueError, match="above the size limit"):
        coverage_trial(16777259, 3, 0, 0)


def test_full_set_always_covers():
    assert k_fold_sumset(CyclicSubset.full(7), 3).is_full
    assert k_fold_sumset(CyclicSubset.full(101), 20).is_full


def test_run_coverage_experiment_parameters():
    exp = run_coverage_experiment(101, 3, 25, master_seed=7)
    assert (exp.s, exp.k) == (40, 20)  # 3*log2(101) = 19.97 -> ceil 20
    assert exp.trials == 25
    assert exp.failures == 0
    assert exp.empirical_rate == 0.0
    assert abs(exp.bound - coverage_failure_bound(101, 3)) < 1e-15
