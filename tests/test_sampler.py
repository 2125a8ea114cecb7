"""Sampler behavior: stopping rule, determinism, coupling, and agreement."""

import math

import pytest

from randsemigroup import (
    ErConfig,
    invariants,
    normalize_generators,
    sample_bounded,
    sample_unconstrained,
)
from randsemigroup.rng import TAG_SAMPLE, substream
from randsemigroup.sampler import check_unconstrained_probability, select, walk


class ScriptedStream:
    """random()-compatible stub fed with explicit uniforms (then near-1)."""

    def __init__(self, us):
        self.us = list(us)
        self.i = 0

    def random(self):
        u = self.us[self.i] if self.i < len(self.us) else 0.999999
        self.i += 1
        return u


def test_stopping_rule_select_two_then_three():
    # skip 1, take 2 and 3; condition (gcd 1, F=1 < n) first true at n=4
    stream = ScriptedStream([0.9, 0.0, 0.0])
    keeps, minimal, minima, stop = walk(stream, 0.5)
    assert keeps == minimal == [2, 3]
    assert minima == [0, 3]
    assert stop == 4
    assert stream.i == stop - 1 == 3


def test_stopping_rule_selects_one_first():
    # {1} gives the gap-free semigroup (F = -1); stop at n = 2
    stream = ScriptedStream([0.0])
    keeps, minimal, minima, stop = walk(stream, 0.5)
    assert keeps == minimal == [1]
    assert minima == [0]
    assert stop == 2
    assert stream.i == stop - 1 == 1


def test_gcd_phase_failsafe():
    # only 2 and 4 kept, then nothing: the gcd stays 2, and the walk gives up
    # after ceil(64/p) = 128 integers without a keep
    stream = ScriptedStream([0.9, 0.0, 0.9, 0.0])
    with pytest.raises(
        RuntimeError,
        match=r"no integer kept in the 128 integers after 4 while the gcd "
        r"of the 2 kept so far is 2 \(p=0.5\)",
    ):
        walk(stream, 0.5)
    assert stream.i == 4 + 128


@pytest.mark.parametrize(
    "us, M, keeps, stop, draws",
    [
        ([0.9, 0.9, 0.0, 0.9, 0.0], 20, [3, 5], 8, 7),  # F = 7 < M: draws end at F
        ([0.9, 0.9, 0.0, 0.9, 0.0], 6, [3, 5], 8, 6),  # F = 7 >= M: draws end at M
        ([0.9, 0.0, 0.0], 10, [2, 3], 4, 3),  # F = 1 is below the last keep
    ],
)
def test_bounded_walk_stops_drawing_at_min_of_f_and_m(us, M, keeps, stop, draws):
    stream = ScriptedStream(us)
    walked = walk(stream, 0.5, M)
    assert walked[0] == keeps and walked[3] == stop
    assert stream.i == draws


def test_bounded_walk_with_gcd_above_one_draws_to_m_and_is_excluded():
    stream = ScriptedStream([0.9, 0.0, 0.9, 0.0])  # keeps 2 and 4 only
    assert walk(stream, 0.5, 6) is None
    assert stream.i == 6


@pytest.mark.parametrize("p", [0.001, 0.5, 0.999999])
def test_select_draws_once_per_integer_and_never_ahead(p):
    n = 500
    fresh = substream(5, TAG_SAMPLE, 3)
    draws = [fresh.random() for _ in range(n + 1)]
    rng = substream(5, TAG_SAMPLE, 3)
    kept = list(select(rng, p, 1, n + 1))
    assert kept == [k for k in range(1, n + 1) if draws[k - 1] < p]
    assert rng.random() == draws[n]
    if kept:  # stopped after its first keep, the stream sits just past that draw
        rng = substream(5, TAG_SAMPLE, 3)
        assert next(select(rng, p, 1, n + 1)) == kept[0]
        assert rng.random() == draws[kept[0]]


def test_unconstrained_determinism_and_trial_separation():
    t1 = sample_unconstrained(0.1, 42, 0)
    t2 = sample_unconstrained(0.1, 42, 0)
    assert t1 == t2
    others = [sample_unconstrained(0.1, 42, t).gens for t in range(1, 6)]
    assert any(g != t1.gens for g in others)


def test_bounded_determinism():
    cfg = ErConfig(0.3, 50, 7)
    assert sample_bounded(cfg, 4) == sample_bounded(cfg, 4)


def test_trace_invariants_across_p():
    for trial, p in enumerate([0.05, 0.1, 0.2, 0.4, 0.7]):
        trace = sample_unconstrained(p, 99, trial)
        assert trace.gens.gcd == 1
        assert all(1 <= g < trace.stop_index for g in trace.gens.elements)
        # stopping condition held at stop_index and not earlier
        f = invariants(trace.gens).frobenius
        assert f < trace.stop_index


def test_stopping_soundness_later_integers_change_nothing():
    for trial in range(8):
        trace = sample_unconstrained(0.15, 1234, trial)
        inv = invariants(trace.gens)
        f = inv.frobenius
        for extra in (f + 1, f + 2, f + 17):
            if extra < 1:
                continue
            widened = normalize_generators(trace.gens.elements + (extra,))
            assert invariants(widened) == inv


def test_coupling_bounded_monotone_in_p():
    for trial in range(6):
        sets = [
            set(sample_bounded(ErConfig(p, 300, 11), trial).elements)
            for p in (0.1, 0.3, 0.5, 0.9)
        ]
        for lo, hi in zip(sets, sets[1:]):
            assert lo <= hi


def test_coupling_unconstrained_stop_monotone():
    for trial in range(6):
        lo = sample_unconstrained(0.05, 21, trial)
        hi = sample_unconstrained(0.2, 21, trial)
        assert hi.stop_index <= lo.stop_index
        # shared examined prefix is coupled elementwise
        hi_set = set(hi.gens.elements)
        assert all(x in hi_set for x in lo.gens.elements if x < hi.stop_index)


def test_bounded_unconstrained_agreement_on_shared_stream():
    for trial in range(6):
        trace = sample_unconstrained(0.25, 9, trial)
        bounded = sample_bounded(ErConfig(0.25, trace.stop_index + 30, 9), trial)
        assert set(trace.gens.elements) <= set(bounded.elements)
        assert invariants(bounded) == invariants(trace.gens)


def test_p_near_one_selects_everything():
    for seed in range(10):
        gens = sample_bounded(ErConfig(0.999999, 5, seed), 0)
        assert gens.elements == (1, 2, 3, 4, 5)


def test_selection_rate_matches_p():
    p, m, trials = 0.3, 50, 30000
    total = sum(
        len(sample_bounded(ErConfig(p, m, 777), t).elements) for t in range(trials)
    )
    se = math.sqrt(m * p * (1 - p) / trials)
    assert abs(total / trials - m * p) < 5 * se


def test_stop_index_reasonable_at_moderate_p():
    stops = [sample_unconstrained(0.2, 31, t).stop_index for t in range(500)]
    assert all(s < 10**6 for s in stops)
    assert sum(stops) / len(stops) < 1000


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.1, 1.5])
def test_invalid_p_rejected(bad_p):
    with pytest.raises(ValueError):
        sample_unconstrained(bad_p, 1, 0)
    with pytest.raises(ValueError):
        ErConfig(bad_p, 10, 1)


def test_unconstrained_rejects_p_below_two_to_minus_24():
    with pytest.raises(ValueError) as info:
        sample_unconstrained(1e-12, 0, 0)
    assert str(info.value) == (
        "unconstrained walk span ceil(64/p) at p = 1e-12 is 64000000000000, "
        "above the size limit 2^24 = 16777216"
    )
    check_unconstrained_probability(2.0**-18)  # the floor itself: ceil(64/p) = 2^24
    for below in (math.nextafter(2.0**-18, 0.0), 2.0**-24):
        with pytest.raises(ValueError, match="above the size limit"):
            check_unconstrained_probability(below)
    assert sample_bounded(ErConfig(1e-12, 10, 0), 0).elements == ()  # bounded: any p


def test_bounded_model_rejects_m_above_size_limit():
    assert ErConfig(0.5, 1 << 24, 0).M == 1 << 24
    with pytest.raises(ValueError) as info:
        ErConfig(0.5, (1 << 24) + 1, 0)
    assert str(info.value) == "M is 16777217, above the size limit 2^24 = 16777216"


def test_invalid_m_rejected():
    with pytest.raises(ValueError):
        ErConfig(0.5, 0, 1)
