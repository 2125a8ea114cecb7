"""Deterministic random substreams for trial-level Monte Carlo.

Every trial of every experiment owns an independent pseudorandom stream
derived from (master_seed, stream_tag, trial_index), so results are
reproducible byte for byte and never depend on worker count or on the
order in which trials execute.

The derivation is frozen: the splitmix64 finalizer is applied to the
master seed and then re-applied after XOR-folding each further component
(see ``child_seed``).  Changing any constant here changes every published
output, so treat them as part of the file format.

Substreams are ``random.Random`` (Mersenne Twister) instances seeded with
the derived 64-bit value.  Only ``random()`` and ``getrandbits()`` are
ever consumed; CPython documents both sequences as stable across versions
and platforms for a fixed seed.  Bounded uniform integers go through
``randbelow`` (rejection on ``getrandbits``), not ``randrange``, and every
uniform k-subset (sumset coverage, the event d3 stage) through ``draw_subset``.

``run_trials`` is the one trial engine behind sweeps, event estimates and
sumset coverage; it returns results in trial order for any worker count.
``check_size`` is the one size limit: every list, sieve or walk whose
length an input sets is checked against ``MAX_SIZE`` before it is made.
Likewise ``resolve_workers`` holds the worker count to ``MAX_WORKERS``
before any pool starts, since a forking pool starts all its workers at once.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

_MASK64 = (1 << 64) - 1

WORKERS_ENV_VAR = "RANDSEMIGROUP_WORKERS"

MAX_SIZE = 1 << 24  # the longest table, window or walk an input may ask for
MAX_WORKERS = 256  # the most worker processes a run may ask for

# Stream tags keep unrelated draw sequences apart.  Arbitrary but frozen.
TAG_SAMPLE = 0x5347454E53414D50    # generator-set sampling (bounded and unconstrained share it)
TAG_COVERAGE = 0x434F564552414745  # random subsets in cyclic sumset coverage trials
TAG_EVENTS = 0x4556454E54504950    # event-pipeline trials


def mix64(x: int) -> int:
    """splitmix64 finalizer: the frozen 64-bit scrambling step."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(master_seed: int, *components: int) -> int:
    """Fold components into a child seed, one mix round per component."""
    s = mix64(master_seed & _MASK64)
    for c in components:
        s = mix64(s ^ (c & _MASK64))
    return s


def substream(master_seed: int, *components: int) -> random.Random:
    """Independent generator for one trial, keyed by tag and trial index."""
    return random.Random(child_seed(master_seed, *components))


def randbelow(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) using only getrandbits."""
    if n <= 0:
        raise ValueError("randbelow needs a positive bound")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def draw_subset(rng: random.Random, n: int, k: int) -> list[int]:
    """The first k slots of a partial Fisher-Yates shuffle of range(n), in
    O(k): slot i swaps with slot i + randbelow(rng, n - i), and only the
    slots a swap has changed are stored.  Part of the stream format."""
    displaced: dict[int, int] = {}  # the value at each slot a swap has changed
    drawn = []
    for i in range(k):
        j = i + randbelow(rng, n - i)
        drawn.append(displaced.get(j, j))  # the swap puts slot j's value at slot i
        displaced[j] = displaced.get(i, i)
    return drawn


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else RANDSEMIGROUP_WORKERS, else all cores (at
    most MAX_WORKERS); a setting outside 1..MAX_WORKERS is rejected."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        try:
            workers = int(env) if env else min(os.cpu_count() or 1, MAX_WORKERS)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"worker count must lie in 1..{MAX_WORKERS}, got {workers}")
    return workers


def check_size(what: str, n: int) -> None:
    """Reject an input that sets an O(n) list, sieve or walk with n > MAX_SIZE."""
    if n > MAX_SIZE:
        raise ValueError(f"{what} is {n}, above the size limit 2^24 = {MAX_SIZE}")


def run_trials(fn: Callable, args: Sequence[tuple], workers: Optional[int] = None) -> list:
    """``[fn(*a) for a in args]`` in trial order, on one pool per call.

    Runs in this process when one worker (or one trial) is all there is to
    use; otherwise ``fn`` must be picklable by import path, and one process
    pool of ``min(workers, len(args))`` workers maps it over ``args``.
    """
    workers = resolve_workers(workers)
    size = min(workers, len(args))
    if size <= 1:
        return [fn(*a) for a in args]
    chunk = max(1, len(args) // (workers * 8))
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, *zip(*args), chunksize=chunk))
