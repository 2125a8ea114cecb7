"""The trial engine and its shared input checks: trial order, pool size, the
worker setting, the worker ceiling and the size limit.  No test here starts
a real process pool."""

import pytest

from randsemigroup import rng
from randsemigroup.cli import main
from randsemigroup.harness import run_sweep
from randsemigroup.rng import MAX_SIZE, MAX_WORKERS, WORKERS_ENV_VAR, check_size
from randsemigroup.rng import resolve_workers, run_trials


class FakeExecutor:
    """Stands in for ProcessPoolExecutor; runs the map in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_pool_has_one_process_per_job_at_most(monkeypatch):
    monkeypatch.setattr(FakeExecutor, "sizes", [])
    monkeypatch.setattr(rng, "ProcessPoolExecutor", FakeExecutor)
    assert run_trials(pow, [(2, 3), (3, 2), (5, 1)], workers=64) == [8, 9, 5]
    assert FakeExecutor.sizes == [3]


def test_one_worker_runs_in_process(monkeypatch):
    monkeypatch.setattr(FakeExecutor, "sizes", [])
    monkeypatch.setattr(rng, "ProcessPoolExecutor", FakeExecutor)
    assert run_trials(pow, [(2, 3), (3, 2)], workers=1) == [8, 9]
    assert FakeExecutor.sizes == []


@pytest.mark.parametrize(
    "argv",
    [
        ["events", "--p", "0.2", "--trials", "1", "--seed", "0"],
        ["sumset", "--q", "101", "--b", "3", "--trials", "1", "--seed", "0"],
    ],
)
def test_non_integer_worker_setting_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setenv(WORKERS_ENV_VAR, "abc")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: RANDSEMIGROUP_WORKERS must be an integer, got 'abc'\n"


class NoPool:
    """Stands in for ProcessPoolExecutor; fails if a pool is ever made."""

    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")


def test_worker_ceiling_accepts_max_workers_and_no_more(monkeypatch):
    assert 64 <= MAX_WORKERS == 256
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS
    with pytest.raises(ValueError) as info:
        resolve_workers(MAX_WORKERS + 1)
    assert str(info.value) == "worker count must lie in 1..256, got 257"
    monkeypatch.setenv(WORKERS_ENV_VAR, "257")
    with pytest.raises(ValueError, match=r"^worker count must lie in 1\.\.256, got 257$"):
        resolve_workers()
    monkeypatch.delenv(WORKERS_ENV_VAR)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 1000)
    assert resolve_workers() == MAX_WORKERS  # the default is all cores, up to the ceiling


def test_worker_ceiling_holds_for_the_workers_argument(monkeypatch):
    monkeypatch.setattr(rng, "ProcessPoolExecutor", NoPool)
    with pytest.raises(ValueError, match="got 100000"):
        run_trials(pow, [(2, 3), (3, 2)], workers=100000)
    with pytest.raises(ValueError, match="got 100000"):
        run_sweep([0.5], 3, 0, workers=100000)


@pytest.mark.parametrize(
    "argv",
    [
        ["events", "--p", "0.2", "--trials", "3", "--seed", "0"],
        ["sumset", "--q", "101", "--b", "3", "--trials", "3", "--seed", "0"],
        ["sweep", "--p-list", "0.4", "--trials", "3", "--seed", "0"],
    ],
)
def test_worker_count_above_the_ceiling_exits_2_before_any_process(argv, monkeypatch, capsys):
    monkeypatch.setattr(rng, "ProcessPoolExecutor", NoPool)
    monkeypatch.setenv(WORKERS_ENV_VAR, "100000")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: worker count must lie in 1..256, got 100000\n"


def test_size_limit_accepts_two_to_the_24_and_no_more():
    assert MAX_SIZE == 1 << 24
    check_size("n", 1 << 24)
    with pytest.raises(ValueError) as info:
        check_size("n", (1 << 24) + 1)
    assert str(info.value) == "n is 16777217, above the size limit 2^24 = 16777216"
