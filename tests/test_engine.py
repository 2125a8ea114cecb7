"""The trial engine and its shared input checks: trial order, pool size, the
worker setting and the size limit."""

import pytest

from randsemigroup import rng
from randsemigroup.cli import main
from randsemigroup.rng import MAX_SIZE, WORKERS_ENV_VAR, check_size, run_trials


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


def test_size_limit_accepts_two_to_the_24_and_no_more():
    assert MAX_SIZE == 1 << 24
    check_size("n", 1 << 24)
    with pytest.raises(ValueError) as info:
        check_size("n", (1 << 24) + 1)
    assert str(info.value) == "n is 16777217, above the size limit 2^24 = 16777216"
