"""Frozen CLI outputs: the seed-to-stream mapping is part of the file format.

Each file under tests/golden/ holds the exact stdout of one CLI invocation,
recorded once and never rewritten to make a test pass.  Rerun equality alone
would not notice a change in how the random streams are consumed; these
bytes do.  The d3 events run reaches stage d3 on one of its three trials;
the absent events run reaches no stage, so its three conditionals print as
absent.  The partial sumset run fails to cover Z_q on 31 of its 40 trials.
The runs that go through the trial engine (sweeps, events, sumsets) are also
checked at two workers, where their trials run on a process pool.
"""

from pathlib import Path

import pytest

from randsemigroup.cli import main
from randsemigroup.rng import WORKERS_ENV_VAR

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "sample_unconstrained.txt": ["sample", "--p", "0.02", "--seed", "7", "--trial", "3"],
    "sample_bounded.txt": ["sample", "--p", "0.3", "--M", "60", "--seed", "7", "--trial", "2"],
    "sample_bounded_gcd8.txt": ["sample", "--p", "0.3", "--M", "8", "--seed", "1", "--trial", "4"],
    "sweep_unconstrained.csv": ["sweep", "--p-list", "0.1,0.05,0.02", "--trials", "20", "--seed", "11"],
    "sweep_auto.csv": ["sweep", "--M", "auto", "--p-list", "0.3,0.1", "--trials", "40", "--seed", "5"],
    "events_d3.txt": ["events", "--p", "0.005", "--trials", "3", "--seed", "0"],
    "events_absent.txt": ["events", "--p", "0.3", "--trials", "2", "--seed", "182"],
    "sumset.txt": ["sumset", "--q", "101", "--b", "3", "--trials", "20", "--seed", "7"],
    "sumset_partial.txt": ["sumset", "--q", "101", "--b", "0.6", "--trials", "40", "--seed", "7"],
    "invariants.txt": ["invariants", "--gens", "6,9,20"],
    "bounds.txt": ["bounds", "--p", "0.01"],
}


POOLED = sorted(n for n in GOLDEN if n.startswith(("sweep_", "events_", "sumset")))


def _check_golden(name, workers, monkeypatch, capsys):
    monkeypatch.setenv(WORKERS_ENV_VAR, workers)
    code = main(GOLDEN[name])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, monkeypatch, capsys):
    _check_golden(name, "1", monkeypatch, capsys)


@pytest.mark.parametrize("name", POOLED)
def test_cli_output_matches_golden_at_two_workers(name, monkeypatch, capsys):
    _check_golden(name, "2", monkeypatch, capsys)
