"""Command-line interface: output lines, exit codes, CSV wiring."""

import pytest

from randsemigroup import (
    harness,
    rng,
    run_sweep,
    sample_unconstrained,
    sampler,
    semigroup,
    sumsets,
    sweep_csv,
)
from randsemigroup.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_line(capsys):
    code, out, err = run_cli(capsys, "invariants", "--gens", "3,5,8")
    assert code == 0 and err == ""
    assert out == "gens=[3,5,8] F=7 g=4 e=2 min_gens=[3,5] wilf=ok\n"


def test_invariants_gap_free_convention(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--gens", "1")
    assert code == 0
    assert out == "gens=[1] F=-1 g=0 e=1 min_gens=[1] wilf=ok\n"


def test_invariants_rejects_common_divisor(capsys):
    code, out, err = run_cli(capsys, "invariants", "--gens", "4,6")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_invariants_rejects_non_integer_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--gens", "3,x"])
    assert exc.value.code == 2


def test_sample_bounded_line(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--p", "0.999999", "--M", "5", "--seed", "0"
    )
    assert code == 0
    assert out == "gens=[1,2,3,4,5] gcd=1\n"


def test_sample_unconstrained_matches_library(capsys):
    trace = sample_unconstrained(0.5, 7, 0)
    gens = ",".join(str(g) for g in trace.gens.elements)
    code, out, _ = run_cli(capsys, "sample", "--p", "0.5", "--seed", "7")
    assert code == 0
    assert out == f"gens=[{gens}] stop_index={trace.stop_index}\n"
    _, other, _ = run_cli(capsys, "sample", "--p", "0.5", "--seed", "7", "--trial", "1")
    assert other != out


def test_sample_rejects_bad_probability():
    for bad in ("1.5", "0", "1", "-0.2", "nope"):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--p", bad, "--seed", "1"])
        assert exc.value.code == 2


SIZE_LIMIT = "above the size limit 2^24 = 16777216\n"

TINY_P_ERROR = (
    "error: unconstrained walk span ceil(64/p) at p = 1e-12 is 64000000000000, " + SIZE_LIMIT
)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the input was rejected")


def test_sample_rejects_tiny_p_before_any_draw(capsys, monkeypatch):
    monkeypatch.setattr(sampler, "substream", _no_work)
    code, out, err = run_cli(capsys, "sample", "--p", "1e-12", "--seed", "0")
    assert code == 2 and out == ""
    assert err == TINY_P_ERROR


def test_sweep_rejects_tiny_p_before_any_trial(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_trials", _no_work)
    code, out, err = run_cli(
        capsys, "sweep", "--p-list", "0.5,1e-12", "--trials", "3", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err == TINY_P_ERROR


def test_sumset_line(capsys):
    code, out, _ = run_cli(
        capsys, "sumset", "--q", "101", "--b", "3", "--trials", "5", "--seed", "7"
    )
    assert code == 0
    assert out.startswith("q=101 b=3 s=40 k=20 trials=5 failures=0 empirical_rate=0 ")
    assert "theorem_bound=0.42524" in out


def test_sumset_bound_past_the_double_range_prints_zero(capsys):
    # q^(b-2) overflows a double; the bound (far below the least double) prints 0
    code, out, err = run_cli(
        capsys, "sumset", "--q", "10007", "--b", "300", "--trials", "1", "--seed", "0"
    )
    assert code == 0 and err == ""
    assert out == (
        "q=10007 b=300 s=7974 k=3987 trials=1 failures=0 empirical_rate=0 theorem_bound=0\n"
    )


def test_sumset_rejects_composite_modulus(capsys):
    code, out, err = run_cli(
        capsys, "sumset", "--q", "100", "--trials", "1", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("b", ["inf", "nan", "0", "-1"])
def test_sumset_rejects_bad_b(capsys, b):
    code, out, err = run_cli(
        capsys, "sumset", "--q", "101", "--b", b, "--trials", "1", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: b must be finite and > 0, got ")


def test_sumset_rejects_b_too_large_for_q(capsys):
    code, out, err = run_cli(
        capsys, "sumset", "--q", "101", "--b", "1e308", "--trials", "1", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: subset size") and "exceeds q" in err


def test_sumset_rejects_oversized_modulus(capsys):
    code, out, err = run_cli(
        capsys, "sumset", "--q", str((1 << 24) + 1), "--trials", "1", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err == "error: q is 16777217, " + SIZE_LIMIT


@pytest.mark.parametrize(
    "argv, work, message",
    [
        (
            ["invariants", "--gens", "1000000000,1000000001"],
            [(semigroup, "extend_minima")],
            "least generator is 1000000000",
        ),
        (
            ["sample", "--p", "0.5", "--seed", "0", "--M", "100000000000"],
            [(sampler, "substream")],
            "M is 100000000000",
        ),
        (
            ["sweep", "--p-list", "0.5", "--M", "100000000000", "--trials", "1", "--seed", "0"],
            [(harness, "run_trials")],
            "M is 100000000000",
        ),
        (
            ["sweep", "--p-list", "1e-9", "--M", "auto", "--trials", "1", "--seed", "0"],
            [(harness, "run_trials")],
            "M = ceil(50/p) at p = 1e-09 is 50000000000",
        ),
        (
            ["sumset", "--q", "16777259", "--trials", "1", "--seed", "0"],
            [(sumsets, "is_prime"), (sumsets, "run_trials")],
            "q is 16777259",  # the least prime above 2^24
        ),
        (
            ["sample", "--p", "1e-6", "--seed", "0"],
            [(sampler, "substream")],
            "unconstrained walk span ceil(64/p) at p = 1e-06 is 64000000",
        ),
        (
            ["sweep", "--p-list", "0.5", "--M", "10", "--trials", "1000000000", "--seed", "0"],
            [(harness, "run_trials")],
            "trials x distinct p is 1000000000",
        ),
        (
            ["events", "--p", "0.3", "--trials", "1000000000", "--seed", "0"],
            [(harness, "event_pipeline_trial"), (rng, "ProcessPoolExecutor")],
            "trials is 1000000000",
        ),
        (
            ["sumset", "--q", "101", "--b", "1", "--trials", "1000000000", "--seed", "0"],
            [(sumsets, "coverage_trial"), (rng, "ProcessPoolExecutor")],
            "trials is 1000000000",
        ),
    ],
    ids=[
        "invariants-gens", "sample-M", "sweep-M", "sweep-M-auto", "sumset-q", "sample-p",
        "sweep-trials", "events-trials", "sumset-trials",
    ],
)
def test_oversized_input_fails_before_any_work(capsys, monkeypatch, argv, work, message):
    for module, name in work:
        monkeypatch.setattr(module, name, _no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}, {SIZE_LIMIT}"


@pytest.mark.filterwarnings("error")  # M = 2 < 10/p must not warn before the refusal
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p-list", "0.4", "--trials", "0", "--seed", "0"],
        ["sweep", "--M", "2", "--p-list", "0.01", "--trials", "0", "--seed", "0"],
        ["events", "--p", "0.2", "--trials", "0", "--seed", "0"],
        ["sumset", "--q", "101", "--b", "3", "--trials", "0", "--seed", "0"],
    ],
    ids=["sweep", "sweep-M-truncated", "events", "sumset"],
)
def test_zero_trials_exit_2_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(rng, "ProcessPoolExecutor", _no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: trials must be >= 1\n"


def test_sweep_coupling_violation_exits_3(capsys, monkeypatch):
    # trial 0's F falls from 9 to 7 as p falls from 0.4 to 0.2
    monkeypatch.setattr(
        harness, "run_trials", lambda fn, trials, *head: [[(9, 5, 2, 10, True), (7, 5, 2, 9, True)]]
    )
    code, out, err = run_cli(capsys, "sweep", "--p-list", "0.4,0.2", "--trials", "1", "--seed", "0")
    assert code == 3 and out == ""
    assert err == (
        "internal invariant violation: coupling violation in trial 0: "
        "(F, g) = (9, 5) at p = 0.4 but (7, 5) at p = 0.2\n"
    )


def test_sweep_stdout_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--p-list", "0.4,0.2", "--trials", "10", "--seed", "3"
    )
    assert code == 0
    assert out == sweep_csv(run_sweep([0.4, 0.2], 10, 3), 3, "unconstrained")


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--p-list", "0.3", "--trials", "8", "--seed", "4",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text() == sweep_csv(run_sweep([0.3], 8, 4), 4, "unconstrained")


def test_sweep_bounded_modes(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--p-list", "0.4,0.2", "--trials", "6", "--seed", "9", "--M", "50",
    )
    assert code == 0
    assert out == sweep_csv(run_sweep([0.4, 0.2], 6, 9, M=50), 9, "bounded(M=50)")
    code, auto_out, _ = run_cli(
        capsys, "sweep", "--p-list", "0.4", "--trials", "6", "--seed", "9",
        "--M", "auto",
    )
    assert code == 0
    assert auto_out == sweep_csv(run_sweep([0.4], 6, 9, M="auto"), 9, "bounded(M=auto)")


def test_sweep_rejects_empty_p_list(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_trials", _no_work)
    code, out, err = run_cli(capsys, "sweep", "--p-list", ",", "--trials", "3", "--seed", "0")
    assert code == 2 and out == ""
    assert err == "error: p_list must hold at least one p\n"


def test_sweep_rejects_bad_bound():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p-list", "0.4", "--trials", "1", "--seed", "0", "--M", "big"])
    assert exc.value.code == 2


def test_events_absent_conditionals(capsys):
    code, out, _ = run_cli(
        capsys, "events", "--p", "0.3", "--trials", "2", "--seed", "182"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p=0.3 trials=2"
    assert lines[1].startswith("pr_not_d1=1 ")
    assert lines[2] == "pr_not_d2_given_d1=absent"
    assert lines[3] == "pr_not_d3_given_d12=absent"
    assert lines[4] == "frobenius_within_cap_given_d3=absent"
    assert lines[5] == "small_generator_check=absent"


def test_events_reports_observed_stages(capsys):
    code, out, _ = run_cli(
        capsys, "events", "--p", "0.2", "--trials", "50", "--seed", "99"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("pr_not_d1=")
    assert lines[2].startswith("pr_not_d2_given_d1=1 ")  # d2 unreachable at this scale
    assert lines[5].startswith("small_generator_check: mean_count=")
    assert "within_5se=" in lines[5]


def test_events_rejects_undefined_window(capsys):
    code, out, err = run_cli(capsys, "events", "--p", "0.5", "--trials", "1", "--seed", "0")
    assert code == 2 and out == ""
    assert "f(p) >= 2" in err


def test_events_rejects_tiny_p_before_any_work(capsys):
    code, out, err = run_cli(capsys, "events", "--p", "1e-5", "--trials", "1", "--seed", "0")
    assert code == 2 and out == ""
    assert err == "error: prime window ceil(6 f(p)) at p = 1e-05 is 79528472, " + SIZE_LIMIT


def test_bounds_lines(capsys):
    rec = harness.theoretical_bounds(0.5)
    code, out, _ = run_cli(capsys, "bounds", "--p", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p=0.5"
    assert lines[1] == "embedding_lower=1.69231 embedding_upper=3.5"
    assert lines[2] == "genus_lower=1.69231 genus_upper=3.5"
    assert lines[3] == "frobenius_lower=1.69231 frobenius_upper=7"
    assert lines[4] == f"prime_window_base={rec.prime_window_base:.6g}"
    assert lines[5] == f"frobenius_whp_cap={rec.frobenius_whp_cap:.6g}"
    assert lines[6] == f"frobenius_tail_mean_bound={rec.frobenius_tail_mean_bound:.6g}"


@pytest.mark.parametrize("p", ["1e-100", "1e-78"])
def test_bounds_rejects_p_whose_closed_forms_are_not_finite(capsys, p):
    # 1e-100: p**4 underflows to 0; 1e-78: the tail bound 8/p^4 overflows to inf
    code, out, err = run_cli(capsys, "bounds", "--p", p)
    assert code == 2 and out == ""
    assert err == f"error: the closed-form bounds at p = {float(p)} are not all finite doubles\n"


def test_bounds_at_tiny_finite_p_keep_their_bytes(capsys):
    code, out, err = run_cli(capsys, "bounds", "--p", "1e-60")
    assert code == 0 and err == ""
    assert out == (
        "p=1e-60\n"
        "embedding_lower=3 embedding_upper=2e+60\n"
        "genus_lower=3e+60 genus_upper=2e+120\n"
        "frobenius_lower=3e+60 frobenius_upper=4e+120\n"
        "prime_window_base=1.90868e+64\n"
        "frobenius_whp_cap=1.48502e+68\n"
        "frobenius_tail_mean_bound=8e+240\n"
    )


def test_internal_invariant_failure_maps_to_exit_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise harness.InternalInvariantError("fabricated for the exit-code path")

    monkeypatch.setattr(harness, "estimate_event_failures", explode)
    code, out, err = run_cli(capsys, "events", "--p", "0.2", "--trials", "1", "--seed", "0")
    assert code == 3 and out == ""
    assert err.startswith("internal invariant violation:")


def test_non_integer_worker_setting_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("RANDSEMIGROUP_WORKERS", "abc")
    code, out, err = run_cli(
        capsys, "sweep", "--p-list", "0.4", "--trials", "1", "--seed", "0"
    )
    assert code == 2 and out == ""
    assert err == "error: RANDSEMIGROUP_WORKERS must be an integer, got 'abc'\n"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
