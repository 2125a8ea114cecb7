"""Command-line front end.

Exit codes: 0 on success, 2 for invalid arguments or domain errors in the
inputs (non-cofinite generator sets, out-of-range parameters, inputs above
the size limit ``rng.MAX_SIZE``), 3 if an internal cross-check fails
(which should never happen and indicates a broken build rather than bad
input).  ``main`` only parses and dispatches; the commands check their own
inputs.

The Frobenius number of the gap-free semigroup is reported as -1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from . import harness, sampler, semigroup, sumsets
from .harness import _fmt


def _probability(text: str) -> float:
    try:
        p = float(text)
        sampler.check_probability(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return p


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _prob_list(text: str) -> list[float]:
    return [_probability(part) for part in text.split(",") if part != ""]


def _bound(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'expected an integer or "auto", got {text!r}')


def _fmt_gens(gens: semigroup.GeneratorSet) -> str:
    return "[" + ",".join(str(g) for g in gens.elements) + "]"


def _fmt_proportion(name: str, prop: Optional[harness.Proportion]) -> str:
    if prop is None:
        return f"{name}=absent"
    return (
        f"{name}={_fmt(prop.fraction)} "
        f"ci95=[{_fmt(prop.ci_low)},{_fmt(prop.ci_high)}] "
        f"n={prop.denominator}"
    )


def _cmd_invariants(args: argparse.Namespace) -> int:
    gens = semigroup.normalize_generators(args.gens)
    inv = semigroup.invariants(gens)
    wilf = semigroup.wilf_check(inv)
    print(
        f"gens={_fmt_gens(gens)} F={inv.frobenius} g={inv.genus} "
        f"e={inv.embedding_dimension} min_gens={_fmt_gens(inv.minimal_generators)} "
        f"wilf={'ok' if wilf.holds else 'VIOLATION'}"
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.M is not None:
        gens = sampler.sample_bounded(
            sampler.ErConfig(args.p, args.M, args.seed), args.trial
        )
        print(f"gens={_fmt_gens(gens)} gcd={gens.gcd}")
    else:
        trace = sampler.sample_unconstrained(args.p, args.seed, args.trial)
        print(f"gens={_fmt_gens(trace.gens)} stop_index={trace.stop_index}")
    return 0


def _cmd_sumset(args: argparse.Namespace) -> int:
    exp = sumsets.run_coverage_experiment(args.q, args.b, args.trials, args.seed)
    print(
        f"q={exp.q} b={_fmt(exp.b)} s={exp.s} k={exp.k} "
        f"trials={exp.trials} failures={exp.failures} "
        f"empirical_rate={_fmt(exp.empirical_rate)} "
        f"theorem_bound={_fmt(exp.bound)}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    mode = "unconstrained" if args.M is None else f"bounded(M={args.M})"
    rows = harness.run_sweep(args.p_list, args.trials, args.seed, M=args.M)
    text = harness.sweep_csv(rows, args.seed, mode)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:  # a bad --out path is bad input, not a broken build
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    report = harness.estimate_event_failures(args.p, args.trials, args.seed)
    print(f"p={_fmt(report.p)} trials={report.trials}")
    for name in (
        "pr_not_d1",
        "pr_not_d2_given_d1",
        "pr_not_d3_given_d12",
        "frobenius_within_cap_given_d3",
    ):
        print(_fmt_proportion(name, getattr(report, name)))
    check = report.small_generator_check
    if check is None:
        print("small_generator_check=absent")
    else:
        print(
            f"small_generator_check: mean_count={_fmt(check.mean_count)} "
            f"mean_expected={_fmt(check.mean_expected)} "
            f"diff={_fmt(check.diff)} se={_fmt(check.se)} "
            f"within_5se={'yes' if check.within_5se else 'NO'} n_d1={check.n_d1}"
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rec = harness.theoretical_bounds(args.p)
    for name, value in asdict(rec).items():  # a *_lower field shares the next one's line
        print(f"{name}={_fmt(value)}", end=" " if name.endswith("_lower") else "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randsemigroup",
        description=(
            "Random numerical semigroups: exact invariants, per-integer "
            "probability-p sampling, cyclic sumset coverage, and seeded sweeps. "
            "The gap-free semigroup has Frobenius number -1 by convention."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="exact invariants of a generator set")
    p_inv.add_argument("--gens", type=_int_list, required=True,
                       help="comma-separated generators, e.g. 3,5,8")
    p_inv.set_defaults(func=_cmd_invariants)

    p_sample = sub.add_parser("sample", help="draw one random generator set")
    p_sample.add_argument("--p", type=_probability, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--trial", type=int, default=0)
    p_sample.add_argument("--M", type=int, default=None,
                          help="bound the draw to 1..M (default: unconstrained)")
    p_sample.set_defaults(func=_cmd_sample)

    p_sumset = sub.add_parser("sumset", help="random subset sumset coverage trials in Z_q")
    p_sumset.add_argument("--q", type=int, required=True, help="prime modulus")
    p_sumset.add_argument("--b", type=float, default=6.0,
                          help="window exponent; subset size 2*ceil(b*log2 q)")
    p_sumset.add_argument("--trials", type=int, required=True)
    p_sumset.add_argument("--seed", type=int, required=True)
    p_sumset.set_defaults(func=_cmd_sumset)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over p; writes CSV")
    p_sweep.add_argument("--p-list", dest="p_list", type=_prob_list, required=True,
                         help="comma-separated probabilities, e.g. 0.1,0.05,0.02")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--M", type=_bound, default=None,
                         help='bound M, or "auto" for ceil(50/p) per p '
                              "(default: unconstrained)")
    p_sweep.add_argument("--out", default=None,
                         help="output CSV path (default: stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_events = sub.add_parser("events", help="staged event-pipeline failure estimates")
    p_events.add_argument("--p", type=_probability, required=True)
    p_events.add_argument("--trials", type=int, required=True)
    p_events.add_argument("--seed", type=int, required=True)
    p_events.set_defaults(func=_cmd_events)

    p_bounds = sub.add_parser("bounds", help="closed-form expectation bounds at p")
    p_bounds.add_argument("--p", type=_probability, required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (semigroup.InvalidGeneratorError, semigroup.NotCofiniteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
