"""Random numerical semigroups: exact invariants, per-integer sampling at
probability p, cyclic sumset coverage experiments, and seeded Monte Carlo
sweeps with deterministic, worker-count-independent output."""

from .harness import (
    BoundsRecord,
    ConjectureDiagnostics,
    EventFailureReport,
    EventOutcome,
    InternalInvariantError,
    Proportion,
    SmallGeneratorReport,
    SweepRow,
    conditional_frobenius_tail,
    conjecture_fit,
    estimate_event_failures,
    event_pipeline_trial,
    frobenius_whp_cap,
    pipeline_outcome,
    polylog_frobenius_cap,
    prime_window_base,
    run_sweep,
    sweep_csv,
    theoretical_bounds,
    wilson_proportion,
)
from .sampler import ErConfig, SampleTrace, sample_bounded, sample_unconstrained
from .semigroup import (
    AperyTable,
    GeneratorSet,
    InvalidGeneratorError,
    MembershipTable,
    NotCofiniteError,
    SemigroupInvariants,
    WilfReport,
    apery_set,
    frobenius,
    genus,
    invariants,
    membership_table,
    minimal_generators,
    normalize_generators,
    wilf_check,
)
from .sumsets import (
    CoverageExperiment,
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

__version__ = "0.1.0"
