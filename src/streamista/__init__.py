"""Streaming soft-thresholding recovery of time-varying sparse signals.

The package has five layers: measurement operators and isometry estimates
(:mod:`.measurement`), synthetic drifting targets (:mod:`.signals`), the
streaming solver and its continuous-time twin (:mod:`.solver`), closed-form
tracking bounds with checkable preconditions (:mod:`.theory`), and the
experiment harness plus CLI (:mod:`.harness`, :mod:`.cli`).
"""

from .harness import (
    ExperimentConfig,
    LambdaLevelFit,
    LcaSuiteResult,
    QRatioGrid,
    RunResult,
    SteadyStateFit,
    TrialResult,
    estimate_steady_state,
    fit_lambda_level,
    fit_steady_state,
    run_lca_suite,
    run_lemma_suite,
    run_theorem_suite,
    run_trial,
    run_trials,
    sweep,
    sweep_lambda_s,
)
from .kernels import active_backend
from .measurement import (
    MeasurementMatrix,
    RipEstimate,
    SupportBudgetError,
    gen_gaussian_matrix,
    gen_identity,
    gen_noise,
    load_matrix_csv,
    measure,
    rip_exact,
    rip_exact_witness,
    rip_monte_carlo,
    save_matrix_csv,
)
from .signals import (
    DynamicTarget,
    GenConfig,
    SupportPlan,
    assemble_target,
    estimate_beta,
    estimate_mu_dl,
    gen_amplitudes,
    gen_support_schedule,
    load_target_csv,
    save_target_csv,
)
from .solver import (
    SolverConfig,
    SolverState,
    SolverTrace,
    active_set,
    euler_lca_trace,
    init_state,
    ista_iterate,
    lca_simulate,
    run_streaming,
    soft_threshold,
    top_q_energy,
    top_q_indices,
)
from .theory import (
    BOUND_TOL,
    ConditionCheck,
    EnvelopeCheckResult,
    IstaBoundParams,
    LcaBoundParams,
    PreconditionReport,
    SupportCapResult,
    check_ista_preconditions,
    check_lca_preconditions,
    contraction_factor,
    drift_offset,
    ista_error_bound,
    ista_steady_state,
    lca_error_bound,
    lca_steady_bound,
    rip_inequality_suite,
    steady_offset,
    support_cap_check,
    target_energy_envelope_check,
)

__version__ = "0.1.0"
