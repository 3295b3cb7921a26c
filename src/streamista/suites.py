"""The theorem, continuous-bound and lemma suites.

The theorem suite checks the discrete tracking bound and the support cap on
small instances with exact isometry constants; the continuous-bound suite
checks the LCA bound against Euler traces at two step sizes; the lemma suite
runs the near-isometry, support-cap and energy-envelope oracles on seeded
draws.  ``check-theorems`` and ``lemma-suite`` import this module when they
run, so ``run`` and the sweeps never load it.

One driver, :func:`_run_suite`, runs the theorem and continuous-bound
suites in two phases.  It selects: it builds the instances a batch at a
time, hands each suite's rule the plain numbers of each instance (its
isometry constant and its target's statistics, reduced once per batch),
and keeps every record and the threshold of each instance that runs.  Then
it runs: it hands each block of running instances, their key rows and one
threshold per instance, to the harness, which rebuilds, measures and runs
it once per step size the suite asks for.  It returns every instance's
record with its runs, in instance order, as one list; each suite keeps
only its threshold rule and its verdict.  The driver derives its keys,
sizes its blocks, builds its selection batches and runs its blocks with
the harness's helpers, called through the module (``harness._stream_keys``,
``harness._block_size``, ``harness._problems``, ``harness._block_runs``),
so a patch of a harness helper reaches the suites too.  It hands them its
instances' key rows and reads no key itself.  A block's run records the
step at which each instance diverged as data; it raises nothing.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import harness
from .harness import ConfigError, ExperimentConfig
from .measurement import (
    DEFAULT_SUPPORT_BUDGET,
    MeasurementMatrix,
    gen_gaussian_matrix,
    rip_exact,
    row_norms,
)
from .rng import derive_seed, make_rng
from .signals import estimate_mu_dl
from .theory import (
    BOUND_TOL,
    IstaBoundParams,
    LcaBoundParams,
    PreconditionReport,
    check_ista_preconditions,
    check_lca_preconditions,
    ista_error_bound,
    lca_error_bound,
    rip_inequality_suite,
    support_cap_check,
    target_energy_envelope_check,
)

# draws per call of the near-isometry oracle, which bounds the block's memory
_LEMMA_BLOCK = 256

# the lemma suite's matrix count and draws per matrix, its matrices
# (m x n), its two index sets (sizes q and s, exact isometry constant at
# level q + s) and its violation tolerance
_LEMMA_MATRICES = 10
_LEMMA_DRAWS = 1000
_LEMMA_M = 8
_LEMMA_N = 16
_LEMMA_Q = 2
_LEMMA_S = 2
_LEMMA_TOL = 1e-10


# ---------------------------------------------------------------------------
# theorem-mode experiment: small instances with exact isometry constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremInstance:
    """One small-instance dominance check."""

    index: int
    delta: float
    lam: float
    sigma: float
    report: PreconditionReport
    max_violation: float  # max over l of error - bound; nan when skipped
    support_ok: bool | None
    max_gamma_size: int
    diverged_step: int | None = None  # first diverged solver step, if any

    @property
    def dominated(self) -> bool:
        """The error stayed under the bound (within BOUND_TOL) and the active
        set within the support cap."""
        return self.max_violation <= BOUND_TOL and bool(self.support_ok)


@dataclass(frozen=True)
class _SuiteResult:
    """A bound suite's instances, in order, and how many passed their preconditions."""

    instances: tuple

    @property
    def n_passing(self) -> int:
        return sum(1 for inst in self.instances if inst.report.passed)

    @property
    def pass_rate(self) -> float:
        return self.n_passing / len(self.instances)


@dataclass(frozen=True)
class TheoremSuiteResult(_SuiteResult):
    @property
    def all_dominated(self) -> bool:
        """True when every precondition-passing instance obeyed the bound."""
        return all(inst.dominated for inst in self.instances if inst.report.passed)


def _suite_level(cfg: ExperimentConfig, suite: str, formula: str, level: int) -> int:
    """``level``, the support size of the exact isometry constants ``suite`` needs.

    Raises ConfigError when enumerating its supports would exceed
    ``DEFAULT_SUPPORT_BUDGET``, so a config the suite cannot check fails
    before any instance is drawn; the message names the suite and its
    level's ``formula``.
    """
    total = math.comb(cfg.n, level)
    if total > DEFAULT_SUPPORT_BUDGET:
        raise ConfigError(
            f"{suite} needs exact isometry constants at level {formula} = {level}; "
            f"enumerating comb({cfg.n}, {level}) = {total} supports exceeds the budget "
            f"{DEFAULT_SUPPORT_BUDGET}"
        )
    return level


def _run_suite(cfg: ExperimentConfig, level: int, draw, runs):
    """Select the suite's instances in order, then run the ones that run in kernel blocks.

    Both phases build instances from their rows of the keys derived once
    for the suite, with :func:`.harness._problems`, so instance t's matrix
    and target have the bits of its one-trial build (``trial_problem`` of
    ``tests/reference.py``) in any block.  The selection builds batches of
    ``size`` consecutive instances, one at a time, with ``size`` from
    :func:`.harness._block_size` for the longest run.
    ``draw(t, delta, beta, mu_dl, e0)`` gets floats: the instance's exact
    isometry constant at ``level`` (``rip_exact``), its target's empirical
    energy and jump bounds (``estimate_beta``; ``estimate_mu_dl``, 0.0 at
    one sample) and its first sample's norm, the first error of a zero
    start.  The three target statistics are reduced
    once per batch, each with the bits of its target's own call; the
    energy bound and the first norm read one ``row_norms`` of the batch's
    samples.  ``draw`` returns ``(record, lam)``, with ``lam`` the
    instance's threshold, or None when it does not run.

    The run takes the running instances in blocks of ``size`` consecutive
    ones and hands each block's key rows, isometry constants and
    thresholds to :func:`.harness._block_runs`, which rebuilds the block
    and runs it once per ``(eta, p, relax)`` of ``runs`` (see
    :func:`.harness._run_block`).  A running instance's noise is capped at
    ``cfg.noise_level`` under its own isometry constant, the regime the
    bounds assume.  Every ``draw`` comes before the first kernel call, and
    no batch or block is held while the next is built.  Returns
    ``[(record, out), ...]``, one pair per instance in instance order:
    ``out`` is None for an instance that did not run, else one ``(errors,
    max_gamma, diverged_step)`` per run, with ``diverged_step`` None when
    the run did not diverge.
    """
    size = harness._block_size(cfg, steps=cfg.n_samples * max(p for _, p, _ in runs))
    keys = harness._stream_keys(cfg, range(cfg.trials))
    # every instance's record, and (t, delta, lam) of each running one
    records, running = [], []
    for start in range(0, cfg.trials, size):
        batch, samples = harness._problems(cfg, keys[start : start + size])
        # estimate_beta's max over the samples, and the first sample's norm
        norms = row_norms(samples)
        betas, e0s = norms.max(axis=0).tolist(), norms[0].tolist()
        mu_dls = estimate_mu_dl(samples).tolist() if cfg.n_samples > 1 else [0.0] * len(batch)
        for j, (beta, mu_dl, e0) in enumerate(zip(betas, mu_dls, e0s)):
            delta = rip_exact(MeasurementMatrix(cfg.m, cfg.n, batch[j]), level).delta
            record, lam = draw(start + j, delta, beta, mu_dl, e0)
            records.append(record)
            if lam is not None:
                running.append((start + j, delta, lam))
        # a batch is not held while the next is built
        del batch, samples
    # each instance's runs, None for one that does not run
    outs = [None] * cfg.trials
    for start in range(0, len(running), size):
        rows, deltas, lams = zip(*running[start : start + size])
        lam = np.reshape(lams, (-1, 1, 1))
        results, _ = harness._block_runs(cfg, keys[list(rows)], deltas, "capped",
                                         [(lam, eta, p, relax, False) for eta, p, relax in runs])
        for j, t in enumerate(rows):
            outs[t] = [(errors[:, j, 0], int(gamma[j, 0]), None if step[j, 0] < 0 else int(step[j, 0]))
                       for errors, gamma, step in results]
    return list(zip(records, outs))


def run_theorem_suite(cfg: ExperimentConfig) -> TheoremSuiteResult:
    """Check bound dominance and the support cap on ``cfg.trials`` instances.

    Instances must be small enough for exact isometry constants at level
    s + 2q.  Noise is forced to the capped mode (the regime the guarantee
    assumes), with its energy bound taken from ``cfg.noise_level``.  The
    threshold is raised per instance to the smallest value satisfying the
    drift/noise margin with 5% headroom, so the preconditions are
    attainable; the empirical energy and jump bounds of the realized target
    parameterize the bound.  Every instance with delta < 1 runs, as one
    column of a kernel block under its own threshold, and records the step
    at which its trace diverged, if it did.
    """
    sigma = cfg.noise_level
    init_u = np.zeros(cfg.n)

    def draw(t, delta, beta_emp, mudl_emp, e0):
        c = abs(cfg.eta - 1.0) + delta * cfg.eta
        lam = cfg.lam
        if c < 1.0:
            lam_floor = 1.05 * cfg.eta * ((1.0 + delta) * beta_emp + sigma) / (
                (1.0 - c) * math.sqrt(cfg.q)
            )
            lam = max(lam, lam_floor)
        report = check_ista_preconditions(delta, cfg.q, beta_emp, sigma, lam, cfg.eta, init_u)
        record = (t, delta, mudl_emp, lam, report)
        return record, (lam if delta < 1.0 else None)

    instances = []
    runs = [(cfg.eta, cfg.P, 1.0)]
    level = _suite_level(cfg, "check-theorems", "min(s + 2q, n)", min(cfg.s + 2 * cfg.q, cfg.n))
    for record, out in _run_suite(cfg, level, draw, runs):
        t, delta, mudl_emp, lam, report = record
        max_violation = float("nan")
        support_ok = None
        max_gamma = -1
        diverged = None
        if out is not None:
            [(errors, max_gamma, diverged)] = out
            if report.passed:
                params = IstaBoundParams(
                    eta=cfg.eta, delta=delta, sigma=sigma, lam=lam, q=cfg.q,
                    mu=mudl_emp / cfg.dl, dl=cfg.dl, P=cfg.P, e1=float(errors[0]),
                )
                bounds = ista_error_bound(np.arange(errors.size), params)
                max_violation = float(np.max(errors - bounds))
                support_ok = max_gamma <= cfg.q
        instances.append(TheoremInstance(
            t, delta, lam, sigma, report, max_violation, support_ok,
            max_gamma, diverged,
        ))
    return TheoremSuiteResult(tuple(instances))


@dataclass(frozen=True)
class LcaInstance:
    """One continuous-bound check via Euler traces at two step sizes."""

    index: int
    delta: float
    lam: float
    sigma: float
    report: PreconditionReport
    max_violation: float  # coarse step, slack included; nan when skipped
    fine_max_violation: float  # refined step, same slack; nan when skipped
    resolved: bool | None  # no violation, or the refined run shrank it 5x
    diverged_step: int | None = None  # first diverged coarse step, if any
    fine_diverged_step: int | None = None  # first diverged refined step, if any


@dataclass(frozen=True)
class LcaSuiteResult(_SuiteResult):
    slack_factor: float
    substeps: int

    @property
    def all_resolved(self) -> bool:
        """True when no passing instance kept a violation past the refined run."""
        return all(
            inst.resolved for inst in self.instances if inst.report.passed
        )


def run_lca_suite(
    cfg: ExperimentConfig, slack_factor: float = 5.0, substeps: int = 10,
) -> LcaSuiteResult:
    """Check the continuous tracking bound against Euler traces.

    The unit-step trace is only a surrogate for the continuous trajectory,
    so each bound gets a discretization allowance of
    ``slack_factor * delta * mu * tau``.  Every running instance also runs
    with the step cut by ``substeps`` (its block runs once per step size),
    and ``fine_max_violation`` records its padded violation there.  An
    instance that violates the padded bound at the unit step is
    ``resolved`` when that violation shrank by at least 5x at the refined
    step, as a genuine discretization artifact must.  Isometry constants
    are exact at level s + q, and the threshold is raised per instance (5%
    headroom) to the smallest value satisfying the decay margin, which is
    solvable only below delta = 1/2.

    Raises ConfigError, before any instance is drawn, unless ``substeps``
    is an integer of at least 1 and ``slack_factor`` is finite and
    nonnegative.
    """
    if not (isinstance(substeps, (int, np.integer)) and substeps >= 1):
        raise ConfigError(f"substeps must be an integer of at least 1, got {substeps!r}")
    if not (math.isfinite(slack_factor) and slack_factor >= 0.0):
        raise ConfigError(f"slack_factor must be finite and nonnegative, got {slack_factor!r}")
    sigma = cfg.noise_level
    hold = cfg.P * cfg.tau  # time units each measurement is held
    init_u = np.zeros(cfg.n)

    def draw(t, delta, beta_emp, mudl_emp, e0):
        mu_rate = mudl_emp / hold
        lam = cfg.lam
        if delta < 0.5:
            # smallest lam with delta*max{e0, D} + beta + sigma <= lam*sqrt(q),
            # using e0 = beta (zero start); the D branch needs delta < 1/2
            e0_branch = delta * beta_emp + beta_emp + sigma
            d_branch = (
                delta * (cfg.tau * mu_rate + sigma) + (1.0 - delta) * (beta_emp + sigma)
            ) / (1.0 - 2.0 * delta)
            lam = max(lam, 1.05 * max(e0_branch, d_branch) / math.sqrt(cfg.q))
        params = None
        if delta < 1.0:
            params = LcaBoundParams(
                delta=delta, tau=cfg.tau, sigma=sigma, lam=lam, q=cfg.q,
                mu=mu_rate, e0=e0,
            )
        D = math.inf if params is None else params.D
        report = check_lca_preconditions(delta, cfg.q, beta_emp, sigma, lam, e0, D, init_u)
        record = (t, delta, lam, report, params, mu_rate)
        # a passing report has delta < 1, so its params are set
        return record, (lam if report.passed else None)

    instances = []
    level = min(cfg.s + cfg.q, cfg.n)
    level = _suite_level(cfg, "the continuous-bound suite", "min(s + q, n)", level)
    # the unit step, then the refined step
    refinements = (1, substeps)
    runs = [(1.0, cfg.P * steps, 1.0 / steps) for steps in refinements]
    for record, out in _run_suite(cfg, level, draw, runs):
        t, delta, lam, report, params, mu_rate = record
        max_violation = fine_max = float("nan")
        resolved = diverged = fine_diverged = None
        if out is not None:
            slack = slack_factor * delta * mu_rate * cfg.tau
            viol = []
            for steps, (errors, _, _) in zip(refinements, out):
                times = (cfg.tau / steps) * np.arange(1, errors.size + 1)
                bounds = lca_error_bound(times, params)
                viol.append(float(np.max(errors - (bounds + slack))))
            max_violation, fine_max = viol
            resolved = max_violation <= BOUND_TOL or fine_max <= max_violation / 5.0
            (_, _, diverged), (_, _, fine_diverged) = out
        instances.append(LcaInstance(
            t, delta, lam, sigma, report, max_violation, fine_max, resolved,
            diverged, fine_diverged,
        ))
    return LcaSuiteResult(tuple(instances), slack_factor, substeps)


# ---------------------------------------------------------------------------
# lemma oracle suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaSuiteResult:
    rip_checks: int
    rip_violations: int
    rip_worst_slack: float
    cap_checks: int
    cap_premise_held: int
    cap_violations: int
    envelope_statuses: tuple

    @property
    def ok(self) -> bool:
        expected = ("holds", "holds", "not_applicable")
        return (
            self.rip_violations == 0
            and self.cap_violations == 0
            and self.envelope_statuses == expected
        )


def run_lemma_suite(seed: int) -> LemmaSuiteResult:
    """Randomized near-isometry checks, the support-cap grid, and envelopes.

    Each of ``_LEMMA_MATRICES`` Gaussian ``_LEMMA_M x _LEMMA_N`` matrices
    gets its exact isometry constant at level ``_LEMMA_Q + _LEMMA_S`` and
    ``_LEMMA_DRAWS`` draws from its own stream, ``_LEMMA_BLOCK`` at a time.
    A draw is two independent index sets, of sizes ``_LEMMA_Q`` and
    ``_LEMMA_S``, uniform without replacement and sorted; x, i.i.d.
    normal on their union and zero elsewhere; and y, i.i.d. normal.  A
    block takes them from three calls on the stream: one ``permuted`` of
    two rows of ``arange(_LEMMA_N)`` per draw, whose first entries are the
    sets, one normal call for x and one for y.  The isometry oracle checks
    each block in one call, and a violation beyond ``_LEMMA_TOL`` counts as
    a failure.  The support-cap grid runs one call per (threshold, budget)
    cell.
    """
    rip_checks = 0
    rip_violations = 0
    worst = math.inf
    for idx in range(_LEMMA_MATRICES):
        phi = gen_gaussian_matrix(_LEMMA_M, _LEMMA_N, derive_seed(seed, idx))
        delta = rip_exact(phi, _LEMMA_Q + _LEMMA_S).delta
        rng = make_rng(seed, idx, 1)
        for start in range(0, _LEMMA_DRAWS, _LEMMA_BLOCK):
            rows = min(_LEMMA_BLOCK, _LEMMA_DRAWS - start)
            order = rng.permuted(np.broadcast_to(np.arange(_LEMMA_N), (rows, 2, _LEMMA_N)), axis=-1)
            gamma1 = np.sort(order[:, 0, :_LEMMA_Q], axis=-1)
            gamma2 = np.sort(order[:, 1, :_LEMMA_S], axis=-1)
            union = np.zeros((rows, _LEMMA_N), dtype=bool)
            np.put_along_axis(union, gamma1, True, axis=-1)
            np.put_along_axis(union, gamma2, True, axis=-1)
            x = np.where(union, rng.standard_normal((rows, _LEMMA_N)), 0.0)
            y = rng.standard_normal((rows, _LEMMA_M))
            suite = rip_inequality_suite(phi, gamma1, gamma2, x, y, delta)
            slack = np.stack([check.slack for check in suite.checks])
            rip_checks += slack.size
            worst = min(worst, float(slack.min()))
            rip_violations += int(np.count_nonzero(slack < -_LEMMA_TOL))

    cap_checks = 0
    cap_premise = 0
    cap_violations = 0
    axis = np.linspace(-3.0, 3.0, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    for lam in (0.5, 1.0, 2.0):
        for q in (1, 2, 3):
            res = support_cap_check(grid, lam, q)
            cap_checks += res.premise_holds.size
            cap_premise += int(np.count_nonzero(res.premise_holds))
            cap_violations += int(np.count_nonzero(res.premise_holds & ~res.conclusion_holds))

    statuses = []
    steps = 2000
    dt = 1.0 / 1000.0  # tau / 1000 with tau = 1
    tgrid = dt * np.arange(steps)
    # constant trajectory sitting exactly on the envelope's fixed point
    const = np.ones((steps, 4)) * (1.0 / 2.0)  # norm = tau*mu with mu = 1
    statuses.append(target_energy_envelope_check(const, 1.0, 1.0, dt).status)
    # decaying trajectory with rate bound met strictly
    x0 = np.array([3.0, 0.0, 0.0, 0.0])
    decay = np.exp(-tgrid)[:, None] * x0[None, :]
    statuses.append(target_energy_envelope_check(decay, 1.0, 2.0 * 3.0, dt).status)
    # growing trajectory whose rate exceeds the premise: vacuous, not violated
    grow = (1.0 + 10.0 * tgrid)[:, None] * x0[None, :]
    statuses.append(target_energy_envelope_check(grow, 1.0, 1.0, dt).status)

    return LemmaSuiteResult(
        rip_checks, rip_violations, worst, cap_checks, cap_premise, cap_violations, tuple(statuses)
    )
