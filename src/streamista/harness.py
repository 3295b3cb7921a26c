"""Experiment harness: seeded trials, sweeps, steady-state fits, CSV output.

A trial draws a fresh measurement matrix, synthetic target, and noise stream
from seeds derived off the master seed and trial index, runs the streaming
solver from a zero initial state, and keeps the pre-measurement error
sequence.  The Philox keys of every stream of a group of trials are derived
once, ``_KEY_ROWS`` rows per hash call (:func:`_stream_keys`).  Each kernel
block's matrices, targets and noisy measurement rows are then built from
its trials' keys straight into the block (:func:`_put_problems`), with the
bits of ``gen_gaussian_matrix``, ``assemble_target`` and one ``measure``
and ``gen_noise`` call per sample.  Curves average the error sequence over
trials.  Sweeps share per-trial inputs across axis values, so
comparisons are paired: cells that agree on every field the inputs depend
on build each trial's matrix, target and noise once, and the cells of such
a group that differ only in the threshold run as the columns of one kernel
call.

Trials run in blocks through the kernel (:mod:`.kernels`): consecutive
trials, each with its own matrix, stacked until what a kernel call holds
for them fills ``_BLOCK_BYTES`` (:func:`_block_size`): their inputs, and
per column of the widest call the iterate buffers and the step records of
the longest call.  One driver, :func:`_run_suite`, draws the instances of
the theorem and continuous-bound suites, hands each suite's rule the
plain numbers of each instance (its isometry constant and its target's
statistics, reduced once per block), and stacks the running ones the same
way, one threshold per instance, running each block once per step size
the suite asks for; each suite keeps only its threshold rule and its
verdict.  One function, :func:`_run_block`, runs every block from
zero and reads the kernel's records: the errors, the largest active set,
and the first step at which a run diverged (an error non-finite or above
``_DIVERGENCE_FACTOR`` times its target's largest sample norm plus its
noise scale).  A run or sweep with a diverged trial raises
:class:`DivergenceError`; the suites record the step as data.

Every check made before the first trial raises :class:`ConfigError`: the
fields of :class:`ExperimentConfig` (``GenConfig``'s and ``SolverConfig``'s
checks included, so ``replace`` raises it too), the sweep and grid values,
the ratio level and each suite's support budget.

The tail mean of a curve estimates its steady state; ``fit_steady_state``
fits the predicted steady-state law

    steady(P) = c**P / (1 - c**P) * mu * dl + V

by grid search on c with the offset V solved in closed form per candidate.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
import math
import os
from typing import NamedTuple

import numpy as np

from .measurement import (
    DEFAULT_SUPPORT_BUDGET,
    NOISE_MODES,
    MeasurementMatrix,
    gaussian_matrices,
    gen_gaussian_matrix,
    noise_rows,
    rip_exact,
    row_norms,
)
from .kernels import Block
from .rng import derive_seed, derive_seeds, make_rng, philox_keys
from .signals import (
    GenConfig,
    assemble_target,
    assemble_targets,
    estimate_beta,
    estimate_mu_dl,
    target_keys,
)
from .solver import SolverConfig
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

THREADS_ENV = "STREAM_ISTA_THREADS"

SWEEP_AXES = ("none", "P", "mu", "lambda_S")

# fewest curve points a steady-state estimate accepts
MIN_STEADY_POINTS = 4

# candidate contraction factors c the steady-state fit searches, evenly
# spaced over [1e-4, 0.9999]
_FIT_GRID_SIZE = 10000

# every field a trial's matrix, target or noise stream depends on, plus the
# trial count; sweep cells that agree on these share each trial's inputs
_INPUT_FIELDS = (
    "m", "n", "s", "n_pairs", "n_samples", "beta", "mu",
    "noise_mode", "noise_level", "noise_delta", "seed", "trials",
)

# seed substream tags for per-trial derivations
_MATRIX_STREAM = 0
_TARGET_STREAM = 1
_NOISE_STREAM = 2

# noise keys derived per hash call, which bounds the hash's uint32
# temporaries: for a 400-trial desk group, 1024 rows peaked at 0.49 MB
# (tracemalloc) in 24 ms, and one call for all 16,000 rows at 3.5 MB in 8 ms
_KEY_ROWS = 1024

# bytes one kernel block may hold while its kernel call runs, counted per
# trial by _block_size; larger trials run in smaller blocks.  1 MiB holds 5
# desk trials: at 2, a 64x128 step spent about half its time dispatching
# numpy calls.  In paired benchmark runs 1.25 MiB, which keeps 3 trials in
# a block of the 16-column lambda-s grid, was no faster on the sweeps and
# raised their peak memory by 0.4 MB
_BLOCK_BYTES = 1024 * 1024

# a run diverged at the first step whose error is non-finite or above this
# multiple of its largest target sample norm plus its noise scale
_DIVERGENCE_FACTOR = 100.0

# draws per call of the near-isometry oracle, which bounds the block's memory
_LEMMA_BLOCK = 256

# the lemma suite's matrices (m x n), its two index sets (sizes q and s,
# exact isometry constant at level q + s) and its violation tolerance
_LEMMA_M = 8
_LEMMA_N = 16
_LEMMA_Q = 2
_LEMMA_S = 2
_LEMMA_TOL = 1e-10

# Generator.choice(n, k, replace=False) runs Floyd's algorithm up to this
# population and shuffles a tail above it
_FLOYD_MAX = 10_000
_MASK32 = 0xFFFFFFFF


class ConfigError(ValueError):
    """A configuration the harness rejects before its first trial."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults; every field maps to one config-file key.

    The default step size keeps the gradient map nonexpansive for 64x128
    unit-column Gaussian matrices (spectral bound near (1 + sqrt(2))^2, so
    any step below ~0.34 is safe for every draw), which makes desk runs
    stable at every sweep point instead of only inside the small-support
    regime.
    """

    m: int = 64
    n: int = 128
    s: int = 8
    n_pairs: int = 2
    n_samples: int = 40
    beta: float = 2.0
    mu: float = 0.8
    lam: float = 0.06
    eta: float = 0.3
    P: int = 1
    dl: float = 1.0
    tau: float = 1.0
    noise_mode: str = "gaussian_scaled"
    noise_level: float = 0.3
    noise_delta: float = 0.0
    trials: int = 50
    q: int = 32
    seed: int = 0
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    sweep_lambda_values: tuple[float, ...] = ()
    sweep_s_values: tuple[int, ...] = ()
    tail_fraction: float = 0.25

    def __post_init__(self):
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(
                f"unknown noise mode {self.noise_mode!r}; expected one of {NOISE_MODES}"
            )
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {self.sweep_axis!r}; expected one of {SWEEP_AXES}"
            )
        if self.m < 1:
            raise ConfigError(f"m must be positive, got {self.m}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.q < 1:
            raise ConfigError(f"q must be positive, got {self.q}")
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):
            raise ConfigError(
                f"noise_level must be nonnegative and finite, got {self.noise_level}"
            )
        if not 0.0 <= self.noise_delta < 1.0:
            raise ConfigError(f"noise_delta must lie in [0, 1), got {self.noise_delta}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ConfigError(f"tail_fraction must lie in (0, 1], got {self.tail_fraction}")
        if not all(math.isfinite(v) for v in (*self.sweep_values, *self.sweep_lambda_values)):
            raise ConfigError("sweep values must be finite")
        # validate signal and solver parameters eagerly so config errors
        # surface before any trial runs
        try:
            self.gen_config(0)
            SolverConfig(lam=self.lam, eta=self.eta, P=self.P, dl=self.dl, tau=self.tau)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def gen_config(self, seed: int) -> GenConfig:
        return GenConfig(
            n=self.n, s=self.s, n_pairs=self.n_pairs, n_samples=self.n_samples,
            beta=self.beta, mu=self.mu, seed=seed,
        )


class DivergenceError(RuntimeError):
    """Trials of a run or sweep cell diverged numerically."""


@dataclass(frozen=True)
class RunResult:
    """Averaged curve over trials plus the per-trial records, row t for trial t.

    ``errors`` is C-ordered, so the mean and std over trials add the rows
    one after another, the same sums at any block partition.
    """

    mean_curve: np.ndarray
    std_curve: np.ndarray
    errors: np.ndarray  # (trials, n_samples): pre-measurement errors
    max_gamma_size: np.ndarray  # (trials,): largest active set, unsigned
    sigma: np.ndarray  # (trials,): realized noise scale


@dataclass(frozen=True)
class SteadyStateFit:
    """Grid-fit of the steady-state law."""

    c_hat: float
    V_hat: float
    sse: float
    r2: float


def worker_count() -> int:
    """Worker cap from the environment; defaults to serial execution.

    A value that is not an integer is a :class:`ConfigError`, raised
    before any trial runs.
    """
    env = os.environ.get(THREADS_ENV, "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc


def _trial_problem(cfg: ExperimentConfig, trial: int):
    """Matrix and target of one trial, each drawn from its own seed stream.

    This is the one-trial build through ``gen_gaussian_matrix`` and
    ``assemble_target``; blocks of trials get its bits from
    :func:`_put_problems`.
    """
    phi = gen_gaussian_matrix(cfg.m, cfg.n, derive_seed(cfg.seed, trial, _MATRIX_STREAM))
    target = assemble_target(cfg.gen_config(derive_seed(cfg.seed, trial, _TARGET_STREAM)))
    return phi, target


class _StreamKeys(NamedTuple):
    """Philox keys of every input stream of a run of trials, row i for its trial i."""

    matrix: np.ndarray  # (T, 2)
    target: np.ndarray  # (T, 2, 2): see signals.target_keys
    noise: np.ndarray  # (T, n_samples, 2): one per measurement

    def rows(self, start: int, stop: int) -> "_StreamKeys":
        return _StreamKeys(*(keys[start:stop] for keys in self))


def _stream_keys(cfg: ExperimentConfig, trials) -> _StreamKeys:
    """The keys every trial of ``trials`` draws its matrix, target and noise from.

    A trial's key is the one its scalar path starts from:
    ``make_rng(derive_seed(cfg.seed, trial, _MATRIX_STREAM))`` for the
    matrix, ``signals.target_keys`` of ``derive_seed(cfg.seed, trial,
    _TARGET_STREAM)`` for the target, and
    ``make_rng(derive_seed(cfg.seed, trial, _NOISE_STREAM, k))`` for the
    noise of sample k.  The hash runs on at most ``_KEY_ROWS`` noise rows
    per call.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    count, n_meas = len(trials), cfg.n_samples
    keys = _StreamKeys(
        np.empty((count, 2), dtype=np.uint64),
        np.empty((count, 2, 2), dtype=np.uint64),
        np.empty((count, n_meas, 2), dtype=np.uint64),
    )
    per_call = max(1, _KEY_ROWS // n_meas)
    for start in range(0, count, per_call):
        chunk = trials[start : start + per_call]
        rows = slice(start, start + len(chunk))
        streams = np.empty((len(chunk), 2, 2), dtype=np.uint64)
        streams[..., 0] = chunk[:, None]
        streams[..., 1] = (_MATRIX_STREAM, _TARGET_STREAM)
        seeds = derive_seeds(cfg.seed, streams.reshape(-1, 2)).reshape(-1, 2)
        keys.matrix[rows] = philox_keys(seeds[:, 0])
        keys.target[rows] = target_keys(seeds[:, 1])
        streams = np.empty((len(chunk), n_meas, 3), dtype=np.uint64)
        streams[..., 0] = chunk[:, None]
        streams[..., 1] = _NOISE_STREAM
        streams[..., 2] = np.arange(n_meas)
        seeds = derive_seeds(cfg.seed, streams.reshape(-1, 3))
        keys.noise[rows] = philox_keys(seeds).reshape(len(chunk), n_meas, 2)
    return keys


def _put_measurements(
    cfg: ExperimentConfig, block: Block, noise_keys, delta, noise_mode: str
) -> np.ndarray:
    """Write the noisy measurement rows of the block's first ``len(noise_keys)`` streams.

    Stream j's matrix and target are already in the block; its sample k
    takes its noise from Philox key ``noise_keys[j, k]`` (see
    :func:`_stream_keys`).  Returns each stream's noise scale as an array:
    under ``gaussian_scaled``, ``cfg.noise_level`` times the norm of its
    first clean row over sqrt(m), the per-entry std relative to that
    measurement's energy; under the other modes, ``cfg.noise_level``.  A
    stream whose noise overflows, in its scale or in an entry (scale times
    draw), gets scale inf and inf measurements, so its run diverges at its
    first step and :func:`_check_divergence` names ``noise_level``.
    Numpy's overflow warnings are silenced for this :func:`noise_rows` call
    only; direct callers keep them.  ``delta`` is a scalar or one value per
    stream, since it may depend on the drawn matrix.  The clean rows are
    one stacked ``(m x n)(n x 1)`` product, the gemv of ``measure``; the
    first rows' norms are ``row_norms``; and the noise of the whole block
    is one :func:`noise_rows` call, so each row has the bits of
    ``measure(phi, sample, gen_noise(...))``.
    """
    count, n_meas, level = len(noise_keys), cfg.n_samples, cfg.noise_level
    ys = block.ys[:, :count]
    np.matmul(block.phi[:count], block.targets[:, :count, :, None], out=ys[..., None])
    if noise_mode == "gaussian_scaled":
        norms = row_norms(ys[0])
        with np.errstate(over="ignore"):
            sigma = level * norms / math.sqrt(cfg.m)
    else:
        sigma = np.full(count, level)
    # an overflowed scale's noise draw is not used
    finite = np.isfinite(sigma)
    # rows step-major, (sample k, stream j), as block.ys lays them out
    with np.errstate(over="ignore"):
        noise = noise_rows(
            cfg.m, np.tile(np.where(finite, sigma, 0.0), n_meas),
            np.tile(np.broadcast_to(delta, count), n_meas),
            noise_mode, np.swapaxes(noise_keys, 0, 1).reshape(-1, 2),
        ).reshape(n_meas, count, cfg.m)
    finite &= np.isfinite(noise).all(axis=(0, 2))
    ys += noise
    ys[:, ~finite] = np.inf
    sigma[~finite] = np.inf
    return sigma


def _put_problems(cfg: ExperimentConfig, block: Block, keys, start: int = 0) -> None:
    """Write the matrices and targets of trials from their stream keys into a block.

    ``keys`` is :func:`_stream_keys` of the trials, which go to the block's
    streams ``start``, ``start + 1``, ...  The matrices and the target
    samples go straight into the block, each trial with the bits of
    :func:`_trial_problem`.
    """
    streams = slice(start, start + len(keys.matrix))
    gaussian_matrices(cfg.m, cfg.n, keys.matrix, out=block.phi[streams])
    # the keys stand in for the target seed, which gen_config's seed would be
    assemble_targets(cfg.gen_config(0), keys.target, out=block.targets[:, streams])


def _block_size(cfg: ExperimentConfig, width: int = 1, steps: int | None = None) -> int:
    """Trials per kernel block: as many as fit in ``_BLOCK_BYTES``, at least one.

    A trial counts what its block holds for it during a kernel call of
    ``steps`` steps (by default ``n_samples * P``) with ``width`` columns:
    its inputs (matrix, transpose, measurements and target samples), and
    per column the iterate buffers (the zero start, ``u``, ``a``, ``mag``,
    ``g``, both threshold arrays and ``diff``: eight of length n, plus the
    residual of length m), the active record, a byte per entry and step,
    and the error and active-set-size records.
    """
    if steps is None:
        steps = cfg.n_samples * cfg.P
    inputs = 8 * (2 * cfg.m * cfg.n + cfg.n_samples * (cfg.m + cfg.n))
    column = 8 * (8 * cfg.n + cfg.m) + (steps + 1) * cfg.n + 16 * steps
    return max(1, _BLOCK_BYTES // (inputs + width * column))


def _run_block(
    block: Block, lam: np.ndarray, eta: float, p: int, sigma, peaks, relax: float = 1.0,
):
    """Run the first T streams of a block from zero under thresholds ``lam`` ``(T, 1, L)``.

    T is at least one: a suite block with no running instance makes no
    call (:func:`_run_suite`).  Returns the error record ``(steps, T, L)``,
    the largest active set per (trial, column), reduced from the kernel's
    active masks, and the first diverged step per (trial, column), or -1.
    A step diverged when its error is non-finite or above
    ``_DIVERGENCE_FACTOR`` times its trial's largest target sample norm
    plus ``sigma``, one noise scale per trial or one for all; the caller
    passes those norms as ``peaks`` (``estimate_beta`` of the trials'
    targets), computed once for every run of the block.  That limit is
    clipped to the largest float, so an error that overflows diverges at
    every scale.  Numpy's overflow warnings are silenced, because the step
    names the divergence.
    """
    count, _, width = lam.shape
    u0 = np.zeros((count, block.phi.shape[2], width))
    with np.errstate(over="ignore", invalid="ignore"):
        errors, active = block.stream(lam, eta, p, u0, relax)[:2]
        limit = np.minimum(_DIVERGENCE_FACTOR * (peaks + sigma), np.finfo(float).max)
        bad = ~(errors <= limit[:, None])
    # a count never exceeds n, so the narrowest type holding n sums exactly
    max_gamma = np.add.reduce(
        active.view(np.uint8), axis=2, dtype=np.min_scalar_type(block.phi.shape[2])
    ).max(axis=0)
    return errors, max_gamma, np.where(bad.any(axis=0), bad.argmax(axis=0), -1)


def _step_or_none(step) -> int | None:
    return None if step < 0 else int(step)


def _batches(cells) -> dict:
    """``{(eta, P): [cell index, ...]}``: the cells that run as the columns of one kernel call."""
    batches = {}
    for idx, cell in enumerate(cells):
        batches.setdefault((cell.eta, cell.P), []).append(idx)
    return batches


def _trial_results(cells, keys) -> list:
    """Per cell, ``(errors, max_gamma_size, diverged_step, sigma)`` of a block of trials.

    ``keys`` is :func:`_stream_keys` of the trials, one row each.  The
    errors are ``(T, n_samples)`` and C-ordered, a copy that pins none of
    the kernel's records; the largest active set, the first diverged step
    (-1 for none) and the realized noise scale are ``(T,)``.  The cells
    share the trials' inputs: each trial's matrix, target and noise stream
    are built once, into one kernel block.  Cells that differ only in
    ``lam`` run as the columns of one kernel call; cells with another step
    or hold length run the block in a call of their own.
    """
    cfg = cells[0]
    count = len(keys.matrix)
    block = Block(count, cfg.m, cfg.n, cfg.n_samples)
    _put_problems(cfg, block, keys)
    sigma = _put_measurements(cfg, block, keys.noise, cfg.noise_delta, cfg.noise_mode)
    with np.errstate(over="ignore", invalid="ignore"):
        peaks = estimate_beta(block.targets)
    out = [None] * len(cells)
    for (eta, P), idxs in _batches(cells).items():
        lam = np.broadcast_to([cells[i].lam for i in idxs], (count, 1, len(idxs)))
        errors, max_gamma, diverged = _run_block(block, lam, eta, P, sigma, peaks)
        # (columns, T, n_samples), so each cell's errors are contiguous rows
        premeasurement = np.ascontiguousarray(errors[P - 1 :: P].transpose(2, 1, 0))
        for c, i in enumerate(idxs):
            out[i] = (premeasurement[c], max_gamma[:, c], diverged[:, c], sigma)
    return out


def _check_divergence(cfg: ExperimentConfig, diverged: np.ndarray, sigma: np.ndarray) -> None:
    """Raise :class:`DivergenceError` when a trial of the cell diverged (``diverged`` >= 0)."""
    steps = diverged[diverged >= 0]
    if steps.size:
        overflowed = np.count_nonzero(~np.isfinite(sigma))
        raise DivergenceError(
            f"numerical divergence in cell lambda={cfg.lam!r} s={cfg.s} P={cfg.P} "
            f"mu={cfg.mu!r} eta={cfg.eta!r}: {steps.size} of {diverged.size} trials "
            f"diverged, the first at solver step {int(steps.min())}"
            + (f"; noise_level={cfg.noise_level!r} overflows the noise scale of "
               f"{overflowed} of them" if overflowed else "")
        )


def _run_cells(cells) -> list:
    """RunResult of every cell config, in order, a block of trials at a time.

    Cells that agree on every field a trial's inputs depend on form a group
    whose trials each build their inputs once (see :func:`_trial_results`),
    from stream keys derived once for the whole group.  A group's trials
    run in blocks of consecutive trials, ``_block_size`` per block for the
    group's widest kernel call (its largest ``(eta, P)`` batch of cells)
    and its longest (its largest P); the blocks map over the
    ``STREAM_ISTA_THREADS`` pool and each cell's records are joined in
    trial order, so the outcome is identical at any worker count.  The
    keys are local to the group and only read by the blocks.  Extra
    workers buy no speed (see README "Threading").

    Raises :class:`DivergenceError` for the first cell with a diverged trial.
    """
    groups = {}
    for idx, cell in enumerate(cells):
        groups.setdefault(tuple(getattr(cell, f) for f in _INPUT_FIELDS), []).append(idx)
    workers = worker_count()
    out = [None] * len(cells)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        mapper = pool.map if workers > 1 else map
        for idxs in groups.values():
            group = [cells[i] for i in idxs]
            width = max(len(batch) for batch in _batches(group).values())
            steps = group[0].n_samples * max(cell.P for cell in group)
            trials, size = group[0].trials, _block_size(group[0], width, steps)
            keys = _stream_keys(group[0], range(trials))
            parts = list(mapper(
                lambda t: _trial_results(group, keys.rows(t, t + size)), range(0, trials, size)
            ))
            for j, i in enumerate(idxs):
                errors, max_gamma, diverged, sigma = (
                    np.concatenate(records) for records in zip(*(part[j] for part in parts))
                )
                _check_divergence(cells[i], diverged, sigma)
                mean = errors.mean(axis=0)
                std = errors.std(axis=0, ddof=1) if trials > 1 else np.zeros_like(mean)
                out[i] = RunResult(mean, std, errors, max_gamma, sigma)
    return out


def run_trials(cfg: ExperimentConfig) -> RunResult:
    """All trials of one configuration, optionally on a thread pool."""
    return _run_cells([cfg])[0]


def _check_distinct(name: str, values) -> None:
    """Raise ConfigError naming the first value of ``values`` that repeats."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{name} values must be distinct, but {value!r} repeats")
        seen.add(value)


def _integers(name: str, values) -> list:
    """``values`` as ints; a value that is not a whole number raises ConfigError."""
    for value in values:
        if not float(value).is_integer():
            raise ConfigError(f"{name} values must be whole numbers, got {value!r}")
    return [int(v) for v in values]


def sweep_cells(cfg: ExperimentConfig, axis: str, values) -> list:
    """``[(value, ExperimentConfig), ...]``; an invalid point raises ConfigError.

    A repeated axis value is invalid: its cells would run as two columns of
    one kernel call, not as the one-vector run of a lone cell.  So is a P
    that is not a whole number, which would run at another P than it names.
    """
    if axis == "P":
        cells = [(v, replace(cfg, P=P, sweep_axis="none"))
                 for v, P in zip(values, _integers("sweep P", values))]
    elif axis == "mu":
        cells = [(v, replace(cfg, mu=float(v), sweep_axis="none")) for v in values]
    else:
        raise ConfigError(f"sweep axis must be 'P' or 'mu', got {axis!r}")
    if not cells:
        raise ConfigError("sweep requires at least one axis value")
    _check_distinct(f"sweep {axis}", [getattr(c, axis) for _, c in cells])
    return cells


def sweep(cfg: ExperimentConfig, axis: str, values) -> list:
    """``[(value, RunResult), ...]`` in order, every point run on shared per-trial inputs."""
    values, configs = zip(*sweep_cells(cfg, axis, values))
    return list(zip(values, _run_cells(configs)))


def estimate_steady_state(curve: np.ndarray, tail_fraction: float = 0.25) -> float:
    """Mean of the trailing fraction of a curve."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.ndim != 1 or curve.size < MIN_STEADY_POINTS:
        raise ValueError(
            f"curve must be 1-d with at least {MIN_STEADY_POINTS} points, got shape {curve.shape}"
        )
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    count = max(1, int(round(curve.size * tail_fraction)))
    return float(curve[-count:].mean())


def fit_steady_state(p_values, steady_values, mu: float, dl: float) -> SteadyStateFit:
    """Fit steady(P) = c**P/(1 - c**P) * mu * dl + V over a grid of c.

    V is solved in closed form for each candidate c (clipped at zero); the
    reported r2 is 1 - sse/sst, defined as 0 when the inputs are constant.
    """
    p = np.asarray(p_values, dtype=np.float64)
    y = np.asarray(steady_values, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("p_values and steady_values must be 1-d and equally long")
    if np.unique(p).size < 3:
        raise ValueError("need at least 3 distinct P values to fit the steady-state law")
    if np.any(y <= 0):
        raise ValueError("steady values must be positive")
    if not (mu >= 0 and dl > 0 and math.isfinite(mu) and math.isfinite(dl)):
        raise ValueError(f"need finite mu >= 0 and dl > 0, got mu={mu}, dl={dl}")
    c_grid = np.linspace(1e-4, 0.9999, _FIT_GRID_SIZE)
    powers = c_grid[:, None] ** p[None, :]
    g = powers / (1.0 - powers) * (mu * dl)
    v = np.clip((y[None, :] - g).mean(axis=1), 0.0, None)
    resid = y[None, :] - g - v[:, None]
    sse = np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(sse))
    sst = float(np.sum((y - y.mean()) ** 2))
    best_sse = float(sse[best])
    r2 = 0.0 if sst == 0.0 else 1.0 - best_sse / sst
    return SteadyStateFit(float(c_grid[best]), float(v[best]), best_sse, r2)


@dataclass(frozen=True)
class QRatioGrid:
    """Mean max-active-set to sparsity ratios over a (lambda, s) grid."""

    lambda_values: tuple
    s_values: tuple
    ratios: np.ndarray  # (len(lambda_values), len(s_values))


@dataclass(frozen=True)
class LambdaLevelFit:
    """Least-squares constant for lam = C / sqrt(s) along a ratio level set."""

    C: float
    level: float
    level_points: tuple  # ((s, lambda) ...) grid points nearest the level


def lambda_s_cells(cfg: ExperimentConfig, lambda_values, s_values):
    """``(lambda_values, s_values, cells)`` with one config per cell, row-major.

    The pair count scales with s to keep the moving fraction of the support
    fixed.  An invalid cell raises ConfigError, and so does an empty list, a
    repeated lambda or s value, which would repeat rows of the grid, or an s
    that is not a whole number.
    """
    lams = tuple(lambda_values)
    svals = tuple(_integers("s", s_values))
    if not lams or not svals:
        raise ConfigError("sweep_lambda_s needs nonempty lambda and s value lists")
    _check_distinct("lambda", [float(v) for v in lams])
    _check_distinct("s", svals)
    cells = [
        replace(cfg, lam=float(lam), s=s, n_pairs=min(s, max(0, round(s * cfg.n_pairs / cfg.s))),
                sweep_axis="none")
        for lam, s in product(lams, svals)
    ]
    return lams, svals, cells


def sweep_lambda_s(cfg: ExperimentConfig, lambda_values, s_values, ratio_level: float = 4.0):
    """Grid of active-set ratios over (lambda, s), plus the level-set fit.

    Every cell runs in one :func:`_run_cells` call, in which the
    thresholds of each s share its per-trial inputs and run as the columns
    of one kernel call.  A cell's ratio is the mean over its trials of the
    largest active set over s.  A ratio level that is not finite raises
    ConfigError before any trial: no grid point is nearest to it.
    """
    lams, svals, cells = lambda_s_cells(cfg, lambda_values, s_values)
    if not math.isfinite(ratio_level):
        raise ConfigError(f"ratio level must be finite, got {ratio_level}")
    ratios = [np.mean(r.max_gamma_size / cell.s) for cell, r in zip(cells, _run_cells(cells))]
    grid = QRatioGrid(lams, svals, np.reshape(ratios, (len(lams), len(svals))))
    return grid, fit_lambda_level(grid, ratio_level)


def fit_lambda_level(grid: QRatioGrid, level: float = 4.0) -> LambdaLevelFit:
    """Fit lam = C / sqrt(s) through the grid points nearest a ratio level."""
    points = []
    for j, s in enumerate(grid.s_values):
        i = int(np.argmin(np.abs(grid.ratios[:, j] - level)))
        points.append((s, float(grid.lambda_values[i])))
    num = sum(lam / math.sqrt(s) for s, lam in points)
    den = sum(1.0 / s for s, _ in points)
    return LambdaLevelFit(num / den, level, tuple(points))


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
class TheoremSuiteResult:
    instances: tuple

    @property
    def n_passing(self) -> int:
        return sum(1 for inst in self.instances if inst.report.passed)

    @property
    def pass_rate(self) -> float:
        return self.n_passing / len(self.instances)

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
    """Draw suite instances in order and run the ones that run in kernel blocks.

    Instance t's matrix and target have the bits of :func:`_trial_problem`;
    they are built from keys derived once for the suite
    (:func:`_put_problems`), straight into the free streams of the block
    being filled, and a running instance moves down to the first free
    stream, so one block holds every drawn and running instance.
    ``draw(t, delta, beta, mu_dl, e0)`` gets floats: the instance's exact
    isometry constant at ``level`` (``rip_exact``), its target's empirical
    energy and jump bounds (``estimate_beta``; ``estimate_mu_dl``, 0.0 at
    one sample) and its first sample's norm, the first error of a zero
    start.  The three target statistics are reduced once for every stream
    filled, each with the bits of its target's own call.  ``draw`` returns
    ``(record, lam)``, with ``lam`` the instance's threshold, or None when
    it does not run.  A running instance's noise is capped at
    ``cfg.noise_level`` under its own isometry constant, the regime the
    bounds assume, and its energy bound is the target peak
    :func:`_run_block` scales the divergence limit by.

    A full block, and the last one, runs once per ``(eta, p, relax)`` of
    ``runs`` (see :func:`_run_block`), sized by :func:`_block_size` for the
    longest run; a block with no running instance makes no kernel call.
    After each block, yields ``(record, out)`` for every instance drawn
    since the previous block, in order: ``out`` is None for an instance
    that did not run, else one ``(errors, max_gamma, diverged_step)`` per
    run, with ``diverged_step`` None when the run did not diverge.
    """
    size = _block_size(cfg, steps=cfg.n_samples * max(p for _, p, _ in runs))
    keys = _stream_keys(cfg, range(cfg.trials))
    drawn, lams, running, deltas, peaks = [], [], [], [], []
    block = Block(size, cfg.m, cfg.n, cfg.n_samples)
    t = 0
    while t < cfg.trials:
        # fill the free streams, then keep each running instance in the first one
        first = len(lams)
        count = min(size - first, cfg.trials - t)
        _put_problems(cfg, block, keys.rows(t, t + count), first)
        samples = block.targets[:, first : first + count]
        betas = estimate_beta(samples).tolist()
        mu_dls = estimate_mu_dl(samples).tolist() if cfg.n_samples > 1 else [0.0] * count
        e0s = row_norms(samples[0]).tolist()
        for j, beta, mu_dl, e0 in zip(range(first, first + count), betas, mu_dls, e0s):
            delta = rip_exact(MeasurementMatrix(cfg.m, cfg.n, block.phi[j]), level).delta
            record, lam = draw(t, delta, beta, mu_dl, e0)
            drawn.append((record, None if lam is None else len(lams)))
            if lam is not None:
                if len(lams) < j:
                    block.put(len(lams), block.phi[j], block.targets[:, j])
                lams.append(lam)
                running.append(t)
                deltas.append(delta)
                peaks.append(beta)
            t += 1
        if len(lams) == size or t == cfg.trials:
            results = []
            if lams:
                _put_measurements(cfg, block, keys.noise[running], deltas, "capped")
                thresholds = np.reshape(lams, (-1, 1, 1))
                results = [
                    _run_block(block, thresholds, eta, p, cfg.noise_level, np.array(peaks), relax)
                    for eta, p, relax in runs
                ]
            for record, j in drawn:
                yield record, None if j is None else [
                    (errors[:, j, 0], int(max_gamma[j, 0]), _step_or_none(diverged[j, 0]))
                    for errors, max_gamma, diverged in results
                ]
            drawn, lams, running, deltas, peaks = [], [], [], [], []
            block = Block(size, cfg.m, cfg.n, cfg.n_samples)


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
        report = check_ista_preconditions(delta, cfg.q, beta_emp, sigma, lam, cfg.eta, init_u, 0)
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
class LcaSuiteResult:
    instances: tuple
    slack_factor: float
    substeps: int

    @property
    def n_passing(self) -> int:
        return sum(1 for inst in self.instances if inst.report.passed)

    @property
    def pass_rate(self) -> float:
        return self.n_passing / len(self.instances)

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
    """
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
        report = check_lca_preconditions(delta, cfg.q, beta_emp, sigma, lam, e0, D, init_u, 0)
        record = (t, delta, lam, report, params, mu_rate)
        return record, (lam if report.passed and params is not None else None)

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


class _ChoiceReplay:
    """Sorted picks of ``rng.choice(n, k, replace=False)``, one per size, from Philox's words.

    Each call returns, for every k of ``sizes`` in order, the sorted list of
    the indices ``rng.choice(n, k, replace=False)`` would return, and leaves
    the stream where those calls would leave it.  It relies on numpy 2.4:

    * ``Generator.choice`` without ``p``, up to a population of
      ``_FLOYD_MAX``, runs Floyd's algorithm: for j from n - k to n - 1, one
      bounded draw in [0, j], taking j when the draw repeats a pick; a j of
      0 draws 0 and reads no word.  It then shuffles the k picks with one
      bounded draw in [0, i] for i from k - 1 down to 1; the picks are
      sorted here, so those draws are read and thrown away.
    * A bounded draw in [0, j] below 2**32 - 1 is Lemire's on 32-bit words:
      ``m = w * (j + 1)``, redrawn while ``m mod 2**32 < 2**32 mod (j + 1)``,
      and the result is ``m >> 32``.  ``Generator.integers(0, j + 1)`` makes
      the same draw.
    * Philox's 32-bit word is the low half of its next 64-bit output; the
      high half is held for the following 32-bit read.  The 64-bit reads of
      ``random_raw`` and ``standard_normal`` neither use nor drop a held
      half.

    So the replay holds the pending half itself, starting from the one the
    generator holds (``has_uint32`` and ``uinteger`` of Philox's ``state``),
    and every 32-bit read of the stream from then on must go through it.
    A call reads every word of the picks with one ``random_raw`` call when
    the word count is even, no half is pending and no word lands in
    Lemire's zone ``m mod 2**32 < j + 1``, where a redraw can happen;
    otherwise it draws word by word, exactly.
    """

    def __init__(self, rng: np.random.Generator, n: int, sizes):
        state = rng.bit_generator.state
        if state["bit_generator"] != "Philox":
            raise ValueError(f"replays a Philox stream, got {state['bit_generator']}")
        if not 0 < n <= _FLOYD_MAX or not all(0 < k <= n for k in sizes):
            raise ValueError(f"replays picks of 1 to n of n <= {_FLOYD_MAX}, got {n}, {sizes}")
        self._raw = rng.bit_generator.random_raw
        # the pending words, the next one last
        self._held = [state["uinteger"]] if state["has_uint32"] else []
        # per size: the picks it starts from ([0] when k = n, a draw that
        # reads no word), where its Floyd draws start among a call's draws,
        # and their j
        self._plan, self._excl = [], []
        for k in sizes:
            floyd = range(max(n - k, 1), n)
            self._plan.append(([0] if k == n else [], len(self._excl), floyd))
            # the draws' bounds plus one: Floyd's, then the shuffle's
            self._excl += (*(j + 1 for j in floyd), *range(k, 1, -1))
        self._outputs = None if len(self._excl) % 2 else len(self._excl) // 2

    def _word(self) -> int:
        if self._held:
            return self._held.pop()
        out = int(self._raw())
        self._held.append(out >> 32)
        return out & _MASK32

    def bounded(self, excl: int) -> int:
        """One bounded draw in [0, excl), as ``rng.integers(0, excl)`` makes it, for excl < 2**32."""
        m = self._word() * excl
        if m & _MASK32 < excl:
            threshold = (1 << 32) % excl
            while m & _MASK32 < threshold:
                m = self._word() * excl
        return m >> 32

    def __call__(self) -> list:
        if not self._held and self._outputs is not None:
            words = []
            for out in self._raw(self._outputs).tolist():
                words += (out & _MASK32, out >> 32)
            values = []
            for word, excl in zip(words, self._excl):
                m = word * excl
                if m & _MASK32 < excl:  # Lemire's zone: the word may be redrawn
                    break
                values.append(m >> 32)
            else:
                return self._picks(values)
            self._held = words[::-1]
        return self._picks([self.bounded(excl) for excl in self._excl])

    def _picks(self, values) -> list:
        picks = []
        for first, at, floyd in self._plan:
            chosen = first.copy()
            for j, value in zip(floyd, values[at:]):
                chosen.append(j if value in chosen else value)
            chosen.sort()
            picks.append(chosen)
        return picks


def run_lemma_suite(seed: int, n_matrices: int = 10, draws: int = 1000) -> LemmaSuiteResult:
    """Randomized near-isometry checks, the support-cap grid, and envelopes.

    Each of ``n_matrices`` Gaussian ``_LEMMA_M x _LEMMA_N`` matrices gets
    its exact isometry constant at level ``_LEMMA_Q + _LEMMA_S`` and
    ``draws`` draws from its own stream: two index sets, of sizes
    ``_LEMMA_Q`` and ``_LEMMA_S``, picked without replacement and sorted;
    then one normal call, split into x's entries on their union and the
    measurement y.  A normal call draws its values one after another, so
    that call gives the values of one call for x and one for y.  The picks
    are those of two ``rng.choice(n, k, replace=False)`` calls, read from
    the stream's words by :class:`_ChoiceReplay`, so every stream is fixed
    by the seed alone.
    The isometry oracle checks the draws ``_LEMMA_BLOCK`` rows per call,
    and a violation beyond ``_LEMMA_TOL`` counts as a failure.  The
    support-cap grid runs one call per (threshold, budget) cell.
    """
    rip_checks = 0
    rip_violations = 0
    worst = math.inf
    for idx in range(n_matrices):
        phi = gen_gaussian_matrix(_LEMMA_M, _LEMMA_N, derive_seed(seed, idx))
        delta = rip_exact(phi, _LEMMA_Q + _LEMMA_S).delta
        rng = make_rng(seed, idx, 1)
        choices = _ChoiceReplay(rng, _LEMMA_N, (_LEMMA_Q, _LEMMA_S))
        for start in range(0, draws, _LEMMA_BLOCK):
            rows = min(_LEMMA_BLOCK, draws - start)
            gamma1 = np.empty((rows, _LEMMA_Q), dtype=np.intp)
            gamma2 = np.empty((rows, _LEMMA_S), dtype=np.intp)
            x = np.zeros((rows, _LEMMA_N))
            y = np.empty((rows, _LEMMA_M))
            for r in range(rows):
                first, second = choices()
                gamma1[r] = first
                gamma2[r] = second
                # ascending, so each draw lands on the index it always has
                union = sorted({*first, *second})
                z = rng.standard_normal(len(union) + _LEMMA_M)
                x[r, union] = z[: len(union)]
                y[r] = z[len(union) :]
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


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def write_curve_csv(path, mean_curve, std_curve) -> None:
    """`k,error_mean,error_std`, with k the 1-based measurement index."""
    with open(path, "w") as fh:
        fh.write("k,error_mean,error_std\n")
        for k, (m_, s_) in enumerate(zip(mean_curve, std_curve), start=1):
            fh.write(f"{k},{_fmt(m_)},{_fmt(s_)}\n")


def write_steady_csv(path, axis_name, values, steadies) -> None:
    with open(path, "w") as fh:
        fh.write(f"{axis_name},steady\n")
        for v, s_ in zip(values, steadies):
            v_repr = str(int(v)) if float(v).is_integer() else _fmt(v)
            fh.write(f"{v_repr},{_fmt(s_)}\n")


def read_steady_csv(path):
    """Inverse of :func:`write_steady_csv`; returns (axis_name, values, steadies)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 2 or header[1] != "steady":
            raise ValueError(f"malformed steady-state file {path}")
        values, steadies = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            try:
                if len(fields) != 2:
                    raise ValueError
                v, s_ = float(fields[0]), float(fields[1])
            except ValueError:
                raise ValueError(f"malformed steady-state file {path}, line {lineno}") from None
            values.append(v)
            steadies.append(s_)
    return header[0], np.asarray(values), np.asarray(steadies)


def write_fit_csv(path, fit: SteadyStateFit) -> None:
    with open(path, "w") as fh:
        fh.write("c_hat,V_hat,sse,r2\n")
        fh.write(f"{_fmt(fit.c_hat)},{_fmt(fit.V_hat)},{_fmt(fit.sse)},{_fmt(fit.r2)}\n")


def write_qratio_csv(path, grid: QRatioGrid) -> None:
    with open(path, "w") as fh:
        fh.write("lambda,S,ratio\n")
        for i, lam in enumerate(grid.lambda_values):
            for j, s in enumerate(grid.s_values):
                fh.write(f"{_fmt(lam)},{s},{_fmt(grid.ratios[i, j])}\n")


def write_preconditions_csv(path, reports) -> None:
    """One `condition,lhs,rhs,pass` row per check; `reports` maps a label to
    a report whose rows get the label as a prefix."""
    with open(path, "w") as fh:
        fh.write("condition,lhs,rhs,pass\n")
        for label, report in reports:
            prefix = f"{label}:" if label else ""
            for check in report.checks:
                fh.write(f"{prefix}{check.line()}\n")
