"""Experiment harness: seeded trials, sweeps, steady-state fits, CSV output.

A trial draws a fresh measurement matrix, synthetic target, and noise stream
from seeds derived off the master seed and trial index, runs the streaming
solver from a zero initial state, and keeps the pre-measurement error
sequence.  The Philox keys of every stream of a group of trials are derived
once into one array, a row per trial, ``_KEY_ROWS`` noise rows per hash
call (:func:`_stream_keys`).  A kernel block is three arrays, the
matrices, target samples and noisy measurement rows of its trials, built
from their key rows (:func:`_problems`, :func:`_measurements`) with the
bits of ``gen_gaussian_matrix``, ``assemble_target`` and one ``measure``
and ``gen_noise`` call per sample.  One function, :func:`_block_runs`,
builds, measures and runs every block, and the arrays never leave it.
Curves average the error sequence over trials.  Sweeps share per-trial
inputs across axis values, so comparisons are paired: cells that agree on
every field the inputs depend on build each trial's matrix, target and
noise once, and the cells of such a group that differ only in the
threshold run as the columns of one kernel call.  One function,
:func:`_run_cells`, groups and batches the cells of ``run`` and the
sweeps, maps :func:`_block_runs` over their blocks and joins the records.

Trials run in blocks through the kernel (:mod:`.kernels`): consecutive
trials, each with its own matrix, stacked until what a kernel call holds
for them fills ``_BLOCK_BYTES`` (:func:`_block_size`): their inputs, and
per column of the widest call the iterate buffers and the step records of
the longest call.  One function, :func:`_run_block`, runs every block from
zero and reads the kernel's records: the errors, the largest active set,
and the first step at which a run diverged (an error non-finite or above
``_DIVERGENCE_FACTOR`` times its target's largest sample norm plus its
noise scale).  A run or sweep with a diverged trial raises
:class:`DivergenceError`.  The blocks of ``run`` and the sweeps map over
forked worker processes, one per usable CPU by default
(:func:`worker_count`, :func:`_process_count`), and over plain ``map`` when
one worker would run them or no worker can be forked
(:func:`_block_mapper`), so a one-block run loads neither
``concurrent.futures`` nor ``multiprocessing``.  Records join in trial
order, so every output has the same bits at any worker count.

The theorem, continuous-bound and lemma suites live in :mod:`.suites`,
which runs its blocks through :func:`_block_runs` too and records a
divergence as data.  ``run`` and the sweeps do not load it;
``run_theorem_suite``, ``run_lca_suite`` and ``run_lemma_suite`` stay
importable from here and load it on first use.

Every check made before the first trial raises :class:`ConfigError`: the
fields of :class:`ExperimentConfig` (``GenConfig``'s and ``SolverConfig``'s
checks included, so ``replace`` raises it too), the sweep and grid values
(a lambda-s grid needs two lambdas), the ratio level and each suite's
support budget.  A lambda-s grid whose ratios do not bracket the level is
a runtime failure, raised after its trials and before any output.

The tail mean of a curve estimates its steady state; ``fit_steady_state``
fits the predicted steady-state law

    steady(P) = c**P / (1 - c**P) * mu * dl + V

by grid search on c with the offset V solved in closed form per candidate.
"""

from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import product, repeat
import math
import os
import threading

import numpy as np

from .measurement import (
    NOISE_MODES,
    gaussian_matrices,
    noise_rows,
    row_norms,
)
from . import kernels
# nothing here calls derive_seed, but perfbench's tests read it from here
from .rng import derive_seed, derive_seeds, philox_keys  # noqa: F401
from .signals import (
    GenConfig,
    assemble_targets,
    estimate_beta,
    target_keys,
)
from .solver import SolverConfig
# nothing here calls theory, but perfbench's tracer wraps its functions
# from sys.modules, so every command that imports the harness loads it
from . import theory  # noqa: F401

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

# the divergence screen of a hold-end kernel call (_skipped_error_bound):
# the relative and the absolute slack of its bound, which cover the rounding
# and the underflow of a computed norm of up to 1e9 entries, and the largest
# bound it passes, so that no square of a norm it bounds overflows
_SCREEN_ROUNDING = 2.0**-20
_SCREEN_FLOOR = 2.0**-500
_SCREEN_CEILING = 2.0**500


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """Worker processes requested by ``STREAM_ISTA_THREADS``; by default the usable CPUs.

    The variable keeps its old name, from when it counted threads.  A value
    that is not an integer is a :class:`ConfigError`, raised before any
    trial runs; a value below 1 requests one worker.
    """
    env = os.environ.get(THREADS_ENV, "").strip()
    if not env:
        return _usable_cpus()
    try:
        return max(1, int(env))
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc


def _process_count(requested: int, blocks: int) -> int:
    """Workers a call runs ``blocks`` blocks on: never more than the blocks or the usable CPUs."""
    return min(requested, _usable_cpus(), blocks)


def _block_mapper(stack: ExitStack, count: int):
    """``map``, or the ``map`` of a pool of ``count`` forked workers that ``stack`` shuts down.

    The blocks map serially at one worker, where ``fork`` is unavailable,
    when this process runs other Python threads (a fork copies their locks
    in whatever state they hold them) and in a daemonic process, which may
    not have children.  ``multiprocessing`` is imported only here, past
    the first three checks, and ``concurrent.futures`` past all four.
    """
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return map
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return map
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))
    return stack.enter_context(pool).map


def _stream_keys(cfg: ExperimentConfig, trials) -> np.ndarray:
    """The Philox keys of every trial of ``trials``: ``(T, 3 + n_samples, 2)`` uint64.

    Row t holds trial t's keys, each the one its scalar path starts from:
    its matrix's, ``make_rng(derive_seed(cfg.seed, trial, _MATRIX_STREAM))``;
    its target's amplitude and support keys, ``signals.target_keys`` of
    ``derive_seed(cfg.seed, trial, _TARGET_STREAM)``; then one noise key
    per sample k, ``make_rng(derive_seed(cfg.seed, trial, _NOISE_STREAM,
    k))``.  A block takes its trials' rows; only this function,
    :func:`_problems` and :func:`_measurements` read the layout.  The hash
    runs on at most ``_KEY_ROWS`` noise rows per call.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    count, n_meas = len(trials), cfg.n_samples
    keys = np.empty((count, 3 + n_meas, 2), dtype=np.uint64)
    per_call = max(1, _KEY_ROWS // n_meas)
    for start in range(0, count, per_call):
        chunk = trials[start : start + per_call]
        rows = keys[start : start + len(chunk)]
        streams = np.empty((len(chunk), 2, 2), dtype=np.uint64)
        streams[..., 0] = chunk[:, None]
        streams[..., 1] = (_MATRIX_STREAM, _TARGET_STREAM)
        seeds = derive_seeds(cfg.seed, streams.reshape(-1, 2)).reshape(-1, 2)
        rows[:, 0] = philox_keys(seeds[:, 0])
        rows[:, 1:3] = target_keys(seeds[:, 1])
        streams = np.empty((len(chunk), n_meas, 3), dtype=np.uint64)
        streams[..., 0] = chunk[:, None]
        streams[..., 1] = _NOISE_STREAM
        streams[..., 2] = np.arange(n_meas)
        seeds = derive_seeds(cfg.seed, streams.reshape(-1, 3))
        rows[:, 3:] = philox_keys(seeds).reshape(len(chunk), n_meas, 2)
    return keys


def _measurements(cfg: ExperimentConfig, phi, targets, keys, delta, noise_mode: str):
    """``(ys, sigma)``: the noisy measurement rows ``(n_samples, T, m)`` of T streams.

    Stream j has matrix ``phi[j]``, target samples ``targets[:, j]``
    (:func:`_problems`) and key row ``keys[j]`` (:func:`_stream_keys`),
    whose noise keys give its samples' noise.  ``sigma`` is each
    stream's noise scale as an array: under ``gaussian_scaled``,
    ``cfg.noise_level`` times the norm of its first clean row over sqrt(m),
    the per-entry std relative to that measurement's energy; under the
    other modes, ``cfg.noise_level``.  A
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
    count, n_meas, level = len(keys), cfg.n_samples, cfg.noise_level
    ys = np.matmul(phi, targets[..., None])[..., 0]
    if noise_mode == "gaussian_scaled":
        norms = row_norms(ys[0])
        with np.errstate(over="ignore"):
            sigma = level * norms / math.sqrt(cfg.m)
    else:
        sigma = np.full(count, level)
    # an overflowed scale's noise draw is not used
    finite = np.isfinite(sigma)
    # rows step-major, (sample k, stream j), as ys lays them out
    with np.errstate(over="ignore"):
        noise = noise_rows(
            cfg.m, np.tile(np.where(finite, sigma, 0.0), n_meas),
            np.tile(np.broadcast_to(delta, count), n_meas),
            noise_mode, np.swapaxes(keys[:, 3:], 0, 1).reshape(-1, 2),
        ).reshape(n_meas, count, cfg.m)
    finite &= np.isfinite(noise).all(axis=(0, 2))
    ys += noise
    ys[:, ~finite] = np.inf
    sigma[~finite] = np.inf
    return ys, sigma


def _problems(cfg: ExperimentConfig, keys):
    """``(phi, targets)``: matrices ``(T, m, n)`` and target samples ``(n_samples, T, n)``.

    ``keys`` holds the T trials' rows of :func:`_stream_keys`; each trial
    gets the bits of its one-trial build through ``gen_gaussian_matrix`` and
    ``assemble_target``, ``trial_problem`` of ``tests/reference.py``.
    """
    phi = gaussian_matrices(cfg.m, cfg.n, keys[:, 0])
    # the keys stand in for the target seed, which gen_config's seed would be
    return phi, assemble_targets(cfg.gen_config(0), keys[:, 1:3])[0]


def _block_size(cfg: ExperimentConfig, width: int = 1, steps: int | None = None) -> int:
    """Trials per kernel block: as many as fit in ``_BLOCK_BYTES``, at least one.

    A trial counts what its block holds for it during a kernel call of
    ``steps`` steps (by default ``n_samples * P``) with ``width`` columns:
    its inputs (matrix, transpose, measurements and target samples), and
    per column the iterate buffers (the zero start, ``u``, ``a``, ``mag``,
    ``g``, both threshold arrays and ``diff``: eight of length n, plus the
    residual of length m), the active record, a byte per entry and step,
    and 16 bytes per step.  Those 16 bytes once held an error and an
    active-set size; the kernel keeps no set-size record since it returns
    masks, so they over-count what a step now adds, the error record and
    :func:`_run_block`'s narrow mask sum.  The formula stays as it is, so
    the block partitions, and the kernel calls the suites' tests pin, do
    not move.  For the same reason it counts an error row per step even for
    hold-end calls, which keep one per hold, and not the ``peak`` buffer
    those calls allocate: larger blocks were no faster (``_BLOCK_BYTES``).
    """
    if steps is None:
        steps = cfg.n_samples * cfg.P
    inputs = 8 * (2 * cfg.m * cfg.n + cfg.n_samples * (cfg.m + cfg.n))
    column = 8 * (8 * cfg.n + cfg.m) + (steps + 1) * cfg.n + 16 * steps
    return max(1, _BLOCK_BYTES // (inputs + width * column))


def _skipped_error_bound(peak, beta):
    """A bound, per (trial, column), on every error a hold-end kernel call skipped.

    ``peak`` ``(T, n, L)`` is the call's largest ``|u|`` over its skipped
    steps and ``beta`` ``(T,)`` each trial's largest target sample norm.
    Soft thresholding gives ``|a| <= |u|`` entrywise, so a skipped step's
    ``||a - x||`` is at most ``sqrt(n) max(peak) + beta``, widened here by
    the rounding of the computed norm.  A NaN ``peak`` gives a NaN bound.
    """
    bound = math.sqrt(peak.shape[1]) * peak.max(axis=1) + beta[:, None]
    return bound * (1.0 + _SCREEN_ROUNDING) + _SCREEN_FLOOR


def _run_block(phi, ys, targets, lam: np.ndarray, eta: float, p: int, sigma, relax: float = 1.0,
               hold_ends: bool = False):
    """Run a block of T streams from zero under thresholds ``lam`` ``(T | 1, 1, L)``.

    The block is the three arrays of :func:`.kernels.stream`; T is the
    number of its matrices, L the last axis of ``lam``, which holds one row
    of thresholds per trial (the suites') or one row for every trial
    (``run``'s and the sweeps').  T is at least one: a suite runs only
    blocks of its running instances (:func:`.suites._run_suite`).  Returns
    the error record ``(steps, T, L)``,
    the largest active set per (trial, column), reduced from the kernel's
    active masks, and the first diverged step per (trial, column), or -1.
    A step diverged when its error is non-finite or above
    ``_DIVERGENCE_FACTOR`` times its trial's largest target sample norm
    (``estimate_beta`` of its stream of ``targets``) plus ``sigma``, one
    noise scale per trial or one for all.  That limit is clipped to the
    largest float, so an error that overflows diverges at every scale.
    Numpy's overflow warnings are silenced, because the step names the
    divergence.

    With ``hold_ends`` the kernel computes and returns only each hold's
    last error, ``(n_meas, T, L)``.  A (trial, column) whose
    :func:`_skipped_error_bound` is within its limit and ``_SCREEN_CEILING``
    cannot have diverged at a skipped step.  If any could, the block reruns
    with every step's error and returns that run's hold-end rows, so a
    loose screen costs time, never a verdict.
    """
    u0 = np.zeros((phi.shape[0], phi.shape[2], lam.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        # before the kernel call, so its records never coexist with the norms' temporaries
        beta = estimate_beta(targets)
        limit = np.minimum(_DIVERGENCE_FACTOR * (beta + sigma), np.finfo(float).max)
        screened = False
        if hold_ends:
            peak = np.zeros_like(u0)
            errors, active = kernels.stream(
                phi, ys, targets, lam, eta, p, u0, relax, peak=peak
            )[:2]
            ceiling = np.minimum(limit, _SCREEN_CEILING)[:, None]
            screened = bool(np.all(_skipped_error_bound(peak, beta) <= ceiling))
            if not screened:
                # freed before the rerun allocates its records
                del errors, active
        if not screened:
            errors, active = kernels.stream(phi, ys, targets, lam, eta, p, u0, relax)[:2]
        bad = ~(errors <= limit[:, None])
    first = np.where(bad.any(axis=0), bad.argmax(axis=0), -1)
    if screened:
        # hold-end row k is step k * p + p - 1
        first = np.where(first >= 0, first * p + p - 1, -1)
    elif hold_ends:
        errors = errors[p - 1 :: p]
    # a count never exceeds n, so the narrowest type holding n sums exactly
    max_gamma = np.add.reduce(
        active.view(np.uint8), axis=2, dtype=np.min_scalar_type(phi.shape[2])
    ).max(axis=0)
    return errors, max_gamma, first


def _block_runs(cfg: ExperimentConfig, keys, delta, noise_mode: str, runs):
    """``(records, sigma)``: the block of ``keys`` built, measured and run once per run.

    ``keys`` holds the block's rows of :func:`_stream_keys`.  The block is
    built by :func:`_problems` and measured by :func:`_measurements` under
    ``delta`` and ``noise_mode``; ``sigma`` is its noise scales.  Each
    ``(lam, eta, p, relax, hold_ends)`` of ``runs`` is one
    :func:`_run_block` call on it, whose ``(errors, max_gamma, diverged)``
    is its record, in order.  This is the one place where key rows become
    a measured block, for :func:`_run_cells`, which maps it over the blocks
    of ``run`` and the sweeps, and :func:`.suites._run_suite` alike, and
    the block's three arrays never leave it, so none is held once it
    returns.
    """
    phi, targets = _problems(cfg, keys)
    ys, sigma = _measurements(cfg, phi, targets, keys, delta, noise_mode)
    return [_run_block(phi, ys, targets, lam, eta, p, sigma, relax, hold_ends)
            for lam, eta, p, relax, hold_ends in runs], sigma


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

    Cells that agree on every field a trial's inputs depend on form a group,
    whose stream keys are derived once and whose trials each build their
    inputs once.  The group's cells batch by ``(eta, P)``: the
    cells of a batch differ only in ``lam`` and run as the columns of one
    kernel call, under one row of thresholds, and each other batch runs the
    block in a call of its own.  At P > 1 a call keeps only the
    pre-measurement errors, one per hold.  A group's trials run in blocks of
    consecutive trials, ``_block_size`` per block for its widest kernel call
    (its largest batch) and its longest (its largest P).  Every group's
    blocks map, as :func:`_block_runs` calls on a block's key rows and the
    group's runs, over one pool of forked workers, :func:`_process_count` of
    them for the most blocks of a group, which is shut down on every exit
    from here; or over plain ``map`` (:func:`_block_mapper`).  Each batch's
    records are joined in trial order, so the outcome is identical at any
    worker count (see README "Workers"), and each cell's errors are
    C-ordered rows.

    Raises :class:`DivergenceError` for the first cell, in order, with a
    diverged trial of the first group that has one.
    """
    groups = {}
    for idx, cell in enumerate(cells):
        groups.setdefault(tuple(getattr(cell, f) for f in _INPUT_FIELDS), []).append(idx)
    plans = []
    for idxs in groups.values():
        batches = {}
        for i in idxs:
            batches.setdefault((cells[i].eta, cells[i].P), []).append(i)
        # at P = 1 every step ends a hold
        runs = [(np.reshape([cells[i].lam for i in batch], (1, 1, -1)), eta, P, 1.0, P > 1)
                for (eta, P), batch in batches.items()]
        cfg = cells[idxs[0]]
        steps = cfg.n_samples * max(P for _, P in batches)
        size = _block_size(cfg, max(map(len, batches.values())), steps)
        plans.append((cfg, idxs, batches, runs, size))
    blocks = max(-(-cfg.trials // size) for cfg, *_, size in plans)
    workers = _process_count(worker_count(), blocks)
    out = [None] * len(cells)
    with ExitStack() as stack:
        mapper = _block_mapper(stack, workers)
        for cfg, idxs, batches, runs, size in plans:
            keys = _stream_keys(cfg, range(cfg.trials))
            records, sigmas = zip(*mapper(
                _block_runs, repeat(cfg), (keys[t : t + size] for t in range(0, cfg.trials, size)),
                repeat(cfg.noise_delta), repeat(cfg.noise_mode), repeat(runs),
            ))
            sigma = np.concatenate(sigmas)
            for batch, *parts in zip(batches.values(), *records):
                # each record (columns, trials, ...), so a cell's rows are contiguous
                errors, max_gamma, diverged = (
                    np.ascontiguousarray(np.concatenate(record, axis=-2).T)
                    for record in zip(*parts)
                )
                for c, i in enumerate(batch):
                    out[i] = errors[c], max_gamma[c], diverged[c]
            for i in idxs:
                errors, max_gamma, diverged = out[i]
                _check_divergence(cells[i], diverged, sigma)
                mean = errors.mean(axis=0)
                std = errors.std(axis=0, ddof=1) if cfg.trials > 1 else np.zeros_like(mean)
                out[i] = RunResult(mean, std, errors, max_gamma, sigma)
    return out


def run_trials(cfg: ExperimentConfig) -> RunResult:
    """All trials of one configuration, on forked workers when it has several blocks."""
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
    Raises ValueError for a P value that is not finite or is below 1, a
    steady value that is not finite or not positive, and a fit whose sse or
    r2 is not finite, such as steady values whose squares overflow; numpy's
    warnings in the fit are silenced, since the error names the overflow.
    """
    p = np.asarray(p_values, dtype=np.float64)
    y = np.asarray(steady_values, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("p_values and steady_values must be 1-d and equally long")
    if not np.all((p >= 1) & np.isfinite(p)):
        raise ValueError(f"P values must be finite and at least 1, got {p.tolist()}")
    if not np.all((y > 0) & np.isfinite(y)):
        raise ValueError(f"steady values must be positive and finite, got {y.tolist()}")
    if np.unique(p).size < 3:
        raise ValueError("need at least 3 distinct P values to fit the steady-state law")
    if not (mu >= 0 and dl > 0 and math.isfinite(mu) and math.isfinite(dl)):
        raise ValueError(f"need finite mu >= 0 and dl > 0, got mu={mu}, dl={dl}")
    c_grid = np.linspace(1e-4, 0.9999, _FIT_GRID_SIZE)
    with np.errstate(all="ignore"):
        powers = c_grid[:, None] ** p[None, :]
        g = powers / (1.0 - powers) * (mu * dl)
        v = np.clip((y[None, :] - g).mean(axis=1), 0.0, None)
        resid = y[None, :] - g - v[:, None]
        # a sum of squares, not a norm; a vecdot would change its bits and r2's
        sse = np.einsum("ij,ij->i", resid, resid)
        best = int(np.argmin(sse))
        sst = float(np.sum((y - y.mean()) ** 2))
        best_sse = float(sse[best])
        r2 = 0.0 if sst == 0.0 else 1.0 - best_sse / sst
    if not (math.isfinite(best_sse) and math.isfinite(r2)):
        raise ValueError(f"the steady-state fit overflows: sse={best_sse!r}, r2={r2!r}")
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
    repeated lambda or s value, which would repeat rows of the grid, an s
    that is not a whole number, or a single lambda, whose one ratio per s
    brackets no level but its own (:func:`fit_lambda_level`).
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
    # after the cells, so that an invalid value is named before the count
    if len(lams) < 2:
        raise ConfigError(f"sweep_lambda_s needs at least two lambda values, got {len(lams)}")
    return lams, svals, cells


def sweep_lambda_s(cfg: ExperimentConfig, lambda_values, s_values, ratio_level: float = 4.0):
    """Grid of active-set ratios over (lambda, s), plus the level-set fit.

    Every cell runs in one :func:`_run_cells` call, in which the
    thresholds of each s share its per-trial inputs and run as the columns
    of one kernel call.  A cell's ratio is the mean over its trials of the
    largest active set over s.  A ratio level that is not finite raises
    ConfigError before any trial: no grid point is nearest to it.  A finite
    level that the ratios of some s do not bracket raises RuntimeError
    after the trials (:func:`fit_lambda_level`).
    """
    if not math.isfinite(ratio_level):
        raise ConfigError(f"ratio level must be finite, got {ratio_level}")
    lams, svals, cells = lambda_s_cells(cfg, lambda_values, s_values)
    ratios = [np.mean(r.max_gamma_size / cell.s) for cell, r in zip(cells, _run_cells(cells))]
    grid = QRatioGrid(lams, svals, np.reshape(ratios, (len(lams), len(svals))))
    return grid, fit_lambda_level(grid, ratio_level)


def fit_lambda_level(grid: QRatioGrid, level: float = 4.0) -> LambdaLevelFit:
    """Fit lam = C / sqrt(s) through the grid points nearest a ratio level.

    Every s must bracket the level, which must lie in ``[min, max]`` of its
    ratios: the nearest point of a column that never reaches the level is
    not on the level set.  Otherwise it raises RuntimeError naming that s and
    the range of its ratios.
    """
    points = []
    for j, s in enumerate(grid.s_values):
        ratios = grid.ratios[:, j]
        low, high = float(ratios.min()), float(ratios.max())
        if not low <= level <= high:
            raise RuntimeError(
                f"ratio level {level!r} is not bracketed: the ratios of s={s} "
                f"span [{low!r}, {high!r}]"
            )
        i = int(np.argmin(np.abs(ratios - level)))
        points.append((s, float(grid.lambda_values[i])))
    num = sum(lam / math.sqrt(s) for s, lam in points)
    den = sum(1.0 / s for s, _ in points)
    return LambdaLevelFit(num / den, level, tuple(points))


# the suites' entry points, which :mod:`.suites` holds; importing them from
# here loads it on first use
_SUITE_NAMES = ("run_theorem_suite", "run_lca_suite", "run_lemma_suite")


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
