"""Streaming soft-thresholding solver and its exponential-integrator twin.

``run_streaming`` applies p iterations of

    u[l+1] = a[l] + eta * Phi^T (y[k] - Phi a[l]),    a[l+1] = T_lam(u[l+1])

to each incoming measurement y[k], holding the target fixed between
measurements (iteration index l = k*p + i with 0 <= i < p).  The recorded
error at row l is ||a[l+1] - target[l]||, and the subsequence at i = p-1
is the pre-measurement error ||a[kp] - target[kp-1]|| used by the tracking
experiments.  ``run_streaming`` runs the kernel (``kernels.stream``) on a
one-trial, one-column block, views of the caller's arrays, and builds a
full :class:`SolverTrace` from the kernel's errors and active masks, so
the switch rule of :class:`SolverTrace` lives here alone.  The experiment
harness stacks many trials, and the thresholds of a sweep as columns, in
one block and reads the kernel records without building traces.

``lca_simulate`` advances the continuous-time sparse-coding network

    tau * du/dt = -u - (Phi^T Phi - I) a + Phi^T y,    a = T_lam(u)

by forward Euler with step dl = tau, which reduces exactly to the update
above with eta = 1; it therefore delegates, and its traces are bit-identical
to the equivalent streaming run.

``euler_lca_trace`` integrates the same network at the fractional step
tau / substeps.  That step is the streaming update at eta = 1 relaxed by
1/substeps, so it runs through the same numpy kernel loop.  It is library
API; the continuous-bound suite runs the same relaxed kernel on its blocks.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import kernels
from .measurement import MeasurementMatrix, row_norms
from .signals import DynamicTarget


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters: threshold, step size, iterations per measurement."""

    lam: float
    eta: float = 1.0
    P: int = 1
    dl: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        for name in ("lam", "eta", "dl", "tau"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.P < 1:
            raise ValueError(f"P must be a positive integer, got {self.P}")


@dataclass(frozen=True)
class SolverState:
    """Internal state u, output a = T_lam(u), iteration count, active set."""

    u: np.ndarray
    a: np.ndarray
    l: int
    gamma: np.ndarray  # sorted indices where |u| > lam


@dataclass(frozen=True)
class SolverTrace:
    """Per-iteration record of one streaming run.

    Row l (= k*P + i, iteration i against measurement k, with the P of the
    run's config) stores the error ||a[l+1] - target[l]||, the size of the
    active set of u[l+1], and a switch flag that is true when the active set
    or the target support changed versus the previous iteration.
    """

    errors: np.ndarray
    gamma_sizes: np.ndarray
    switches: np.ndarray
    initial_gamma_size: int
    final_state: SolverState


def active_set(u: np.ndarray, lam: float) -> np.ndarray:
    """Indices with |u| strictly above the threshold (boundary is inactive)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return np.flatnonzero(np.abs(np.asarray(u)) > lam)


def top_q_energy(u: np.ndarray, q: int):
    """Euclidean norm of the q largest-magnitude entries of u.

    Works along the last axis: a float for one vector, one norm per row for
    a block.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    if not 1 <= q <= n:
        raise ValueError(f"q must lie in [1, {n}], got {q}")
    energy = row_norms(np.partition(np.abs(u), n - q, axis=-1)[..., n - q :])
    return float(energy) if u.ndim == 1 else energy


def top_q_indices(u: np.ndarray, q: int) -> np.ndarray:
    """Sorted indices of the q largest-magnitude entries; ties break to lower index.

    Works along the last axis: a block gives one row of q indices per row.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    if not 1 <= q <= n:
        raise ValueError(f"q must lie in [1, {n}], got {q}")
    order = np.argsort(-np.abs(u), axis=-1, kind="stable")
    return np.sort(order[..., :q], axis=-1)


def _kernel_inputs(phi: MeasurementMatrix, measurements, target: DynamicTarget, init_u):
    """Validate a stream against ``phi`` and lay it out as a one-trial block.

    Returns ``(phi, ys, targets, u0)``: the block's three arrays, views of
    the caller's, and the validated ``(1, n, 1)`` start of ``init_u``.  The
    matrix is C-contiguous, as :func:`.kernels.stream` asks.
    """
    ys = np.asarray(measurements, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != phi.rows:
        raise ValueError(f"measurements shape {ys.shape} does not match (*, {phi.rows})")
    samples = np.asarray(target.samples, dtype=np.float64)
    if samples.shape[0] != ys.shape[0]:
        raise ValueError(
            f"measurement count {ys.shape[0]} does not match target length {samples.shape[0]}"
        )
    if samples.shape[1] != phi.cols:
        raise ValueError(f"target width {samples.shape[1]} does not match {phi.cols}")
    u0 = np.asarray(init_u, dtype=np.float64)
    if u0.shape != (phi.cols,):
        raise ValueError(f"init_u shape {u0.shape} does not match ({phi.cols},)")
    if not np.all(np.isfinite(u0)):
        raise ValueError("init_u must be finite")
    matrix = np.ascontiguousarray(phi.entries)[None]
    return matrix, ys[:, None], samples[:, None], u0[None, :, None]


def run_streaming(
    phi: MeasurementMatrix,
    measurements: np.ndarray,
    target: DynamicTarget,
    config: SolverConfig,
    init_u: np.ndarray,
) -> SolverTrace:
    """Track a measurement stream: P iterations against each y[k].

    ``measurements`` has one row per target sample; the zero-order hold of
    the target across the P iterations of a measurement happens here.
    """
    *block, u0 = _kernel_inputs(phi, measurements, target, init_u)
    P = int(config.P)
    errors, active, u_fin, a_fin = kernels.stream(
        *block, float(config.lam), float(config.eta), P, u0
    )
    active = active[:, 0, :, 0]
    gamma_sizes = active.sum(axis=1, dtype=np.int64)
    switches = np.any(active[1:] != active[:-1], axis=1)
    # the first step against a new measurement also flags a target support change
    schedule = target.support_schedule
    switches[P::P] |= np.any(schedule[1:] != schedule[:-1], axis=1)
    return SolverTrace(
        errors=errors[:, 0, 0],
        gamma_sizes=gamma_sizes[1:],
        switches=switches,
        initial_gamma_size=int(gamma_sizes[0]),
        final_state=SolverState(
            u_fin[0, :, 0], a_fin[0, :, 0], len(errors), np.flatnonzero(active[-1])
        ),
    )


def lca_simulate(
    phi: MeasurementMatrix,
    measurements: np.ndarray,
    target: DynamicTarget,
    lam: float,
    tau: float,
    init_u: np.ndarray,
    P: int = 1,
) -> SolverTrace:
    """Euler simulation of the continuous network with step dl = tau.

    The discretized dynamics coincide with the streaming update at eta = 1,
    so this delegates to :func:`run_streaming` and produces a bit-identical
    trace to the equivalent call.
    """
    config = SolverConfig(lam=lam, eta=1.0, P=P, dl=tau, tau=tau)
    return run_streaming(phi, measurements, target, config, init_u)


def euler_lca_trace(
    phi: MeasurementMatrix,
    measurements: np.ndarray,
    target: DynamicTarget,
    lam: float,
    tau: float,
    init_u: np.ndarray,
    P: int = 1,
    substeps: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the network dynamics with step tau / substeps.

    Each measurement stays held for P * substeps steps, so refining the
    step leaves the physical hold duration (P * tau time units) unchanged.
    Returns ``(times, errors)``: the time at the end of each step and the
    distance from the output to the held target sample.  At substeps = 1
    the update collapses to the unit-step streaming iteration and the
    errors match :func:`lca_simulate` exactly; larger values approach the
    continuous trajectory and exist to separate discretization artifacts
    from genuine bound failures.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    SolverConfig(lam=lam, P=P, dl=tau, tau=tau)  # same parameter checks as the solver
    *block, u0 = _kernel_inputs(phi, measurements, target, init_u)
    # the network step is the streaming update at eta = 1, relaxed by 1/substeps
    errors = kernels.stream(
        *block, float(lam), 1.0, P * substeps, u0, relax=1.0 / substeps
    )[0][:, 0, 0]
    times = (tau / substeps) * np.arange(1, errors.size + 1)
    return times, errors
