"""Streaming soft-thresholding solver and its exponential-integrator twin.

``run_streaming`` applies p iterations of

    u[l+1] = a[l] + eta * Phi^T (y[k] - Phi a[l]),    a[l+1] = T_lam(u[l+1])

to each incoming measurement y[k], holding the target fixed between
measurements (iteration index l = k*p + i with 0 <= i < p).  The recorded
error at row l is ||a[l+1] - target[l]||, and the subsequence at i = p-1
is the pre-measurement error ||a[kp] - target[kp-1]|| used by the tracking
experiments.  ``run_streaming_batch`` runs several thresholds on the same
stream at once, one column of an ``n x L`` iterate block each, and returns
one trace per threshold; ``run_streaming`` is its one-threshold case.

``lca_simulate`` advances the continuous-time sparse-coding network

    tau * du/dt = -u - (Phi^T Phi - I) a + Phi^T y,    a = T_lam(u)

by forward Euler with step dl = tau, which reduces exactly to the update
above with eta = 1; it therefore delegates, and its traces are bit-identical
to the equivalent streaming run.

``euler_lca_trace`` integrates the same network at the fractional step
tau / substeps.  That step is the streaming update at eta = 1 relaxed by
1/substeps, so it runs through the same numpy kernel loop.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import kernels
from .measurement import MeasurementMatrix
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

    Row l (= k*P + i) stores the error ||a[l+1] - target[l]||, the size of
    the active set of u[l+1], and a switch flag that is true when the active
    set or the target support changed versus the previous iteration.
    """

    l: np.ndarray
    k: np.ndarray
    i: np.ndarray
    errors: np.ndarray
    gamma_sizes: np.ndarray
    switches: np.ndarray
    P: int
    n_measurements: int
    initial_gamma_size: int
    final_state: SolverState

    def premeasurement_errors(self) -> np.ndarray:
        """Errors at i = P-1: ||a[kP] - target[kP-1]|| for k = 1..n_measurements."""
        return self.errors[self.P - 1 :: self.P]

    def max_gamma_size(self) -> int:
        """Largest active set over the run, initial state included."""
        return max(int(self.gamma_sizes.max()), self.initial_gamma_size)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("l,k,i,error,gamma_size,switch\n")
            for row in zip(self.l, self.k, self.i, self.errors, self.gamma_sizes, self.switches):
                fh.write(
                    f"{row[0]},{row[1]},{row[2]},{repr(float(row[3]))},{row[4]},{int(row[5])}\n"
                )


def soft_threshold(u: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise shrinkage: 0 where |u| <= lam, else u - lam*sign(u)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    return np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))


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
    part = np.partition(np.abs(u), n - q, axis=-1)[..., n - q :]
    # stacked (1 x q)(q x 1) products take the same dot as a single vector,
    # so a row of a block gets the bits of the one-vector call
    energy = np.sqrt(np.matmul(part[..., None, :], part[..., :, None])[..., 0, 0])
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


def init_state(init_u: np.ndarray, lam: float) -> SolverState:
    """State at l = 0 for a given internal vector."""
    u = np.asarray(init_u, dtype=np.float64).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("init_u must be finite")
    return SolverState(u, soft_threshold(u, lam), 0, active_set(u, lam))


def ista_iterate(
    state: SolverState, y: np.ndarray, phi: MeasurementMatrix, config: SolverConfig
) -> SolverState:
    """One update against measurement y; returns the successor state."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (phi.rows,):
        raise ValueError(f"measurement shape {y.shape} does not match ({phi.rows},)")
    if state.a.shape != (phi.cols,):
        raise ValueError(f"state dimension {state.a.shape} does not match ({phi.cols},)")
    phi_t = np.ascontiguousarray(phi.entries.T)
    r = y - phi.entries @ state.a
    u = state.a + config.eta * (phi_t @ r)
    return SolverState(u, soft_threshold(u, config.lam), state.l + 1, active_set(u, config.lam))


def _kernel_inputs(phi: MeasurementMatrix, measurements, target: DynamicTarget, init_u):
    """Validate a stream against ``phi`` and lay it out for the kernel.

    Returns ``(phi, phi_t, ys, samples, target_changed, u0)`` as contiguous
    float arrays; ``target_changed[k]`` flags a support change at sample k.
    """
    ys = np.ascontiguousarray(measurements, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != phi.rows:
        raise ValueError(f"measurements shape {ys.shape} does not match (*, {phi.rows})")
    samples = np.ascontiguousarray(target.samples, dtype=np.float64)
    if samples.shape[0] != ys.shape[0]:
        raise ValueError(
            f"measurement count {ys.shape[0]} does not match target length {samples.shape[0]}"
        )
    if samples.shape[1] != phi.cols:
        raise ValueError(f"target width {samples.shape[1]} does not match {phi.cols}")
    u0 = np.ascontiguousarray(init_u, dtype=np.float64)
    if u0.shape != (phi.cols,):
        raise ValueError(f"init_u shape {u0.shape} does not match ({phi.cols},)")
    if not np.all(np.isfinite(u0)):
        raise ValueError("init_u must be finite")

    n_meas = ys.shape[0]
    sched = target.support_schedule
    target_changed = np.zeros(n_meas, dtype=np.bool_)
    target_changed[1:] = np.any(sched[1:] != sched[:-1], axis=1)

    phi_c = np.ascontiguousarray(phi.entries)
    phi_t = np.ascontiguousarray(phi.entries.T)
    return phi_c, phi_t, ys, samples, target_changed, u0


def run_streaming_batch(
    phi: MeasurementMatrix,
    measurements: np.ndarray,
    target: DynamicTarget,
    configs,
    init_u: np.ndarray,
) -> list:
    """The :func:`run_streaming` trace of every config, from one kernel loop.

    The configs may differ only in ``lam``: the thresholds run as the
    columns of an ``n x L`` iterate block, each started from ``init_u``.
    A single config runs the one-vector loop, so its trace is the
    reference; a column of a block matches it to rounding.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("run_streaming_batch needs at least one config")
    if len({(c.eta, c.P) for c in configs}) != 1:
        raise ValueError("batched configs must share eta and P")
    phi_c, phi_t, ys, samples, target_changed, u0 = _kernel_inputs(
        phi, measurements, target, init_u
    )
    eta, P = float(configs[0].eta), int(configs[0].P)
    if len(configs) == 1:
        lam, u_block = float(configs[0].lam), u0
    else:
        lam = np.array([c.lam for c in configs], dtype=np.float64)
        u_block = np.repeat(u0[:, None], len(configs), axis=1)
    records = kernels.stream(phi_c, phi_t, ys, samples, target_changed, lam, eta, P, u_block)
    if len(configs) == 1:  # give the one-vector records their column axis
        records = [x[:, None] for x in records]
    errors, gamma_sizes, switches, u_fin, a_fin = records
    n_meas = ys.shape[0]
    total = n_meas * P
    l = np.arange(total)
    traces = []
    for j, c in enumerate(configs):
        u_j = np.ascontiguousarray(u_fin[:, j])
        traces.append(SolverTrace(
            l=l,
            k=l // P,
            i=l % P,
            errors=np.ascontiguousarray(errors[:, j]),
            gamma_sizes=np.ascontiguousarray(gamma_sizes[:, j]),
            switches=np.ascontiguousarray(switches[:, j]),
            P=P,
            n_measurements=n_meas,
            initial_gamma_size=int(active_set(u0, c.lam).size),
            final_state=SolverState(
                u_j, np.ascontiguousarray(a_fin[:, j]), total, active_set(u_j, c.lam)
            ),
        ))
    return traces


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
    return run_streaming_batch(phi, measurements, target, (config,), init_u)[0]


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
    phi_c, phi_t, ys, samples, target_changed, u0 = _kernel_inputs(
        phi, measurements, target, init_u
    )
    # the network step is the streaming update at eta = 1, relaxed by 1/substeps
    errors = kernels.stream(
        phi_c, phi_t, ys, samples, target_changed,
        float(lam), 1.0, P * substeps, u0, relax=1.0 / substeps,
    )[0]
    times = (tau / substeps) * np.arange(1, errors.size + 1)
    return times, errors
