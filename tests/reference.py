"""Textbook one-vector streaming iterate: the reference the kernel is checked against.

``streamista.kernels.stream`` is the package's only solver loop.  These
functions take one step at a time on one vector, with the shrinkage written
as ``where(|u| <= lam, 0, u - lam * sign(u))``, and the kernel tests require
the kernel to reproduce their bits.
"""

import numpy as np

from streamista.measurement import MeasurementMatrix
from streamista.solver import SolverConfig, SolverState, active_set


def soft_threshold(u: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise shrinkage: 0 where |u| <= lam, else u - lam*sign(u)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    return np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))


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
    adjoint = np.ascontiguousarray(phi.entries.T)
    r = y - phi.entries @ state.a
    u = state.a + config.eta * (adjoint @ r)
    return SolverState(u, soft_threshold(u, config.lam), state.l + 1, active_set(u, config.lam))
