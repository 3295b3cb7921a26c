"""Hot loop for the streaming solver: one numpy kernel over a block of trials.

Per iteration, with relaxation factor h,

    u <- u + h * (a - u + eta * Phi^T (y - Phi a)),    a <- soft_threshold(u, lam)

run p times against each measurement.  At h = 1 this is the streaming
update u <- a + eta * Phi^T (y - Phi a); below 1 it is one forward-Euler
step of length h*tau of the continuous-time network, so the solver runs
the network at fractional steps through the same loop.

The loop advances a block of T trials at once, each with its own matrix,
measurements and target.  Trial t holds an ``n x L`` iterate block whose
column j runs under threshold ``lam[t, j]``, so one step is two stacked
matrix products over the whole block.  A single stream is the block with
T = 1 and L = 1.  :class:`Block` lays the inputs out; the records are
step-major, of shape ``(steps, T, L)``.

Each trial of a block gets the same bits as its one-trial call, and a block
of one column the same bits as a one-vector run, because every product is
a per-trial BLAS call of the same shape:

* the stacked transpose is a contiguous ``(T, n, m)`` copy, never a
  ``swapaxes`` view, which BLAS would read with other strides;
* an error norm is a stacked ``(1 x n)(n x 1)`` matmul on a contiguous
  row of a ``(T, L, n)`` buffer, which is the dot product of the one-vector
  norm; ``einsum`` and dot products over strided rows sum in another order.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


class Block:
    """Inputs of ``count`` streams in the kernel's layout, filled one at a time.

    The matrices stack as ``phi`` ``(T, m, n)`` with the contiguous transpose
    ``phi_t`` ``(T, n, m)``; the per-step inputs are step-major:
    measurements ``ys`` ``(n_meas, T, m)``, target samples ``targets``
    ``(n_meas, T, n)`` and support-change flags ``target_changed``
    ``(n_meas, T)``.
    """

    def __init__(self, count: int, m: int, n: int, n_meas: int):
        self.phi = np.empty((count, m, n))
        self.phi_t = np.empty((count, n, m))
        self.ys = np.empty((n_meas, count, m))
        self.targets = np.empty((n_meas, count, n))
        self.target_changed = np.zeros((n_meas, count), dtype=np.bool_)

    def put(self, t: int, phi, ys, samples, schedule) -> None:
        """Store stream t: its matrix, measurement rows, target samples and support rows."""
        self.phi[t] = phi
        self.phi_t[t] = phi.T
        self.ys[:, t] = ys
        self.targets[:, t] = samples
        self.target_changed[1:, t] = np.any(schedule[1:] != schedule[:-1], axis=1)

    def stream(self, lam, eta, p, u0, relax=1.0):
        """:func:`stream` over the first ``len(u0)`` streams of this block."""
        count = u0.shape[0]
        return stream(
            self.phi[:count], self.phi_t[:count], self.ys[:, :count],
            self.targets[:, :count], self.target_changed[:, :count],
            lam, eta, p, u0, relax,
        )


def stream(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0, relax=1.0):
    """Per-step records (errors, active-set sizes, switch flags) and the final u, a.

    The inputs are laid out as :class:`Block` describes, and ``u0`` is
    ``(T, n, L)``; ``lam`` broadcasts against ``(T, 1, L)``, so it may be a
    scalar, one threshold per column, or one per trial.  Record row l holds
    the iterate produced at step l: its distance to the target held at step
    l, the size of its active set, and whether the active set or the target
    support changed relative to the previous step.  Each record is
    ``(n_meas * p, T, L)``.
    """
    n_meas, count = target_changed.shape
    shape = (n_meas * p, count, u0.shape[2])
    errors = np.empty(shape)
    gamma_sizes = np.empty(shape, dtype=np.int64)
    switches = np.empty(shape, dtype=np.bool_)
    # broadcast each measurement and target sample across the columns
    ys = ys[..., None]
    targets = targets[..., None]
    # a - target, written column by column into contiguous rows, and each
    # row's squared norm as a stacked (1 x n)(n x 1) product
    diff = np.empty((count, u0.shape[2], u0.shape[1]))
    diff_cols = diff.transpose(0, 2, 1)
    sq_norms = np.empty((count, u0.shape[2], 1, 1))
    u = u0.copy()
    a = np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))
    active = np.abs(u) > lam
    for k in range(n_meas):
        y = ys[k]
        tgt = targets[k]
        for i in range(p):
            r = y - phi @ a
            if relax == 1.0:
                u = a + eta * (phi_t @ r)
            else:
                u = u + relax * (a - u + eta * (phi_t @ r))
            mag = np.abs(u)
            a = np.where(mag <= lam, 0.0, u - lam * np.sign(u))
            new_active = mag > lam
            l = k * p + i
            np.subtract(a, tgt, out=diff_cols)
            np.matmul(diff[..., None, :], diff[..., :, None], out=sq_norms)
            np.sqrt(sq_norms[..., 0, 0], out=errors[l])
            np.add.reduce(new_active, axis=1, out=gamma_sizes[l])
            np.logical_or.reduce(new_active != active, axis=1, out=switches[l])
            if i == 0 and k > 0:
                switches[l] |= target_changed[k][:, None]
            active = new_active
    return errors, gamma_sizes, switches, u, a
