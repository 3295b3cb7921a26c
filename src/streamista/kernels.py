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

A step makes about thirteen numpy calls, each writing into a buffer
allocated once per call, and keeps the bits of the textbook step:

* the shrinkage is ``u - min(max(u, -lam), lam)``, which equals
  ``where(|u| <= lam, 0, u - lam * sign(u))`` bit for bit for a finite
  positive threshold, ``+0.0``, ``±inf`` and NaN included (:func:`_shrink`);
* the thresholds and their negatives are contiguous ``(T, n, L)`` arrays,
  built once per call, so the elementwise loops run over whole rows, not a
  zero-stride ``(T, 1, L)`` broadcast of ``L`` elements;
* the active masks ``|u| > lam`` of every iterate go into one
  ``(steps + 1, T, n, L)`` bool record, a byte per entry and step, and
  the set sizes and switch flags are reduced from it after the loop.  A
  NaN entry is inactive, as ``solver.active_set`` counts it, though its
  output is NaN, so the mask is not ``a != 0``.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


class Block:
    """Inputs of ``count`` streams in the kernel's layout.

    The matrices stack as ``phi`` ``(T, m, n)`` with the contiguous transpose
    ``phi_t`` ``(T, n, m)``; the per-step inputs are step-major:
    measurements ``ys`` ``(n_meas, T, m)``, target samples ``targets``
    ``(n_meas, T, n)`` and support-change flags ``target_changed``
    ``(n_meas, T)``.  :meth:`put` fills one stream's matrix and target; a
    caller that builds every stream at once writes into the arrays
    directly.  The measurement rows are always written by the caller.
    """

    def __init__(self, count: int, m: int, n: int, n_meas: int):
        self.phi = np.empty((count, m, n))
        self.phi_t = np.empty((count, n, m))
        self.ys = np.empty((n_meas, count, m))
        self.targets = np.empty((n_meas, count, n))
        self.target_changed = np.zeros((n_meas, count), dtype=np.bool_)

    def put(self, t: int, phi, samples, schedule) -> None:
        """Store stream t: its matrix, target samples and support rows."""
        self.phi[t] = phi
        self.phi_t[t] = phi.T
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


def _shrink(u, lam, neg_lam, a, mag, active) -> None:
    """Soft-threshold ``u`` into ``a`` and write ``|u| > lam`` into ``active``.

    ``u - min(max(u, -lam), lam)`` is ``where(|u| <= lam, 0, u - lam * sign(u))``
    bit for bit when ``lam`` is finite and positive: on the dead zone
    ``x - x`` is ``+0.0``, for ``x = -0.0`` too.  ``mag`` is a work buffer.
    """
    np.maximum(u, neg_lam, out=a)
    np.minimum(a, lam, out=a)
    np.subtract(u, a, out=a)
    np.abs(u, out=mag)
    np.greater(mag, lam, out=active)


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
    steps = n_meas * p
    width = u0.shape[2]
    errors = np.empty((steps, count, width))
    # the active mask of every iterate, row 0 the start's; the set sizes and
    # switch flags are reduced from it after the loop
    active = np.empty((steps + 1,) + u0.shape, dtype=np.bool_)
    # contiguous thresholds, so every elementwise loop runs over whole rows
    lam_full = np.empty(u0.shape)
    lam_full[...] = lam
    neg_lam = np.negative(lam_full)
    # broadcast each measurement and target sample across the columns
    ys = ys[..., None]
    targets = targets[..., None]
    # a - target, written column by column into contiguous rows, and each
    # row's squared norm as a stacked (1 x n)(n x 1) product
    diff = np.empty((count, width, u0.shape[1]))
    diff_cols = diff.transpose(0, 2, 1)
    sq_norms = np.empty((count, width, 1, 1))
    u = u0.copy()
    a = np.empty_like(u)
    mag = np.empty_like(u)
    r = np.empty((count, phi.shape[1], width))
    g = np.empty_like(u)
    _shrink(u, lam_full, neg_lam, a, mag, active[0])
    for k in range(n_meas):
        y = ys[k]
        tgt = targets[k]
        for i in range(p):
            np.matmul(phi, a, out=r)
            np.subtract(y, r, out=r)
            np.matmul(phi_t, r, out=g)
            np.multiply(eta, g, out=g)
            if relax == 1.0:
                np.add(a, g, out=u)
            else:
                # u + relax * ((a - u) + eta * g), in place through a
                np.subtract(a, u, out=a)
                np.add(a, g, out=a)
                np.multiply(relax, a, out=a)
                np.add(u, a, out=u)
            l = k * p + i
            _shrink(u, lam_full, neg_lam, a, mag, active[l + 1])
            np.subtract(a, tgt, out=diff_cols)
            np.matmul(diff[..., None, :], diff[..., :, None], out=sq_norms)
            np.sqrt(sq_norms[..., 0, 0], out=errors[l])
    gamma_sizes = np.add.reduce(active[1:], axis=2, dtype=np.int64)
    switches = np.logical_or.reduce(active[1:] != active[:-1], axis=2)
    # the first step against a new measurement also flags a target support change
    switches[p::p] |= target_changed[1:, :, None]
    return errors, gamma_sizes, switches, u, a
