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
T = 1 and L = 1.  A block is three arrays, laid out as :func:`stream`
describes: matrices, measurements and targets, nothing else.  Every caller
reaches the loop as ``kernels.stream``.  The kernel returns the errors and
the active masks of every iterate and leaves their reading to its callers:
``harness._run_block`` takes the largest active set, and
``solver.run_streaming`` the set sizes, the final active set and the
switch rule, which also needs the target's support schedule.  Given a
``peak`` buffer, the kernel computes only each hold's last error, the one
``run`` and the sweeps keep, and folds every other step's ``|u|`` into
``peak``, from which ``harness._run_block`` screens those steps.

Each trial of a block gets the same bits as its one-trial call, and a block
of one column the same bits as a one-vector run, because every product is
a per-trial BLAS call of the same shape:

* the kernel copies the stacked transpose into a contiguous ``(T, n, m)``
  array once per call, never a ``swapaxes`` view, which BLAS would read
  with other strides;
* an error norm is ``np.vecdot`` on a contiguous row of a ``(T, L, n)``
  buffer, the dot product of ``measurement.row_norms``; a ``vecdot`` over
  the strided rows of the ``(T, n, L)`` iterate sums in another order.

A step makes about thirteen numpy calls, each writing into a buffer
allocated once per call, three of them for the error norm (the
difference, then its ``vecdot`` and square root in place in the error
record); a step whose error is skipped makes one ``np.maximum`` into
``peak`` in their place.
Either way the kernel keeps the bits of the textbook step:

* the shrinkage is ``u - min(max(u, -lam), lam)``, which equals
  ``where(|u| <= lam, 0, u - lam * sign(u))`` bit for bit for a finite
  positive threshold, ``+0.0``, ``±inf`` and NaN included (:func:`_shrink`);
* the thresholds and their negatives are contiguous ``(T, n, L)`` arrays,
  built once per call, so the elementwise loops run over whole rows, not a
  zero-stride ``(T, 1, L)`` broadcast of ``L`` elements;
* the active masks ``|u| > lam`` of every iterate go into one
  ``(steps + 1, T, n, L)`` bool record, a byte per entry and step.  A NaN
  entry is inactive, as ``solver.active_set`` counts it, though its output
  is NaN, so the mask is not ``a != 0``.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


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


def stream(phi, ys, targets, lam, eta, p, u0, relax=1.0, peak=None):
    """Errors, the active masks of every iterate, and the final u, a.

    The T streams' matrices stack as ``phi`` ``(T, m, n)``, C-contiguous,
    so each trial's product is the BLAS call of its one-trial run; the
    per-step inputs are step-major: measurements ``ys`` ``(n_meas, T, m)``
    and target samples ``targets`` ``(n_meas, T, n)``, read only
    elementwise, so any strides give the same bits.  ``u0`` is
    ``(T, n, L)``; ``lam`` broadcasts against ``(T, 1, L)``, so it may be a
    scalar, one threshold per column, or one per trial.  Error row l holds
    the distance of the iterate produced at step l to the target held at
    step l: ``(n_meas * p, T, L)``.  Mask row 0 holds ``|u| > lam`` of
    ``u0`` and row l + 1 that of the iterate produced at step l:
    ``(n_meas * p + 1, T, n, L)``.

    ``peak``, a ``u0``-shaped array of zeros, selects hold ends: error row k
    is then row ``k * p + p - 1`` of the default record, bit for bit,
    ``(n_meas, T, L)``, and ``peak`` ends as the elementwise largest
    ``|u|`` over every other step, NaN where one of them is NaN.
    """
    n_meas, count = ys.shape[:2]
    steps = n_meas * p
    width = u0.shape[2]
    hold_ends = peak is not None
    errors = np.empty((n_meas if hold_ends else steps, count, width))
    active = np.empty((steps + 1,) + u0.shape, dtype=np.bool_)
    # contiguous, so each trial's product is the BLAS call of its one-trial run
    adjoint = np.ascontiguousarray(phi.transpose(0, 2, 1))
    # contiguous thresholds, so every elementwise loop runs over whole rows
    lam_full = np.empty(u0.shape)
    lam_full[...] = lam
    neg_lam = np.negative(lam_full)
    # broadcast each measurement and target sample across the columns
    ys = ys[..., None]
    targets = targets[..., None]
    # a - target, written column by column into contiguous rows
    diff = np.empty((count, width, u0.shape[1]))
    diff_cols = diff.transpose(0, 2, 1)
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
            np.matmul(adjoint, r, out=g)
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
            if hold_ends and i < p - 1:
                # mag is |u|, left by the shrinkage
                np.maximum(peak, mag, out=peak)
                continue
            row = errors[k if hold_ends else l]
            np.subtract(a, tgt, out=diff_cols)
            np.vecdot(diff, diff, out=row)
            np.sqrt(row, out=row)
    return errors, active, u, a
