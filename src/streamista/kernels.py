"""Hot loop for the streaming solver: one numpy kernel.

Per iteration, with relaxation factor h,

    u <- u + h * (a - u + eta * Phi^T (y - Phi a)),    a <- soft_threshold(u, lam)

run p times against each measurement.  At h = 1 this is the streaming
update u <- a + eta * Phi^T (y - Phi a); below 1 it is one forward-Euler
step of length h*tau of the continuous-time network, so the solver runs
the network at fractional steps through the same loop.

The iterate is one vector of shape (n,), or a block of shape (n, L) whose
column j runs under threshold lam[j].  A block shares the matrix, the
measurements and the target across its columns, so each step is two gemms
instead of L pairs of gemvs; every per-step record then gains a trailing
L axis.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def stream(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0, relax=1.0):
    """Per-step arrays (errors, active-set sizes, switch flags) and the final u, a.

    Row l records the iterate produced at step l: its distance to the target
    held at step l, the size of its active set, and whether the active set
    or the target support changed relative to the previous step.  ``u0`` is
    ``(n,)`` with a scalar ``lam``, or ``(n, L)`` with ``lam`` of shape
    ``(L,)``; in the second case each record is ``(n_meas * p, L)``.
    """
    n_meas = ys.shape[0]
    shape = (n_meas * p,) + u0.shape[1:]
    errors = np.empty(shape)
    gamma_sizes = np.empty(shape, dtype=np.int64)
    switches = np.empty(shape, dtype=np.bool_)
    if u0.ndim == 1:
        def norms(d):
            return np.sqrt(np.dot(d, d))
    else:
        # broadcast each measurement and target sample across the columns
        ys = ys[:, :, None]
        targets = targets[:, :, None]

        def norms(d):
            return np.sqrt(np.einsum("ij,ij->j", d, d))
    u = u0.copy()
    a = np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))
    active = np.abs(u) > lam
    for k in range(n_meas):
        y = ys[k]
        tgt = targets[k]
        moved = k > 0 and bool(target_changed[k])
        for i in range(p):
            r = y - phi @ a
            if relax == 1.0:
                u = a + eta * (phi_t @ r)
            else:
                u = u + relax * (a - u + eta * (phi_t @ r))
            a = np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))
            new_active = np.abs(u) > lam
            l = k * p + i
            errors[l] = norms(a - tgt)
            gamma_sizes[l] = new_active.sum(axis=0)
            switches[l] = (new_active != active).any(axis=0) | (i == 0 and moved)
            active = new_active
    return errors, gamma_sizes, switches, u, a
