"""Hot loop for the streaming solver: one numpy kernel.

Per iteration, with relaxation factor h,

    u <- u + h * (a - u + eta * Phi^T (y - Phi a)),    a <- soft_threshold(u, lam)

run p times against each measurement.  At h = 1 this is the streaming
update u <- a + eta * Phi^T (y - Phi a); below 1 it is one forward-Euler
step of length h*tau of the continuous-time network, so the solver runs
the network at fractional steps through the same loop.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def stream(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0, relax=1.0):
    """Per-step arrays (errors, active-set sizes, switch flags) and the final u, a.

    Row l records the iterate produced at step l: its distance to the target
    held at step l, the size of its active set, and whether the active set
    or the target support changed relative to the previous step.
    """
    n_meas = ys.shape[0]
    total = n_meas * p
    errors = np.empty(total)
    gamma_sizes = np.empty(total, dtype=np.int64)
    switches = np.empty(total, dtype=np.bool_)
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
            a = np.where(np.abs(u) <= lam, 0.0, u - lam * np.sign(u))
            new_active = np.abs(u) > lam
            l = k * p + i
            d = a - tgt
            errors[l] = np.sqrt(np.dot(d, d))
            gamma_sizes[l] = np.count_nonzero(new_active)
            switches[l] = bool(np.any(new_active != active)) or (
                i == 0 and k > 0 and bool(target_changed[k])
            )
            active = new_active
    return errors, gamma_sizes, switches, u, a
