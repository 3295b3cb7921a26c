"""Hot loop for the streaming solver: numba-jitted kernel with a numpy fallback.

The per-iteration update is

    u <- a + eta * Phi^T (y - Phi a)
    a <- soft_threshold(u, lam)

run for p consecutive iterations against each measurement.  Both backends
perform the same arithmetic; the jitted path fuses the elementwise work and
releases the GIL so trial-level thread pools scale.  Select the backend with
the STREAM_ISTA_BACKEND environment variable ("numba" or "numpy"); default
is numba when importable.

The numpy loop also takes a relaxation factor h, replacing the update of u by

    u <- u + h * (a - u + eta * Phi^T (y - Phi a))

which is one forward-Euler step of length h*tau of the continuous-time
network.  At h = 1 it is the streaming update above, so the solver runs the
network at fractional steps through the same loop.
"""

import os

import numpy as np

try:
    import numba
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None

NUMBA_AVAILABLE = numba is not None

BACKEND_ENV = "STREAM_ISTA_BACKEND"


def active_backend() -> str:
    """Resolve the kernel backend from the environment."""
    choice = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not NUMBA_AVAILABLE:
            raise RuntimeError(f"{BACKEND_ENV}=numba but numba is not importable")
        return "numba"
    if choice not in ("", "auto"):
        raise ValueError(
            f"unrecognized {BACKEND_ENV}={choice!r}; expected 'numba', 'numpy', or 'auto'"
        )
    return "numba" if NUMBA_AVAILABLE else "numpy"


def stream_numpy(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0, relax=1.0):
    """Pure-numpy streaming loop.

    Returns per-iteration arrays (errors, active-set sizes, switch flags)
    plus the final internal state and output.  Row l records the iterate
    produced at step l: its distance to the target held at step l, the size
    of its active set, and whether the active set or the target support
    changed relative to the previous step.  ``relax`` below 1 takes relaxed
    (Euler) steps; at 1 the update is the plain streaming one.
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


def _stream_jit_source(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0):
    n_meas, m = ys.shape
    n = phi.shape[1]
    total = n_meas * p
    errors = np.empty(total)
    gamma_sizes = np.empty(total, dtype=np.int64)
    switches = np.empty(total, dtype=np.bool_)
    u = u0.copy()
    a = np.empty(n)
    active = np.empty(n, dtype=np.bool_)
    for j in range(n):
        uj = u[j]
        if abs(uj) <= lam:
            a[j] = 0.0
            active[j] = False
        else:
            a[j] = uj - lam if uj > 0.0 else uj + lam
            active[j] = True
    r = np.empty(m)
    g = np.empty(n)
    for k in range(n_meas):
        for i in range(p):
            np.dot(phi, a, r)
            for jm in range(m):
                r[jm] = ys[k, jm] - r[jm]
            np.dot(phi_t, r, g)
            changed = False
            count = 0
            err2 = 0.0
            for j in range(n):
                uj = a[j] + eta * g[j]
                u[j] = uj
                if abs(uj) <= lam:
                    aj = 0.0
                    act = False
                else:
                    aj = uj - lam if uj > 0.0 else uj + lam
                    act = True
                a[j] = aj
                if act != active[j]:
                    changed = True
                active[j] = act
                if act:
                    count += 1
                d = aj - targets[k, j]
                err2 += d * d
            l = k * p + i
            errors[l] = np.sqrt(err2)
            gamma_sizes[l] = count
            switches[l] = changed or (i == 0 and k > 0 and target_changed[k])
    return errors, gamma_sizes, switches, u, a


if NUMBA_AVAILABLE:
    stream_numba = numba.njit(cache=True, nogil=True)(_stream_jit_source)
else:  # pragma: no cover - numba is a declared dependency
    stream_numba = None


def stream(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0, backend=None):
    """Dispatch the streaming loop to the requested (or active) backend."""
    if backend is None:
        backend = active_backend()
    if backend == "numpy":
        return stream_numpy(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0)
    if backend == "numba":
        if not NUMBA_AVAILABLE:
            raise RuntimeError("numba backend requested but numba is not importable")
        return stream_numba(phi, phi_t, ys, targets, target_changed, lam, eta, p, u0)
    raise ValueError(f"unknown backend {backend!r}; expected 'numba' or 'numpy'")


def warmup() -> None:
    """Trigger jit compilation on a tiny instance so timings exclude it."""
    if not NUMBA_AVAILABLE:
        return
    phi = np.eye(2)
    ys = np.zeros((1, 2))
    targets = np.zeros((1, 2))
    changed = np.zeros(1, dtype=np.bool_)
    stream_numba(phi, phi, ys, targets, changed, 0.5, 1.0, 1, np.zeros(2))
