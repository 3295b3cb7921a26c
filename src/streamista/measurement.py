"""Measurement operators, noisy observations, and restricted-isometry estimates.

A measurement matrix maps a length-n signal to m < n linear observations.
The restricted isometry constant at sparsity level s is

    delta_s = max over supports T, |T| = s, of max(1 - lmin(G_T), lmax(G_T) - 1)

where G_T is the s x s Gram block of the matrix restricted to columns T.
``rip_exact`` enumerates every support, and eigen-solves only those whose
Gershgorin bound can reach the maximum.

Random matrices and noise vectors are drawn many to a block from Philox
keys (:mod:`.rng`): :func:`gaussian_matrices` and :func:`noise_rows`.
:func:`gen_gaussian_matrix` and :func:`gen_noise` are their one-row cases,
drawn from the key :func:`.rng.philox_keys` makes of the seed, so every
block row has the bits of its one-seed call.  A block keeps those bits
because each of its reductions sums in the one-seed order.  Every vector
norm of the package is :func:`row_norms`, the dot product numpy's
``linalg`` ``norm`` takes of one vector, with one exception: a matrix's
column norms are ``np.add.reduce`` over the row axis, the order that
``norm(axis=0)`` sums in, which the matrices' pinned bits fix.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
import math

import numpy as np

from .rng import philox_keys, standard_normals

DEFAULT_SUPPORT_BUDGET = 10**6

# supports are processed in batches so eigvalsh runs vectorized
_BATCH = 8192

# per batch, the supports with the largest Gershgorin bounds solved first
_LEAD = 4

# relative slack for the rounding of a Gershgorin bound and of an
# eigenvalue; both errors are a few s * 2**-52 times (1 + deviation)
_ROUNDING = 1e-9

NOISE_MODES = ("gaussian_scaled", "capped")


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of ``rows`` ``(..., k)``, over any leading shape.

    Each is ``np.vecdot`` of a row with itself, the BLAS dot product that
    numpy's ``linalg`` ``norm`` takes of one vector, so a row whose entries
    are contiguous gets the bits of ``norm(row)``; a strided row may sum in
    another order.
    """
    return np.sqrt(np.vecdot(rows, rows))


class SupportBudgetError(ValueError):
    """Exact enumeration would exceed ``DEFAULT_SUPPORT_BUDGET`` supports."""


@dataclass(frozen=True)
class MeasurementMatrix:
    """Dense measurement operator with unit-norm columns."""

    rows: int
    cols: int
    entries: np.ndarray
    seed: int = 0  # 0 for deterministic constructions

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.shape != (self.rows, self.cols):
            raise ValueError(
                f"entries shape {ent.shape} does not match ({self.rows}, {self.cols})"
            )
        norms = row_norms(ent.T)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"columns must have unit norm (worst deviation {worst:.3e})")
        object.__setattr__(self, "entries", ent)


@dataclass(frozen=True)
class RipEstimate:
    """Exact restricted isometry constant at one sparsity level."""

    sparsity_level: int
    delta: float


def gen_gaussian_matrix(m: int, n: int, seed: int) -> MeasurementMatrix:
    """i.i.d. standard normal entries from ``make_rng(seed)``, columns rescaled to unit norm.

    ``seed`` lies in [0, 2**64).  This is the one-matrix case of
    :func:`gaussian_matrices`.
    """
    return MeasurementMatrix(m, n, gaussian_matrices(m, n, philox_keys([seed]))[0], seed)


def gaussian_matrices(m: int, n: int, keys) -> np.ndarray:
    """Stacked matrices ``(rows, m, n)``: matrix i is drawn from Philox key ``keys[i]``.

    Each is ``gen_gaussian_matrix(m, n, seed).entries`` for the seed the key
    stands for.  The columns are checked for unit norm, as
    :class:`MeasurementMatrix` checks them.  The squares are taken one
    matrix at a time into an ``(m, n)`` scratch, so no temporary grows with
    the number of matrices.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got ({m}, {n})")
    out = np.empty((len(keys), m, n))
    standard_normals(keys, out)
    square = np.empty((m, n))
    norms = np.empty((len(out), 1, n))

    def column_norms():
        for matrix, norm in zip(out, norms):
            np.add.reduce(np.multiply(matrix, matrix, out=square), axis=0, out=norm[0])
        return np.sqrt(norms, out=norms)

    out /= column_norms()
    deviation = np.abs(column_norms() - 1.0)
    if not np.all(deviation <= 1e-12):
        raise ValueError(f"columns must have unit norm (worst deviation {deviation.max():.3e})")
    return out


def gen_identity(n: int) -> MeasurementMatrix:
    """Identity operator; its isometry constant is 0 at every level."""
    if n < 1:
        raise ValueError(f"matrix dimension must be positive, got {n}")
    return MeasurementMatrix(n, n, np.eye(n), 0)


def measure(phi: MeasurementMatrix, target: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Observe ``phi @ target + noise``."""
    target = np.asarray(target, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if target.shape != (phi.cols,):
        raise ValueError(f"target shape {target.shape} does not match ({phi.cols},)")
    if noise.shape != (phi.rows,):
        raise ValueError(f"noise shape {noise.shape} does not match ({phi.rows},)")
    return phi.entries @ target + noise


def gen_noise(m: int, sigma: float, delta: float, mode: str, seed: int) -> np.ndarray:
    """Draw one noise vector from ``make_rng(seed)``; ``seed`` lies in [0, 2**64).

    ``gaussian_scaled`` draws i.i.d. entries with standard deviation ``sigma``
    (the simulation regime, where the energy bound holds only in high
    probability).  ``capped`` scales the standard normal draw by
    ``min(sigma, cap / ||draw||)``, ``cap = (1 + delta)**-0.5 * sigma``, so
    the bound holds surely (the regime the tracking bounds assume).  This is
    the one-row case of :func:`noise_rows`.
    """
    return noise_rows(m, sigma, delta, mode, philox_keys([seed]))[0]


def noise_rows(m: int, sigma, delta, mode: str, keys) -> np.ndarray:
    """Noise vectors ``(rows, m)``: row i is drawn from Philox key ``keys[i]``.

    ``sigma`` and ``delta`` are scalars or one value per row.  Each row is
    its standard normal draw times one scale: ``sigma``, or under
    ``capped``, ``cap / ||draw||`` where ``sigma * ||draw|| > cap``, with
    ``cap = sigma / sqrt(1 + delta)`` and ``||draw||`` the :func:`row_norms`
    of the unscaled draw.  So every row has the bits of its one-row call,
    and every capped row's norm stays within rounding of the smaller of
    ``sigma * ||draw||`` and the cap, at every level.  Numpy's overflow
    warnings are silenced for ``sigma * ||draw||`` only; the scaling keeps
    them.
    """
    if m < 1:
        raise ValueError(f"noise length must be positive, got {m}")
    rows = (len(keys),)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), rows)
    delta = np.broadcast_to(np.asarray(delta, dtype=np.float64), rows)
    bad = sigma[~((sigma >= 0) & np.isfinite(sigma))]
    if bad.size:
        raise ValueError(f"sigma must be nonnegative and finite, got {bad[0]}")
    bad = delta[~((delta >= 0.0) & (delta < 1.0))]
    if bad.size:
        raise ValueError(f"delta must lie in [0, 1), got {bad[0]}")
    if mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {mode!r}; expected one of {NOISE_MODES}")
    eps = standard_normals(keys, np.empty(rows + (m,)))
    scale = sigma
    if mode == "capped":
        cap = sigma / np.sqrt(1.0 + delta)
        nrm = row_norms(eps)
        with np.errstate(over="ignore"):
            over = sigma * nrm > cap
        scale = np.divide(cap, nrm, out=sigma.copy(), where=over)
    eps *= scale[:, None]
    return eps


@lru_cache(maxsize=32)
def _one_batch_level(n: int, s: int) -> np.ndarray:
    supports = np.asarray(list(combinations(range(n), s)), dtype=np.intp)
    supports.setflags(write=False)
    return supports


def _support_batches(n: int, s: int):
    """Every size-``s`` support of ``range(n)``, in lexicographic batches.

    A level that fits one batch is built once per ``(n, s)`` and reused
    read-only, since the suites ask for the same level for every instance.
    """
    if math.comb(n, s) <= _BATCH:
        yield _one_batch_level(n, s)
        return
    it = combinations(range(n), s)
    while True:
        # flat indices straight into the array, no tuple list in between
        batch = np.fromiter(chain.from_iterable(islice(it, _BATCH)), dtype=np.intp)
        if not batch.size:
            return
        yield batch.reshape(-1, s)


def _batch_extremes(gram: np.ndarray, supports: np.ndarray):
    """Extreme eigenvalues of the Gram blocks for a batch of supports."""
    blocks = gram[supports[:, :, None], supports[:, None, :]]
    ev = np.linalg.eigvalsh(blocks)
    return ev[:, 0], ev[:, -1]


def _deviations(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """``max(1 - lmin, lmax - 1)`` of each support's Gram block."""
    bmin, bmax = _batch_extremes(gram, supports)
    return np.maximum(1.0 - bmin, bmax - 1.0)


def _gershgorin_bounds(radius: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Upper bound on each support's deviation, by Gershgorin's theorem.

    Every eigenvalue of G_T lies within ``|G_ii - 1| + sum_{j in T, j != i}
    |G_ij|`` of 1 for some i in T.  ``radius`` is ``|G|`` with ``|G_ii - 1|``
    on its diagonal, so that sum is row i of ``radius`` summed over T.  No
    Gram block is gathered.  A product with the supports' 0/1 membership
    rows costs n * n flops per support; gathering one column of T at a time
    costs s * s indexed loads, each measured about as dear as 36 flops, so
    the product runs while n <= 6 s.
    """
    count, s = supports.shape
    n = len(radius)
    if n <= 6 * s:
        member = np.zeros((count, n))
        np.put_along_axis(member, supports, 1.0, axis=1)
        radii = np.take_along_axis(member @ radius, supports, axis=1)
    else:
        radii = radius[supports, supports[:, :1]]
        for k in range(1, s):
            radii += radius[supports, supports[:, k : k + 1]]
    return radii.max(axis=1)


def _below(bound, dev: float):
    """Where a bound rules out reaching ``dev``, rounding included."""
    return bound < dev - _ROUNDING * (1.0 + abs(dev))


def rip_exact(phi: MeasurementMatrix, s: int) -> RipEstimate:
    """Exact isometry constant over all supports of size ``s``.

    Refuses with :class:`SupportBudgetError` when ``comb(n, s)`` exceeds
    ``DEFAULT_SUPPORT_BUDGET``, read at call time.  The budget counts every
    support of the level, solved or not.

    Supports run in lexicographic batches.  Each support's Gershgorin bound
    caps its deviation.  A batch first solves the few supports with the
    largest bounds; the larger of their deviations and the best so far is a
    floor.  Only supports whose bound reaches the floor, less a
    rounding slack, are eigen-solved, and a batch whose bounds all fall
    below the best so far solves none.  A skipped support's computed
    deviation lies strictly below the maximum, and every support that
    reaches it is solved by the same LAPACK call on the same block, in
    lexicographic order.  So the constant and the first support that
    reaches it are those of solving every support.
    """
    return rip_exact_witness(phi, s)[0]


def rip_exact_witness(phi: MeasurementMatrix, s: int):
    """Exact constant plus a support and unit vector achieving it.

    Returns ``(estimate, support, coeffs)`` where ``coeffs`` are the
    eigenvector weights on ``support`` for the binding eigenvalue.
    """
    if not 1 <= s <= phi.cols:
        raise ValueError(f"sparsity level must lie in [1, {phi.cols}], got {s}")
    total = math.comb(phi.cols, s)
    if total > DEFAULT_SUPPORT_BUDGET:
        raise SupportBudgetError(
            f"enumerating {total} supports exceeds the budget {DEFAULT_SUPPORT_BUDGET}"
        )
    gram = phi.entries.T @ phi.entries
    radius = np.abs(gram)
    np.fill_diagonal(radius, np.abs(np.diagonal(gram) - 1.0))
    best_dev, best_support = -np.inf, None
    for supports in _support_batches(phi.cols, s):
        bound = _gershgorin_bounds(radius, supports)
        if _below(bound.max(), best_dev):
            continue
        if len(supports) > _LEAD:
            lead = supports[np.argpartition(bound, -_LEAD)[-_LEAD:]]
            floor = max(best_dev, float(_deviations(gram, lead).max()))
            supports = supports[~_below(bound, floor)]
        dev = _deviations(gram, supports)
        i = int(np.argmax(dev))
        if dev[i] > best_dev:
            best_dev = float(dev[i])
            best_support = supports[i].copy()
    block = gram[np.ix_(best_support, best_support)]
    evals, evecs = np.linalg.eigh(block)
    if 1.0 - evals[0] >= evals[-1] - 1.0:
        coeffs = evecs[:, 0]
    else:
        coeffs = evecs[:, -1]
    return RipEstimate(s, best_dev), best_support, coeffs
