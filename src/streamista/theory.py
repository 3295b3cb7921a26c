"""Closed-form tracking-error bounds and their checkable preconditions.

For the streaming solver with step size eta and isometry constant delta at
the level (sparsity + 2 * active budget), the contraction factor is

    c = |eta - 1| + delta * eta

and, with noise energy bound sigma, threshold lam, and active budget q,

    V = (1 - c)^-1 * (eta * sigma + lam * sqrt(q))          steady offset
    W = c / (1 - c**P) * mu * dl + V                        initial offset

give the per-iteration guarantee (i = l mod P)

    error[l] <= c**l * (error[0] - W) + c**(i+1) / (1 - c**P) * mu * dl + V

whose pre-measurement subsequence settles at V + c**P/(1 - c**P) * mu * dl.
The continuous-time analogue contracts at rate (1 - delta)/tau toward

    D = (1 - delta)^-1 * (tau * mu + sigma + lam * sqrt(q)).

All dominance checks in the package compare against these expressions with
an absolute tolerance of 1e-9; precondition failures are reported as data,
never raised.  Both bounds evaluate at one iteration or time, or at a whole
trace's array of them in one call.

The lemma oracles take a point or a block of rows: ``support_cap_check``
one vector or one grid point per row, ``rip_inequality_suite`` one draw
(sets, vector, measurement) or draws stacked one per row.  Each has one
code path, and a single point is its one-row case.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .measurement import MeasurementMatrix
from .solver import active_set, top_q_energy, top_q_indices

BOUND_TOL = 1e-9


def contraction_factor(eta: float, delta: float) -> float:
    """c = |eta - 1| + delta * eta; requires 0 < eta < 2 / (1 + delta)."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if not 0.0 < eta < 2.0 / (1.0 + delta):
        raise ValueError(
            f"step size must lie in (0, 2/(1+delta)) = (0, {2.0 / (1.0 + delta)}), got {eta}"
        )
    return abs(eta - 1.0) + delta * eta


def steady_offset(eta: float, sigma: float, lam: float, q: int, c: float) -> float:
    """V = (1 - c)^-1 * (eta * sigma + lam * sqrt(q))."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"contraction factor must lie in [0, 1), got {c}")
    return (eta * sigma + lam * math.sqrt(q)) / (1.0 - c)


def drift_offset(c: float, P: int, mu: float, dl: float, V: float) -> float:
    """W = c / (1 - c**P) * mu * dl + V."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"contraction factor must lie in [0, 1), got {c}")
    if P < 1:
        raise ValueError(f"P must be a positive integer, got {P}")
    return c / (1.0 - c**P) * mu * dl + V


@dataclass(frozen=True)
class IstaBoundParams:
    """Everything the discrete tracking bound needs, with derived constants."""

    eta: float
    delta: float
    sigma: float
    lam: float
    q: int
    mu: float
    dl: float
    P: int
    e1: float  # ||a[1] - target[0]||, the first recorded error
    c: float = field(init=False)
    V: float = field(init=False)
    W: float = field(init=False)

    def __post_init__(self):
        c = contraction_factor(self.eta, self.delta)
        V = steady_offset(self.eta, self.sigma, self.lam, self.q, c)
        W = drift_offset(c, self.P, self.mu, self.dl, V)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)


@dataclass(frozen=True)
class LcaBoundParams:
    """Everything the continuous-time tracking bound needs."""

    delta: float
    tau: float
    sigma: float
    lam: float
    q: int
    mu: float
    e0: float  # ||a(0) - target(0)||
    D: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "D", lca_steady_bound(self.delta, self.tau, self.mu, self.sigma, self.lam, self.q)
        )


def ista_error_bound(l, params: IstaBoundParams):
    """Tracking-error bound at iteration l (error[l] = ||a[l+1] - target[l]||).

    ``l`` is one integer or an integer array, such as a whole trace's
    iteration indices; the bound comes back in the same shape.
    """
    if np.any(np.asarray(l) < 0):
        raise ValueError(f"iteration index must be nonnegative, got {np.min(l)}")
    c, P = params.c, params.P
    i = l % P
    drift = c ** (i + 1) / (1.0 - c**P) * params.mu * params.dl
    return c**l * (params.e1 - params.W) + drift + params.V


def ista_steady_state(params: IstaBoundParams) -> float:
    """Limit of the pre-measurement bound: V + c**P / (1 - c**P) * mu * dl."""
    c = params.c
    return params.V + c**params.P / (1.0 - c**params.P) * params.mu * params.dl


def lca_steady_bound(delta: float, tau: float, mu: float, sigma: float, lam: float, q: int) -> float:
    """D = (1 - delta)^-1 * (tau * mu + sigma + lam * sqrt(q))."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    return (tau * mu + sigma + lam * math.sqrt(q)) / (1.0 - delta)


def lca_error_bound(t, params: LcaBoundParams):
    """Continuous-time tracking bound at time t, a float or a float array."""
    if np.any(np.asarray(t) < 0):
        raise ValueError(f"time must be nonnegative, got {np.min(t)}")
    decay = np.exp(-(1.0 - params.delta) * t / params.tau)
    return decay * params.e0 + (1.0 - decay) * params.D


@dataclass(frozen=True)
class ConditionCheck:
    """One verified inequality: passes when lhs <= rhs (or < when strict)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False

    @property
    def passed(self) -> bool:
        return self.lhs < self.rhs if self.strict else self.lhs <= self.rhs

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def line(self) -> str:
        """The ``condition,lhs,rhs,pass`` row of ``preconditions.csv``."""
        return f"{self.name},{repr(float(self.lhs))},{repr(float(self.rhs))},{int(self.passed)}"


@dataclass(frozen=True)
class PreconditionReport:
    """Structured pass/fail record; failures are data, not errors."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_ista_preconditions(
    delta: float,
    q: int,
    beta: float,
    sigma: float,
    lam: float,
    eta: float,
    init_u: np.ndarray,
) -> PreconditionReport:
    """Evaluate the hypotheses of the discrete tracking guarantee.

    ``delta`` must be the isometry constant at level s + 2q.  The contraction
    factor is computed inline so out-of-range steps show up as failed rows
    rather than exceptions.
    """
    init_u = np.asarray(init_u, dtype=np.float64)
    init_gamma_size = active_set(init_u, lam).size
    c = abs(eta - 1.0) + delta * eta
    q_eff = min(q, init_u.size)
    lam_rq = lam * math.sqrt(q)
    checks = (
        ConditionCheck("eta_positive", 0.0, eta, strict=True),
        ConditionCheck("eta_step_bound", eta, 2.0 / (1.0 + delta), strict=True),
        ConditionCheck("initial_active_within_budget", float(init_gamma_size), float(q)),
        ConditionCheck("initial_energy_within_threshold", top_q_energy(init_u, q_eff), lam_rq),
        ConditionCheck(
            "drift_noise_margin", eta * (1.0 + delta) * beta + eta * sigma, (1.0 - c) * lam_rq
        ),
    )
    return PreconditionReport(checks)


def check_lca_preconditions(
    delta: float,
    q: int,
    beta: float,
    sigma: float,
    lam: float,
    e0: float,
    D: float,
    init_u: np.ndarray,
) -> PreconditionReport:
    """Evaluate the hypotheses of the continuous-time tracking guarantee.

    ``delta`` must be the isometry constant at level s + q.
    """
    init_u = np.asarray(init_u, dtype=np.float64)
    init_gamma_size = active_set(init_u, lam).size
    q_eff = min(q, init_u.size)
    lam_rq = lam * math.sqrt(q)
    checks = (
        ConditionCheck("delta_below_one", delta, 1.0, strict=True),
        ConditionCheck("initial_active_within_budget", float(init_gamma_size), float(q)),
        ConditionCheck("initial_energy_within_threshold", top_q_energy(init_u, q_eff), lam_rq),
        ConditionCheck("decay_margin", delta * max(e0, D) + beta + sigma, lam_rq),
    )
    return PreconditionReport(checks)


def _row_masks(index_rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean ``(N, n)`` masks with row r set at the indices ``index_rows[r]``."""
    mask = np.zeros((index_rows.shape[0], n), dtype=np.bool_)
    mask[np.arange(index_rows.shape[0])[:, None], index_rows] = True
    return mask


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def rip_inequality_suite(
    phi: MeasurementMatrix,
    gamma1: np.ndarray,
    gamma2: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    delta: float,
) -> PreconditionReport:
    """Four near-isometry consequences for sets gamma1, gamma2.

    ``delta`` must be an exact isometry constant at level
    |gamma1| + |gamma2|; ``x`` must be supported on their union and ``y`` may
    be any measurement-space vector.  Checks, writing P_T for restriction to
    T and using the column-zeroed submatrix Phi_T:

      1. (1 - delta)||x||^2 <= ||Phi x||^2 <= (1 + delta)||x||^2
      2. ||Phi_g1^T Phi_(g2 \\ g1) x|| <= delta ||x||
      3. ||P_g1 x - P_g1 Phi^T Phi x|| <= delta ||x||
      4. ||P_g1 Phi^T y|| <= sqrt(1 + delta) ||y||

    Takes one draw (1-d ``gamma1``, ``gamma2``, ``x``, ``y``), whose checks
    hold floats, or a block of draws stacked one per row, whose checks hold
    one value per row.  A single draw is the block's one-row case.
    """
    single = np.ndim(x) == 1
    gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=np.intp))
    gamma2 = np.atleast_2d(np.asarray(gamma2, dtype=np.intp))
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    rows = x.shape[0]
    if x.shape[1:] != (phi.cols,):
        raise ValueError(f"x shape {x.shape} does not match ({phi.cols},) per row")
    if y.shape != (rows, phi.rows):
        raise ValueError(f"y shape {y.shape} does not match ({rows}, {phi.rows})")
    if gamma1.shape[0] != rows or gamma2.shape[0] != rows:
        raise ValueError(
            f"gamma1 and gamma2 need one row per draw ({rows}), got {gamma1.shape} and {gamma2.shape}"
        )
    for gamma in (gamma1, gamma2):
        if gamma.size and not (gamma.min() >= 0 and gamma.max() < phi.cols):
            raise ValueError(f"gamma1 and gamma2 must hold indices in [0, {phi.cols})")
    g1 = _row_masks(gamma1, phi.cols)
    g2 = _row_masks(gamma2, phi.cols)
    stray = (x != 0.0) & ~(g1 | g2)
    if stray.any():
        r = int(np.flatnonzero(stray.any(axis=1))[0])
        where = "" if single else f" in row {r}"
        raise ValueError(
            f"x has support outside gamma1 | gamma2{where} at indices {np.flatnonzero(stray[r])[:8]}"
        )

    ent = phi.entries
    xn = _row_norms(x)
    phix = x @ ent.T
    phix2 = np.einsum("ij,ij->i", phix, phix)
    # Phi^T Phi v as (v Phi^T) Phi, one row per draw
    cross = np.where(g1, (np.where(g2 & ~g1, x, 0.0) @ ent.T) @ ent, 0.0)
    gram_dev = np.where(g1, x - phix @ ent, 0.0)
    adj = np.where(g1, y @ ent, 0.0)

    values = (
        ("isometry_lower", (1.0 - delta) * xn**2, phix2),
        ("isometry_upper", phix2, (1.0 + delta) * xn**2),
        ("cross_coherence", _row_norms(cross), delta * xn),
        ("gram_deviation", _row_norms(gram_dev), delta * xn),
        ("adjoint_bound", _row_norms(adj), math.sqrt(1.0 + delta) * _row_norms(y)),
    )
    if single:
        values = tuple((name, float(lhs[0]), float(rhs[0])) for name, lhs, rhs in values)
    return PreconditionReport(tuple(ConditionCheck(*value) for value in values))


@dataclass(frozen=True)
class SupportCapResult:
    """Outcome of the active-set cap check.

    For one vector: ``premise_holds`` and ``conclusion_holds`` are bools,
    the conclusion None off-premise, and ``active`` and ``top_set`` are
    index arrays.  For a block of rows: ``premise_holds`` and
    ``conclusion_holds`` are boolean arrays with one entry per row, the
    conclusion evaluated on every row but claimed only where the premise
    holds; ``active`` is a boolean ``(N, n)`` mask and ``top_set`` an
    ``(N, min(q, n))`` array of sorted indices.
    """

    premise_holds: bool | np.ndarray
    conclusion_holds: bool | np.ndarray | None
    active: np.ndarray
    top_set: np.ndarray


def support_cap_check(u: np.ndarray, lam: float, q: int) -> SupportCapResult:
    """If the top-q energy of u stays within lam*sqrt(q), the active set of
    T_lam(u) has at most q entries and sits inside the top-q index set.

    ``u`` is one vector or a block with one point per row; a single vector
    is the block's one-row case.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    rows = u if u.ndim > 1 else u[None]
    q_eff = min(q, rows.shape[1])
    top = top_q_indices(rows, q_eff)
    premise = top_q_energy(rows, q_eff) <= lam * math.sqrt(q)
    active = np.abs(rows) > lam
    if u.ndim == 1 and not premise[0]:
        return SupportCapResult(False, None, np.nonzero(active[0])[0], top[0])
    # the top set has min(q, n) entries, so inside it the active set is within q
    conclusion = ~(active > _row_masks(top, rows.shape[1])).any(axis=1)
    if u.ndim > 1:
        return SupportCapResult(premise, conclusion, active, top)
    return SupportCapResult(True, bool(conclusion[0]), np.nonzero(active[0])[0], top[0])


@dataclass(frozen=True)
class EnvelopeCheckResult:
    """Status of the target-energy envelope check.

    status is "holds", "violated", or "not_applicable" (premise failed, in
    which case the envelope claim is vacuous rather than broken).
    """

    status: str
    max_premise_excess: float
    max_bound_excess: float


def target_energy_envelope_check(
    trajectory: np.ndarray, tau: float, mu: float, dt: float, tol: float = 1e-6
) -> EnvelopeCheckResult:
    """Check ||x(t)|| <= exp(-t/tau) * (||x(0)|| - tau*mu) + tau*mu on samples.

    The premise, verified by forward differences, is that
    ||dx/dt|| + ||x||/tau <= mu along the trajectory.  ``trajectory`` holds
    one sample per row at spacing ``dt``.
    """
    x = np.asarray(trajectory, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("trajectory must be 2-d with at least two samples")
    if tau <= 0 or dt <= 0:
        raise ValueError(f"tau and dt must be positive, got tau={tau}, dt={dt}")
    norms = np.linalg.norm(x, axis=1)
    fd = np.linalg.norm(np.diff(x, axis=0), axis=1) / dt
    premise_vals = fd + norms[:-1] / tau
    premise_excess = float(np.max(premise_vals - mu * (1.0 + tol)))
    if premise_excess > 0:
        return EnvelopeCheckResult("not_applicable", premise_excess, float("nan"))
    t = dt * np.arange(x.shape[0])
    envelope = np.exp(-t / tau) * (norms[0] - tau * mu) + tau * mu
    bound_excess = float(np.max(norms - envelope - tol * max(1.0, tau * mu)))
    status = "violated" if bound_excess > 0 else "holds"
    return EnvelopeCheckResult(status, premise_excess, bound_excess)
