"""Synthetic time-varying sparse targets.

A target is a sequence of length-n vectors with exactly s nonzero entries
each.  Amplitudes follow a norm-preserving first-order recursion

    alpha[l+1] = sqrt((beta**2 - mu**2) / beta**2) * alpha[l] + (mu / sqrt(s)) * v[l]

with v[l] i.i.d. standard normal, so each sample carries energy beta in
expectation while consecutive samples drift by about mu.  Most amplitude
sequences sit on fixed indices; the rest alternate between two indices under
a sinusoidal envelope, which makes the support change over time.
"""

from dataclasses import dataclass
import math

import numpy as np

from .rng import make_rng

# substream tags so standalone calls match assemble_target exactly
_AMPLITUDE_STREAM = 0
_SUPPORT_STREAM = 1


@dataclass(frozen=True)
class GenConfig:
    """Shape and drift parameters for one synthetic target."""

    n: int
    s: int
    n_pairs: int
    n_samples: int
    beta: float = 1.0
    mu: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.s <= self.n:
            raise ValueError(f"s must lie in [1, {self.n}], got {self.s}")
        if not 0 <= self.n_pairs <= self.s:
            raise ValueError(f"n_pairs must lie in [0, {self.s}], got {self.n_pairs}")
        if self.n < self.s + self.n_pairs:
            raise ValueError(
                f"need n >= s + n_pairs distinct indices, got n={self.n}, "
                f"s={self.s}, n_pairs={self.n_pairs}"
            )
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 <= self.mu < self.beta:
            raise ValueError(f"mu must lie in [0, beta), got mu={self.mu}, beta={self.beta}")


@dataclass(frozen=True)
class SupportPlan:
    """Index assignment for the amplitude sequences of one target."""

    fixed_indices: np.ndarray  # (s - n_pairs,)
    pair_indices: np.ndarray  # (n_pairs, 2)
    phases: np.ndarray  # (n_pairs,) uniform on [0, period)
    period: float  # envelope period, equal to n_samples


@dataclass(frozen=True)
class DynamicTarget:
    """Realized target sequence plus its support schedule."""

    samples: np.ndarray  # (n_samples, n)
    support_schedule: np.ndarray  # (n_samples, s), sorted indices
    s: int
    beta: float
    mu: float


def gen_amplitudes(s: int, n_samples: int, beta: float, mu: float, seed: int) -> np.ndarray:
    """Amplitude sequences, shape (n_samples, s); row 0 has norm beta exactly."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0 <= mu < beta:
        raise ValueError(f"mu must lie in [0, beta), got mu={mu}, beta={beta}")
    rng = make_rng(seed, _AMPLITUDE_STREAM)
    alpha = np.empty((n_samples, s))
    first = rng.standard_normal(s)
    alpha[0] = beta * first / np.linalg.norm(first)
    keep = np.sqrt((beta**2 - mu**2) / beta**2)
    step = mu / np.sqrt(s)
    for l in range(n_samples - 1):
        alpha[l + 1] = keep * alpha[l] + step * rng.standard_normal(s)
    return alpha


def gen_support_schedule(config: GenConfig) -> SupportPlan:
    """Draw index assignments: fixed indices first, then index pairs with phases."""
    rng = make_rng(config.seed, _SUPPORT_STREAM)
    chosen = rng.choice(config.n, size=config.s + config.n_pairs, replace=False)
    n_fixed = config.s - config.n_pairs
    fixed = np.sort(chosen[:n_fixed])
    pairs = chosen[n_fixed:].reshape(config.n_pairs, 2)
    period = float(config.n_samples)
    phases = rng.uniform(0.0, period, size=config.n_pairs)
    return SupportPlan(fixed, pairs, phases, period)


def _envelopes(plan: SupportPlan, n_samples: int) -> np.ndarray:
    """Envelope values, shape (n_samples, n_pairs)."""
    l = np.arange(n_samples)[:, None]
    return np.sin(2.0 * np.pi * (l + plan.phases[None, :]) / plan.period)


def assemble_target(config: GenConfig) -> DynamicTarget:
    """Combine amplitudes with the support plan into a full target sequence.

    Each pair routes envelope * amplitude to its first index while the
    envelope is positive and to its second while negative.  At an exact zero
    crossing the first index stays active with the amplitude scaled by the
    smallest positive normal float, so every sample keeps exactly s active
    entries.
    """
    alpha = gen_amplitudes(config.s, config.n_samples, config.beta, config.mu, config.seed)
    plan = gen_support_schedule(config)
    n_fixed = config.s - config.n_pairs
    samples = np.zeros((config.n_samples, config.n))
    samples[:, plan.fixed_indices] = alpha[:, :n_fixed]
    if config.n_pairs:
        env = _envelopes(plan, config.n_samples)
        tiny = np.finfo(np.float64).tiny
        for j in range(config.n_pairs):
            amp = alpha[:, n_fixed + j]
            first, second = plan.pair_indices[j]
            pos = env[:, j] > 0
            neg = env[:, j] < 0
            tie = ~(pos | neg)
            samples[pos, first] = env[pos, j] * amp[pos]
            samples[neg, second] = env[neg, j] * amp[neg]
            samples[tie, first] = tiny * amp[tie]
        # active pair member is the second index only while the envelope is negative
        members = np.where(env < 0, plan.pair_indices[None, :, 1], plan.pair_indices[None, :, 0])
        full = np.concatenate(
            [np.broadcast_to(plan.fixed_indices, (config.n_samples, n_fixed)), members], axis=1
        )
    else:
        full = np.broadcast_to(plan.fixed_indices, (config.n_samples, config.s))
    schedule = np.sort(full, axis=1).astype(np.intp)
    return DynamicTarget(samples, schedule, config.s, config.beta, config.mu)


def zero_hold(target: DynamicTarget, p: int) -> DynamicTarget:
    """Repeat every sample (and its support row) p times."""
    if p < 1:
        raise ValueError(f"hold factor must be positive, got {p}")
    return DynamicTarget(
        np.repeat(target.samples, p, axis=0),
        np.repeat(target.support_schedule, p, axis=0),
        target.s,
        target.beta,
        target.mu,
    )


def estimate_mu_dl(target: DynamicTarget) -> float:
    """Tightest bound on the consecutive-sample jump: max ||x[l] - x[l-1]||."""
    if target.samples.shape[0] < 2:
        raise ValueError("need at least two samples to estimate a jump bound")
    diffs = np.diff(target.samples, axis=0)
    return float(np.max(np.linalg.norm(diffs, axis=1)))


def estimate_beta(target: DynamicTarget) -> float:
    """Tightest bound on sample energy: max ||x[l]||."""
    return float(np.max(np.linalg.norm(target.samples, axis=1)))


def save_target_csv(target: DynamicTarget, samples_path, schedule_path) -> None:
    """Write samples (one row per time step) and the support index lists."""
    with open(samples_path, "w") as fh:
        for row in target.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(schedule_path, "w") as fh:
        for row in target.support_schedule:
            fh.write(",".join(str(int(i)) for i in row) + "\n")


def load_target_csv(samples_path, schedule_path, beta: float, mu: float) -> DynamicTarget:
    """Rebuild a target from the two CSV files written by :func:`save_target_csv`."""
    samples = np.loadtxt(samples_path, delimiter=",", ndmin=2)
    schedule = np.loadtxt(schedule_path, delimiter=",", dtype=np.intp, ndmin=2)
    return DynamicTarget(samples, schedule, schedule.shape[1], beta, mu)
