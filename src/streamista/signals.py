"""Synthetic time-varying sparse targets.

A target is a sequence of length-n vectors with exactly s nonzero entries
each.  Amplitudes follow a norm-preserving first-order recursion

    alpha[l+1] = sqrt((beta**2 - mu**2) / beta**2) * alpha[l] + (mu / sqrt(s)) * v[l]

with v[l] i.i.d. standard normal, so each sample carries energy beta in
expectation while consecutive samples drift by about mu.  Most amplitude
sequences sit on fixed indices; the rest alternate between two indices under
a sinusoidal envelope, which makes the support change over time.

Targets are built many to a block from Philox keys (:mod:`.rng`), two per
target: :func:`target_keys` gives them for target seeds, and
:func:`assemble_targets` builds the samples and support rows of every key
pair at once.  :func:`assemble_target` is its case for one seed, and each
target of a block has its bits:

* an amplitude stream is one ``(n_samples, s)`` draw, which equals the
  draws of ``s`` one sample at a time; the first row's norm is
  ``measurement.row_norms``, the dot product ``np.linalg.norm`` takes; and
  the recursion runs over samples, each step across the whole block;
* a support plan draws its ``choice`` and ``uniform`` from one generator
  per target, reset to the target's key;
* the envelopes, the routing and the schedule sort are elementwise or per
  row.

The energy and jump estimators reduce one target's samples or a whole
block's over the sample axis.
"""

from dataclasses import dataclass
import math

import numpy as np

from .measurement import row_norms
from .rng import keyed_generators, philox_keys, standard_normals

# substream tags of a target's amplitude and support draws
_AMPLITUDE_STREAM = 0
_SUPPORT_STREAM = 1

_TINY = np.finfo(np.float64).tiny


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
        _check_energy(self.beta, self.mu)


def _check_energy(beta: float, mu: float) -> None:
    """Raise ValueError unless 0 <= mu < beta and beta**2 is a finite normal float.

    The amplitude recursion divides by ``beta**2``, which overflows from
    about 1.3e154 on and is subnormal below about 1.5e-154, where it keeps
    too few bits for the recursion to preserve the energy.
    """
    if not (beta > 0 and _TINY <= beta * beta < math.inf):
        raise ValueError(
            f"beta must be positive with a finite, normal square beta**2, got {beta}"
        )
    if not 0 <= mu < beta:
        raise ValueError(f"mu must lie in [0, beta), got mu={mu}, beta={beta}")


@dataclass(frozen=True)
class DynamicTarget:
    """Realized target sequence plus its support schedule."""

    samples: np.ndarray  # (n_samples, n)
    support_schedule: np.ndarray  # (n_samples, s), sorted indices


def target_keys(seeds) -> np.ndarray:
    """The Philox keys a target draws from, for every uint64 target seed: ``(rows, 2, 2)``.

    Row i holds the keys of ``make_rng(seeds[i], 0)``, its amplitude stream,
    and ``make_rng(seeds[i], 1)``, its support stream.
    """
    return np.stack(
        [philox_keys(seeds, _AMPLITUDE_STREAM), philox_keys(seeds, _SUPPORT_STREAM)], axis=1
    )


def _amplitude_rows(s: int, n_samples: int, beta: float, mu: float, keys) -> np.ndarray:
    """Amplitude sequences of every amplitude-stream key, step-major: ``(n_samples, rows, s)``."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    _check_energy(beta, mu)
    draws = standard_normals(keys, np.empty((len(keys), n_samples, s)))
    first = draws[:, 0]
    alpha = np.empty((n_samples, len(keys), s))
    alpha[0] = beta * first / row_norms(first)[:, None]
    keep = np.sqrt((beta**2 - mu**2) / beta**2)
    steps = (mu / np.sqrt(s)) * draws.transpose(1, 0, 2)
    for prev, row, step in zip(alpha, alpha[1:], steps[1:]):
        np.multiply(keep, prev, out=row)
        row += step
    return alpha


def _support_plans(config: GenConfig, keys):
    """Fixed indices ``(rows, s - n_pairs)``, index pairs ``(rows, n_pairs, 2)`` and
    phases ``(rows, n_pairs)`` of every support-stream key; ``config.seed`` is not read."""
    chosen = np.empty((len(keys), config.s + config.n_pairs), dtype=np.int64)
    phases = np.empty((len(keys), config.n_pairs))
    period = float(config.n_samples)
    for row, gen in enumerate(keyed_generators(keys)):
        chosen[row] = gen.choice(config.n, size=config.s + config.n_pairs, replace=False)
        phases[row] = gen.uniform(0.0, period, size=config.n_pairs)
    n_fixed = config.s - config.n_pairs
    fixed = np.sort(chosen[:, :n_fixed], axis=1)
    pairs = chosen[:, n_fixed:].reshape(len(keys), config.n_pairs, 2)
    return fixed, pairs, phases


def assemble_target(config: GenConfig) -> DynamicTarget:
    """Combine amplitudes with the support plan into a full target sequence.

    Each pair routes envelope * amplitude to its first index while the
    envelope is positive and to its second while negative.  At an exact zero
    crossing the first index stays active with the amplitude scaled by the
    smallest positive normal float, so every sample keeps exactly s active
    entries.  ``config.seed`` lies in [0, 2**64); this is the one-seed case
    of :func:`assemble_targets`.
    """
    samples, schedule = assemble_targets(config, target_keys([config.seed]))
    return DynamicTarget(samples[:, 0], schedule[:, 0])


def assemble_targets(config: GenConfig, keys):
    """Samples ``(n_samples, rows, n)`` and sorted support rows ``(n_samples, rows, s)``
    of the target of every key pair ``keys[i]`` from :func:`target_keys`.

    Target i is ``assemble_target`` at the seed its keys stand for;
    ``config.seed`` is not read.
    """
    count, n_samples, n_fixed = len(keys), config.n_samples, config.s - config.n_pairs
    alpha = _amplitude_rows(config.s, n_samples, config.beta, config.mu, keys[:, 0])
    fixed, pairs, phases = _support_plans(config, keys[:, 1])
    samples = np.zeros((n_samples, count, config.n))
    trial = np.arange(count)[:, None]
    samples[:, trial, fixed] = alpha[:, :, :n_fixed]
    full = np.broadcast_to(fixed, (n_samples, count, n_fixed))
    if config.n_pairs:
        l = np.arange(n_samples)[:, None, None]
        env = np.sin(2.0 * np.pi * (l + phases) / float(n_samples))
        amp = alpha[:, :, n_fixed:]
        values = env * amp
        tie = env == 0
        values[tie] = np.finfo(np.float64).tiny * amp[tie]
        # the active pair member is the second index only while the envelope is negative
        members = np.where(env < 0, pairs[:, :, 1], pairs[:, :, 0])
        samples[l, trial, members] = values
        full = np.concatenate([full, members], axis=2)
    return samples, np.sort(full, axis=2).astype(np.intp)


def estimate_mu_dl(samples: np.ndarray):
    """Tightest bound on the consecutive-sample jump: max ||x[l] - x[l-1]||.

    ``samples`` is ``(n_samples, ..., n)``, one target's samples or a
    block's; the jumps reduce over the sample axis, a float for one target
    and one per stream for a block, each with the bits of its stream's own
    call.
    """
    if samples.shape[0] < 2:
        raise ValueError("need at least two samples to estimate a jump bound")
    return np.linalg.norm(np.diff(samples, axis=0), axis=-1).max(axis=0)


def estimate_beta(samples: np.ndarray):
    """Tightest bound on sample energy: max ||x[l]||, over the sample axis as
    :func:`estimate_mu_dl` reduces."""
    return np.linalg.norm(samples, axis=-1).max(axis=0)
