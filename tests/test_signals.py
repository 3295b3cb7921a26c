import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.measurement import gen_gaussian_matrix, row_norms
from streamista.signals import (
    GenConfig,
    _amplitude_rows,
    _support_plans,
    assemble_target,
    estimate_beta,
    estimate_mu_dl,
    target_keys,
)


def amplitudes(s, n_samples, beta, mu, seed):
    """The amplitude sequences ``(n_samples, s)`` of the target of ``seed``."""
    return _amplitude_rows(s, n_samples, beta, mu, target_keys([seed])[:, 0])[:, 0]


def support_plan(config):
    """Fixed indices, index pairs and phases of the target of ``config.seed``."""
    fixed, pairs, phases = _support_plans(config, target_keys([config.seed])[:, 1])
    return fixed[0], pairs[0], phases[0]


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.5, max_value=10.0),
    st.integers(min_value=0, max_value=100),
)
def test_first_amplitude_row_has_energy_beta(s, beta, seed):
    alpha = amplitudes(s, 3, beta, 0.0, seed)
    assert np.linalg.norm(alpha[0]) == pytest.approx(beta, rel=1e-12)


def test_amplitude_energy_is_stationary():
    # the recursion keeps E||alpha[l]||^2 pinned at beta^2 for every l
    vals = [np.sum(amplitudes(6, 6, 2.0, 1.0, seed)[5] ** 2) for seed in range(2000)]
    assert np.mean(vals) == pytest.approx(4.0, rel=0.08)


def test_amplitudes_frozen_regression():
    alpha = amplitudes(2, 3, 1.0, 0.5, 7)
    expected = np.array(
        [
            [0.20844429967554995, 0.9780342396525642],
            [-0.41824402284121065, 0.3507090140837953],
            [-0.4991242731909954, 0.6010092070086803],
        ]
    )
    assert np.array_equal(alpha, expected)


def test_gen_amplitudes_validation():
    with pytest.raises(ValueError):
        amplitudes(0, 3, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        amplitudes(2, 0, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        amplitudes(2, 3, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match="mu"):
        amplitudes(2, 3, 1.0, 1.0, 0)


def test_gen_config_validation():
    with pytest.raises(ValueError, match="mu"):
        GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=1.0, mu=1.5)
    with pytest.raises(ValueError, match="n_pairs"):
        GenConfig(n=8, s=2, n_pairs=3, n_samples=4)
    with pytest.raises(ValueError, match="distinct"):
        GenConfig(n=3, s=2, n_pairs=2, n_samples=4)


@pytest.mark.parametrize("beta", [1e300, 1.4e154, float("inf")])
def test_beta_whose_square_overflows_is_rejected(beta):
    # the amplitude recursion takes beta**2, which raises OverflowError there
    with pytest.raises(ValueError, match="beta"):
        GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=beta)
    with pytest.raises(ValueError, match="beta"):
        amplitudes(2, 3, beta, 0.0, 0)


@pytest.mark.parametrize("beta", [1e-300, 1.5e-162, 5e-324, 1e-161, 1.49e-154])
def test_beta_whose_square_underflows_is_rejected(beta):
    # the amplitude recursion divides by beta**2, which is 0 or subnormal there
    with pytest.raises(ValueError, match="beta"):
        GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=beta)
    with pytest.raises(ValueError, match="beta"):
        amplitudes(2, 3, beta, 0.0, 0)


def test_smallest_valid_beta_keeps_its_energy():
    # the square of 1.5e-154 is just above the smallest normal float
    beta = 1.5e-154
    GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=beta, mu=0.9 * beta)
    alpha = amplitudes(2, 3, beta, 0.9 * beta, 7)
    assert np.all(np.isfinite(alpha))
    assert math.hypot(*alpha[0]) == pytest.approx(beta, rel=1e-12)


def test_largest_valid_beta_keeps_its_energy():
    beta = 1.3e154
    GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=beta, mu=0.5 * beta)
    alpha = amplitudes(2, 3, beta, 0.5 * beta, 7)
    assert np.all(np.isfinite(alpha))
    assert math.hypot(*alpha[0]) == pytest.approx(beta, rel=1e-12)


def test_target_has_exactly_s_nonzeros_per_sample():
    cfg = GenConfig(n=12, s=4, n_pairs=2, n_samples=20, beta=1.0, mu=0.3, seed=5)
    target = assemble_target(cfg)
    assert target.samples.shape == (20, 12)
    counts = np.count_nonzero(target.samples, axis=1)
    assert np.all(counts == 4)


def test_schedule_matches_nonzero_indices():
    cfg = GenConfig(n=12, s=4, n_pairs=2, n_samples=20, beta=1.0, mu=0.3, seed=5)
    target = assemble_target(cfg)
    for row, supp in zip(target.samples, target.support_schedule):
        assert np.array_equal(np.flatnonzero(row), supp)


def test_fixed_indices_stay_active():
    cfg = GenConfig(n=10, s=3, n_pairs=1, n_samples=15, beta=1.0, mu=0.2, seed=9)
    target = assemble_target(cfg)
    fixed, _, _ = support_plan(cfg)
    for row in target.support_schedule:
        assert np.all(np.isin(fixed, row))


def test_pair_routing_follows_envelope_sign():
    cfg = GenConfig(n=10, s=3, n_pairs=2, n_samples=12, beta=1.0, mu=0.3, seed=3)
    target = assemble_target(cfg)
    _, pairs, phases = support_plan(cfg)
    alpha = amplitudes(cfg.s, cfg.n_samples, cfg.beta, cfg.mu, cfg.seed)
    n_fixed = cfg.s - cfg.n_pairs
    l = np.arange(cfg.n_samples)
    for j in range(cfg.n_pairs):
        env = np.sin(2.0 * np.pi * (l + phases[j]) / cfg.n_samples)
        first, second = pairs[j]
        for t in range(cfg.n_samples):
            expected = env[t] * alpha[t, n_fixed + j]
            if env[t] > 0:
                assert target.samples[t, first] == expected
                assert target.samples[t, second] == 0.0
            elif env[t] < 0:
                assert target.samples[t, second] == expected
                assert target.samples[t, first] == 0.0


def test_static_target_when_mu_zero_and_no_pairs():
    cfg = GenConfig(n=8, s=2, n_pairs=0, n_samples=6, beta=1.0, mu=0.0, seed=1)
    target = assemble_target(cfg)
    assert np.all(target.samples == target.samples[0])


def test_estimate_mu_dl_hand_case():
    samples = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
    assert estimate_mu_dl(samples) == 5.0


def test_estimate_mu_dl_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_mu_dl(np.array([[1.0]]))


def test_estimate_beta_is_max_row_norm():
    assert estimate_beta(np.array([[0.0, 1.0], [3.0, 4.0]])) == 5.0


# entries a row norm must carry through: signed zeros, subnormals, values
# whose squares underflow or overflow, infinities and NaN
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, math.inf, -math.inf, math.nan)


@st.composite
def norm_blocks(draw):
    """Rows ``(..., k)``, 1-3 leading axes and k in [1, 300]: normals at one scale
    from 1e-310 to 1e300, with up to eight entries replaced by special values."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shape.append(draw(st.integers(1, 300)))
    scale = draw(st.sampled_from([1e-310, 1e-300, 1e-160, 1.0, 1e150, 1e300]))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    rows *= scale
    flat = rows.reshape(-1)
    spots = st.tuples(st.integers(0, flat.size - 1), st.sampled_from(SPECIAL_ENTRIES))
    for index, value in draw(st.lists(spots, max_size=8)):
        flat[index] = value
    return rows


def norm_bits(values):
    """The bits of ``values``, every NaN as the one canonical NaN."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


def one_vector_max(rows):
    """Per stream of ``rows`` ``(n_samples, ..., k)``, np.max of its rows' one-vector norms."""
    streams = np.ndindex(rows.shape[1:-1])
    return np.array([
        np.max([np.linalg.norm(row) for row in rows[(slice(None),) + idx]]) for idx in streams
    ]).reshape(rows.shape[1:-1])


@settings(deadline=None)
@given(norm_blocks())
def test_row_norms_and_estimators_take_the_one_vector_norm(rows):
    # every row norm of the package is the dot product of np.linalg.norm(row),
    # over any leading shape, so a block's stream gets the bits of its own call
    with np.errstate(all="ignore"):
        norms = row_norms(rows)
        assert norms.shape == rows.shape[:-1]
        expected = [np.linalg.norm(rows[idx]) for idx in np.ndindex(rows.shape[:-1])]
        assert norm_bits(norms).ravel().tolist() == norm_bits(expected).tolist()
        assert norm_bits(estimate_beta(rows)).tolist() == norm_bits(one_vector_max(rows)).tolist()
        if rows.shape[0] > 1:
            jumps = rows[1:] - rows[:-1]
            assert (norm_bits(estimate_mu_dl(rows)).tolist()
                    == norm_bits(one_vector_max(jumps)).tolist())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_one_seed_builds_reject_seeds_outside_uint64(seed):
    cfg = GenConfig(n=6, s=2, n_pairs=1, n_samples=3, seed=seed)
    builds = (
        assemble_target,
        lambda c: target_keys([c.seed]),
        lambda c: gen_gaussian_matrix(3, c.n, c.seed),
    )
    for build in builds:
        with pytest.raises(ValueError, match="seed"):
            build(cfg)
