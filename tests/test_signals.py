import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.measurement import gen_gaussian_matrix
from streamista.signals import (
    DynamicTarget,
    GenConfig,
    assemble_target,
    estimate_beta,
    estimate_mu_dl,
    gen_amplitudes,
    gen_support_schedule,
    load_target_csv,
    save_target_csv,
    zero_hold,
)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.5, max_value=10.0),
    st.integers(min_value=0, max_value=100),
)
def test_first_amplitude_row_has_energy_beta(s, beta, seed):
    alpha = gen_amplitudes(s, 3, beta, 0.0, seed)
    assert np.linalg.norm(alpha[0]) == pytest.approx(beta, rel=1e-12)


def test_amplitude_energy_is_stationary():
    # the recursion keeps E||alpha[l]||^2 pinned at beta^2 for every l
    vals = [np.sum(gen_amplitudes(6, 6, 2.0, 1.0, seed)[5] ** 2) for seed in range(2000)]
    assert np.mean(vals) == pytest.approx(4.0, rel=0.08)


def test_amplitudes_frozen_regression():
    alpha = gen_amplitudes(2, 3, 1.0, 0.5, 7)
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
        gen_amplitudes(0, 3, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        gen_amplitudes(2, 0, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        gen_amplitudes(2, 3, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match="mu"):
        gen_amplitudes(2, 3, 1.0, 1.0, 0)


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
        gen_amplitudes(2, 3, beta, 0.0, 0)


def test_largest_valid_beta_keeps_its_energy():
    beta = 1.3e154
    GenConfig(n=8, s=2, n_pairs=0, n_samples=4, beta=beta, mu=0.5 * beta)
    alpha = gen_amplitudes(2, 3, beta, 0.5 * beta, 7)
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
    plan = gen_support_schedule(cfg)
    for row in target.support_schedule:
        assert np.all(np.isin(plan.fixed_indices, row))


def test_pair_routing_follows_envelope_sign():
    cfg = GenConfig(n=10, s=3, n_pairs=2, n_samples=12, beta=1.0, mu=0.3, seed=3)
    target = assemble_target(cfg)
    plan = gen_support_schedule(cfg)
    alpha = gen_amplitudes(cfg.s, cfg.n_samples, cfg.beta, cfg.mu, cfg.seed)
    n_fixed = cfg.s - cfg.n_pairs
    l = np.arange(cfg.n_samples)
    for j in range(cfg.n_pairs):
        env = np.sin(2.0 * np.pi * (l + plan.phases[j]) / plan.period)
        first, second = plan.pair_indices[j]
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


def test_zero_hold_repeats_rows():
    cfg = GenConfig(n=8, s=2, n_pairs=1, n_samples=4, beta=1.0, mu=0.2, seed=2)
    target = assemble_target(cfg)
    held = zero_hold(target, 3)
    assert held.samples.shape == (12, 8)
    assert np.array_equal(held.samples[0], held.samples[2])
    assert np.array_equal(held.samples[::3], target.samples)
    assert np.array_equal(held.support_schedule[::3], target.support_schedule)
    with pytest.raises(ValueError):
        zero_hold(target, 0)


def test_estimate_mu_dl_hand_case():
    target = DynamicTarget(
        np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]),
        np.array([[0, 1], [0, 1], [0, 1]]),
        2,
        5.0,
        5.0,
    )
    assert estimate_mu_dl(target) == 5.0


def test_estimate_mu_dl_needs_two_samples():
    target = DynamicTarget(np.array([[1.0]]), np.array([[0]]), 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        estimate_mu_dl(target)


def test_estimate_beta_is_max_row_norm():
    target = DynamicTarget(
        np.array([[0.0, 1.0], [3.0, 4.0]]), np.array([[1], [0]]), 1, 5.0, 0.0
    )
    assert estimate_beta(target) == 5.0


def test_target_csv_round_trip(tmp_path):
    cfg = GenConfig(n=9, s=3, n_pairs=1, n_samples=7, beta=1.5, mu=0.4, seed=8)
    target = assemble_target(cfg)
    sp, cp = tmp_path / "samples.csv", tmp_path / "schedule.csv"
    save_target_csv(target, sp, cp)
    back = load_target_csv(sp, cp, beta=1.5, mu=0.4)
    assert np.array_equal(back.samples, target.samples)
    assert np.array_equal(back.support_schedule, target.support_schedule)
    assert back.s == 3 and back.beta == 1.5 and back.mu == 0.4


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_one_seed_builds_reject_seeds_outside_uint64(seed):
    cfg = GenConfig(n=6, s=2, n_pairs=1, n_samples=3, seed=seed)
    builds = (
        assemble_target,
        gen_support_schedule,
        lambda c: gen_amplitudes(c.s, c.n_samples, c.beta, c.mu, c.seed),
        lambda c: gen_gaussian_matrix(3, c.n, c.seed),
    )
    for build in builds:
        with pytest.raises(ValueError, match="seed"):
            build(cfg)
