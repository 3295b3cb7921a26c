import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.measurement import gen_gaussian_matrix, gen_identity, measure
from streamista.signals import DynamicTarget, GenConfig, assemble_target
from streamista.solver import (
    SolverConfig,
    active_set,
    euler_lca_trace,
    lca_simulate,
    run_streaming,
    top_q_energy,
    top_q_indices,
)

from reference import init_state, ista_iterate, soft_threshold


def static_target(x, n_meas):
    x = np.asarray(x, dtype=np.float64)
    supp = np.flatnonzero(x)
    return DynamicTarget(np.tile(x, (n_meas, 1)), np.tile(supp, (n_meas, 1)))


def test_soft_threshold_boundary_is_inactive():
    out = soft_threshold(np.array([1.0, -1.0, 1.5, -0.2]), 1.0)
    assert np.array_equal(out, [0.0, 0.0, 0.5, 0.0])


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
    st.floats(min_value=0.01, max_value=5),
)
def test_soft_threshold_matches_scalar_rule(vals, lam):
    out = soft_threshold(np.array(vals), lam)
    for v, o in zip(vals, out):
        expected = 0.0 if abs(v) <= lam else v - lam * math.copysign(1.0, v)
        assert o == expected


def test_soft_threshold_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        soft_threshold(np.zeros(2), 0.0)


def test_active_set_is_strict():
    u = np.array([1.0, 1.0000001, -2.0, 0.0])
    assert np.array_equal(active_set(u, 1.0), [1, 2])


def test_top_q_indices_tie_prefers_lower_index():
    assert np.array_equal(top_q_indices(np.array([2.0, -2.0, 1.0]), 1), [0])
    assert np.array_equal(top_q_indices(np.array([2.0, -2.0, 1.0]), 2), [0, 1])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
    st.data(),
)
def test_top_q_energy_matches_sort_oracle(vals, data):
    u = np.array(vals)
    q = data.draw(st.integers(min_value=1, max_value=u.size))
    mags = np.sort(np.abs(u))[::-1][:q]
    assert top_q_energy(u, q) == pytest.approx(float(np.linalg.norm(mags)), rel=1e-12)


def test_top_q_bounds_checked():
    with pytest.raises(ValueError):
        top_q_energy(np.zeros(3), 0)
    with pytest.raises(ValueError):
        top_q_indices(np.zeros(3), 4)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, eta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, P=0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, tau=-1.0)


def test_single_iterate_worked_case():
    # identity operator, y = [2, 0.5]: gradient step lands on y, threshold
    # at 1 keeps only the first coordinate
    phi = gen_identity(2)
    state = init_state(np.zeros(2), 1.0)
    nxt = ista_iterate(state, np.array([2.0, 0.5]), phi, SolverConfig(lam=1.0, eta=1.0))
    assert np.array_equal(nxt.u, [2.0, 0.5])
    assert np.array_equal(nxt.a, [1.0, 0.0])
    assert nxt.l == 1
    assert np.array_equal(nxt.gamma, [0])


def test_identity_reaches_fixed_point_in_one_step():
    phi = gen_identity(4)
    y = np.array([2.0, -1.5, 0.3, 0.0])
    cfg = SolverConfig(lam=1.0, eta=1.0)
    s1 = ista_iterate(init_state(np.zeros(4), 1.0), y, phi, cfg)
    s2 = ista_iterate(s1, y, phi, cfg)
    assert np.array_equal(s1.a, soft_threshold(y, 1.0))
    assert np.array_equal(s2.a, s1.a)


def test_identity_noiseless_error_is_lam_times_sqrt_s():
    # every target entry sits above the threshold, so the one-step output
    # is the target shrunk by lam in each active coordinate
    x = np.array([3.0, -2.0, 1.5, 0.0, 0.0])
    phi = gen_identity(5)
    target = static_target(x, 1)
    trace = run_streaming(phi, x[None, :], target, SolverConfig(lam=0.25, eta=1.0), np.zeros(5))
    assert trace.errors[0] == pytest.approx(0.25 * math.sqrt(3), rel=1e-12)


def test_streaming_matches_reference_loop():
    phi = gen_gaussian_matrix(8, 16, 21)
    x = np.zeros(16)
    x[[2, 7, 11]] = [1.0, -0.8, 0.5]
    y = phi.entries @ x
    cfg = SolverConfig(lam=0.05, eta=0.2, P=30)
    trace = run_streaming(phi, y[None, :], static_target(x, 1), cfg, np.zeros(16))

    a = np.zeros(16)
    ref_errors = []
    for _ in range(30):
        u = a + cfg.eta * (phi.entries.T @ (y - phi.entries @ a))
        a = soft_threshold(u, cfg.lam)
        ref_errors.append(np.linalg.norm(a - x))
    assert trace.errors == pytest.approx(ref_errors, abs=1e-12)
    assert trace.final_state.a == pytest.approx(a, abs=1e-12)


def test_lasso_objective_monotone_under_small_step():
    phi = gen_gaussian_matrix(8, 16, 4)
    x = np.zeros(16)
    x[[1, 5]] = [1.0, -1.0]
    y = phi.entries @ x
    # descent is guaranteed for steps below the inverse spectral bound
    lipschitz = float(np.linalg.norm(phi.entries, 2)) ** 2
    cfg = SolverConfig(lam=0.1, eta=0.9 / lipschitz)
    state = init_state(np.zeros(16), cfg.lam)

    # thresholding at lam with step eta is proximal descent on the
    # lasso objective whose l1 weight is lam / eta
    weight = cfg.lam / cfg.eta

    def objective(a):
        r = y - phi.entries @ a
        return 0.5 * float(r @ r) + weight * float(np.sum(np.abs(a)))

    prev = objective(state.a)
    for _ in range(40):
        state = ista_iterate(state, y, phi, cfg)
        cur = objective(state.a)
        assert cur <= prev + 1e-12
        prev = cur


def test_trace_indexing_and_premeasurement_slice():
    cfg = GenConfig(n=12, s=2, n_pairs=1, n_samples=5, beta=1.0, mu=0.2, seed=6)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(8, 12, 6)
    ys = (phi.entries @ target.samples.T).T
    trace = run_streaming(phi, ys, target, SolverConfig(lam=0.1, eta=0.3, P=3), np.zeros(12))
    # row l is iteration i = l % P against measurement k = l // P
    l = np.arange(15)
    assert trace.errors.size == trace.gamma_sizes.size == trace.switches.size == l.size
    # the pre-measurement errors the harness keeps are the rows at i = P - 1
    premeasurement = trace.errors[2::3]
    assert premeasurement.size == 5
    assert np.array_equal(trace.errors[l % 3 == 2], premeasurement)


def test_max_gamma_includes_initial_state():
    phi = gen_identity(4)
    init_u = np.array([5.0, 5.0, 5.0, 0.0])
    target = static_target(np.zeros(4), 1)
    # zero measurement collapses the active set after one step
    trace = run_streaming(phi, np.zeros((1, 4)), target, SolverConfig(lam=1.0, eta=1.0), init_u)
    assert trace.initial_gamma_size == 3
    assert trace.gamma_sizes[-1] == 0


def test_run_streaming_validates_shapes():
    phi = gen_identity(3)
    target = static_target(np.array([1.0, 0.0, 0.0]), 2)
    cfg = SolverConfig(lam=0.5)
    with pytest.raises(ValueError, match="measurements"):
        run_streaming(phi, np.zeros((2, 4)), target, cfg, np.zeros(3))
    with pytest.raises(ValueError, match="measurement count"):
        run_streaming(phi, np.zeros((3, 3)), target, cfg, np.zeros(3))
    with pytest.raises(ValueError, match="init_u"):
        run_streaming(phi, np.zeros((2, 3)), target, cfg, np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        run_streaming(phi, np.zeros((2, 3)), target, cfg, np.full(3, np.nan))


def test_network_simulation_delegates_bitwise():
    cfg = GenConfig(n=16, s=3, n_pairs=1, n_samples=6, beta=1.0, mu=0.2, seed=12)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(10, 16, 12)
    ys = (phi.entries @ target.samples.T).T
    sim = lca_simulate(phi, ys, target, lam=0.3, tau=2.0, init_u=np.zeros(16), P=2)
    ref = run_streaming(
        phi, ys, target, SolverConfig(lam=0.3, eta=1.0, P=2, dl=2.0, tau=2.0), np.zeros(16)
    )
    assert np.array_equal(sim.errors, ref.errors)
    assert np.array_equal(sim.gamma_sizes, ref.gamma_sizes)
    assert np.array_equal(sim.switches, ref.switches)
    assert np.array_equal(sim.final_state.u, ref.final_state.u)


def test_euler_trace_unit_substep_matches_simulation():
    cfg = GenConfig(n=16, s=3, n_pairs=1, n_samples=6, beta=1.0, mu=0.2, seed=12)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(10, 16, 12)
    ys = (phi.entries @ target.samples.T).T
    sim = lca_simulate(phi, ys, target, lam=0.3, tau=1.5, init_u=np.zeros(16), P=2)
    times, errors = euler_lca_trace(phi, ys, target, lam=0.3, tau=1.5, init_u=np.zeros(16), P=2)
    assert np.array_equal(errors, sim.errors)
    assert np.array_equal(times, 1.5 * np.arange(1, 13))


@st.composite
def euler_problems(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    m = draw(st.integers(min_value=2, max_value=n))
    s = draw(st.integers(min_value=1, max_value=n // 2))
    P = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    cfg = GenConfig(n=n, s=s, n_pairs=1, n_samples=4, beta=1.0, mu=0.2, seed=seed)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(m, n, seed)
    ys = (phi.entries @ target.samples.T).T
    return phi, ys, target, P


@settings(deadline=None, max_examples=40)
@given(
    euler_problems(),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
)
def test_euler_trace_matches_simulation_and_time_grid(problem, substeps, tau):
    phi, ys, target, P = problem
    init_u = np.zeros(phi.cols)
    sim = lca_simulate(phi, ys, target, lam=0.2, tau=tau, init_u=init_u, P=P)
    _, errors = euler_lca_trace(phi, ys, target, lam=0.2, tau=tau, init_u=init_u, P=P)
    assert np.array_equal(errors, sim.errors)
    times, fine = euler_lca_trace(
        phi, ys, target, lam=0.2, tau=tau, init_u=init_u, P=P, substeps=substeps
    )
    steps = ys.shape[0] * P * substeps
    assert fine.shape == (steps,)
    assert np.array_equal(times, tau / substeps * np.arange(1, steps + 1))


def test_euler_trace_refinement_converges():
    cfg = GenConfig(n=24, s=3, n_pairs=1, n_samples=6, beta=1.0, mu=0.1, seed=2)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(16, 24, 5)
    ys = (phi.entries @ target.samples.T).T

    def grid(substeps):
        _, e = euler_lca_trace(
            phi, ys, target, lam=0.3, tau=1.0, init_u=np.zeros(24), P=2, substeps=substeps
        )
        # errors at whole multiples of tau, shared across step sizes
        return e[substeps - 1 :: substeps]

    coarse_gap = np.max(np.abs(grid(1) - grid(2)))
    fine_gap = np.max(np.abs(grid(8) - grid(16)))
    assert fine_gap < coarse_gap


def test_euler_trace_time_grid_scales_with_substeps():
    phi = gen_identity(3)
    x = np.array([1.0, 0.0, 0.0])
    times, errors = euler_lca_trace(
        phi, x[None, :], static_target(x, 1), lam=0.5, tau=2.0, init_u=np.zeros(3), substeps=4
    )
    assert times == pytest.approx(0.5 * np.arange(1, 5), rel=1e-15)
    assert errors.shape == (4,)


def test_euler_trace_validation():
    phi = gen_identity(2)
    target = static_target(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        euler_lca_trace(phi, np.zeros((1, 2)), target, lam=0.5, tau=1.0,
                        init_u=np.zeros(2), substeps=0)
    with pytest.raises(ValueError):
        euler_lca_trace(phi, np.zeros((1, 2)), target, lam=0.5, tau=0.0, init_u=np.zeros(2))
    with pytest.raises(ValueError):
        euler_lca_trace(phi, np.zeros((1, 3)), target, lam=0.5, tau=1.0, init_u=np.zeros(2))
