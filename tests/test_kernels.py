import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.measurement import gen_gaussian_matrix
from streamista.signals import GenConfig, assemble_target
from streamista.solver import (
    SolverConfig,
    init_state,
    ista_iterate,
    run_streaming,
    run_streaming_batch,
)


def make_problem(seed=0):
    cfg = GenConfig(n=32, s=4, n_pairs=1, n_samples=8, beta=1.0, mu=0.3, seed=seed)
    target = assemble_target(cfg)
    phi = gen_gaussian_matrix(16, 32, seed)
    ys = (phi.entries @ target.samples.T).T
    return phi, ys, target


def test_numpy_backend_is_deterministic():
    phi, ys, target = make_problem()
    cfg = SolverConfig(lam=0.1, eta=0.3, P=3)
    a = run_streaming(phi, ys, target, cfg, np.zeros(32))
    b = run_streaming(phi, ys, target, cfg, np.zeros(32))
    assert a.errors.tobytes() == b.errors.tobytes()
    assert np.array_equal(a.final_state.u, b.final_state.u)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=4, max_value=24),
    m_frac=st.floats(min_value=0.1, max_value=1.0),
    s_frac=st.floats(min_value=0.0, max_value=1.0),
    P=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    step=st.floats(min_value=0.05, max_value=0.95),
    lam=st.sampled_from([0.02, 0.1, 0.3]),
)
def test_kernel_matches_reference_iterate(n, m_frac, s_frac, P, seed, step, lam):
    m = max(2, round(m_frac * n))
    s = 1 + round(s_frac * (n // 2 - 1))
    target = assemble_target(
        GenConfig(n=n, s=s, n_pairs=1, n_samples=5, beta=1.0, mu=0.3, seed=seed)
    )
    phi = gen_gaussian_matrix(m, n, seed)
    rng = np.random.default_rng(seed)
    ys = (phi.entries @ target.samples.T).T + 0.05 * rng.standard_normal((5, m))
    init_u = 0.5 * rng.standard_normal(n)
    # any step below 2 / ||Phi||^2 keeps the gradient map nonexpansive
    eta = 2.0 * step / float(np.linalg.norm(phi.entries, 2)) ** 2
    cfg = SolverConfig(lam=lam, eta=eta, P=P)
    trace = run_streaming(phi, ys, target, cfg, init_u)

    state = init_state(init_u, lam)
    errors, gamma_sizes, switches = [], [], []
    for k in range(ys.shape[0]):
        support_moved = k > 0 and not np.array_equal(
            target.support_schedule[k], target.support_schedule[k - 1]
        )
        for i in range(P):
            nxt = ista_iterate(state, ys[k], phi, cfg)
            errors.append(np.linalg.norm(nxt.a - target.samples[k]))
            gamma_sizes.append(nxt.gamma.size)
            switches.append(
                not np.array_equal(nxt.gamma, state.gamma) or (i == 0 and support_moved)
            )
            state = nxt
    assert np.array_equal(trace.errors, errors)
    assert np.array_equal(trace.gamma_sizes, gamma_sizes)
    assert np.array_equal(trace.switches, switches)
    assert np.array_equal(trace.final_state.u, state.u)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=4, max_value=24),
    m_frac=st.floats(min_value=0.1, max_value=1.0),
    s_frac=st.floats(min_value=0.0, max_value=1.0),
    P=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    step=st.floats(min_value=0.05, max_value=0.95),
    lams=st.lists(st.floats(min_value=0.01, max_value=0.5), min_size=2, max_size=6),
)
def test_batched_columns_match_single_runs(n, m_frac, s_frac, P, seed, step, lams):
    m = max(2, round(m_frac * n))
    s = 1 + round(s_frac * (n // 2 - 1))
    target = assemble_target(
        GenConfig(n=n, s=s, n_pairs=1, n_samples=5, beta=1.0, mu=0.3, seed=seed)
    )
    phi = gen_gaussian_matrix(m, n, seed)
    rng = np.random.default_rng(seed)
    ys = (phi.entries @ target.samples.T).T + 0.05 * rng.standard_normal((5, m))
    init_u = 0.5 * rng.standard_normal(n)
    eta = 2.0 * step / float(np.linalg.norm(phi.entries, 2)) ** 2
    configs = [SolverConfig(lam=lam, eta=eta, P=P) for lam in lams]
    batch = run_streaming_batch(phi, ys, target, configs, init_u)

    assert len(batch) == len(configs)
    for cfg, col in zip(configs, batch):
        ref = run_streaming(phi, ys, target, cfg, init_u)
        assert np.array_equal(col.gamma_sizes, ref.gamma_sizes)
        assert np.array_equal(col.switches, ref.switches)
        assert col.initial_gamma_size == ref.initial_gamma_size
        np.testing.assert_allclose(col.errors, ref.errors, rtol=1e-9, atol=0)
        np.testing.assert_allclose(col.final_state.u, ref.final_state.u, rtol=1e-9, atol=1e-15)
        assert np.array_equal(col.final_state.gamma, ref.final_state.gamma)


def test_batch_rejects_mixed_steps():
    phi, ys, target = make_problem()
    configs = [SolverConfig(lam=0.1, eta=0.3), SolverConfig(lam=0.2, eta=0.3, P=2)]
    with pytest.raises(ValueError, match="share"):
        run_streaming_batch(phi, ys, target, configs, np.zeros(32))
    with pytest.raises(ValueError, match="at least one"):
        run_streaming_batch(phi, ys, target, [], np.zeros(32))
