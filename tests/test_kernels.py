import importlib
import importlib.util
import inspect
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from streamista.kernels import Block, _shrink, stream
from streamista.measurement import gen_gaussian_matrix
from streamista.signals import GenConfig, assemble_target
from streamista.solver import SolverConfig, active_set, run_streaming

from reference import init_state, ista_iterate, soft_threshold


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
    assert trace.initial_gamma_size == init_state(init_u, lam).gamma.size
    assert np.array_equal(trace.final_state.gamma, state.gamma)


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
    block = Block(1, m, n, ys.shape[0])
    block.put(0, phi.entries, target.samples)
    block.ys[:, 0] = ys
    L = len(lams)
    lam = np.asarray(lams, dtype=float).reshape(1, 1, L)
    u0 = np.repeat(init_u[None, :, None], L, axis=2)
    errors, active, u_fin, _ = block.stream(lam, eta, P, u0)

    assert errors.shape == (ys.shape[0] * P, 1, L)
    assert active.shape == (ys.shape[0] * P + 1, 1, n, L)
    for j, lam_j in enumerate(lams):
        ref = run_streaming(phi, ys, target, SolverConfig(lam=lam_j, eta=eta, P=P), init_u)
        # the masks decide the set sizes and, with the target, the switch flags
        alone = block.stream(lam_j, eta, P, init_u[None, :, None])[1]
        assert np.array_equal(active[:, 0, :, j], alone[:, 0, :, 0])
        assert np.array_equal(active[1:, 0, :, j].sum(axis=1), ref.gamma_sizes)
        np.testing.assert_allclose(errors[:, 0, j], ref.errors, rtol=1e-9, atol=0)
        np.testing.assert_allclose(u_fin[0, :, j], ref.final_state.u, rtol=1e-9, atol=1e-15)
        assert np.array_equal(active_set(u_fin[0, :, j], lam_j), ref.final_state.gamma)


@settings(deadline=None, max_examples=60)
@given(
    count=st.integers(min_value=1, max_value=6),
    L=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=4, max_value=24),
    m_frac=st.floats(min_value=0.1, max_value=1.0),
    P=st.integers(min_value=1, max_value=3),
    substeps=st.sampled_from([1, 2, 10]),
    seed=st.integers(min_value=0, max_value=2**16),
    step=st.floats(min_value=0.05, max_value=0.95),
)
def test_stacked_trials_match_one_trial_calls(count, L, n, m_frac, P, substeps, seed, step):
    m = max(2, round(m_frac * n))
    n_meas = 4
    rng = np.random.default_rng(seed)
    block = Block(count, m, n, n_meas)
    singles = []
    spectral = 0.0
    for t in range(count):
        phi = gen_gaussian_matrix(m, n, seed + t)
        target = assemble_target(
            GenConfig(n=n, s=2, n_pairs=1, n_samples=n_meas, beta=1.0, mu=0.3, seed=seed + t)
        )
        ys = (phi.entries @ target.samples.T).T + 0.05 * rng.standard_normal((n_meas, m))
        block.put(t, phi.entries, target.samples)
        block.ys[:, t] = ys
        one = Block(1, m, n, n_meas)
        one.put(0, phi.entries, target.samples)
        one.ys[:, 0] = ys
        singles.append(one)
        spectral = max(spectral, float(np.linalg.norm(phi.entries, 2)) ** 2)
    lam = rng.uniform(0.01, 0.5, size=(count, 1, L))  # per trial and per column
    u0 = 0.5 * rng.standard_normal((count, n, L))
    eta = 2.0 * step / spectral
    relax = 1.0 / substeps
    stacked = block.stream(lam, eta, P * substeps, u0, relax)
    steps = n_meas * P * substeps
    assert stacked[0].shape == (steps, count, L)
    assert stacked[1].shape == (steps + 1, count, n, L)
    for t, one in enumerate(singles):
        alone = one.stream(lam[t : t + 1], eta, P * substeps, u0[t : t + 1], relax)
        for record, ref in zip(stacked[:2], alone[:2]):
            assert record[:, t].tobytes() == ref[:, 0].tobytes()
        for final, ref in zip(stacked[2:], alone[2:]):
            assert final[t].tobytes() == ref[0].tobytes()


def test_stream_signature_names_traced_arguments():
    # perfbench/tracer.py binds these names to count a call's steps and flops
    assert {"phi", "ys", "p", "u0"} <= set(inspect.signature(stream).parameters)


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/tracer.py looks up each traced function with getattr, and
    # perfbench/run.py records kernels.active_backend, so deleting one of them
    # breaks only a benchmark run unless this test names it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = list(tracer.LAYER_FUNCTIONS)
    names += [("harness", fn) for fn in tracer.CSV_WRITERS]
    names.append(("kernels", "active_backend"))
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"streamista.{module}"), function))


@settings(deadline=None, max_examples=200)
@given(
    lam=st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True),
    values=st.lists(st.floats(allow_subnormal=True), max_size=16),
)
def test_shrink_matches_soft_threshold_bytes(lam, values):
    edges = [lam, -lam, np.nextafter(lam, np.inf), -np.nextafter(lam, 0.0), 0.0, -0.0,
             5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan]
    u = np.array(values + edges)
    lam_full = np.full(u.shape, lam)
    a = np.empty_like(u)
    mag = np.empty_like(u)
    active = np.empty(u.shape, dtype=np.bool_)
    _shrink(u, lam_full, -lam_full, a, mag, active)
    assert a.tobytes() == soft_threshold(u, lam).tobytes()
    assert active.tobytes() == (np.abs(u) > lam).tobytes()


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=4, max_value=16),
    m_frac=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    blowup=st.floats(min_value=1e3, max_value=1e8),
    lam=st.sampled_from([0.02, 0.1, 0.3]),
)
def test_diverging_block_matches_reference_iterate(n, m_frac, seed, blowup, lam):
    m = max(2, round(m_frac * n))
    n_meas, P = 6, 20
    target = assemble_target(
        GenConfig(n=n, s=2, n_pairs=1, n_samples=n_meas, beta=1.0, mu=0.3, seed=seed)
    )
    phi = gen_gaussian_matrix(m, n, seed)
    rng = np.random.default_rng(seed)
    ys = (phi.entries @ target.samples.T).T + 0.05 * rng.standard_normal((n_meas, m))
    init_u = 0.5 * rng.standard_normal(n)
    # far above 2 / ||Phi||^2: the iterate overflows to inf, then to NaN
    cfg = SolverConfig(lam=lam, eta=blowup / float(np.linalg.norm(phi.entries, 2)) ** 2, P=P)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_streaming(phi, ys, target, cfg, init_u)
        state = init_state(init_u, lam)
        initial_size = state.gamma.size
        ref_errors, ref_sizes, ref_switches = [], [], []
        for k in range(n_meas):
            support_moved = k > 0 and not np.array_equal(
                target.support_schedule[k], target.support_schedule[k - 1]
            )
            for i in range(P):
                nxt = ista_iterate(state, ys[k], phi, cfg)
                ref_errors.append(np.linalg.norm(nxt.a - target.samples[k]))
                # active_set counts a NaN entry as inactive, though its output is NaN
                ref_sizes.append(nxt.gamma.size)
                ref_switches.append(
                    not np.array_equal(nxt.gamma, state.gamma) or (i == 0 and support_moved)
                )
                state = nxt
    final = trace.final_state
    assert np.isnan(final.u).any()
    assert np.array_equal(trace.errors, ref_errors, equal_nan=True)
    assert np.array_equal(trace.gamma_sizes, ref_sizes)
    assert np.array_equal(trace.switches, ref_switches)
    assert trace.initial_gamma_size == initial_size
    assert np.array_equal(final.gamma, state.gamma)
    assert np.array_equal(final.u, state.u, equal_nan=True)
    assert np.array_equal(final.a, state.a, equal_nan=True)
