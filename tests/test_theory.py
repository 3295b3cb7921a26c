import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.measurement import gen_gaussian_matrix, rip_exact_witness
from streamista.theory import (
    IstaBoundParams,
    LcaBoundParams,
    check_ista_preconditions,
    check_lca_preconditions,
    contraction_factor,
    drift_offset,
    ista_error_bound,
    ista_steady_state,
    lca_error_bound,
    lca_steady_bound,
    rip_inequality_suite,
    steady_offset,
    support_cap_check,
    target_energy_envelope_check,
)

from reference import gen_identity


def named(report):
    """A report's checks by name."""
    return {check.name: check for check in report.checks}


def test_contraction_factor_values():
    assert contraction_factor(1.0, 0.3) == 0.3
    assert contraction_factor(0.5, 0.2) == 0.6
    assert contraction_factor(1.0, 0.0) == 0.0


def test_contraction_factor_validation():
    with pytest.raises(ValueError):
        contraction_factor(0.0, 0.3)
    with pytest.raises(ValueError):
        contraction_factor(2.0, 0.0)
    with pytest.raises(ValueError):
        contraction_factor(1.0, 1.0)
    with pytest.raises(ValueError):
        contraction_factor(1.8, 0.5)  # above 2/(1+delta)


def test_steady_offset_worked_case():
    # (1/(1-0.5)) * (1*0 + 0.1*2) = 0.4, exact in floats
    assert steady_offset(eta=1.0, sigma=0.0, lam=0.1, q=4, c=0.5) == 0.4
    with pytest.raises(ValueError):
        steady_offset(1.0, 0.0, 0.1, 4, 1.0)


def test_drift_offset_worked_case():
    assert drift_offset(c=0.5, P=1, mu=1.0, dl=1.0, V=0.4) == 1.4
    assert drift_offset(c=0.5, P=1, mu=0.0, dl=1.0, V=0.4) == 0.4
    with pytest.raises(ValueError):
        drift_offset(1.0, 1, 1.0, 1.0, 0.4)
    with pytest.raises(ValueError):
        drift_offset(0.5, 0, 1.0, 1.0, 0.4)


def test_error_bound_worked_case():
    # independent arbitrary-precision evaluation gives exactly 17/20
    params = IstaBoundParams(eta=1.0, delta=0.5, sigma=0.0, lam=0.2, q=1,
                             P=2, mu=1.0, dl=1.0, e1=2.0)
    assert params.c == 0.5
    assert params.V == 0.4
    assert ista_error_bound(3, params) == pytest.approx(0.85, rel=1e-12)


def test_error_bound_starts_at_initial_error():
    params = IstaBoundParams(eta=1.0, delta=0.3, sigma=0.1, lam=0.2, q=2,
                             P=1, mu=0.5, dl=1.0, e1=3.0)
    assert ista_error_bound(0, params) == pytest.approx(3.0, rel=1e-12)


def test_error_bound_keeps_the_first_error_under_huge_offsets():
    # lam near 1e300 puts V near 1e301, which cancelled e1 in the form
    # c**l * (e1 - W) + drift + V
    params = IstaBoundParams(eta=1.0, delta=0.9, sigma=1e299, lam=1e300, q=1,
                             P=5, mu=1e299, dl=1.0, e1=0.7)
    assert 1e300 < params.V < 1e302
    assert ista_error_bound(0, params) == params.e1
    steps = np.arange(51)
    bounds = ista_error_bound(steps, params)
    floor = params.c**steps * params.e1
    assert np.all(bounds >= floor) and np.all(floor >= 0.0)


def test_error_bound_rejects_negative_iteration():
    params = IstaBoundParams(eta=1.0, delta=0.3, sigma=0.0, lam=0.2, q=1,
                             P=1, mu=0.0, dl=1.0, e1=1.0)
    with pytest.raises(ValueError):
        ista_error_bound(-1, params)


def test_error_bound_approaches_steady_state():
    params = IstaBoundParams(eta=1.0, delta=0.4, sigma=0.05, lam=0.3, q=2,
                             P=2, mu=0.4, dl=1.0, e1=5.0)
    steady = ista_steady_state(params)
    # the plateau is the limit along iterations that land just before a
    # new measurement, i.e. l % P == P - 1
    far = ista_error_bound(401, params)
    assert far == pytest.approx(steady, rel=1e-10)


@settings(deadline=None, max_examples=120)
@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=0, max_value=40),
)
def test_error_bound_decays_along_aligned_iterations(delta, P, mu, extra, l):
    # with e1 above the drift offset, the bound shrinks P iterations later
    params = IstaBoundParams(eta=1.0, delta=delta, sigma=0.1, lam=0.2, q=2,
                             P=P, mu=mu, dl=1.0, e1=0.0)
    params = IstaBoundParams(eta=1.0, delta=delta, sigma=0.1, lam=0.2, q=2,
                             P=P, mu=mu, dl=1.0, e1=params.W + extra)
    assert ista_error_bound(l + P, params) <= ista_error_bound(l, params) + 1e-12


def test_steady_state_drops_with_more_iterations_per_measurement():
    def steady(P):
        params = IstaBoundParams(eta=1.0, delta=0.4, sigma=0.0, lam=0.2, q=2,
                                 P=P, mu=0.5, dl=1.0, e1=1.0)
        return ista_steady_state(params)

    values = [steady(P) for P in (1, 2, 5, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))
    static = IstaBoundParams(eta=1.0, delta=0.4, sigma=0.0, lam=0.2, q=2,
                             P=1, mu=0.0, dl=1.0, e1=1.0)
    assert values[-1] > ista_steady_state(static) == static.V


def test_continuous_steady_bound_values():
    assert lca_steady_bound(delta=0.0, tau=1.0, mu=0.0, sigma=0.0, lam=1.0, q=4) == 2.0
    assert lca_steady_bound(delta=0.5, tau=1.0, mu=1.0, sigma=1.0, lam=0.0, q=7) == 4.0
    with pytest.raises(ValueError):
        lca_steady_bound(1.0, 1.0, 0.0, 0.0, 1.0, 1)


def test_matched_discretization_stays_below_continuous_bound():
    # eta = 1, P = 1, dl = tau makes c = delta; the discrete steady state
    # then sits exactly tau*mu below the continuous constant
    delta, tau, mu, sigma, lam, q = 0.3, 2.0, 0.7, 0.1, 0.5, 3
    params = IstaBoundParams(eta=1.0, delta=delta, sigma=sigma, lam=lam, q=q,
                             P=1, mu=mu, dl=tau, e1=1.0)
    discrete = ista_steady_state(params)
    continuous = lca_steady_bound(delta, tau, mu, sigma, lam, q)
    assert discrete <= continuous
    assert continuous - discrete == pytest.approx(tau * mu, rel=1e-12)


def test_matched_discretization_equality_in_static_case():
    delta, tau, sigma, lam, q = 0.3, 2.0, 0.1, 0.5, 3
    params = IstaBoundParams(eta=1.0, delta=delta, sigma=sigma, lam=lam, q=q,
                             P=1, mu=0.0, dl=tau, e1=1.0)
    assert ista_steady_state(params) == pytest.approx(
        lca_steady_bound(delta, tau, 0.0, sigma, lam, q), rel=1e-14
    )


def test_continuous_error_bound_interpolates():
    params = LcaBoundParams(delta=0.25, tau=1.5, mu=0.4, sigma=0.1, lam=0.3, q=2, e0=5.0)
    assert lca_error_bound(0.0, params) == 5.0
    assert lca_error_bound(1e6, params) == pytest.approx(params.D, rel=1e-12)
    half_life = params.tau / (1.0 - params.delta) * math.log(2.0)
    assert lca_error_bound(half_life, params) == pytest.approx(
        (5.0 + params.D) / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        lca_error_bound(-0.1, params)


def test_discrete_precondition_report_passing_case():
    report = check_ista_preconditions(delta=0.0, q=4, beta=1.0, sigma=0.0,
                                      lam=1.0, eta=1.0, init_u=np.zeros(8))
    assert report.passed
    margin = named(report)["drift_noise_margin"]
    assert margin.lhs == 1.0 and margin.rhs == 2.0
    assert named(report)["initial_energy_within_threshold"].lhs == 0.0


def test_discrete_precondition_report_failing_case():
    report = check_ista_preconditions(delta=0.5, q=1, beta=10.0, sigma=0.0,
                                      lam=0.1, eta=1.0, init_u=np.zeros(8))
    margin = named(report)["drift_noise_margin"]
    assert not margin.passed
    assert margin.lhs == pytest.approx(15.0)
    assert margin.slack == pytest.approx(-14.95)
    assert not report.passed


def test_discrete_precondition_step_bound_row():
    report = check_ista_preconditions(delta=0.5, q=1, beta=0.1, sigma=0.0,
                                      lam=1.0, eta=1.5, init_u=np.zeros(4))
    row = named(report)["eta_step_bound"]
    assert not row.passed  # 1.5 >= 2/1.5


def test_condition_line_format():
    report = check_ista_preconditions(delta=0.0, q=4, beta=1.0, sigma=0.0,
                                      lam=1.0, eta=1.0, init_u=np.zeros(8))
    line = named(report)["drift_noise_margin"].line()
    assert line == "drift_noise_margin,1.0,2.0,1"


def test_continuous_precondition_report():
    report = check_lca_preconditions(delta=0.1, q=1, beta=0.5, sigma=0.0,
                                     lam=1.0, e0=1.0, D=2.0, init_u=np.zeros(8))
    assert report.passed
    decay = named(report)["decay_margin"]
    assert decay.lhs == pytest.approx(0.7)
    halved = check_lca_preconditions(delta=0.1, q=1, beta=0.5, sigma=0.0,
                                     lam=0.5, e0=1.0, D=2.0, init_u=np.zeros(8))
    assert not named(halved)["decay_margin"].passed


def test_continuous_precondition_zero_state_reduces_to_energy_row():
    report = check_lca_preconditions(delta=0.0, q=4, beta=1.0, sigma=0.5,
                                     lam=1.0, e0=3.0, D=1.0, init_u=np.zeros(8))
    decay = named(report)["decay_margin"]
    assert decay.lhs == 1.5  # beta + sigma once delta = 0
    assert decay.rhs == 2.0


def test_both_precondition_checkers_build_the_same_start_rows():
    # three entries above lam = 1 against a budget of q = 2: the active-set
    # row fails, and the top-2 energy ||(4, 3)|| = 5 exceeds lam * sqrt(2)
    init_u = np.array([3.0, -0.5, 0.0, 4.0, -2.0, 0.25])
    ista = check_ista_preconditions(delta=0.2, q=2, beta=0.5, sigma=0.1,
                                    lam=1.0, eta=1.0, init_u=init_u)
    lca = check_lca_preconditions(delta=0.2, q=2, beta=0.5, sigma=0.1,
                                  lam=1.0, e0=1.0, D=2.0, init_u=init_u)

    def start_rows(report):
        return [(check.name, check.lhs, check.rhs, check.passed)
                for check in report.checks if check.name.startswith("initial_")]

    assert start_rows(ista) == start_rows(lca) == [
        ("initial_active_within_budget", 3.0, 2.0, False),
        ("initial_energy_within_threshold", 5.0, math.sqrt(2.0), False),
    ]
    assert not ista.passed and not lca.passed


def test_rip_inequalities_trivial_for_identity():
    phi = gen_identity(8)
    x = np.zeros(8)
    x[[1, 4]] = [0.6, -0.8]
    report = rip_inequality_suite(phi, np.array([1]), np.array([4]), x,
                                  np.full(8, 0.25), 0.0)
    assert report.passed
    iso = named(report)["isometry_lower"]
    assert iso.lhs == pytest.approx(iso.rhs, abs=1e-15)
    assert named(report)["cross_coherence"].lhs <= 1e-15
    assert named(report)["gram_deviation"].lhs <= 1e-15


def test_rip_inequalities_tight_at_the_witness():
    phi = gen_gaussian_matrix(8, 16, 11)
    est, supp, coeffs = rip_exact_witness(phi, 4)
    x = np.zeros(16)
    x[supp] = coeffs
    report = rip_inequality_suite(phi, supp[:2], supp[2:], x, np.zeros(8), est.delta)
    assert report.passed
    slack = min(named(report)["isometry_lower"].slack, named(report)["isometry_upper"].slack)
    assert abs(slack) <= 1e-10


def test_rip_inequalities_reject_stray_support():
    phi = gen_identity(6)
    x = np.zeros(6)
    x[5] = 1.0
    with pytest.raises(ValueError, match="support"):
        rip_inequality_suite(phi, np.array([0]), np.array([1]), x, np.zeros(6), 0.0)


def test_support_cap_check_on_premise():
    res = support_cap_check(np.array([0.9, 0.5, 0.3]), lam=1.0, q=1)
    assert res.premise_holds
    assert res.conclusion_holds is True
    assert res.active.size == 0
    assert np.array_equal(res.top_set, [0])


def test_support_cap_check_off_premise_makes_no_claim():
    res = support_cap_check(np.array([2.0, 0.0, 0.0]), lam=1.0, q=1)
    assert not res.premise_holds
    assert res.conclusion_holds is None
    assert np.array_equal(res.active, [0])


def _reference_top_set(u, q):
    """Indices of the q largest magnitudes, ties to the lower index."""
    ranked = sorted(range(len(u)), key=lambda i: (-abs(u[i]), i))
    return sorted(ranked[:q])


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(min_value=1, max_value=6),
    q=st.integers(min_value=1, max_value=8),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_batched_support_cap_rows_match_single_calls(n, q, lam, data):
    # entries on a coarse lattice give ties, zeros and points exactly at
    # +-lam; q runs past n
    lattice = st.sampled_from([0.0, lam, -lam, 0.5 * lam, -0.5 * lam, 2.0 * lam, -3.0])
    rows = data.draw(
        st.lists(st.lists(st.one_of(lattice, st.floats(-4.0, 4.0)), min_size=n, max_size=n),
                 min_size=1, max_size=8)
    )
    block = np.array(rows)
    batch = support_cap_check(block, lam, q)
    q_eff = min(q, n)
    assert batch.premise_holds.shape == batch.conclusion_holds.shape == (len(rows),)
    assert batch.active.shape == block.shape
    assert batch.top_set.shape == (len(rows), q_eff)
    for r, u in enumerate(rows):
        single = support_cap_check(np.array(u), lam, q)
        top = _reference_top_set(u, q_eff)
        active = [i for i in range(n) if abs(u[i]) > lam]
        assert batch.premise_holds[r] == single.premise_holds
        assert np.array_equal(single.top_set, top)
        assert np.array_equal(batch.top_set[r], top)
        assert np.array_equal(single.active, active)
        assert np.array_equal(np.flatnonzero(batch.active[r]), active)
        if q_eff == 1:  # a one-entry energy is exact, so the premise has a reference
            assert single.premise_holds == (max(map(abs, u)) <= lam * math.sqrt(q))
        conclusion = len(active) <= q and set(active) <= set(top)
        assert batch.conclusion_holds[r] == conclusion
        if single.premise_holds:
            assert single.conclusion_holds is conclusion
        else:
            assert single.conclusion_holds is None


def _reference_rip_values(phi, gamma1, gamma2, x, y, delta):
    """(lhs, rhs) of the five near-isometry checks, one vector at a time."""
    def restrict(v, idx):
        out = np.zeros_like(v)
        out[idx] = v[idx]
        return out

    ent = phi.entries
    xn = np.linalg.norm(x)
    phix2 = float(np.dot(ent @ x, ent @ x))
    cross = restrict(ent.T @ (ent @ restrict(x, np.setdiff1d(gamma2, gamma1))), gamma1)
    gram_dev = restrict(x, gamma1) - restrict(ent.T @ (ent @ x), gamma1)
    adj = restrict(ent.T @ y, gamma1)
    return [
        ((1.0 - delta) * xn**2, phix2),
        (phix2, (1.0 + delta) * xn**2),
        (np.linalg.norm(cross), delta * xn),
        (np.linalg.norm(gram_dev), delta * xn),
        (np.linalg.norm(adj), math.sqrt(1.0 + delta) * np.linalg.norm(y)),
    ]


def _rip_block(seed, m, n, rows, k1, k2):
    rng = np.random.default_rng(seed)
    gamma1 = np.array([np.sort(rng.choice(n, size=k1, replace=False)) for _ in range(rows)])
    gamma2 = np.array([np.sort(rng.choice(n, size=k2, replace=False)) for _ in range(rows)])
    x = np.zeros((rows, n))
    for r in range(rows):
        union = np.union1d(gamma1[r], gamma2[r])
        # some rows leave part of the union at zero
        x[r, union] = rng.standard_normal(union.size) * (rng.random(union.size) < 0.8)
    y = rng.standard_normal((rows, m))
    return gen_gaussian_matrix(m, n, seed), gamma1, gamma2, x, y


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    m=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=3, max_value=14),
    rows=st.integers(min_value=1, max_value=7),
    k1=st.integers(min_value=1, max_value=3),
    k2=st.integers(min_value=1, max_value=3),
    delta=st.floats(min_value=0.0, max_value=0.99),
)
def test_batched_rip_suite_rows_match_single_calls(seed, m, n, rows, k1, k2, delta):
    phi, gamma1, gamma2, x, y = _rip_block(seed, m, n, rows, k1, k2)
    batch = rip_inequality_suite(phi, gamma1, gamma2, x, y, delta)
    for r in range(rows):
        single = rip_inequality_suite(phi, gamma1[r], gamma2[r], x[r], y[r], delta)
        ref = _reference_rip_values(phi, gamma1[r], gamma2[r], x[r], y[r], delta)
        for check, row_check, (lhs, rhs) in zip(batch.checks, single.checks, ref):
            assert check.name == row_check.name
            assert isinstance(row_check.lhs, float) and isinstance(row_check.rhs, float)
            # rel 1e-12, with a floor for terms that vanish
            for got in (check.lhs[r], row_check.lhs):
                assert got == pytest.approx(lhs, rel=1e-12, abs=1e-13)
            for got in (check.rhs[r], row_check.rhs):
                assert got == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rows=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_batched_rip_suite_rejects_stray_support_in_any_row(seed, rows, data):
    n = 10
    phi, gamma1, gamma2, x, y = _rip_block(seed, 6, n, rows, 2, 2)
    bad = data.draw(st.integers(min_value=0, max_value=rows - 1))
    outside = np.setdiff1d(np.arange(n), np.union1d(gamma1[bad], gamma2[bad]))
    x[bad, data.draw(st.sampled_from(outside.tolist()))] = 0.5
    with pytest.raises(ValueError, match="support"):
        rip_inequality_suite(phi, gamma1, gamma2, x, y, 0.5)
    with pytest.raises(ValueError, match="support"):
        rip_inequality_suite(phi, gamma1[bad], gamma2[bad], x[bad], y[bad], 0.5)


def test_rip_suite_rejects_indices_outside_the_columns():
    # a negative index would otherwise wrap onto the last column
    phi = gen_identity(6)
    x = np.zeros(6)
    x[5] = 1.0
    for gamma1 in (np.array([-1]), np.array([6])):
        with pytest.raises(ValueError, match="indices in"):
            rip_inequality_suite(phi, gamma1, np.array([1]), x, np.zeros(6), 0.0)


def test_error_bounds_take_whole_traces():
    ista = IstaBoundParams(eta=0.8, delta=0.3, sigma=0.1, lam=0.2, q=2,
                           P=3, mu=0.5, dl=1.0, e1=4.0)
    steps = np.arange(300)
    np.testing.assert_allclose(
        ista_error_bound(steps, ista), [ista_error_bound(int(l), ista) for l in steps],
        rtol=1e-12, atol=0,
    )
    lca = LcaBoundParams(delta=0.25, tau=1.5, mu=0.4, sigma=0.1, lam=0.3, q=2, e0=5.0)
    times = np.linspace(0.0, 30.0, 301)
    np.testing.assert_allclose(
        lca_error_bound(times, lca), [lca_error_bound(float(t), lca) for t in times],
        rtol=1e-12, atol=0,
    )
    with pytest.raises(ValueError):
        ista_error_bound(np.array([0, 1, -1]), ista)
    with pytest.raises(ValueError):
        lca_error_bound(np.array([0.0, -0.5]), lca)


def test_energy_envelope_holds_for_decaying_trajectory():
    t = np.linspace(0.0, 3.0, 3001)
    x0 = np.array([0.8, -0.6])
    traj = np.exp(-t)[:, None] * x0
    res = target_energy_envelope_check(traj, tau=1.0, mu=2.0, dt=t[1] - t[0])
    assert res.status == "holds"
    assert res.max_bound_excess <= 0.0


def test_energy_envelope_equality_at_fixed_point():
    traj = np.tile([1.5, 0.0], (50, 1))
    res = target_energy_envelope_check(traj, tau=1.0, mu=1.5, dt=0.01)
    assert res.status == "holds"
    assert res.max_bound_excess == pytest.approx(-1e-6 * 1.5, abs=1e-12)


def test_energy_envelope_not_applicable_when_premise_fails():
    traj = np.array([[0.0, 0.0], [5.0, 0.0]])
    res = target_energy_envelope_check(traj, tau=1.0, mu=0.1, dt=0.1)
    assert res.status == "not_applicable"
    assert math.isnan(res.max_bound_excess)


def test_energy_envelope_can_flag_violation_between_samples():
    # the sampled premise holds at dt = 1 but the envelope dips below the
    # endpoint value inside the interval
    res = target_energy_envelope_check(np.array([[1.0], [1.2]]), tau=1.0, mu=1.2, dt=1.0)
    assert res.status == "violated"
    assert res.max_bound_excess > 0


def test_energy_envelope_validation():
    with pytest.raises(ValueError):
        target_energy_envelope_check(np.array([[1.0]]), tau=1.0, mu=1.0, dt=0.1)
    with pytest.raises(ValueError):
        target_energy_envelope_check(np.zeros((3, 2)), tau=0.0, mu=1.0, dt=0.1)
