import math
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from streamista import measurement
from streamista.measurement import (
    NOISE_MODES,
    MeasurementMatrix,
    SupportBudgetError,
    gaussian_matrices,
    gen_gaussian_matrix,
    gen_identity,
    gen_noise,
    load_matrix_csv,
    measure,
    noise_rows,
    rip_exact,
    rip_exact_witness,
    rip_monte_carlo,
    save_matrix_csv,
)
from streamista.rng import make_rng, philox_keys


def brute_delta(phi, s):
    """Independent oracle: per-support eigenvalue scan, no batching."""
    gram = phi.entries.T @ phi.entries
    worst = 0.0
    for supp in combinations(range(phi.cols), s):
        block = gram[np.ix_(supp, supp)]
        evals = np.linalg.eigvalsh(block)
        worst = max(worst, 1.0 - evals[0], evals[-1] - 1.0)
    return worst


def test_gaussian_matrix_unit_columns():
    phi = gen_gaussian_matrix(6, 10, 3)
    norms = np.linalg.norm(phi.entries, axis=0)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)
    assert phi.rows == 6 and phi.cols == 10 and phi.seed == 3


def test_gaussian_matrix_seed_reproducible():
    a = gen_gaussian_matrix(5, 8, 42)
    b = gen_gaussian_matrix(5, 8, 42)
    c = gen_gaussian_matrix(5, 8, 43)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_gaussian_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        gen_gaussian_matrix(0, 4, 0)
    with pytest.raises(ValueError):
        gen_gaussian_matrix(4, -1, 0)


def test_matrix_rejects_non_unit_columns():
    with pytest.raises(ValueError, match="unit norm"):
        MeasurementMatrix(2, 2, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_matrix_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        MeasurementMatrix(3, 2, np.eye(2))


def test_identity_matrix_has_zero_rip():
    phi = gen_identity(6)
    for s in (1, 2, 3):
        assert rip_exact(phi, s).delta == 0.0


@pytest.mark.parametrize("s", [2, 3])
def test_rip_exact_matches_brute_force(s):
    phi = gen_gaussian_matrix(6, 8, 9)
    est = rip_exact(phi, s)
    assert est.method == "exact"
    assert est.sparsity_level == s
    assert abs(est.delta - brute_delta(phi, s)) <= 1e-10


def test_rip_exact_permutation_invariant():
    phi = gen_gaussian_matrix(6, 8, 1)
    perm = np.random.default_rng(0).permutation(8)
    shuffled = MeasurementMatrix(6, 8, phi.entries[:, perm])
    assert rip_exact(phi, 2).delta == pytest.approx(rip_exact(shuffled, 2).delta, abs=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=50))
def test_rip_monotone_in_sparsity(seed):
    phi = gen_gaussian_matrix(5, 8, seed)
    deltas = [rip_exact(phi, s).delta for s in (1, 2, 3)]
    assert deltas[0] <= deltas[1] + 1e-12
    assert deltas[1] <= deltas[2] + 1e-12


def test_rip_exact_respects_budget():
    phi = gen_gaussian_matrix(6, 12, 0)
    with pytest.raises(SupportBudgetError):
        rip_exact(phi, 3, budget=10)


def test_rip_monte_carlo_below_exact():
    phi = gen_gaussian_matrix(6, 10, 4)
    exact = rip_exact(phi, 3).delta
    mc = rip_monte_carlo(phi, 3, trials=50, seed=0)
    assert mc.method == "monte_carlo"
    assert mc.samples == 50
    assert mc.delta <= exact + 1e-12


def test_rip_monte_carlo_validation():
    phi = gen_gaussian_matrix(4, 6, 0)
    with pytest.raises(ValueError):
        rip_monte_carlo(phi, 0, trials=5, seed=0)
    with pytest.raises(ValueError):
        rip_monte_carlo(phi, 2, trials=0, seed=0)


@pytest.mark.parametrize(
    "m, n, s, seed", [(8, 16, 4, 11), (6, 10, 3, 4), (5, 9, 1, 2), (10, 12, 6, 7)]
)
def test_rip_witness_achieves_the_constant(m, n, s, seed):
    phi = gen_gaussian_matrix(m, n, seed)
    est, supp, coeffs = rip_exact_witness(phi, s)
    assert est.delta == rip_exact(phi, s).delta
    assert supp.size == s
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)
    x = np.zeros(n)
    x[supp] = coeffs
    # quadratic form deviation from 1 equals the constant for the witness
    quad = float(x @ (phi.entries.T @ (phi.entries @ x)))
    assert abs(quad - 1.0) == pytest.approx(est.delta, abs=1e-10)


def test_measure_is_exact_linear_map():
    phi = gen_identity(3)
    y = measure(phi, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.5]))
    assert np.array_equal(y, [1.5, 2.0, 2.5])


def test_measure_validates_shapes():
    phi = gen_identity(3)
    with pytest.raises(ValueError, match="target"):
        measure(phi, np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError, match="noise"):
        measure(phi, np.zeros(3), np.zeros(2))


def test_gaussian_noise_moments():
    draws = np.stack([gen_noise(20, 0.7, 0.0, "gaussian_scaled", s) for s in range(500)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 0.7) < 0.035  # 5% of sigma


def test_gaussian_noise_reproducible():
    assert np.array_equal(
        gen_noise(8, 1.0, 0.0, "gaussian_scaled", 5),
        gen_noise(8, 1.0, 0.0, "gaussian_scaled", 5),
    )


def test_capped_noise_never_exceeds_cap():
    cap = 1.0 / math.sqrt(1.5)
    norms = [np.linalg.norm(gen_noise(2, 1.0, 0.5, "capped", s)) for s in range(200)]
    assert max(norms) <= cap + 1e-12
    # the cap only rescales oversized draws, small ones pass through
    assert sum(1 for v in norms if v < 0.999 * cap) > 10


def test_zero_sigma_noise_is_zero():
    assert np.array_equal(gen_noise(4, 0.0, 0.2, "capped", 1), np.zeros(4))


def test_gen_noise_validation():
    with pytest.raises(ValueError):
        gen_noise(0, 1.0, 0.0, "capped", 0)
    with pytest.raises(ValueError):
        gen_noise(4, -1.0, 0.0, "capped", 0)
    with pytest.raises(ValueError):
        gen_noise(4, 1.0, 1.0, "capped", 0)
    with pytest.raises(ValueError, match="noise mode"):
        gen_noise(4, 1.0, 0.0, "uniform", 0)
    with pytest.raises(ValueError, match="sigma"):
        gen_noise(4, math.nan, 0.0, "gaussian_scaled", 1)
    with pytest.raises(ValueError, match="sigma"):
        gen_noise(4, math.inf, 0.0, "capped", 1)


def test_noise_rows_validate_every_row():
    with pytest.raises(ValueError, match="sigma"):
        noise_rows(4, [1.0, math.nan], 0.0, "capped", philox_keys([0, 1]))
    with pytest.raises(ValueError, match="delta"):
        noise_rows(4, 1.0, [0.5, 1.0], "capped", philox_keys([0, 1]))
    with pytest.raises(ValueError, match="seed"):
        gen_noise(4, 1.0, 0.0, "capped", 2**64)


def scalar_noise(m, sigma, delta, mode, seed):
    """Reference: one generator per vector, capped through ``np.linalg.norm``."""
    eps = sigma * make_rng(seed).standard_normal(m)
    if mode == "capped":
        cap = sigma / math.sqrt(1.0 + delta)
        nrm = float(np.linalg.norm(eps))
        if nrm > cap:
            eps *= cap / nrm
    return eps


noise_args = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
        st.one_of(
            st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    min_size=1, max_size=10,
)


@settings(deadline=None, max_examples=80)
@given(m=st.integers(min_value=1, max_value=24), mode=st.sampled_from(NOISE_MODES), rows=noise_args)
@example(m=2, mode="capped", rows=[(1.0, 0.5, seed) for seed in range(12)])
def test_noise_rows_match_one_row_calls(m, mode, rows):
    sigma, delta, seeds = zip(*rows)
    block = noise_rows(m, sigma, delta, mode, philox_keys(seeds))
    assert block.shape == (len(rows), m)
    for row, (sig, dlt, seed) in zip(block, rows):
        assert row.tobytes() == gen_noise(m, sig, dlt, mode, seed).tobytes()
        assert row.tobytes() == scalar_noise(m, sig, dlt, mode, seed).tobytes()


def test_noise_rows_cap_only_oversized_rows():
    cap = 1.0 / math.sqrt(1.5)
    seeds = range(12)
    raw = noise_rows(2, 1.0, 0.5, "gaussian_scaled", philox_keys(seeds))
    capped = noise_rows(2, 1.0, 0.5, "capped", philox_keys(seeds))
    over = np.linalg.norm(raw, axis=1) > cap
    assert 0 < over.sum() < len(seeds)  # both sides of the cap
    assert np.array_equal(capped[~over], raw[~over])
    np.testing.assert_allclose(np.linalg.norm(capped[over], axis=1), cap, rtol=1e-12)


def test_matrix_csv_round_trip_is_exact(tmp_path):
    phi = gen_gaussian_matrix(5, 7, 13)
    path = tmp_path / "phi.csv"
    save_matrix_csv(phi, path)
    back = load_matrix_csv(path)
    assert np.array_equal(back.entries, phi.entries)
    assert (back.rows, back.cols, back.seed) == (5, 7, 13)


def test_matrix_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5,7\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_csv(path)


def test_matrix_csv_rejects_truncated_file(tmp_path):
    phi = gen_gaussian_matrix(4, 4, 0)
    path = tmp_path / "phi.csv"
    save_matrix_csv(phi, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        load_matrix_csv(path)


def test_gaussian_matrices_check_unit_columns(monkeypatch):
    # a zero column cannot be scaled to unit norm, and the block path says so
    def zeros(keys, out):
        out[...] = 0.0
        return out

    monkeypatch.setattr(measurement, "standard_normals", zeros)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit norm"):
        gaussian_matrices(3, 4, philox_keys([0, 1]))


def test_noise_rows_of_seeds_reject_seeds_outside_uint64():
    # gen_noise raises for -1, and so must the keys of its block case, not
    # draw seed 2**64 - 1
    for bad in (np.array([-1]), np.array([0, 1.5]), [2**64]):
        with pytest.raises(ValueError, match="seed"):
            noise_rows(3, 1.0, 0.0, "capped", philox_keys(bad))
    with pytest.raises(ValueError, match="seed"):
        gen_noise(3, 1.0, 0.0, "capped", -1)


def test_gaussian_matrices_check_every_matrix(monkeypatch):
    # only the last column of the last matrix is zero; the check still sees it
    def last_column_zero(keys, out):
        out[...] = 1.0
        out[-1, :, -1] = 0.0
        return out

    monkeypatch.setattr(measurement, "standard_normals", last_column_zero)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit norm"):
        gaussian_matrices(3, 4, philox_keys([0, 1, 2]))
