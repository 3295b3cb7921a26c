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
    gen_noise,
    measure,
    noise_rows,
    rip_exact,
    rip_exact_witness,
)
from streamista.rng import make_rng, philox_keys, standard_normals

from reference import gen_identity


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


def test_rip_exact_respects_budget(monkeypatch):
    phi = gen_gaussian_matrix(6, 12, 0)
    monkeypatch.setattr(measurement, "DEFAULT_SUPPORT_BUDGET", 10)
    with pytest.raises(SupportBudgetError):
        rip_exact(phi, 3)


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


def exhaustive_witness(phi, s):
    """Every support eigen-solved, batch by batch, keeping the first maximum."""
    gram = phi.entries.T @ phi.entries
    best_dev, best_support = -np.inf, None
    for supports in measurement._support_batches(phi.cols, s):
        bmin, bmax = measurement._batch_extremes(gram, supports)
        dev = np.maximum(1.0 - bmin, bmax - 1.0)
        i = int(np.argmax(dev))
        if dev[i] > best_dev:
            best_dev, best_support = float(dev[i]), supports[i].copy()
    evals, evecs = np.linalg.eigh(gram[np.ix_(best_support, best_support)])
    coeffs = evecs[:, 0] if 1.0 - evals[0] >= evals[-1] - 1.0 else evecs[:, -1]
    return best_dev, best_support, coeffs


def assert_witness_is_exhaustive(phi, s):
    est, support, coeffs = rip_exact_witness(phi, s)
    delta, ref_support, ref_coeffs = exhaustive_witness(phi, s)
    assert est.delta == delta
    assert np.array_equal(support, ref_support)
    assert np.array_equal(coeffs, ref_coeffs)


def small_levels(n):
    return [s for s in range(1, n + 1) if math.comb(n, s) <= 2000]


def unit_columns(entries):
    entries = np.asarray(entries, dtype=np.float64)
    entries = entries / np.linalg.norm(entries, axis=0)
    return MeasurementMatrix(*entries.shape, entries)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    # past 18 columns level 3 bounds its supports by gathering, not a product
    n=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    tie=st.sampled_from(["none", "duplicate", "flip"]),
)
@example(m=12, n=20, seed=0, tie="none")
def test_pruned_witness_matches_exhaustive_search(m, n, seed, tie):
    entries = gen_gaussian_matrix(m, n, seed).entries.copy()
    if tie != "none" and n >= 2:
        # tied supports: a column repeated, or repeated with its sign flipped
        entries[:, -1] = entries[:, 0] * (1.0 if tie == "duplicate" else -1.0)
    phi = MeasurementMatrix(m, n, entries)
    for s in small_levels(n):
        assert_witness_is_exhaustive(phi, s)


def tie_families():
    rng = np.random.default_rng(5)
    half = rng.standard_normal((6, 5))
    orthogonal = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    eye = np.eye(5)
    return {
        "identity": gen_identity(12),
        "orthogonal": unit_columns(orthogonal),
        "duplicated": unit_columns(np.hstack([half, half])),
        "sign_flipped": unit_columns(np.hstack([half, -half])),
        "signed_identity": unit_columns(np.hstack([eye, -eye])),
        "tall": gen_gaussian_matrix(1000, 16, 3),
        "wide": gen_gaussian_matrix(18, 20, 8),
    }


@pytest.mark.parametrize("name", list(tie_families()))
def test_pruned_witness_matches_exhaustive_search_on_ties(name):
    phi = tie_families()[name]
    for s in small_levels(phi.cols):
        assert_witness_is_exhaustive(phi, s)


def test_pruned_witness_skips_a_batch_that_cannot_win(monkeypatch):
    # columns 0 and 1 nearly parallel, the rest orthonormal: every support
    # of the second batch of comb(17, 6) starts at column 2 and is exact
    entries = np.eye(17)
    entries[:, 1] = entries[:, 0] + 0.1 * entries[:, 1]
    phi = unit_columns(entries)
    assert math.comb(17, 6) > measurement._BATCH
    solved = []
    batch_extremes = measurement._batch_extremes

    def counting(gram, supports):
        solved.append(len(supports))
        return batch_extremes(gram, supports)

    monkeypatch.setattr(measurement, "_batch_extremes", counting)
    rip_exact_witness(phi, 6)
    # the lead supports and the kept ones of the first batch, none of the second
    assert len(solved) == 2
    assert sum(solved) < measurement._BATCH
    monkeypatch.undo()
    assert_witness_is_exhaustive(phi, 6)


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
    """Reference: one generator per vector, times one scale.

    A capped draw whose scaled norm exceeds the cap is scaled by the cap
    over ``np.linalg.norm`` of the unscaled draw.
    """
    draw = make_rng(seed).standard_normal(m)
    scale = sigma
    if mode == "capped":
        cap = sigma / math.sqrt(1.0 + delta)
        nrm = float(np.linalg.norm(draw))
        if sigma * nrm > cap:
            scale = cap / nrm
    return draw * scale


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


# noise levels across the float range: squares of a row overflow from about
# 1e154 and fall under the normal range below about 1e-154
noise_levels = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e300),
    st.integers(min_value=-323, max_value=300).map(lambda e: 10.0**e),
)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(
    m=st.integers(min_value=1, max_value=64),
    rows=st.lists(
        st.tuples(
            noise_levels,
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        min_size=1, max_size=8,
    ),
)
@example(m=64, rows=[(1e300, 0.0, 7), (1e154, 0.5, 7), (1e-170, 0.0, 7), (1.0, 0.5, 3)])
def test_capped_rows_keep_the_cap_at_every_level(m, rows):
    sigma, delta, seeds = zip(*rows)
    keys = philox_keys(seeds)
    capped = noise_rows(m, sigma, delta, "capped", keys)
    draws = standard_normals(keys, np.empty((len(rows), m)))
    for row, draw, sig, dlt in zip(capped, draws, sigma, delta):
        cap = sig / math.sqrt(1.0 + dlt)
        # rounding: relative, and absolute below the normal range, where a
        # float has no relative precision
        slack = 1e-12 * cap + 1e-320
        norm = math.hypot(*row)
        drawn = sig * math.hypot(*draw)
        assert norm <= cap + slack
        if drawn > cap + slack:
            assert norm == pytest.approx(cap, rel=1e-12, abs=1e-320)
        elif drawn < cap - slack:
            assert row.tobytes() == (sig * draw).tobytes()


def test_capped_rows_draw_each_key_once(monkeypatch):
    # at every level, one draw of every key serves both the norm and the row
    calls = []

    def spy(keys, out):
        calls.append(np.array(keys))
        return standard_normals(keys, out)

    monkeypatch.setattr(measurement, "standard_normals", spy)
    keys = philox_keys([7, 8, 9])
    noise_rows(64, [1e300, 1e-170, 1.0], 0.5, "capped", keys)
    assert len(calls) == 1
    assert np.array_equal(calls[0], keys)


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
