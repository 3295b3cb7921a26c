from contextlib import ExitStack, contextmanager
from dataclasses import fields, replace
from functools import partial
import hashlib
import inspect
import math
import multiprocessing
import os
from pathlib import Path
import pickle
import threading
from types import SimpleNamespace
from unittest.mock import patch
import weakref

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.extra.numpy import arrays

from streamista.harness import (
    THREADS_ENV,
    ConfigError,
    ExperimentConfig,
    _block_size,
    _run_block,
    _run_cells,
    _stream_keys,
    estimate_steady_state,
    fit_lambda_level,
    fit_steady_state,
    lambda_s_cells,
    QRatioGrid,
    RunResult,
    read_steady_csv,
    run_trials,
    sweep,
    sweep_cells,
    sweep_lambda_s,
    worker_count,
    write_curve_csv,
    write_fit_csv,
    write_preconditions_csv,
    write_qratio_csv,
    write_steady_csv,
)
from streamista import harness, kernels, measurement, rng, signals, suites
from streamista.configio import parse_config
from streamista.measurement import gen_gaussian_matrix, gen_noise, measure
from streamista.rng import derive_seed
from streamista.signals import assemble_target
from streamista.suites import _run_suite, run_lca_suite, run_lemma_suite, run_theorem_suite
from streamista.theory import check_ista_preconditions

from reference import trial_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL = ExperimentConfig(m=16, n=24, s=2, n_pairs=1, n_samples=8, beta=2.0,
                         mu=0.4, lam=0.1, eta=0.3, P=2, trials=6, q=8, seed=1)

def call_arguments(function, *args, **kwargs):
    """The arguments of a call of ``function`` by name, defaults included.

    A spy takes ``*args, **kwargs``, forwards them unchanged to the
    ``function`` it replaced, and reads them here, so it keeps working when
    that function gains a keyword.
    """
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def model_curve(c, V, mu, dl, p_values):
    p = np.asarray(p_values, dtype=np.float64)
    return c**p / (1.0 - c**p) * mu * dl + V


def test_fit_recovers_known_parameters():
    p_values = np.arange(1, 11)
    y = model_curve(0.62, 0.33, 0.8, 1.0, p_values)
    fit = fit_steady_state(p_values, y, mu=0.8, dl=1.0)
    assert fit.c_hat == pytest.approx(0.62, abs=2e-4)  # grid resolution
    assert fit.V_hat == pytest.approx(0.33, abs=1e-3)
    assert fit.r2 > 0.999999


def test_fit_survives_small_noise():
    rng = np.random.default_rng(3)
    p_values = np.arange(1, 11)
    y = model_curve(0.62, 0.33, 0.8, 1.0, p_values)
    y = y * (1.0 + 0.01 * rng.standard_normal(y.size))
    fit = fit_steady_state(p_values, y, mu=0.8, dl=1.0)
    assert fit.c_hat == pytest.approx(0.62, abs=0.05)
    assert fit.r2 > 0.99


def test_fit_constant_curve_has_zero_r2():
    fit = fit_steady_state([1, 2, 3, 4], [0.5, 0.5, 0.5, 0.5], mu=0.1, dl=1.0)
    assert fit.r2 == 0.0


def test_fit_validation():
    with pytest.raises(ValueError, match="distinct"):
        fit_steady_state([1, 1, 2], [0.5, 0.5, 0.6], mu=0.1, dl=1.0)
    with pytest.raises(ValueError, match="positive"):
        fit_steady_state([1, 2, 3], [0.5, -0.1, 0.6], mu=0.1, dl=1.0)
    with pytest.raises(ValueError):
        fit_steady_state([1, 2, 3], [0.5, 0.4, 0.6], mu=-0.1, dl=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_values_without_a_finite_fit():
    nan, inf = float("nan"), float("inf")
    for p_values in ([nan, 2, 5], [inf, 2, 5], [0, 2, 5], [-1, 2, 5], [0.5, 2, 5]):
        with pytest.raises(ValueError, match="P values must be finite and at least 1"):
            fit_steady_state(p_values, [0.5, 0.4, 0.3], mu=0.1, dl=1.0)
    for steady in ([nan, 0.4, 0.3], [inf, 0.4, 0.3], [0.5, 0.4, nan]):
        with pytest.raises(ValueError, match="steady values must be positive and finite"):
            fit_steady_state([1, 2, 5], steady, mu=0.1, dl=1.0)
    # finite inputs whose squared residuals overflow
    for steady in ([1e200, 0.4, 0.3], [1e300, 1e300, 1e-300]):
        with pytest.raises(ValueError, match="fit overflows"):
            fit_steady_state([1, 2, 5], steady, mu=0.1, dl=1.0)
    with pytest.raises(ValueError, match="fit overflows"):
        fit_steady_state([1, 2, 5], [0.5, 0.4, 0.3], mu=1e300, dl=1e8)
    # a fractional P at least 1 still fits
    assert math.isfinite(fit_steady_state([1, 1.5, 5], [0.5, 0.4, 0.3], mu=0.1, dl=1.0).r2)


def test_estimate_steady_state_tail_mean():
    curve = np.arange(8.0)
    assert estimate_steady_state(curve, 0.25) == 6.5
    assert estimate_steady_state(curve, 1.0) == 3.5
    with pytest.raises(ValueError):
        estimate_steady_state(np.arange(3.0))
    with pytest.raises(ValueError):
        estimate_steady_state(curve, 0.0)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv(THREADS_ENV, "3")
    assert worker_count() == 3
    monkeypatch.setenv(THREADS_ENV, "many")
    with pytest.raises(ValueError):
        worker_count()


def test_run_trials_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    serial = run_trials(SMALL)
    monkeypatch.setenv(THREADS_ENV, "4")
    threaded = run_trials(SMALL)
    assert serial.mean_curve.tobytes() == threaded.mean_curve.tobytes()
    assert serial.std_curve.tobytes() == threaded.std_curve.tobytes()


def cell_records(cfg, trials):
    """``(errors, max_gamma, diverged, sigma)`` of ``cfg``'s trials ``trials``, one block.

    The block is run as :func:`harness._run_cells` runs a lone cell: one
    :func:`harness._block_runs` call under one row of thresholds; the
    errors are ``(T, n_samples)`` and the other records ``(T,)``.
    """
    run = (np.full((1, 1, 1), cfg.lam), cfg.eta, cfg.P, 1.0, cfg.P > 1)
    [(errors, max_gamma, diverged)], sigma = harness._block_runs(
        cfg, _stream_keys(cfg, trials), cfg.noise_delta, cfg.noise_mode, [run]
    )
    return errors[..., 0].T, max_gamma[:, 0], diverged[:, 0], sigma


def test_run_trial_is_deterministic():
    a_errors, a_gamma, _, a_sigma = cell_records(SMALL, [2])
    b_errors, b_gamma, _, b_sigma = cell_records(SMALL, [2])
    assert np.array_equal(a_errors, b_errors)
    assert np.array_equal(a_sigma, b_sigma)
    assert np.array_equal(a_gamma, b_gamma)


def test_drift_raises_tracking_error():
    from dataclasses import replace

    still = run_trials(replace(SMALL, mu=0.0, n_pairs=0))
    moving = run_trials(replace(SMALL, mu=0.8, n_pairs=0))
    assert estimate_steady_state(moving.mean_curve) > estimate_steady_state(still.mean_curve)


def test_sweep_returns_cells_in_order():
    cells = sweep(SMALL, axis="P", values=(1, 3))
    assert [v for v, _ in cells] == [1, 3]
    assert all(r.mean_curve.shape == (SMALL.n_samples,) for _, r in cells)
    with pytest.raises(ValueError, match="axis"):
        sweep(SMALL, axis="sigma", values=(1,))
    with pytest.raises(ValueError):
        sweep(SMALL, axis="P", values=())


def test_sweep_lambda_s_grid_shape():
    from dataclasses import replace

    cfg = replace(SMALL, trials=4, n_samples=6)
    grid, fit = sweep_lambda_s(cfg, lambda_values=(0.05, 0.8), s_values=(2, 4),
                               ratio_level=2.0)
    assert grid.ratios.shape == (2, 2)
    assert np.all(np.isfinite(grid.ratios))
    assert np.all(grid.ratios >= 0)
    assert fit.level == 2.0
    assert len(fit.level_points) == 2
    with pytest.raises(ValueError):
        sweep_lambda_s(cfg, lambda_values=(), s_values=(2,))


def test_fit_lambda_level_hand_grid():
    # nearest-to-level rows are lam=0.4 for s=4 and lam=0.2 for s=16, so
    # C = (0.4/2 + 0.2/4) / (1/4 + 1/16) = 0.8
    grid = QRatioGrid(
        lambda_values=(0.2, 0.4),
        s_values=(4, 16),
        ratios=np.array([[5.0, 3.1], [2.9, 1.0]]),
    )
    fit = fit_lambda_level(grid, level=3.0)
    assert fit.level_points == ((4, 0.4), (16, 0.2))
    assert fit.C == pytest.approx(0.8, rel=1e-12)
    # a level at the end of a column's range is bracketed; one past it is not
    assert fit_lambda_level(grid, level=3.1).level_points == ((4, 0.4), (16, 0.2))
    with pytest.raises(RuntimeError, match=r"^ratio level 3.5 is not bracketed: "
                                           r"the ratios of s=16 span \[1.0, 3.1\]$"):
        fit_lambda_level(grid, level=3.5)


def test_curve_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [1.5, 0.25], [0.1, 0.0])
    lines = path.read_text().splitlines()
    assert lines == ["k,error_mean,error_std", "1,1.5,0.1", "2,0.25,0.0"]


def test_steady_csv_round_trip(tmp_path):
    path = tmp_path / "steady.csv"
    write_steady_csv(path, "P", [1, 2, 10], [0.9, 0.75, 0.5])
    axis, values, steadies = read_steady_csv(path)
    assert axis == "P"
    assert np.array_equal(values, [1.0, 2.0, 10.0])
    assert np.array_equal(steadies, [0.9, 0.75, 0.5])
    assert path.read_text().splitlines()[1] == "1,0.9"


def test_steady_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("P,wrong_header\n1,0.5\n")
    with pytest.raises(ValueError, match="malformed"):
        read_steady_csv(path)


def test_fit_csv_format(tmp_path):
    fit = fit_steady_state([1, 2, 3, 4], model_curve(0.5, 0.4, 1.0, 1.0, [1, 2, 3, 4]),
                           mu=1.0, dl=1.0)
    path = tmp_path / "fit.csv"
    write_fit_csv(path, fit)
    lines = path.read_text().splitlines()
    assert lines[0] == "c_hat,V_hat,sse,r2"
    got = [float(v) for v in lines[1].split(",")]
    assert got == [fit.c_hat, fit.V_hat, fit.sse, fit.r2]


def test_qratio_csv_format(tmp_path):
    grid = QRatioGrid((0.1,), (2, 4), np.array([[3.0, 1.5]]))
    path = tmp_path / "qratio.csv"
    write_qratio_csv(path, grid)
    assert path.read_text().splitlines() == ["lambda,S,ratio", "0.1,2,3.0", "0.1,4,1.5"]


def test_preconditions_csv_labels_rows(tmp_path):
    report = check_ista_preconditions(delta=0.0, q=4, beta=1.0, sigma=0.0,
                                      lam=1.0, eta=1.0, init_u=np.zeros(4))
    path = tmp_path / "pre.csv"
    write_preconditions_csv(path, [("inst000", report)])
    lines = path.read_text().splitlines()
    assert lines[0] == "condition,lhs,rhs,pass"
    assert lines[1].startswith("inst000:eta_positive,")
    assert len(lines) == 1 + len(report.checks)


def test_theorem_suite_small_run_is_dominated():
    cfg = ExperimentConfig(m=18, n=20, s=1, n_pairs=1, n_samples=100, beta=1.0,
                           mu=0.05, lam=0.1, eta=1.0, P=5, noise_mode="capped",
                           noise_level=0.05, trials=12, q=1, seed=0)
    suite = run_theorem_suite(cfg)
    assert suite.n_passing >= 3
    assert suite.all_dominated
    # the threshold floor only ever raises lambda
    assert all(inst.lam >= cfg.lam for inst in suite.instances)
    passing = [i for i in suite.instances if i.report.passed]
    assert all(i.max_gamma_size <= cfg.q for i in passing)


def test_lca_suite_small_run_resolves():
    cfg = ExperimentConfig(m=64, n=72, s=1, n_pairs=1, n_samples=10, beta=1.0,
                           mu=0.05, lam=0.1, eta=1.0, P=5, tau=1.0,
                           noise_mode="capped", noise_level=0.05, trials=4, q=1, seed=0)
    suite = run_lca_suite(cfg)
    assert suite.n_passing == 4
    assert suite.all_resolved
    assert suite.substeps == 10


def test_lemma_suite_small_run_is_clean(monkeypatch):
    monkeypatch.setattr(suites, "_LEMMA_MATRICES", 2)
    monkeypatch.setattr(suites, "_LEMMA_DRAWS", 60)
    suite = run_lemma_suite(0)
    assert suite.rip_checks == 600
    assert suite.rip_violations == 0
    assert suite.cap_violations == 0
    assert suite.envelope_statuses == ("holds", "holds", "not_applicable")
    assert suite.ok


@pytest.mark.parametrize("seed, worst_slack", [(0, 0.011586663994858937), (3, 0.013120770518296868)])
def test_lemma_suite_regression(seed, worst_slack):
    # pins the full-size suite: every draw stream and the cap grid count
    suite = run_lemma_suite(seed)
    counts = (suite.rip_checks, suite.rip_violations, suite.cap_checks,
              suite.cap_premise_held, suite.cap_violations)
    assert counts == (50000, 0, 83349, 14109, 0)
    assert suite.rip_worst_slack == pytest.approx(worst_slack, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_lemma_draws_keep_their_distribution(monkeypatch, seed):
    # every draw of a full-size run: two independent index sets, each
    # uniform without replacement and sorted, and x nonzero exactly on
    # their union
    draws = []
    oracle = suites.rip_inequality_suite

    def spy(*args, **kwargs):
        arg = call_arguments(oracle, *args, **kwargs)
        draws.append((arg["gamma1"].copy(), arg["gamma2"].copy(), arg["x"].copy()))
        return oracle(*args, **kwargs)

    monkeypatch.setattr(suites, "rip_inequality_suite", spy)
    run_lemma_suite(seed)
    gamma1, gamma2, x = (np.concatenate(part) for part in zip(*draws))
    n, q, s = suites._LEMMA_N, suites._LEMMA_Q, suites._LEMMA_S
    total = suites._LEMMA_MATRICES * suites._LEMMA_DRAWS
    assert (gamma1.shape, gamma2.shape, x.shape) == ((total, q), (total, s), (total, n))
    union = np.zeros((total, n), dtype=bool)
    for gamma in (gamma1, gamma2):
        assert np.all(np.diff(gamma, axis=1) > 0)
        assert gamma.min() >= 0 and gamma.max() < n
        np.put_along_axis(union, gamma, True, axis=1)
        # each index lands in a set of size k in a share k / n of the draws
        share = gamma.shape[1] / n
        counts = np.bincount(gamma.ravel(), minlength=n)
        sd = math.sqrt(total * share * (1.0 - share))
        assert np.all(np.abs(counts - total * share) <= 5.0 * sd), counts
    assert np.array_equal(x != 0.0, union)
    # independent sets overlap in a share 1 - C(n - q, s) / C(n, s) of the draws
    share = 1.0 - math.comb(n - q, s) / math.comb(n, s)
    overlap = np.count_nonzero(union.sum(axis=1) < q + s) / total
    assert abs(overlap - share) <= 5.0 * math.sqrt(share * (1.0 - share) / total), overlap


# instance records of the theorem and LCA suites, recorded before the
# suites ran their instances as kernel blocks (max_violation re-recorded
# with the bound's form that has no negative term, which puts the peak at
# l = 0, where the bound is e1 itself): per instance
# (delta, lambda, max_violation, max_gamma_size, dominated or None when the
# preconditions failed) and (delta, lambda, max_violation,
# fine_max_violation, resolved)
THEOREM_CFG = ExperimentConfig(m=18, n=20, s=1, n_pairs=1, n_samples=100, beta=1.0,
                               mu=0.05, lam=0.1, eta=1.0, P=5, noise_mode="capped",
                               noise_level=0.05, trials=8, q=1, seed=0)
LCA_CFG = ExperimentConfig(m=64, n=72, s=1, n_pairs=1, n_samples=10, beta=1.0,
                           mu=0.05, lam=0.1, eta=1.0, P=5, tau=1.0,
                           noise_mode="capped", noise_level=0.05, trials=4, q=1, seed=0)
nan = float("nan")
THEOREM_PIN = {
    0: [
        (0.9531550456670521, 46.25889403977864, 0.0, 0, True),
        (0.9286810316381997, 28.802694893830466, 0.0, 0, True),
        (1.0091927399508607, 0.1, nan, -1, None),
        (1.0318182051437201, 0.1, nan, -1, None),
        (1.033176768139449, 0.1, nan, -1, None),
        (0.9997430886181031, 11819.3470886929, 0.0, 0, True),
        (1.1814819472078346, 0.1, nan, -1, None),
        (0.9792421710353976, 133.59009011456868, 0.0, 0, True),
    ],
    5: [
        (1.1898079173132938, 0.1, nan, -1, None),
        (1.141247880186742, 0.1, nan, -1, None),
        (1.025683435100988, 0.1, nan, -1, None),
        (1.2103792555662438, 0.1, nan, -1, None),
        (1.131576580926012, 0.1, nan, -1, None),
        (1.0930316925629162, 0.1, nan, -1, None),
        (1.1507911953449175, 0.1, nan, -1, None),
        (0.8584938809307907, 13.973387037976497, 0.0, 0, True),
    ],
}
LCA_PIN = {
    0: [
        (0.427203855486989, 4.723779259903948, -3.7743442227383937, -0.6803580117081054, True),
        (0.4416371132095096, 5.773862395321365, -4.371268805917502, -0.7655878964147649, True),
        (0.4202617102120434, 4.6383018356880275, -3.7212834832535497, -0.6874776139819672, True),
        (0.41636399793289813, 4.676013881599824, -3.487367966919373, -0.6665783540270271, True),
    ],
    5: [
        (0.4622005829551119, 9.635314250299635, -7.61344900608541, -1.2055616990990239, True),
        (0.44643637538015124, 6.522269148251228, -5.389646845129264, -0.9185763771269473, True),
        (0.4032379974251792, 4.161823112474297, -3.1333001654879418, -0.6267212053685639, True),
        (0.42016214743020375, 4.968193550716232, -4.078343790807468, -0.752297701934308, True),
    ],
}


@pytest.mark.parametrize("seed", [0, 5])
def test_theorem_suite_regression(seed):
    suite = run_theorem_suite(replace(THEOREM_CFG, seed=seed))
    found = [
        (i.delta, i.lam, i.max_violation, i.max_gamma_size,
         i.dominated if i.report.passed else None)
        for i in suite.instances
    ]
    expected = THEOREM_PIN[seed]
    assert [row[3:] for row in found] == [row[3:] for row in expected]
    np.testing.assert_allclose(
        [row[:3] for row in found], [row[:3] for row in expected], rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_lca_suite_regression(seed):
    suite = run_lca_suite(replace(LCA_CFG, seed=seed))
    found = [
        (i.delta, i.lam, i.max_violation, i.fine_max_violation, i.resolved)
        for i in suite.instances
    ]
    expected = LCA_PIN[seed]
    assert [row[4] for row in found] == [row[4] for row in expected]
    np.testing.assert_allclose(
        [row[:4] for row in found], [row[:4] for row in expected], rtol=1e-12, atol=0
    )


def spy_streams(monkeypatch):
    """Record every kernel block call as (matrices, thresholds) of its streams."""
    calls = []
    stream = kernels.stream

    def spy(*args, **kwargs):
        arg = call_arguments(stream, *args, **kwargs)
        count, _, width = arg["u0"].shape
        calls.append((arg["phi"].copy(), np.broadcast_to(arg["lam"], (count, 1, width)).copy()))
        return stream(*args, **kwargs)

    monkeypatch.setattr(kernels, "stream", spy)
    return calls


def expected_blocks(trials, size, running):
    """The kernel blocks of a suite driver and the blocks run before each yield.

    The running instances run in blocks of ``size`` consecutive ones.  The
    block that closes instance t is the first whose last running instance
    is t or later, else the last block; ``closed[t]`` counts the blocks up
    to and including it.
    """
    blocks = [running[i : i + size] for i in range(0, len(running), size)]
    closed = [
        next((b + 1 for b, block in enumerate(blocks) if block[-1] >= t), len(blocks))
        for t in range(trials)
    ]
    return blocks, closed


# (block size, running instances) of 20 suite instances
RUN_SUITE_CASES = [
    # distinct thresholds, skipped instances, and a last block in which no
    # instance runs
    (4, [t for t in range(20) if t % 3 != 1][:4]),
    (3, [1, 4, 6, 7, 9, 10]),
    (1, [t for t in range(20) if t % 3 != 1]),
    (25, list(range(0, 20, 2))),
    # a partial last block after full ones, with instances yielded after it
    (6, list(range(20))),
    (4, []),
]


def test_run_suite_maps_instances_to_their_runs(monkeypatch):
    for size, running in RUN_SUITE_CASES:
        with monkeypatch.context() as patches:
            check_run_suite_mapping(patches, size, running)


def check_run_suite_mapping(monkeypatch, size, running):
    # a fixed block size, so the block bound does not decide the call count
    cfg = replace(LCA_CFG, trials=20)
    monkeypatch.setattr(harness, "_block_size", lambda *args, **kwargs: size)
    level = cfg.s + cfg.q
    passed = {}
    calls = []
    # the kernel calls made before each draw
    calls_at_draw = []

    def draw(t, delta, beta, mu_dl, e0):
        passed[t] = (delta, beta, mu_dl, e0)
        calls_at_draw.append(len(calls))
        return t, (0.5 + t if t in running else None)

    stream = kernels.stream

    def spy(*args, **kwargs):
        arg = call_arguments(stream, *args, **kwargs)
        out = stream(*args, **kwargs)
        calls.append((arg["phi"].copy(), arg["lam"][:, 0, 0].copy(), out[0][..., 0]))
        return out

    monkeypatch.setattr(kernels, "stream", spy)
    problems = [trial_problem(cfg, t) for t in range(cfg.trials)]
    matrices = [phi.entries.tobytes() for phi, _ in problems]
    # the kernel calls made before each yield
    drawn, calls_at_yield = [], []
    for t, out in _run_suite(cfg, level, draw, [(cfg.eta, cfg.P, 1.0)]):
        drawn.append(t)
        calls_at_yield.append(len(calls))
        assert (out is not None) == (t in running)
        if out is not None:
            # its own stream of its own kernel call, under its own threshold
            [(errors, max_gamma, diverged)] = out
            [(lam, streamed)] = [
                (lams[j], errs[:, j])
                for phis, lams, errs in calls
                for j in range(len(phis))
                if phis[j].tobytes() == matrices[t]
            ]
            assert lam == 0.5 + t
            assert np.array_equal(errors, streamed)
            assert isinstance(max_gamma, int) and diverged is None
    assert drawn == list(range(cfg.trials))
    # every call streams the running instances of one block, in order; every
    # draw comes before the first call; and each instance is yielded after
    # the call of the block that closes it and before the next block's call
    blocks, closed = expected_blocks(cfg.trials, size, running)
    assert [[matrices.index(phi.tobytes()) for phi in phis] for phis, _, _ in calls] == blocks
    assert calls_at_draw == [0] * cfg.trials
    assert calls_at_yield == closed
    # each instance gets the floats of its own matrix and target, whichever
    # block and stream it was drawn into
    for t, (phi, target) in enumerate(problems):
        expected = (
            measurement.rip_exact(phi, level).delta,
            signals.estimate_beta(target.samples),
            signals.estimate_mu_dl(target.samples),
            np.linalg.norm(target.samples[0]),
        )
        assert all(type(value) is float for value in passed[t])
        assert passed[t] == expected
    assert len(set(passed.values())) == cfg.trials


# the largest beta whose square is finite, the largest a target may have
BETA_MAX = math.sqrt(np.finfo(float).max)


@settings(deadline=None, max_examples=80)
@given(samples=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-BETA_MAX, BETA_MAX))
))
@example(samples=np.full((1, 2, 3), BETA_MAX))  # one sample, and norms that overflow
def test_block_statistics_match_each_stream_alone(samples):
    # what the suite driver hands draw(), reduced once over a block
    # (n_samples, T, n), against each stream's samples built alone
    def bits(value):
        return np.float64(value).tobytes()

    with np.errstate(over="ignore"):
        betas = signals.estimate_beta(samples)
        e0s = measurement.row_norms(samples[0])
        jumps = signals.estimate_mu_dl(samples) if len(samples) > 1 else None
        for j in range(samples.shape[1]):
            stream = samples[:, j].copy()
            assert bits(betas[j]) == bits(signals.estimate_beta(stream))
            assert bits(e0s[j]) == bits(np.linalg.norm(stream[0]))
            if jumps is not None:
                assert bits(jumps[j]) == bits(signals.estimate_mu_dl(stream))


@pytest.mark.parametrize(
    "suite, cfg, ran",
    [
        (run_theorem_suite, THEOREM_CFG, lambda inst: inst.max_gamma_size != -1),
        (run_lca_suite, LCA_CFG, lambda inst: inst.resolved is not None),
    ],
    ids=["theorem", "lca"],
)
def test_suites_make_no_kernel_call_when_no_instance_runs(monkeypatch, suite, cfg, ran):
    # at m = 2 the theorem suite's isometry constants (level 3) are near 2
    # and the continuous suite's (level 2) within 1e-5 of 1, so no
    # instance's preconditions hold and none runs
    calls = spy_streams(monkeypatch)
    instances = suite(replace(cfg, m=2)).instances
    assert [inst.index for inst in instances] == list(range(cfg.trials))
    assert not any(inst.report.passed for inst in instances)
    assert not any(ran(inst) for inst in instances)
    assert calls == []


@pytest.mark.parametrize(
    "suite, cfg, calls_per_instance, ran",
    [
        (run_theorem_suite, THEOREM_CFG, 1, lambda inst: inst.max_gamma_size >= 0),
        (run_lca_suite, LCA_CFG, 2, lambda inst: inst.resolved is not None),
    ],
    ids=["theorem", "lca"],
)
def test_suites_stream_each_instance_under_its_own_threshold(
    monkeypatch, suite, cfg, calls_per_instance, ran
):
    calls = spy_streams(monkeypatch)
    instances = suite(cfg).instances
    assert len({inst.lam for inst in instances if ran(inst)}) > 1
    streamed = [(phi, lam[0, 0]) for phis, lams in calls for phi, lam in zip(phis, lams)]
    for inst in instances:
        phi = trial_problem(cfg, inst.index)[0].entries
        lams = [lam for entries, lam in streamed if np.array_equal(entries, phi)]
        assert lams == ([inst.lam] * calls_per_instance if ran(inst) else [])


# the instances of every kernel call of each suite, in call order, with the
# call's relaxation factor: theorem.cfg at seed 0 (100 instances, 18 per
# block) and the criterion-7 continuous-bound config at 20 instances, seed 0
# (5 per block, each block at the unit step, then refined by 10)
CRITERION_7_CFG = ExperimentConfig(m=64, n=72, s=1, n_pairs=1, n_samples=20, beta=1.0,
                                   mu=0.05, lam=0.1, eta=1.0, P=5, tau=1.0,
                                   noise_mode="capped", noise_level=0.05, trials=20, q=1,
                                   seed=0)
KERNEL_CALLS_PIN = {
    "theorem": [
        ([0, 1, 5, 7, 11, 13, 14, 15, 19, 23, 24, 25, 26, 28, 29, 33, 37, 38], 1.0),
        ([40, 41, 44, 50, 53, 54, 55, 57, 58, 59, 60, 63, 66, 67, 69, 73, 77, 80], 1.0),
        ([81, 83, 84, 86, 87, 88, 89, 93, 94, 96, 98], 1.0),
    ],
    "lca": [
        (list(range(first, first + 5)), relax) for first in range(0, 20, 5) for relax in (1.0, 0.1)
    ],
}


@pytest.mark.parametrize("name", list(KERNEL_CALLS_PIN))
def test_suite_kernel_calls_pin(monkeypatch, name):
    # how densely the driver fills its blocks decides the suites' speed, and
    # no record shows it, since the records do not depend on the partition
    if name == "theorem":
        cfg, suite = replace(parse_config(CONFIGS / "theorem.cfg"), seed=0), run_theorem_suite
    else:
        cfg, suite = CRITERION_7_CFG, partial(run_lca_suite, slack_factor=5.0, substeps=10)
    calls = []
    stream = kernels.stream

    def spy(*args, **kwargs):
        arg = call_arguments(stream, *args, **kwargs)
        calls.append((arg["phi"].copy(), arg["relax"]))
        return stream(*args, **kwargs)

    monkeypatch.setattr(kernels, "stream", spy)
    suite(cfg)
    matrices = [trial_problem(cfg, t)[0].entries.tobytes() for t in range(cfg.trials)]
    found = [([matrices.index(phi.tobytes()) for phi in phis], relax) for phis, relax in calls]
    assert found == KERNEL_CALLS_PIN[name]


# theorem.cfg at 30 instances and the criterion-7 config at 12, seed 3,
# each with its suite, so that every tried block size splits both the
# selection and the run into several blocks
PARTITION_SUITES = {
    "theorem": (run_theorem_suite,
                replace(parse_config(CONFIGS / "theorem.cfg"), trials=30, seed=3)),
    "lca": (partial(run_lca_suite, slack_factor=5.0, substeps=10),
            replace(CRITERION_7_CFG, trials=12, seed=3)),
}


@pytest.mark.parametrize("name", list(PARTITION_SUITES))
def test_suite_records_do_not_depend_on_the_block_partition(monkeypatch, name):
    suite, cfg = PARTITION_SUITES[name]
    expected = [repr(inst) for inst in suite(cfg).instances]
    assert len(expected) == cfg.trials
    for size in (1, 2, 4, 7):
        monkeypatch.setattr(harness, "_block_size", lambda *args, size=size, **kwargs: size)
        assert [repr(inst) for inst in suite(cfg).instances] == expected, size


# the full theorem.cfg and 20 criterion-7 instances, where both suite
# phases take several blocks, and desk.cfg at 40 trials in run (five trials
# a block) and in a P sweep (four)
DESK_40 = replace(parse_config(CONFIGS / "desk.cfg"), trials=40)
ONE_BLOCK_RUNS = {
    "theorem": partial(PARTITION_SUITES["theorem"][0],
                       replace(PARTITION_SUITES["theorem"][1], trials=100)),
    "lca": partial(PARTITION_SUITES["lca"][0], replace(PARTITION_SUITES["lca"][1], trials=20)),
    "run": partial(run_trials, DESK_40),
    "sweep_p": partial(sweep, DESK_40, "P", (1, 2, 5, 10)),
}


@pytest.mark.parametrize("name", list(ONE_BLOCK_RUNS))
def test_suite_driver_holds_one_block_at_a_time(monkeypatch, name):
    # no array a harness._problems call returned, a suite's selection batch
    # or a block of a suite, a run or a sweep, is still alive when the next
    # call starts, at one worker, since a forked worker's calls never reach
    # the spy
    monkeypatch.setenv(THREADS_ENV, "1")
    problems = harness._problems
    built, alive = [], []

    def spy(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        out = problems(*args, **kwargs)
        built.extend(weakref.ref(array) for array in out)
        return out

    monkeypatch.setattr(harness, "_problems", spy)
    ONE_BLOCK_RUNS[name]()
    assert len(alive) >= 7
    assert alive == [0] * len(alive)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    step=st.floats(min_value=0.05, max_value=0.99),
    lam=st.floats(min_value=0.01, max_value=0.5),
    P=st.integers(min_value=1, max_value=3),
    mu=st.floats(min_value=0.0, max_value=1.5),
    noise_mode=st.sampled_from(["gaussian_scaled", "capped"]),
    noise_level=st.floats(min_value=0.0, max_value=0.5),
)
def test_divergence_guard_is_quiet_below_the_spectral_step(
    seed, step, lam, P, mu, noise_mode, noise_level
):
    # a step below 2 / ||Phi||^2 keeps every trial's gradient map
    # nonexpansive (sufficient, not necessary), so no trial may be flagged
    cfg = replace(SMALL, seed=seed, lam=lam, P=P, mu=mu, noise_mode=noise_mode,
                  noise_level=noise_level, trials=4)
    spectral = max(
        float(np.linalg.norm(trial_problem(cfg, t)[0].entries, 2)) ** 2
        for t in range(cfg.trials)
    )
    cfg = replace(cfg, eta=2.0 * step / spectral)
    _, _, diverged, _ = cell_records(cfg, range(cfg.trials))
    assert diverged.tolist() == [-1] * cfg.trials


def test_divergence_factor_flags_errors_above_one_hundred_scales():
    # identity matrices and eta = 1: each iterate is the soft-thresholded
    # measurement, so each error is set by its measurement row.  Trial t's
    # target samples are all peak[t] e_1, so its scale is peak[t] + sigma.
    n, lam, sigma = 3, 1e-3, 1.0
    peak = np.array([3.0, 1.0])
    heights = np.array([
        [5.0, 40.0, 390.0, 300.0],  # between 1 and 100 scales at every step
        [5.0, 40.0, 210.0, 5.0],  # above 100 scales at step 2 only
    ])
    phi = np.broadcast_to(np.eye(n), (2, n, n)).copy()
    targets = np.zeros((heights.shape[1], 2, n))
    targets[..., 1] = peak
    ys = targets.copy()
    ys[..., 0] = heights.T
    errors, _, diverged = _run_block(phi, ys, targets, np.full((2, 1, 1), lam), 1.0, 1, sigma)
    ratios = errors[..., 0] / (peak + sigma)
    assert np.all(ratios[:, 0] > 1.0) and np.all(ratios[:, 0] < 100.0)
    assert ratios[2, 1] > 100.0 and np.all(np.delete(ratios[:, 1], 2) < 100.0)
    assert diverged[:, 0].tolist() == [-1, 2]


def small_block(cfg):
    """``(phi, ys, targets, sigma)``: the kernel block of all of ``cfg``'s trials."""
    keys = _stream_keys(cfg, range(cfg.trials))
    phi, targets = harness._problems(cfg, keys)
    ys, sigma = harness._measurements(cfg, phi, targets, keys, cfg.noise_delta, cfg.noise_mode)
    return phi, ys, targets, sigma


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    trials=st.integers(min_value=1, max_value=3),
    n_samples=st.integers(min_value=1, max_value=5),
    P=st.integers(min_value=1, max_value=10),
    lams=st.lists(st.floats(min_value=0.01, max_value=0.5), min_size=1, max_size=4),
    eta=st.floats(min_value=0.1, max_value=2.5),
)
# trial 0 diverges at step 5 and trial 1 at step 10, both mid-hold
@example(seed=0, trials=2, n_samples=4, P=5, lams=[0.1], eta=1.0)
def test_hold_end_records_match_every_step_rows(seed, trials, n_samples, P, lams, eta):
    # from stable steps to diverging ones: the hold-end run's records are
    # the every-step run's rows P - 1 :: P, and a divergence that begins
    # mid-hold keeps its step
    cfg = replace(SMALL, m=8, n=12, n_samples=n_samples, trials=trials, seed=seed)
    phi, ys, targets, sigma = small_block(cfg)
    lam = np.broadcast_to(lams, (trials, 1, len(lams)))
    errors, max_gamma, diverged = _run_block(phi, ys, targets, lam, eta, P, sigma)
    ends, ends_gamma, ends_diverged = _run_block(
        phi, ys, targets, lam, eta, P, sigma, hold_ends=True
    )
    assert ends.shape == (n_samples, trials, len(lams))
    assert ends.tobytes() == np.ascontiguousarray(errors[P - 1 :: P]).tobytes()
    assert ends_gamma.tolist() == max_gamma.tolist()
    assert ends_diverged.tolist() == diverged.tolist()



@pytest.mark.parametrize("hold_ends", [False, True])
def test_one_threshold_row_broadcasts_over_the_trials(hold_ends):
    # run and the sweeps pass one row of thresholds for every trial of a
    # block; its records are those of the row repeated per trial
    phi, ys, targets, sigma = small_block(replace(SMALL, trials=3))
    row = np.array([[[0.05, 0.2, 0.5]]])
    one = _run_block(phi, ys, targets, row, 0.3, 3, sigma, hold_ends=hold_ends)
    every = _run_block(phi, ys, targets, np.broadcast_to(row, (3, 1, 3)), 0.3, 3, sigma,
                       hold_ends=hold_ends)
    assert one[0].shape == (8 if hold_ends else 24, 3, 3)
    for got, expected in zip(one, every):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

def test_a_flagged_screen_reruns_the_block_on_every_step(monkeypatch):
    # a stable block passes the screen in one hold-end call; with a bound
    # that flags it, the block reruns and reports the same records
    phi, ys, targets, sigma = small_block(replace(SMALL, trials=3))
    lam = np.broadcast_to([0.05, 0.2], (3, 1, 2))
    calls = []
    stream = kernels.stream

    def spy(*args, **kwargs):
        calls.append("hold ends" if kwargs.get("peak") is not None else "every step")
        return stream(*args, **kwargs)

    monkeypatch.setattr(kernels, "stream", spy)
    screened = _run_block(phi, ys, targets, lam, 0.3, 5, sigma, hold_ends=True)
    assert calls == ["hold ends"]
    assert screened[2].tolist() == [[-1, -1]] * 3
    monkeypatch.setattr(harness, "_skipped_error_bound",
                        lambda peak, beta: np.full((3, 2), np.inf))
    rerun = _run_block(phi, ys, targets, lam, 0.3, 5, sigma, hold_ends=True)
    assert calls == ["hold ends", "hold ends", "every step"]
    assert rerun[0].shape == screened[0].shape
    for got, expected in zip(rerun, screened):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_noise_scale_diverges_at_the_first_step():
    # desk.cfg's clean first rows have norms on both sides of 1.8, so at
    # noise_level 1e308 the scale of some trials overflows and of others not
    cfg = replace(parse_config(CONFIGS / "desk.cfg"), noise_level=1e308, trials=3)
    _, _, diverged, sigma = cell_records(cfg, range(cfg.trials))
    overflowed = [not math.isfinite(s) for s in sigma]
    assert overflowed == [True, False, True]
    assert [diverged[t] for t in (0, 2)] == [0, 0]
    with pytest.raises(harness.DivergenceError, match=r"3 of 3 trials diverged, the first at "
                       r"solver step 0; noise_level=1e\+308 overflows the noise scale of 2 of them"):
        run_trials(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_noise_entry_diverges_and_names_noise_level():
    # m = 4 and a unit first clean row keep every scale finite (7.5e307),
    # but a draw above 2.4 in magnitude overflows its noise entry
    cfg = replace(parse_config(CONFIGS / "desk.cfg"), m=4, n=8, s=1, n_pairs=0, n_samples=8,
                  beta=1.0, mu=0.1, noise_level=1.5e308, trials=20)
    with pytest.raises(harness.DivergenceError, match=r"20 of 20 trials diverged, the first at "
                       r"solver step 0; noise_level=1\.5e\+308 overflows the noise scale of 7 "
                       r"of them"):
        run_trials(cfg)


def test_records_do_not_depend_on_the_block_partition():
    # one trial per block, blocks that do not divide the trial count, and
    # the default bound must give the same bytes in every record
    def records():
        _, _, cells = lambda_s_cells(SMALL, (0.05, 0.2), (2, 4))
        return pickle.dumps((
            run_trials(SMALL),
            sweep(SMALL, axis="P", values=(1, 2, 5)),
            _run_cells(cells),
            run_theorem_suite(THEOREM_CFG).instances,
            run_lca_suite(LCA_CFG).instances,
        ))

    assert min(_block_size(SMALL), _block_size(THEOREM_CFG), _block_size(LCA_CFG)) > 3
    default = records()
    with patch("streamista.harness._BLOCK_BYTES", 1):
        assert records() == default
    with patch("streamista.harness._block_size", lambda *args, **kwargs: 3):
        assert records() == default


# sha256 of the measurement rows block.ys of every kernel block, in call
# order; the desk entries recorded when each noise vector still had its own
# generator and each measurement its own gemv, the theorem entries when
# every capped row became its draw times cap / ||draw||
MEASUREMENT_PIN = {
    ("desk", 0): "20f0222f3c24f59f99b28212418160aad9fa3811c6293e90898c1a90e1e9f7be",
    ("desk", 5): "5cc0c9970f202561f6d0deef593e9a6e9ba248f19fcbb042405e15f34a55a8e4",
    ("theorem", 0): "53d319e3d40528f7c05bb908e1d9769f75bea607c81fb3bd9cc950b3dbdbaab3",
    ("theorem", 5): "62c1a54a0cf95941d4255c84a8a82706676a87d956fa815a4dc72434baab708e",
}


@pytest.mark.parametrize("name, seed", list(MEASUREMENT_PIN), ids=lambda v: str(v))
def test_measurement_streams_pin(monkeypatch, name, seed):
    # desk.cfg runs gaussian_scaled noise with per-trial sigma; the theorem
    # suite caps noise under each instance's own isometry constant; at one
    # worker, since a forked worker's calls never reach the spy
    monkeypatch.setenv(THREADS_ENV, "1")
    streams = []
    stream = kernels.stream

    def spy(*args, **kwargs):
        streams.append(call_arguments(stream, *args, **kwargs)["ys"].tobytes())
        return stream(*args, **kwargs)

    def recorded_partition(cfg, width=1, steps=None):
        # the block size the hashes were recorded at: inputs only, 512 KiB
        return max(1, 512 * 1024 // (8 * (2 * cfg.m * cfg.n + cfg.n_samples * (cfg.m + cfg.n))))

    monkeypatch.setattr(kernels, "stream", spy)
    monkeypatch.setattr(harness, "_block_size", recorded_partition)
    cfg = replace(parse_config(CONFIGS / f"{name}.cfg"), seed=seed)
    (run_trials if name == "desk" else run_theorem_suite)(cfg)
    assert hashlib.sha256(b"".join(streams)).hexdigest() == MEASUREMENT_PIN[name, seed]


# sha256 of every streamed trial's measurement rows (n_samples, m), trial
# after trial in trial order, which no block partition changes; recorded at
# 512 KiB blocks of inputs (2 desk trials, 14 theorem instances), the
# theorem entries at the one capped-noise rule
TRIAL_MEASUREMENT_PIN = {
    ("desk", 0): "6c6356d0dc2e5095b17a8185edd41d6cdb25e38a1898e778e5ff918ad021e05e",
    ("desk", 5): "0884918c3ed172f302b3e9f8bbfcdc97b92f33c27c3ebff74d150b448df14fa0",
    ("theorem", 0): "b0e46725dfed2f88c0de17c98982fb398681a724a7e4f414a1bf6064acbe3ebb",
    ("theorem", 5): "4e269b67ae410090262c95dd73f4e6b25f6d08259658eea08219b6e59f39a422",
}


@pytest.mark.parametrize("name, seed", list(TRIAL_MEASUREMENT_PIN), ids=lambda v: str(v))
def test_trial_measurement_rows_pin(monkeypatch, name, seed):
    # at one worker, since a forked worker's calls never reach the spy
    monkeypatch.setenv(THREADS_ENV, "1")
    blocks = []
    stream = kernels.stream

    def spy(*args, **kwargs):
        blocks.append(call_arguments(stream, *args, **kwargs)["ys"].copy())
        return stream(*args, **kwargs)

    monkeypatch.setattr(kernels, "stream", spy)
    cfg = replace(parse_config(CONFIGS / f"{name}.cfg"), seed=seed)
    (run_trials if name == "desk" else run_theorem_suite)(cfg)
    rows = np.ascontiguousarray(np.concatenate(blocks, axis=1).transpose(1, 0, 2))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == TRIAL_MEASUREMENT_PIN[name, seed]


# sha256 of the mean_curve bytes, then the std_curve bytes, of desk.cfg at
# 10 trials: a run, and each cell of a P sweep over (2, 5).  A change of one
# ulp, such as summing the trials in another order, changes them
CURVE_PIN = {
    "run": "408abbfaf85a48a19e14664680b04eb055938908c22b14779fecc7507ee43a54",
    "P=2": "405a919311c8c4eeeca843b79450545796593921501a65934289775993246af8",
    "P=5": "5dc38ad731f66a7e099c81e3b5598643247d444e195f3272ab3129bb01fc2bac",
}


def test_averaged_curves_pin():
    cfg = replace(parse_config(CONFIGS / "desk.cfg"), trials=10)
    results = {"run": run_trials(cfg)}
    results.update((f"P={v}", r) for v, r in sweep(cfg, "P", (2, 5)))
    digests = {
        name: hashlib.sha256(r.mean_curve.tobytes() + r.std_curve.tobytes()).hexdigest()
        for name, r in results.items()
    }
    assert digests == CURVE_PIN


def test_default_configuration_regression():
    # pins the default-seed learning curve against accidental drift
    cfg = ExperimentConfig()
    result = run_trials(cfg)
    assert result.mean_curve[0] == pytest.approx(1.5119853625744368, rel=1e-9)
    plateau = estimate_steady_state(result.mean_curve, cfg.tail_fraction)
    assert plateau == pytest.approx(0.9280842345689708, rel=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(s=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mu=5.0)  # drift rate must stay below the energy bound
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise_mode="white")
    with pytest.raises(ValueError):
        ExperimentConfig(tail_fraction=0.0)


@pytest.mark.parametrize("row", ["1,0.5,9", "1", "1,fast", "one,0.5"])
def test_steady_csv_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"P,steady\n2,0.4\n{row}\n")
    with pytest.raises(ValueError, match=r"malformed steady-state file .*bad\.csv, line 3"):
        read_steady_csv(path)


@contextmanager
def worker_pools(workers):
    """Run at ``workers`` workers on two usable CPUs; yields, per ``_run_cells`` call, if it forked.

    Two CPUs, so that two workers fork on a one-CPU host too.
    """
    forked = []
    block_mapper = harness._block_mapper

    def spy(stack, count):
        mapper = block_mapper(stack, count)
        forked.append(mapper is not map)
        return mapper

    with patch.object(harness, "_block_mapper", spy), \
            patch.object(harness, "_usable_cpus", lambda: 2), \
            patch.dict(os.environ, {THREADS_ENV: str(workers)}):
        yield forked


def assert_same_results(results, expected):
    """Every array of every RunResult equals the expected one's, dtype and bytes."""
    assert len(results) == len(expected)
    for result, alone in zip(results, expected):
        for field in fields(RunResult):
            got, want = getattr(result, field.name), getattr(alone, field.name)
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name


def test_sweep_lambda_s_matches_per_cell_runs(monkeypatch):
    cfg = replace(SMALL, trials=4, n_samples=6)
    lams, svals, cells = lambda_s_cells(cfg, (0.05, 0.1, 0.2, 0.5), (2, 4))
    # one block per group, then a trial per block, which forks at two workers
    for block_bytes, forks in ((harness._BLOCK_BYTES, False), (1, True)):
        monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)
        with worker_pools(1):
            per_cell = np.array(
                [np.mean([int(g) / c.s for g in run_trials(c).max_gamma_size]) for c in cells]
            ).reshape(len(lams), len(svals))
        for workers in (1, 2):
            with worker_pools(workers) as forked:
                grid, _ = sweep_lambda_s(cfg, lams, svals)
            assert forked == [forks and workers == 2]
            assert grid.ratios.tobytes() == per_cell.tobytes()


def test_p_sweep_matches_per_cell_runs(monkeypatch):
    # and a mu sweep, whose cells run as groups of their own
    for axis, values in (("P", (1, 2, 3)), ("mu", (0.4, 0.1, 0.0))):
        # the default blocks, then a trial per block, which forks at two workers
        for block_bytes in (harness._BLOCK_BYTES, 1):
            monkeypatch.setattr(harness, "_BLOCK_BYTES", block_bytes)
            with worker_pools(1):
                per_cell = [run_trials(replace(SMALL, **{axis: v})) for v in values]
            for workers in (1, 2):
                with worker_pools(workers) as forked:
                    cells = sweep(SMALL, axis=axis, values=values)
                if block_bytes == 1:
                    assert forked == [workers == 2]
                assert [v for v, _ in cells] == list(values)
                assert_same_results([result for _, result in cells], per_cell)


@st.composite
def forked_calls(draw):
    """A config of several trials and a run, a P or mu sweep or a lambda-s grid of it."""
    cfg = replace(draw(block_configs()), trials=draw(st.integers(min_value=2, max_value=12)))
    kind = draw(st.sampled_from(["run", "P", "mu", "lambda_s"]))
    if kind == "run":
        cells = [cfg]
    elif kind == "P":
        cells = [c for _, c in sweep_cells(cfg, "P", (1, 2, 3))]
    elif kind == "mu":
        cells = [c for _, c in sweep_cells(cfg, "mu", (0.0, 0.4 * cfg.beta))]
    else:
        cells = lambda_s_cells(cfg, (0.05, 0.2), sorted({1, cfg.s}))[2]
    return cells


@settings(deadline=None, max_examples=20)
@given(cells=forked_calls(), block_bytes=st.integers(1, 1024))
def test_records_do_not_depend_on_the_worker_count(cells, block_bytes):
    with patch("streamista.harness._BLOCK_BYTES", block_bytes):
        with worker_pools(2) as forked:
            results = _run_cells(cells)
        # a call of one block runs serially, so it shows nothing here
        assume(forked == [True])
        with worker_pools(1) as forked:
            serial = _run_cells(cells)
        assert forked == [False]
    assert_same_results(results, serial)


def test_forked_runs_leave_no_process_behind():
    # DESK_40 runs in eight blocks; at noise_level 1e308 every block diverges
    with worker_pools(2) as forked:
        run_trials(DESK_40)
        assert multiprocessing.active_children() == []
        with pytest.raises(harness.DivergenceError):
            run_trials(replace(DESK_40, noise_level=1e308))
        assert multiprocessing.active_children() == []
    assert forked == [True, True]


def test_process_count_never_exceeds_the_cpus_or_the_blocks():
    # a pure rule: no process starts here
    cpus = len(os.sched_getaffinity(0))
    assert harness._process_count(10**6, 10**6) == cpus
    assert harness._process_count(10**6, 1) == 1
    assert harness._process_count(1, 10**6) == 1
    assert harness._process_count(2, 3) == min(2, cpus)


def test_block_mapper_stays_serial_where_a_fork_is_unsafe(monkeypatch):
    # each case returns plain map before any pool is built, so no process starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    with ExitStack() as stack:
        assert harness._block_mapper(stack, 1) is map
        with monkeypatch.context() as patches:
            patches.delattr(os, "fork")
            assert harness._block_mapper(stack, 2) is map
        with monkeypatch.context() as patches:
            patches.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
            assert harness._block_mapper(stack, 2) is map
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert harness._block_mapper(stack, 2) is map
        finally:
            release.set()
            other.join()


def test_run_cells_matches_per_cell_runs_on_mixed_cells():
    # interleaved cells that differ in s, lam, mu and P
    _, _, grid = lambda_s_cells(replace(SMALL, trials=3), (0.05, 0.2), (2, 4))
    cells = grid + [replace(grid[0], s=3), replace(grid[0], mu=0.2), replace(grid[1], P=3)]
    for cell, result in zip(cells, _run_cells(cells)):
        alone = run_trials(cell)
        assert result.max_gamma_size.tolist() == alone.max_gamma_size.tolist()
        np.testing.assert_allclose(result.mean_curve, alone.mean_curve, rtol=1e-9, atol=0)



def test_divergence_is_named_in_cell_order_when_batches_interleave():
    # cells 0 and 2 share the P = 1 batch, which runs first, and cell 1 runs
    # alone at P = 2; both lam = 0.06 cells diverge, so a check in batch
    # order would name the P = 1 cell
    cfg = replace(parse_config(CONFIGS / "desk.cfg"), trials=4, eta=0.6)
    cells = [replace(cfg, lam=1e3, P=1), replace(cfg, lam=0.06, P=2), replace(cfg, lam=0.06, P=1)]
    with pytest.raises(harness.DivergenceError, match=r"in cell lambda=0\.06 s=8 P=2 mu=0\.8 "
                       r"eta=0\.6: 4 of 4 trials diverged, the first at solver step 10$"):
        _run_cells(cells)

def test_sweeps_reject_fractional_p_and_s():
    # P = 2.5 would run at P = 2 under the name 2.5; whole floats still pass
    assert [c.P for _, c in sweep_cells(SMALL, "P", (1.0, 2, 5.0))] == [1, 2, 5]
    with pytest.raises(ValueError, match="whole numbers, got 2.5"):
        sweep_cells(SMALL, "P", (1, 2.5, 5))
    assert lambda_s_cells(SMALL, (0.1, 0.2), (2.0, 4))[1] == (2, 4)
    with pytest.raises(ValueError, match="whole numbers, got 2.5"):
        lambda_s_cells(SMALL, (0.1,), (2.5, 4))


# every check the harness makes before its first trial, one call each
PRE_TRIAL_REJECTIONS = {
    "seed": lambda: replace(SMALL, seed=-1),
    "solver_p_zero": lambda: replace(SMALL, P=0),
    "gen_beta_square_subnormal": lambda: replace(SMALL, beta=1e-161, mu=0.0),
    "sweep_p_repeated": lambda: sweep(SMALL, "P", (1, 2, 1)),
    "sweep_p_fractional": lambda: sweep(SMALL, "P", (1, 2.5)),
    "sweep_mu_negative": lambda: sweep(SMALL, "mu", (0.4, -1.0)),
    "sweep_axis": lambda: sweep(SMALL, "sigma", (1,)),
    "sweep_no_values": lambda: sweep(SMALL, "P", ()),
    "lambda_list_empty": lambda: sweep_lambda_s(SMALL, (), (2,)),
    "lambda_list_single": lambda: sweep_lambda_s(SMALL, (0.1,), (2, 4)),
    "s_repeated": lambda: sweep_lambda_s(SMALL, (0.1,), (2, 2)),
    "ratio_level_nan": lambda: sweep_lambda_s(SMALL, (0.1,), (2,), ratio_level=float("nan")),
    "theorem_level_over_budget": lambda: run_theorem_suite(replace(SMALL, n=40)),
    "lca_level_over_budget": lambda: run_lca_suite(replace(SMALL, n=40)),
}


@pytest.mark.parametrize("reject", PRE_TRIAL_REJECTIONS.values(), ids=PRE_TRIAL_REJECTIONS.keys())
def test_harness_raises_config_error_before_any_trial(monkeypatch, reject):
    # the harness is the one place a config is rejected, before any input
    # is built and with no kernel call
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial's inputs were built or run for an invalid config")

    monkeypatch.setattr("streamista.kernels.stream", no_trial)
    monkeypatch.setattr(harness, "_problems", no_trial)
    with pytest.raises(ConfigError):
        reject()


def test_checks_outside_an_experiment_config_keep_plain_value_error():
    for call in (lambda: signals.GenConfig(n=8, s=9, n_pairs=0, n_samples=4),
                 lambda: fit_steady_state([1, 2, 3], [0.5, 0.4, 0.3], mu=-1.0, dl=1.0)):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError


def test_config_rejects_non_finite_values():
    for field in ("beta", "mu", "lam", "eta", "dl", "tau", "noise_level", "noise_delta",
                  "tail_fraction"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(**{field: bad})
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(sweep_lambda_values=(0.1, float("nan")))
    with pytest.raises(ValueError, match="finite"):
        fit_steady_state([1, 2, 3], [0.5, 0.4, 0.3], mu=float("nan"), dl=1.0)
    for bad in (float("nan"), float("inf")):
        # no grid point is nearest to the level, so no trial runs
        with pytest.raises(ValueError, match="finite"):
            sweep_lambda_s(SMALL, (0.1,), (2,), ratio_level=bad)


# master seeds at every run-entropy layout: one word, two words, and three
SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64)


@st.composite
def block_configs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    s = draw(st.integers(min_value=1, max_value=n))
    n_pairs = draw(st.integers(min_value=0, max_value=min(s, n - s)))
    beta = draw(st.floats(min_value=0.5, max_value=3.0))
    return ExperimentConfig(
        m=draw(st.integers(min_value=1, max_value=6)), n=n, s=s, n_pairs=n_pairs,
        n_samples=draw(st.integers(min_value=1, max_value=6)), beta=beta,
        mu=draw(st.floats(min_value=0.0, max_value=0.9)) * beta, lam=0.1, eta=0.05,
        noise_mode=draw(st.sampled_from(["gaussian_scaled", "capped"])),
        noise_level=draw(st.floats(min_value=0.0, max_value=0.5)),
        noise_delta=draw(st.floats(min_value=0.0, max_value=0.9)),
        trials=draw(st.integers(min_value=1, max_value=7)),
        seed=draw(st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64))),
    )


@settings(deadline=None, max_examples=60)
@given(cfg=block_configs(), block_bytes=st.integers(1, 4096), key_rows=st.integers(1, 16))
@example(  # no pairs, one sample
    cfg=replace(SMALL, n_pairs=0, n_samples=1, trials=3, seed=2**64), block_bytes=1, key_rows=1,
)
@example(  # every index of the target in use
    cfg=replace(SMALL, n=4, s=3, n_pairs=1, noise_mode="capped", noise_delta=0.3,
                trials=5, seed=2**32 - 1),
    block_bytes=900, key_rows=3,
)
def test_block_inputs_match_one_trial_builds(cfg, block_bytes, key_rows):
    # every block of a run, built from keys derived once for the group (in
    # chunks and blocks that need not align), against the one-trial functions;
    # at one worker, since a forked worker's calls never reach the spies
    blocks, schedules = [], []

    def spy(*args, **kwargs):
        arg = call_arguments(stream, *args, **kwargs)
        blocks.append([arg[name].copy() for name in ("phi", "targets", "ys")])
        return stream(*args, **kwargs)

    def spy_targets(*args, **kwargs):
        samples, schedule = assemble_targets(*args, **kwargs)
        schedules.append(schedule)
        return samples, schedule

    stream, assemble_targets = kernels.stream, harness.assemble_targets
    with patch.object(kernels, "stream", spy), \
            patch.object(harness, "assemble_targets", spy_targets), \
            patch("streamista.harness._BLOCK_BYTES", block_bytes), \
            patch("streamista.harness._KEY_ROWS", key_rows), \
            patch.dict(os.environ, {THREADS_ENV: "1"}):
        result = run_trials(cfg)
    phi, targets, ys = (
        np.concatenate(parts, axis=0 if i == 0 else 1) for i, parts in enumerate(zip(*blocks))
    )
    schedule = np.concatenate(schedules, axis=1)
    for t in range(cfg.trials):
        ref = gen_gaussian_matrix(cfg.m, cfg.n, derive_seed(cfg.seed, t, 0))
        target = assemble_target(cfg.gen_config(derive_seed(cfg.seed, t, 1)))
        assert phi[t].tobytes() == ref.entries.tobytes()
        assert targets[:, t].tobytes() == target.samples.tobytes()
        assert np.array_equal(schedule[:, t], target.support_schedule)
        sigma = cfg.noise_level
        if cfg.noise_mode == "gaussian_scaled":
            clean = float(np.linalg.norm(ref.entries @ target.samples[0]))
            sigma = cfg.noise_level * clean / math.sqrt(cfg.m)
        assert result.sigma[t] == sigma
        for k, sample in enumerate(target.samples):
            noise = gen_noise(cfg.m, sigma, cfg.noise_delta, cfg.noise_mode,
                              derive_seed(cfg.seed, t, 2, k))
            assert ys[k, t].tobytes() == measure(ref, sample, noise).tobytes()


def test_desk_run_calls_no_scalar_rng(monkeypatch):
    # the harness builds a run's inputs from block keys: no scalar derivation,
    # generator, matrix or target call, in any module that holds the names;
    # at one worker, since a forked worker's calls never reach the counters
    monkeypatch.setenv(THREADS_ENV, "1")
    calls = []
    modules = [harness, suites, rng, measurement, signals]
    for module, name in ((rng, "make_rng"), (rng, "derive_seed"),
                         (measurement, "gen_gaussian_matrix"), (signals, "assemble_target")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cfg = replace(parse_config(CONFIGS / "desk.cfg"), trials=10)
    result = run_trials(cfg)
    assert len(result.errors) == 10
    assert calls == []
    # the counters do count: the one-trial build and the lemma suite call them
    trial_problem(cfg, 0)
    monkeypatch.setattr(suites, "_LEMMA_MATRICES", 1)
    monkeypatch.setattr(suites, "_LEMMA_DRAWS", 1)
    run_lemma_suite(0)
    assert set(calls) == {"assemble_target", "derive_seed", "gen_gaussian_matrix", "make_rng"}
