"""End-to-end acceptance checks.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS/FAIL
line per criterion.  Each test enforces its own wall-clock budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from streamista.cli import cli_main
from streamista.harness import (
    THREADS_ENV,
    ExperimentConfig,
    estimate_steady_state,
    fit_steady_state,
    run_trials,
    sweep,
    sweep_lambda_s,
)
from streamista.measurement import gen_gaussian_matrix, gen_noise
from streamista.signals import GenConfig, assemble_target
from streamista.solver import SolverConfig, lca_simulate, run_streaming
from streamista.suites import run_lca_suite, run_lemma_suite, run_theorem_suite
from streamista.theory import support_cap_check

DESK = ExperimentConfig()  # 64x128, S=8, 50 trials, 40 measurements


def per_trial_steadies(result, tail_fraction=0.25):
    return np.array([estimate_steady_state(row, tail_fraction) for row in result.errors])


def report(number, ok, detail, dt):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail} ({dt:.1f}s)")


def test_criterion_1_network_and_streaming_traces_identical():
    t0 = time.time()
    identical = True
    for seed in range(20):
        tau = 2.0 if seed % 2 else 1.0
        P = 3 if seed % 3 == 0 else 1
        gen = GenConfig(n=64, s=4, n_pairs=1, n_samples=10, beta=1.0, mu=0.3, seed=seed)
        target = assemble_target(gen)
        phi = gen_gaussian_matrix(32, 64, seed + 1000)
        ys = (phi.entries @ target.samples.T).T
        for k in range(10):
            ys[k] += gen_noise(32, 0.05, 0.0, "gaussian_scaled", seed * 100 + k)
        sim = lca_simulate(phi, ys, target, lam=0.8, tau=tau, init_u=np.zeros(64), P=P)
        ref = run_streaming(
            phi, ys, target,
            SolverConfig(lam=0.8, eta=1.0, P=P, dl=tau, tau=tau), np.zeros(64),
        )
        identical &= (
            np.array_equal(sim.errors, ref.errors)
            and np.array_equal(sim.gamma_sizes, ref.gamma_sizes)
            and np.array_equal(sim.switches, ref.switches)
            and np.array_equal(sim.final_state.u, ref.final_state.u)
            and np.array_equal(sim.final_state.a, ref.final_state.a)
        )
    dt = time.time() - t0
    ok = identical and dt < 5.0
    report(1, ok, f"20 instances bit-identical={identical}", dt)
    assert ok


def test_criterion_2_discrete_bound_dominance_and_support_cap():
    t0 = time.time()
    cfg = ExperimentConfig(m=18, n=20, s=1, n_pairs=1, n_samples=100, beta=1.0,
                           mu=0.05, lam=0.1, eta=1.0, P=5, noise_mode="capped",
                           noise_level=0.05, trials=100, q=1, seed=0)
    suite = run_theorem_suite(cfg)
    passing = [i for i in suite.instances if i.report.passed]
    worst = max((i.max_violation for i in passing), default=float("-inf"))
    support_ok = all(i.support_ok for i in passing)
    dt = time.time() - t0
    ok = (
        len(passing) >= 10
        and suite.all_dominated
        and support_ok
        and worst <= 1e-9
        and dt < 120.0
    )
    report(
        2, ok,
        f"{len(passing)}/100 instances pass preconditions "
        f"(rate {suite.pass_rate:.2f}), worst bound violation {worst:.2e}, "
        f"support cap respected={support_ok}",
        dt,
    )
    assert ok


def test_criterion_3_steady_state_monotone_in_p_and_drift():
    t0 = time.time()

    def gaps_exceed_paired_error(cells):
        means, fine = [], True
        prev = None
        for _, result in cells:
            s = per_trial_steadies(result)
            means.append(s.mean())
            if prev is not None:
                d = prev - s
                fine &= d.mean() > d.std(ddof=1) / np.sqrt(d.size)
            prev = s
        return means, fine

    p_cells = sweep(DESK, axis="P", values=(1, 2, 5, 10))
    p_means, p_fine = gaps_exceed_paired_error(p_cells)
    p_ok = all(a > b for a, b in zip(p_means, p_means[1:])) and p_fine

    mu_cells = sweep(DESK, axis="mu", values=(0.4, 0.8, 1.6))
    mu_means, mu_fine = gaps_exceed_paired_error(mu_cells[::-1])
    mu_means = mu_means[::-1]
    mu_ok = all(a < b for a, b in zip(mu_means, mu_means[1:])) and mu_fine

    dt = time.time() - t0
    ok = p_ok and mu_ok and dt < 300.0
    report(
        3, ok,
        f"steady vs P {['%.3f' % v for v in p_means]} decreasing={p_ok}; "
        f"steady vs mu {['%.3f' % v for v in mu_means]} increasing={mu_ok}",
        dt,
    )
    assert ok


def test_criterion_4_steady_state_law_fit():
    t0 = time.time()
    cells = sweep(DESK, axis="P", values=tuple(range(1, 11)))
    steadies = [estimate_steady_state(r.mean_curve, DESK.tail_fraction) for _, r in cells]
    fit = fit_steady_state(range(1, 11), steadies, mu=DESK.mu, dl=DESK.dl)

    p = np.arange(1, 11, dtype=np.float64)
    synthetic = 0.62**p / (1.0 - 0.62**p) * DESK.mu * DESK.dl + 0.33
    check = fit_steady_state(p, synthetic, mu=DESK.mu, dl=DESK.dl)
    recovered = abs(check.c_hat - 0.62) <= 2e-4 and abs(check.V_hat - 0.33) <= 1e-3

    dt = time.time() - t0
    ok = fit.r2 >= 0.9 and recovered and dt < 600.0
    report(
        4, ok,
        f"measured fit r2={fit.r2:.4f} (c_hat={fit.c_hat:.3f}, V_hat={fit.V_hat:.3f}); "
        f"synthetic recovery exact within grid={recovered}",
        dt,
    )
    assert ok


def test_criterion_5_near_isometry_consequence_suite():
    t0 = time.time()
    suite = run_lemma_suite(0)
    dt = time.time() - t0
    ok = suite.rip_violations == 0 and suite.rip_checks == 50000 and dt < 60.0
    report(
        5, ok,
        f"{suite.rip_checks} inequality checks, {suite.rip_violations} violations, "
        f"worst slack {suite.rip_worst_slack:.2e}",
        dt,
    )
    assert ok


def test_criterion_6_support_cap_brute_force():
    t0 = time.time()
    axis = np.linspace(-3.0, 3.0, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    premise_count, violations, checked = 0, 0, 0
    for lam in (0.5, 1.0, 2.0):
        for q in (1, 2, 3):
            for u in grid:
                res = support_cap_check(u, lam, q)
                checked += 1
                if res.premise_holds:
                    premise_count += 1
                    if not res.conclusion_holds:
                        violations += 1
    dt = time.time() - t0
    ok = violations == 0 and checked == 21**3 * 9 and dt < 10.0
    report(
        6, ok,
        f"{checked} grid points, premise held {premise_count} times, "
        f"{violations} violations",
        dt,
    )
    assert ok


def test_criterion_7_continuous_bound_discrete_surrogate():
    t0 = time.time()
    cfg = ExperimentConfig(m=64, n=72, s=1, n_pairs=1, n_samples=20, beta=1.0,
                           mu=0.05, lam=0.1, eta=1.0, P=5, tau=1.0,
                           noise_mode="capped", noise_level=0.05, trials=20, q=1, seed=0)
    suite = run_lca_suite(cfg, slack_factor=5.0, substeps=10)
    passing = [i for i in suite.instances if i.report.passed]
    worst = max((i.max_violation for i in passing), default=float("-inf"))
    dt = time.time() - t0
    ok = len(passing) >= 10 and suite.all_resolved and dt < 120.0
    report(
        7, ok,
        f"{len(passing)}/20 instances pass preconditions, worst slacked "
        f"violation {worst:.2e}, all resolved={suite.all_resolved}",
        dt,
    )
    assert ok


def test_criterion_8_active_set_ratio_grid_shape():
    t0 = time.time()
    lams = tuple(np.round(np.arange(0.05, 0.8001, 0.05), 2))
    cfg = replace(DESK, n_samples=10, P=5, trials=100)
    fits = []
    monotone = True
    for seed in (0, 1):
        grid, fit = sweep_lambda_s(replace(cfg, seed=seed), lambda_values=lams,
                                   s_values=(4, 8, 16), ratio_level=4.0)
        fits.append(fit)
        diffs = np.diff(grid.ratios, axis=0)
        monotone &= bool(np.all(diffs <= 1e-12))
    c0, c1 = fits[0].C, fits[1].C
    stable = c0 > 0 and c1 > 0 and abs(c0 - c1) <= 0.2 * c0
    dt = time.time() - t0
    ok = monotone and stable and dt < 600.0
    report(
        8, ok,
        f"ratio non-increasing in lambda={monotone}; C={c0:.4f} vs {c1:.4f} "
        f"across seed sets (within 20%={stable})",
        dt,
    )
    assert ok


def test_criterion_9_cli_output_deterministic(tmp_path, monkeypatch):
    t0 = time.time()
    cfg_path = tmp_path / "cell.cfg"
    cfg_path.write_text("p = 1\n")  # criterion 3's first sweep cell
    outputs = []
    for label, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / label
        monkeypatch.setenv(THREADS_ENV, threads)
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outputs.append((out / "curve.csv").read_bytes())
    dt = time.time() - t0
    ok = outputs[0] == outputs[1] == outputs[2] and dt < 300.0
    report(9, ok, "curve.csv byte-identical across reruns and worker counts", dt)
    assert ok
