from contextlib import redirect_stderr, redirect_stdout
import io
import json
import math
import multiprocessing
import os
from pathlib import Path
import re
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from streamista import harness, kernels, suites
from streamista.cli import cli_main
from streamista.configio import KEY_MAP, ConfigError, parse_config, parse_config_text
from streamista.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FULL_CONFIG = """
# comment line
m = 16
n = 24            # trailing comment
s = 2
n_pairs = 1
n_samples = 8
beta = 2.0
mu = 0.4
lambda = 0.08
eta = 0.25
p = 3
dl = 1.0
tau = 1.0
noise_mode = capped
noise_level = 0.1
noise_delta = 0.2
trials = 4
q = 8
seed = 11
sweep_axis = P
sweep_values = 1,2,5
sweep_lambda_values = 0.1,0.2
sweep_s_values = 2,4
tail_fraction = 0.5
"""


def test_parse_full_config():
    cfg = parse_config_text(FULL_CONFIG)
    assert cfg.m == 16 and cfg.n == 24 and cfg.s == 2
    assert cfg.lam == 0.08  # file spells the threshold key out
    assert cfg.P == 3
    assert cfg.noise_mode == "capped" and cfg.noise_delta == 0.2
    assert cfg.sweep_axis == "P"
    assert cfg.sweep_values == (1.0, 2.0, 5.0)
    assert cfg.sweep_s_values == (2, 4)
    assert cfg.tail_fraction == 0.5
    assert cfg.seed == 11


def test_parse_defaults_from_empty_text():
    assert parse_config_text("") == ExperimentConfig()
    assert parse_config_text("# only comments\n\n") == ExperimentConfig()


def test_a_repeated_key_takes_its_last_value():
    # appending a line to a config file overrides that key
    cfg = parse_config_text("m = 64\nsweep_s_values = 2,4\nm = 32\nsweep_s_values = 8\n")
    assert cfg.m == 32
    assert cfg.sweep_s_values == (8,)


def test_unknown_key_reports_line_and_choices():
    with pytest.raises(ConfigError, match=r"<string>:2: unknown key 'gamma'"):
        parse_config_text("m = 8\ngamma = 1\n")
    with pytest.raises(ConfigError, match="lambda"):
        # the error lists the valid keys
        parse_config_text("gamma = 1\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match=r"cfg:3: bad value for 'trials'"):
        parse_config_text("m = 8\nn = 16\ntrials = soon\n", source="cfg")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")


def test_semantic_errors_carry_source():
    with pytest.raises(ConfigError, match="mu"):
        parse_config_text("mu = 9.0\nbeta = 1.0\n", source="bad.cfg")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_key_map_pins_the_file_format():
    # the keys come from the ExperimentConfig fields, so a renamed field
    # would rename its key; pin the keys every config file spells
    assert sorted(KEY_MAP) == sorted([
        "m", "n", "s", "n_pairs", "n_samples", "beta", "mu", "lambda", "eta", "p", "dl",
        "tau", "noise_mode", "noise_level", "noise_delta", "trials", "q", "seed",
        "sweep_axis", "sweep_values", "sweep_lambda_values", "sweep_s_values",
        "tail_fraction",
    ])
    assert KEY_MAP["lambda"][0] == "lam" and KEY_MAP["p"][0] == "P"
    assert all(field == key for key, (field, _) in KEY_MAP.items() if key not in ("lambda", "p"))
    for key, kind in (("sweep_values", float), ("sweep_lambda_values", float),
                      ("sweep_s_values", int)):
        parsed = KEY_MAP[key][1]("1, 2,")
        assert parsed == (1, 2) and all(type(v) is kind for v in parsed)
    with pytest.raises(ValueError):
        KEY_MAP["sweep_s_values"][1]("1,2.5")


SMALL_CFG = """
m = 16
n = 24
s = 2
n_pairs = 1
n_samples = 8
beta = 2.0
mu = 0.4
lambda = 0.1
eta = 0.3
p = 2
trials = 3
q = 8
"""


@pytest.fixture()
def small_cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_cli_run_writes_curve(tmp_path, small_cfg_file, capsys):
    rc = cli_main(["run", "--config", str(small_cfg_file), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "steady=" in out
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "k,error_mean,error_std"
    assert len(lines) == 9  # header + one row per measurement


def test_cli_run_seed_and_trials_override(tmp_path, small_cfg_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    for out, seed in ((out_a, "5"), (out_b, "5"), (out_c, "6")):
        rc = cli_main(["run", "--config", str(small_cfg_file), "--seed", seed,
                       "--trials", "2", "--out", str(out)])
        assert rc == 0
    same = (out_a / "curve.csv").read_bytes() == (out_b / "curve.csv").read_bytes()
    diff = (out_a / "curve.csv").read_bytes() != (out_c / "curve.csv").read_bytes()
    assert same and diff


def test_cli_sweep_p_writes_steady_and_cells(tmp_path, small_cfg_file):
    rc = cli_main(["sweep-p", "--config", str(small_cfg_file), "--values", "1,2",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "steady.csv").exists()
    assert (tmp_path / "curve_P1.csv").exists()
    assert (tmp_path / "curve_P2.csv").exists()
    header = (tmp_path / "steady.csv").read_text().splitlines()[0]
    assert header == "P,steady"


def test_cli_fit_steady_round_trip(tmp_path, small_cfg_file):
    steady = tmp_path / "steady.csv"
    p = np.arange(1, 6)
    y = 0.5**p / (1 - 0.5**p) * 0.4 + 0.3
    steady.write_text("P,steady\n" + "".join(f"{int(v)},{float(s)!r}\n" for v, s in zip(p, y)))
    rc = cli_main(["fit-steady", "--config", str(small_cfg_file), "--input", str(steady),
                   "--mu", "0.4", "--dl", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    line = (tmp_path / "fit.csv").read_text().splitlines()[1]
    c_hat = float(line.split(",")[0])
    assert c_hat == pytest.approx(0.5, abs=2e-4)


def test_cli_fit_steady_requires_input():
    rc = cli_main(["fit-steady"])
    assert rc == 1


def test_cli_fit_steady_rejects_wrong_axis(tmp_path, small_cfg_file, capsys):
    steady = tmp_path / "steady.csv"
    steady.write_text("mu,steady\n0.1,0.5\n")
    rc = cli_main(["fit-steady", "--config", str(small_cfg_file), "--input", str(steady),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_no_command_prints_usage(capsys):
    rc = cli_main([])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_flag(capsys):
    rc = cli_main(["run", "--frobnicate"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra_lines, extra_args",
    [
        ("run", "noise_delta = 1.5\n", []),
        ("run", "m = 0\n", []),
        ("run", "n_samples = 2\n", []),
        ("run", "n_samples = 3\n", []),
        ("run", "", ["--seed", "-1"]),
        ("sweep-p", "", ["--values", "0"]),
        ("sweep-mu", "", ["--values", "-1"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,-0.2", "--s-values", "2,4"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1", "--s-values", "4,0"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1", "--s-values", "4,200"]),
        ("fit-steady", "", ["--dl", "0"]),
        ("fit-steady", "", ["--mu", "-1"]),
        ("run", "lambda = nan\n", []),
        ("run", "eta = nan\n", []),
        ("run", "noise_level = nan\n", []),
        ("run", "lambda = inf\n", []),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,nan", "--s-values", "2,4"]),
        ("fit-steady", "", ["--mu", "nan"]),
        ("check-theorems", "n = 40\n", []),
        ("sweep-p", "", ["--values", "1,1,2"]),
        ("sweep-p", "", ["--values", "1,2,1"]),
        ("sweep-mu", "", ["--values", "0.4,0.4,0.8"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,0.2,0.1", "--s-values", "2,4"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,0.2", "--s-values", "4,2,4"]),
        ("run", "beta = 1e300\n", []),
        ("run", "beta = 1e-300\nmu = 0\n", []),
        ("sweep-p", "beta = 1e300\n", ["--values", "1,2"]),
        ("sweep-lambda-s", "beta = 1e300\n", ["--lambda-values", "0.1", "--s-values", "2,4"]),
        ("sweep-p", "sweep_axis = P\nsweep_values = 1,2.5,5\n", []),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,0.2", "--s-values", "4", "--level", "nan"]),
        ("sweep-lambda-s", "", ["--lambda-values", "0.1,0.2", "--s-values", "4", "--level", "inf"]),
        ("run", "beta = 1e-160\nmu = 5e-161\n", []),
    ],
    ids=["noise_delta", "m", "n_samples2", "n_samples3", "seed", "sweep_p_zero",
         "sweep_mu_negative", "lambda_negative", "s_zero", "s_above_n", "fit_dl_zero",
         "fit_mu_negative", "lambda_nan", "eta_nan", "noise_level_nan", "lambda_inf",
         "lambda_values_nan", "fit_mu_nan", "theorem_level_over_budget",
         "sweep_p_repeated", "sweep_p_repeated_apart", "sweep_mu_repeated",
         "lambda_repeated", "s_repeated", "beta_square_overflows", "beta_square_underflows",
         "sweep_p_beta_square_overflows", "lambda_s_beta_square_overflows",
         "sweep_p_fractional_config", "ratio_level_nan", "ratio_level_inf",
         "beta_square_subnormal"],
)
def test_cli_invalid_config_exits_one_before_trials(
    tmp_path, monkeypatch, capsys, command, extra_lines, extra_args
):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran for an invalid config")

    for name in ("harness._block_runs", "suites._run_suite", "kernels.stream"):
        monkeypatch.setattr(f"streamista.{name}", no_trials)
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + extra_lines)
    argv = [command, "--config", str(path), "--out", str(tmp_path)] + extra_args
    if command == "fit-steady":
        steady = tmp_path / "in" / "steady.csv"
        steady.parent.mkdir()
        steady.write_text("P,steady\n1,0.5\n2,0.4\n5,0.3\n")
        argv += ["--input", str(steady)]
    rc = cli_main(argv)
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, extra_args", [
    ("run", []),
    ("sweep-p", ["--values", "1,2"]),
    ("sweep-lambda-s", ["--lambda-values", "0.1,0.2", "--s-values", "2,4"]),
])
def test_cli_thread_count_not_an_integer_exits_one_before_trials(
    tmp_path, monkeypatch, capsys, command, extra_args
):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran for an invalid thread count")

    for name in ("harness._block_runs", "suites._run_suite", "kernels.stream"):
        monkeypatch.setattr(f"streamista.{name}", no_trials)
    monkeypatch.setenv("STREAM_ISTA_THREADS", "abc")
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    rc = cli_main([command, "--config", str(path), "--out", str(tmp_path)] + extra_args)
    assert rc == 1
    assert "config error: STREAM_ISTA_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "config, extra_lines, extra_args, diverged",
    [
        ("desk.cfg", "eta = 0.6\n", ["--trials", "5"], "5 of 5"),
        ("desk.cfg", "eta = 1.5\n", [], "50 of 50"),
        ("theorem.cfg", "", ["--trials", "20"], "10 of 20"),
        ("desk.cfg", "noise_mode = capped\nnoise_level = 1e300\n", ["--trials", "3"], "3 of 3"),
        # the divergence limit itself overflows here, so it is clipped
        ("desk.cfg", "noise_mode = capped\nnoise_level = 1e307\n", ["--trials", "3"], "3 of 3"),
        ("desk.cfg", "noise_level = 1e307\n", ["--trials", "3"], "3 of 3"),
        # the noise rows overflow while they are scaled; the cap's fallback holds
        ("desk.cfg", "noise_mode = capped\nnoise_level = 1.7e308\n", ["--trials", "3"], "3 of 3"),
        # the noise scale itself overflows, for two of the three trials
        ("desk.cfg", "noise_level = 1e308\n", ["--trials", "3"], "3 of 3"),
        # every scale is finite, but some noise entries overflow
        ("desk.cfg", "m = 4\nn = 8\ns = 1\nn_pairs = 0\nn_samples = 8\nbeta = 1.0\nmu = 0.1\n"
         "noise_level = 1.5e308\n", ["--trials", "20"], "20 of 20"),
    ],
    ids=["desk_eta_0.6", "desk_eta_1.5", "theorem_cfg", "desk_capped_noise_1e300",
         "desk_capped_noise_1e307", "desk_gaussian_noise_1e307", "desk_capped_noise_1.7e308",
         "desk_gaussian_noise_1e308", "tiny_gaussian_noise_1.5e308"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_divergence_exits_two(tmp_path, capsys, config, extra_lines, extra_args, diverged):
    path = tmp_path / config
    path.write_text((CONFIGS / config).read_text() + extra_lines)
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(path), "--out", str(out)] + extra_args)
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical divergence in cell lambda=" in err
    assert f"{diverged} trials diverged" in err
    assert not list(out.glob("*.csv"))


def test_cli_fit_steady_malformed_row_exits_two(tmp_path, capsys):
    steady = tmp_path / "steady.csv"
    steady.write_text("P,steady\n1,0.5,9\n")
    rc = cli_main(["fit-steady", "--input", str(steady), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"malformed steady-state file {steady}, line 2" in err
    assert not (tmp_path / "out" / "fit.csv").exists()


# a valid three-row P sweep with one value replaced: each of these used to
# exit 0 and write a fit.csv of nan, inf or a meaningless r2
BAD_STEADY_ROWS = {
    "steady_nan": "1,nan",
    "steady_inf": "1,inf",
    "p_nan": "nan,0.5",
    "p_zero": "0,0.5",
    "p_negative": "-1,0.5",
    "steady_1e200": "1,1e200",
}


@pytest.mark.parametrize("row", BAD_STEADY_ROWS.values(), ids=BAD_STEADY_ROWS.keys())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_fit_steady_rejects_a_meaningless_fit(tmp_path, capsys, row):
    steady = tmp_path / "steady.csv"
    steady.write_text(f"P,steady\n{row}\n2,0.4\n5,0.3\n")
    rc = cli_main(["fit-steady", "--input", str(steady), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.csv").exists()


def test_cli_check_theorems_small(tmp_path, capsys):
    cfg = tmp_path / "thm.cfg"
    cfg.write_text(
        "m = 18\nn = 20\ns = 1\nn_pairs = 1\nn_samples = 100\nbeta = 1.0\nmu = 0.05\n"
        "lambda = 0.1\neta = 1.0\np = 5\nnoise_mode = capped\nnoise_level = 0.05\n"
        "trials = 8\nq = 1\nseed = 0\n"
    )
    rc = cli_main(["check-theorems", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "instances passed preconditions" in out
    lines = (tmp_path / "preconditions.csv").read_text().splitlines()
    assert lines[0] == "condition,lhs,rhs,pass"
    assert lines[1].startswith("instance000:")


THEOREM_SMALL_CFG = (
    "m = 18\nn = 20\ns = 1\nn_pairs = 1\nn_samples = 100\nbeta = 1.0\nmu = 0.05\n"
    "lambda = 0.1\neta = 1.0\np = 5\nnoise_mode = capped\nnoise_level = 0.05\n"
    "trials = 2\nq = 1\nseed = 0\n"
)


@pytest.mark.parametrize("command, extra_args", [
    ("run", []),
    ("sweep-p", ["--values", "1,2"]),
    ("sweep-mu", ["--values", "0.2,0.4"]),
    ("sweep-lambda-s", ["--trials", "3", "--lambda-values", "0.02,0.2", "--s-values", "4,8"]),
    ("fit-steady", ["--mu", "0.4", "--dl", "1.0"]),
    ("check-theorems", []),
    ("lemma-suite", []),
])
def test_cli_writes_every_file_through_one_writer(tmp_path, monkeypatch, command, extra_args):
    monkeypatch.setattr(suites, "_LEMMA_MATRICES", 2)
    monkeypatch.setattr(suites, "_LEMMA_DRAWS", 60)
    seen = []
    write_csv = harness._write_csv

    def spy(path, header, rows):
        seen.append(str(path))
        write_csv(path, header, rows)

    monkeypatch.setattr(harness, "_write_csv", spy)
    configs = {"sweep-lambda-s": CONFIGS / "desk.cfg", "check-theorems": tmp_path / "thm.cfg"}
    (tmp_path / "thm.cfg").write_text(THEOREM_SMALL_CFG)
    (tmp_path / "small.cfg").write_text(SMALL_CFG)
    if command == "fit-steady":
        p = np.arange(1, 6)
        y = 0.5**p / (1 - 0.5**p) * 0.4 + 0.3
        (tmp_path / "steady.csv").write_text(
            "P,steady\n" + "".join(f"{v},{s!r}\n" for v, s in zip(p.tolist(), y.tolist()))
        )
        extra_args = extra_args + ["--input", str(tmp_path / "steady.csv")]
    out = tmp_path / "out"
    rc = cli_main([command, "--config", str(configs.get(command, tmp_path / "small.cfg")),
                   "--out", str(out), *extra_args])
    assert rc == 0
    written = sorted(str(f) for f in out.iterdir()) if out.exists() else []
    assert sorted(seen) == written
    assert written or command == "lemma-suite"


def test_cli_lemma_suite_small(tmp_path, capsys):
    # full-size suite runs in about a second; rely on the library tests for
    # smaller variants and only exercise the exit path here
    rc = cli_main(["lemma-suite", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert "lemma suite passed" in capsys.readouterr().out


def test_cli_check_theorems_rejects_an_out_file_before_the_suite(tmp_path, monkeypatch, capsys):
    # every command creates --out before its first trial, so an --out that
    # names a file fails at once
    calls = []
    stream = kernels.stream
    # counted, not raised: the CLI maps any exception to exit 2
    monkeypatch.setattr(
        kernels, "stream", lambda *args, **kwargs: calls.append(1) or stream(*args, **kwargs)
    )
    out = tmp_path / "file"
    out.write_text("")
    rc = cli_main(["check-theorems", "--config", str(CONFIGS / "theorem.cfg"), "--trials", "2",
                   "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["lemma-suite", "fit-steady"])
def test_cli_trials_is_a_usage_error_where_no_trial_runs(tmp_path, capsys, command):
    steady = tmp_path / "steady.csv"
    steady.write_text("P,steady\n1,0.5\n2,0.4\n5,0.3\n")
    argv = [command, "--seed", "0", "--out", str(tmp_path / "out")]
    if command == "fit-steady":
        argv += ["--input", str(steady)]
    for trials in ("3", "0"):
        assert cli_main(argv + ["--trials", trials]) == 1
        assert "usage error" in capsys.readouterr().err
    assert cli_main(argv) == 0


# runs each argv list (argv[1] is JSON) in turn, then prints which of the
# watched modules are loaded, one JSON line per command
COLD_START_SCRIPT = """
import contextlib, io, json, sys
from streamista.cli import cli_main
watched = ("streamista.suites", "concurrent.futures", "multiprocessing", "streamista.theory")
print(json.dumps(["import", [m for m in watched if m in sys.modules]]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    print(json.dumps([argv[0], rc, [m for m in watched if m in sys.modules]]))
"""


def test_cli_cold_start_loads_the_suites_and_pool_only_where_they_run(tmp_path):
    # each interpreter is fresh, so every module it reports was loaded by the
    # commands it ran; the tracer reads streamista.theory from sys.modules
    env = {k: v for k, v in os.environ.items() if k != "STREAM_ISTA_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(CONFIGS.parent / "src"), env.get("PYTHONPATH", "")])
    steady = tmp_path / "in" / "steady.csv"
    steady.parent.mkdir()
    steady.write_text("P,steady\n1,0.5\n2,0.4\n5,0.3\n")
    desk = ["--config", str(CONFIGS / "desk.cfg"), "--trials", "1", "--out", str(tmp_path)]
    first = [
        ["run"] + desk,
        ["sweep-p", "--values", "1,2"] + desk,
        ["sweep-lambda-s", "--lambda-values", "0.05,0.8", "--s-values", "4"] + desk,
        ["fit-steady", "--input", str(steady), "--out", str(tmp_path)],
        ["check-theorems", "--config", str(CONFIGS / "theorem.cfg"), "--trials", "2",
         "--out", str(tmp_path)],
    ]
    second = [["lemma-suite", "--out", str(tmp_path)]]

    def loaded(commands):
        proc = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines()]

    theory = "streamista.theory"
    assert loaded(first) == [
        ["import", [theory]],
        ["run", 0, [theory]],
        ["sweep-p", 0, [theory]],
        ["sweep-lambda-s", 0, [theory]],
        ["fit-steady", 0, [theory]],
        ["check-theorems", 0, ["streamista.suites", theory]],
    ]
    assert loaded(second) == [["import", [theory]], ["lemma-suite", 0, ["streamista.suites", theory]]]
    shim = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from streamista.harness import run_lca_suite\n"
         "assert run_lca_suite is sys.modules['streamista.suites'].run_lca_suite"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert shim.returncode == 0, shim.stderr


# the fuzz's tiny base config, every key at a typical value; both of its
# theorem-suite instances pass their preconditions, so check-theorems runs
FUZZ_BASE = {
    "m": "16", "n": "8", "s": "1", "n_pairs": "1", "n_samples": "6", "beta": "1.0",
    "mu": "0.1", "lambda": "0.1", "eta": "0.3", "p": "2", "dl": "1.0", "tau": "1.0",
    "noise_mode": "capped", "noise_level": "0.05", "noise_delta": "0.2", "trials": "2",
    "q": "1", "seed": "1", "tail_fraction": "0.25",
}
# values every numeric key is drawn from, besides its own
FUZZ_EXTREMES = ("0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
                 "nan", "inf", "-inf")
# each key's typical value and boundaries, inside the tiny sizes (m, n <= 16,
# 4-8 samples, at most 2 trials) or just past them
FUZZ_VALUES = {
    "m": ("16", "1", "8"),
    "n": ("8", "2", "16"),
    "s": ("1", "4", "8"),
    "n_pairs": ("1", "0", "2"),
    "n_samples": ("6", "3", "4", "8"),
    "beta": ("1.0", "1.5e-154", "1.3e154", "1e154"),
    "mu": ("0.1", "1.0", "1.0000001"),
    "lambda": ("0.1", "1e-3", "10"),
    "eta": ("0.3", "1.0", "1.5", "2.0"),
    "p": ("2", "1", "8"),
    "dl": ("1.0", "1e-3", "1e3"),
    "tau": ("1.0", "1e-3", "1e3"),
    "noise_level": ("0.05", "1e154", "1e307", "1.7e308"),
    "noise_delta": ("0.2", "0.999", "1"),
    "trials": ("2", "1"),
    "q": ("1", "4", "16"),
    "seed": ("1", "0", str(2**64 - 1), str(2**64)),
    "tail_fraction": ("0.25", "1.0", "1e-3"),
}
# what stderr ends with on exit 2, each a documented runtime failure
RUNTIME_FAILURES = (
    r"error: numerical divergence in cell lambda=.+ trials diverged, the first at solver "
    r"step \d+(; noise_level=.+ overflows the noise scale of \d+ of them)?",
    r"bound dominance FAILED on a precondition-passing instance",
    r"error: ratio level .+ is not bracketed: the ratios of s=\d+ span \[.+, .+\]",
)
# a lambda-s grid at the tiny sizes, two thresholds and one s; at the base
# config its ratios, 5.0 and 0.0, bracket the default level 4
FUZZ_LAMBDA_S = "sweep-lambda-s --lambda-values 0.05,0.8 --s-values 1"


def fuzz_text(changes: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in dict(FUZZ_BASE, **changes).items())


@st.composite
def fuzz_configs(draw):
    changes = {"noise_mode": draw(st.sampled_from(["capped", "gaussian_scaled"]))}
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1, max_size=2,
                             unique=True)):
        changes[key] = draw(st.sampled_from(FUZZ_VALUES[key] + FUZZ_EXTREMES))
    return fuzz_text(changes)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
# sweep-p runs its P > 1 cells on the kernel's hold-end path
@given(text=fuzz_configs(),
       command=st.sampled_from(["run", "check-theorems", "sweep-p --values 2,5", FUZZ_LAMBDA_S]))
@example(text=fuzz_text({}), command="run")
@example(text=fuzz_text({}), command="check-theorems")
@example(text=fuzz_text({}), command="sweep-p --values 2,5")
@example(text=fuzz_text({}), command=FUZZ_LAMBDA_S)
@example(text=fuzz_text({"eta": "1.5"}), command="run")  # diverges
@example(text=fuzz_text({"eta": "1.5"}), command="sweep-p --values 2,5")  # diverges
@example(text=fuzz_text({"noise_level": "1e300"}), command="check-theorems")  # offsets near 1e301
def test_cli_exit_codes_hold_for_extreme_config_values(tmp_path_factory, text, command):
    # north star 3 as a property: a config error exits 1 before any trial, a
    # runtime failure exits 2 and names its cause, and exit 0 writes only
    # finite values
    calls = []
    patches = pytest.MonkeyPatch()
    for module, name in ((harness, "_block_runs"), (suites, "_run_suite"),
                         (kernels, "stream")):
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        patches.setattr(module, name, counted)
    work = tmp_path_factory.mktemp("fuzz")
    (work / "fuzz.cfg").write_text(text)
    try:
        parse_config_text(text)
        parsed = True
    except ConfigError:
        parsed = False
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = cli_main([*command.split(), "--config", str(work / "fuzz.cfg"),
                           "--out", str(work / "out")])
    finally:
        patches.undo()
    csvs = sorted((work / "out").glob("*.csv"))
    assert rc in (0, 1, 2)
    assert parsed or rc == 1
    if rc == 1:
        assert calls == [] and csvs == []
    elif rc == 2:
        assert [p.name for p in csvs] in ([], ["preconditions.csv"])
        last = err.getvalue().splitlines()[-1]
        assert any(re.fullmatch(pattern, last) for pattern in RUNTIME_FAILURES), last
    else:
        for path in csvs:
            for row in path.read_text().splitlines()[1:]:
                for field in row.split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


# the process that imports this module, which runs the tests
TEST_PROCESS = os.getpid()


def exit_in_a_worker(*args):
    """Stands in for ``harness._block_runs``: a forked worker dies at its first block."""
    if os.getpid() == TEST_PROCESS:
        raise AssertionError("a block ran in the test process, not in a worker")
    os._exit(3)


def test_cli_worker_that_dies_exits_two_and_writes_no_csv(tmp_path, monkeypatch, capsys):
    # desk.cfg at 40 trials runs in eight blocks, over two workers even on
    # one usable CPU; the worker is found by reference, so the stand-in is
    # a module-level function
    monkeypatch.setenv("STREAM_ISTA_THREADS", "2")
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_block_runs", exit_in_a_worker)
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(CONFIGS / "desk.cfg"), "--trials", "40",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "process pool" in err, err
    assert not list(out.glob("*.csv"))
    assert multiprocessing.active_children() == []


def test_cli_lambda_s_grid_of_one_lambda_exits_one_before_trials(tmp_path, monkeypatch, capsys):
    # one lambda gives each s one ratio, which brackets no level but its own
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran for a one-lambda grid")

    monkeypatch.setattr(kernels, "stream", no_trials)
    out = tmp_path / "out"
    rc = cli_main(["sweep-lambda-s", "--config", str(CONFIGS / "desk.cfg"), "--trials", "3",
                   "--lambda-values", "0.05", "--s-values", "4,8", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config error: sweep_lambda_s needs at least two lambda values, got 1\n"
    )
    assert not list(out.glob("*.csv"))


def test_cli_lambda_s_level_the_grid_never_reached_exits_two(tmp_path, capsys):
    # the ratios of s = 4 span 2.5 to 28 here; the nearest point to 1e6 is not on its level set
    out = tmp_path / "out"
    rc = cli_main(["sweep-lambda-s", "--config", str(CONFIGS / "desk.cfg"), "--trials", "3",
                   "--lambda-values", "0.02,0.2", "--s-values", "4,8", "--level", "1e6",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: ratio level 1000000.0 is not bracketed: the ratios of s=4 span [2.5, 28.0]\n"
    )
    assert not list(out.glob("*.csv"))


# configs whose bound offsets dwarf the first error: the bound kept it only
# while it was evaluated without cancellation
BOUND_CANCELLATION_CASES = [
    pytest.param((CONFIGS / "theorem.cfg").read_text() + "noise_level = 1e300\ntrials = 6\n",
                 id="theorem_cfg_noise_1e300"),
    *(pytest.param(fuzz_text({"noise_mode": mode, key: value}), id=f"fuzz_{mode}_{key}_{value}")
      for mode in ("capped", "gaussian_scaled")
      for key, value in (("noise_level", "1e154"), ("noise_level", "1e300"),
                         ("beta", "1e154"), ("lambda", "1e300"))),
]


@pytest.mark.parametrize("text", BOUND_CANCELLATION_CASES)
def test_cli_check_theorems_bound_survives_huge_offsets(tmp_path, capsys, text):
    (tmp_path / "huge.cfg").write_text(text)
    rc = cli_main(["check-theorems", "--config", str(tmp_path / "huge.cfg"),
                   "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VIOLATED" not in out
    assert "-> dominated" in out
