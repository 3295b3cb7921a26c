from dataclasses import replace
import importlib.util
import json
from pathlib import Path

from streamista.configio import parse_config
from streamista.harness import ExperimentConfig, fit_steady_state, write_fit_csv
from streamista.measurement import gen_gaussian_matrix, rip_exact_witness
from streamista.suites import run_lca_suite, run_lemma_suite, run_theorem_suite

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_lca_case_prints_the_suite_instances(tmp_path):
    # the suite has no subcommand, so its case is a Python call on the tree
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["lca-suite"]
    fields = json.loads(argv[-1])
    assert (fields["trials"], fields["n_samples"], fields["seed"]) == (20, 20, 3)
    # fewer instances, so the test stays quick; the script reads them from argv
    fields["trials"] = 3
    found = compare_outputs.run_case(
        ROOT, tmp_path / "work", config, extra, argv[:-1] + [json.dumps(fields)]
    )
    cfg = ExperimentConfig(**fields)
    expected = repr(run_lca_suite(cfg, slack_factor=5.0, substeps=10).instances)
    assert found["exit"] == 0
    assert found["stdout"].decode() == expected + "\n"
    assert found["files"] == {}


def test_theorem_case_prints_the_suite_instances(tmp_path):
    # check-theorems rounds its floats, so the case prints the instances
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["theorem-suite"]
    assert (config, argv[-3:]) == ("theorem.cfg", ["theorem.cfg", "10", "3"])
    # fewer instances, so the test stays quick; the script reads them from argv
    found = compare_outputs.run_case(
        ROOT, tmp_path / "work", config, extra, argv[:-2] + ["3", "3"]
    )
    cfg = replace(parse_config(ROOT / "configs" / "theorem.cfg"), trials=3, seed=3)
    expected = repr(run_theorem_suite(cfg).instances)
    assert found["exit"] == 0
    assert found["stdout"].decode() == expected + "\n"
    assert found["files"] == {}


def test_rip_case_prints_the_witnesses(tmp_path):
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["rip"]
    assert (config, json.loads(argv[-2]), argv[-1]) == (
        None, [list(matrix) for matrix in compare_outputs.RIP_MATRICES], "3"
    )
    # one matrix, so the test stays quick; the script reads them from argv
    found = compare_outputs.run_case(
        ROOT, tmp_path / "work", config, extra, argv[:-2] + ['[["gaussian", 8, 16, 4]]', "3"]
    )
    est, support, coeffs = rip_exact_witness(gen_gaussian_matrix(8, 16, 3), 4)
    expected = f"gaussian 8 16 4 {est!r} {support.tolist()} {coeffs.tolist()}\n"
    assert found["exit"] == 0
    assert found["stdout"].decode() == expected
    assert found["files"] == {}


def test_lemma_case_prints_the_suite_result(tmp_path):
    # lemma-suite rounds the worst slack, so the case prints the whole result
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["lemma-suite-repr"]
    assert (config, extra, argv[-1]) == (None, "", "3")
    found = compare_outputs.run_case(ROOT, tmp_path / "work", config, extra, argv)
    assert found["exit"] == 0
    assert found["stdout"].decode() == repr(run_lemma_suite(3)) + "\n"
    assert found["files"] == {}


def test_fit_steady_case_writes_the_fit(tmp_path):
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["fit-steady"]
    assert argv[2] == compare_outputs.FIT_STEADY["fit-steady"]
    found = compare_outputs.run_case(ROOT, tmp_path / "work", config, extra, argv)
    desk = parse_config(ROOT / "configs" / "desk.cfg")
    write_fit_csv(tmp_path / "fit.csv", fit_steady_state([1, 2, 5], [0.5, 0.4, 0.3],
                                                         desk.mu, desk.dl))
    assert found["exit"] == 0
    assert found["files"] == {"fit.csv": (tmp_path / "fit.csv").read_bytes()}


def test_config_error_cases_exit_one_and_write_nothing(tmp_path):
    # a case that exits 1 shows when a config error moves to another exit code
    runs = compare_outputs.cases(3, compare_outputs.SIZES["quick"])
    for name in compare_outputs.CONFIG_ERROR_CASES:
        found = compare_outputs.run_case(ROOT, tmp_path / name, *runs[name])
        assert found["exit"] == 1, name
        assert found["stderr"].decode().startswith("config error:"), name
        assert found["files"] == {}, name


def test_unbracketed_level_case_exits_two_and_writes_nothing(tmp_path):
    # the grid runs its trials, then no s brackets the level, so no fit is written
    found = compare_outputs.run_case(
        ROOT, tmp_path / "work",
        *compare_outputs.cases(3, compare_outputs.SIZES["quick"])["sweep-lambda-s-level-1e6"],
    )
    assert found["exit"] == 2
    assert found["stderr"].decode().startswith("error: ratio level 1000000.0 is not bracketed")
    assert found["files"] == {}


def test_capped_desk_case_runs_desk_cfg_with_capped_noise(tmp_path):
    # the one case whose written curve reads the capped noise bits
    size = compare_outputs.SIZES["quick"]
    config, extra, argv = compare_outputs.cases(3, size)["run-desk-capped"]
    work = tmp_path / "work"
    work.mkdir()
    (work / config).write_text((ROOT / "configs" / config).read_text() + extra)
    cfg = parse_config(work / config)
    assert (cfg.noise_mode, cfg.noise_level) == ("capped", 0.3)
    assert argv[argv.index("--trials") + 1] == str(size["desk_trials"])


def test_float_only_differences_are_sized_and_still_count():
    # a difference only in floats gets its count and largest relative size,
    # but it is a difference all the same
    parent = {"exit": 0, "stdout": b"worst 0.011586663994858937 of 3\n", "stderr": b"",
              "files": {"fit.csv": b"c,V\n0.5,1e-3\n", "curve.csv": b"step,mean\n1,0.25\n"}}
    change = {"exit": 0, "stdout": b"worst 0.011586663994858939 of 3\n", "stderr": b"",
              "files": {"fit.csv": b"c,V\n0.5,2e-3\n", "curve.csv": b"step,mean\n1,nan\n"}}
    found = compare_outputs.differences("seed 0 case", parent, change)
    assert found == [
        "seed 0 case: stdout differs: b'worst 0.011586663994858937 of 3\\n' != "
        "b'worst 0.011586663994858939 of 3\\n'; floats only: 1 of 2 float tokens differ, "
        "largest relative difference 1.5e-16",
        "seed 0 case: curve.csv differs; floats only: 1 of 2 float tokens differ, "
        "largest relative difference inf",
        "seed 0 case: fit.csv differs; floats only: 1 of 2 float tokens differ, "
        "largest relative difference 0.5",
    ]
    # any other change is reported as before, without a note
    change["stderr"] = b"warning\n"
    change["files"]["fit.csv"] = b"c,V,r2\n0.5,1e-3\n"
    found = compare_outputs.differences("seed 0 case", parent, change)
    assert found[1] == "seed 0 case: stderr differs: b'' != b'warning\\n'"
    assert found[3] == "seed 0 case: fit.csv differs"
