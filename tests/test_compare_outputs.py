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
