"""Tests of the benchmark itself, on its quick mode.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys
import time

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_emits_every_metric(workload, trace, section):
    # seed 11 runs the inputs of recorded seed 1
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    assert "input seed 1\n" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk-run", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_report_without_references(tmp_path):
    for name in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "references.json"))
    proc = bench("--workload", "desk-run", "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert "no quick references for desk-run input seed 3" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_a_wrong_output_counts_as_failed(tmp_path):
    run.import_package()
    workload = wl.build("desk-run", 0, "quick", ROOT, tmp_path)
    reference = run.load_references()["quick"]["desk-run"]["0"]
    tampered = json.loads(json.dumps(reference))
    tampered[0]["files"]["curve.csv"][5][1] *= 1.0 + 1e-8
    good, bad = run.Checker(workload.operations), run.Checker(workload.operations)
    run.run_pass(workload, tmp_path / "good", good)
    run.run_pass(workload, tmp_path / "bad", bad)
    good.compare_references(reference)
    bad.compare_references(tampered)
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_compare_uses_relative_tolerance_for_floats_only():
    ref = {"exit": 0, "rows": [[1, 2.0, "dominated"]]}
    assert wl.compare({"exit": 0, "rows": [[1, 2.0 * (1 + 5e-10), "dominated"]]}, ref) == []
    assert wl.compare({"exit": 0, "rows": [[1, 2.0 * (1 + 5e-9), "dominated"]]}, ref)
    assert wl.compare({"exit": 0, "rows": [[2, 2.0, "dominated"]]}, ref)
    assert wl.compare({"exit": 0, "rows": [[1, 2.0, "VIOLATED"]]}, ref)
    assert wl.compare({"exit": 2, "rows": [[1, 2.0, "dominated"]]}, ref)
    assert wl.non_finite({"rows": [[1, float("inf")]]})


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))
    mid = tracer.wrap("mid", lambda: (leaf(), leaf(), time.sleep(0.001)))
    root = tracer.open("root")
    mid()
    tracer.close(root)
    summary = tracer.summary()
    total = tracer.ends[root] - tracer.starts[root]
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(total, abs=1e-9)
    assert summary["leaf"]["calls"] == 2
    assert summary["mid"]["self_s"] < summary["leaf"]["self_s"]


def test_install_wraps_every_binding_and_restore_undoes_it():
    run.import_package()
    from streamista import harness, rng

    original = rng.derive_seed
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.derive_seed is rng.derive_seed is not original
        harness.derive_seed(0, 1)
    finally:
        tracer.restore()
    assert harness.derive_seed is rng.derive_seed is original
    assert tracer.summary()["rng.derive_seed"]["calls"] == 1
