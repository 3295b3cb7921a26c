import importlib.util
import os
from pathlib import Path
import subprocess
import sys

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_by_each_metric_direction():
    # parent wall_s 1.0, 1.1, 1.2, 1.3, 1.4: quartiles 1.1 and 1.3, IQR 0.2
    parent = [{"wall_s": 1.0 + 0.1 * i, "ok_frac": 1.0} for i in range(5)]
    change = [{"wall_s": 0.8 + 0.1 * i, "ok_frac": 1.0 - 0.5 * (i == 4)} for i in range(5)]
    change[2]["wall_s"] = 1.25  # one pair the parent wins
    lines = bench_pairs.summary(
        {"parent": parent, "change": change}, {"wall_s": "lower", "ok_frac": "higher"},
        {"wall_s": 0.25, "ok_frac": 0.01},
    )
    assert lines[0].startswith("wall_s: parent 1.2 [1.1, 1.3] -> change 1.1 [0.9, 1.2] (-8.3%)")
    assert "change better in 4 of 5; gap +0.50 parent IQR" in lines[0]
    assert "change better in 0 of 5; gap parent IQR 0" in lines[1]


def test_directions_come_from_the_benchmark_spec():
    directions = bench_pairs.better_directions()
    assert directions["wall_s"] == "lower"
    assert directions["ok_frac"] == "higher"


def test_pair_line_prints_every_metric_of_both_runs_in_run_order():
    runs = {
        "parent": [{"wall_s": 9.0, "ok_frac": 0.0}, {"wall_s": 0.4831, "ok_frac": 1.0}],
        "change": [{"wall_s": 9.0, "ok_frac": 0.0}, {"wall_s": 0.46, "ok_frac": 1.0}],
    }
    line = bench_pairs.pair_line(1, ("change", "parent"), runs, ("wall_s", "ok_frac"))
    assert line == "pair 2: change wall_s 0.46 ok_frac 1; parent wall_s 0.4831 ok_frac 1"


def wall_s_verdict(parent, change, bound=0.25):
    runs = {"parent": [{"wall_s": v} for v in parent], "change": [{"wall_s": v} for v in change]}
    return bench_pairs.summary(runs, {"wall_s": "lower"}, {"wall_s": bound})[0].rsplit("; ", 1)[1]


def test_summary_ends_with_each_metric_verdict_against_its_bound():
    # parent wall_s 1.0 to 1.04: IQR 0.02, 2% of its median 1.02
    parent = [1.0, 1.01, 1.02, 1.03, 1.04]
    assert wall_s_verdict(parent, [v + 0.2 for v in parent]) == "within bound"  # +19.6%
    assert wall_s_verdict(parent, [v + 0.3 for v in parent]) == "WORSE than bound"  # +29.4%
    assert wall_s_verdict(parent, [v + 0.3 for v in parent], bound=0.3) == "within bound"
    assert wall_s_verdict(parent, [0.5] * 5) == "within bound"
    # a parent IQR of 41% of its median against a 25% bound cannot resolve a change
    # whose runs overlap the parent's, even a median that reads better
    noisy = [0.7, 0.8, 1.0, 1.21, 1.3]
    assert wall_s_verdict(noisy, [0.75, 0.78, 0.9, 1.0, 1.1]) == "unresolved"
    assert wall_s_verdict(noisy, [1.5] * 5) == "unresolved"
    # unless every run of the change beats every run of the parent
    assert wall_s_verdict(noisy, [0.6, 0.62, 0.65, 0.66, 0.69]) == "within bound"
    # where higher is better, a drop beyond the bound is worse
    runs = {"parent": [{"ok_frac": 1.0}] * 3, "change": [{"ok_frac": 0.98}] * 3}
    line = bench_pairs.summary(runs, {"ok_frac": "higher"}, {"ok_frac": 0.01})[0]
    assert line.endswith("; WORSE than bound")
    runs["change"] = [{"ok_frac": 1.0}] * 3
    line = bench_pairs.summary(runs, {"ok_frac": "higher"}, {"ok_frac": 0.01})[0]
    assert line.endswith("; within bound")


def test_summary_gives_a_column_without_a_bound_no_verdict():
    runs = {"parent": [{"wall_s/cal": 10.0}] * 3, "change": [{"wall_s/cal": 9.0}] * 3}
    line = bench_pairs.summary(runs, {"wall_s/cal": "lower"}, {})[0]
    assert line == ("wall_s/cal: parent 10 [10, 10] -> change 9 [9, 9] (-10.0%); "
                    "change better in 3 of 3; gap parent IQR 0")


def test_calibrate_prints_one_positive_float_without_the_package(tmp_path):
    # importing streamista fails in this interpreter, so the calibration op
    # cannot depend on the tree it is run beside
    code = ("import runpy, sys; sys.modules['streamista'] = None; "
            "runpy.run_path(sys.argv[1], run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent / "calibrate.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    assert len(proc.stdout.splitlines()) == 1
    assert float(proc.stdout) > 0
