"""Compare the CLI outputs of two source trees byte for byte.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE [--seeds 0,5] [--full]

Each tree is a checkout of this repository.  For every input seed (0-9 by
default) the script runs, on each tree with ``PYTHONPATH=<tree>/src``:

* ``run``, ``sweep-p``, ``sweep-mu`` and ``sweep-lambda-s`` on desk.cfg,
  the last on the criterion-8 grid config (desk.cfg at 10 measurements and
  P = 5), plus ``check-theorems`` on theorem.cfg and ``lemma-suite``;
* ``run`` on desk.cfg with ``noise_mode = capped``, at the trial count of
  ``run``: its trials converge to nonzero errors, so ``curve.csv`` reads
  the capped noise bits, which no suite's output does;
* runs that diverge and exit 2: desk.cfg with ``eta = 0.6``, in ``run``
  and in ``sweep-p`` over P = 2, 5, 10, whose divergence begins mid-hold,
  at a step whose error ``run`` and the sweeps do not keep; ``run`` on
  theorem.cfg; desk.cfg at capped noise 1e307, where the errors overflow;
  desk.cfg at noise level 1e308, where the noise scale overflows; and
  desk.cfg shrunk to m = 4, n = 8, s = 1 at noise level 1.5e308, where
  every scale is finite but some noise entries overflow;
* six config errors that exit 1 before any trial (``CONFIG_ERROR_CASES``):
  a repeated P, ``check-theorems`` over its support budget, a NaN ratio
  level, a ``beta`` whose square is subnormal, a ``STREAM_ISTA_THREADS``
  that is not an integer (a Python call that sets it and runs ``run``), and
  ``fit-steady`` on a ``steady.csv`` holding a NaN steady value;
* ``fit-steady`` on a fixed valid three-row ``steady.csv``.  Both
  ``fit-steady`` cases are Python calls that write the file and run the
  CLI.  The NaN case differs from a tree older than its check, which
  exited 0 and wrote a ``fit.csv`` of NaN;
* ``run_lemma_suite`` at the input seed: a Python call that prints the
  ``repr`` of its result, the worst slack at full precision, where
  ``lemma-suite`` rounds it;
* ``run_lca_suite`` on the criterion-7 config (20 instances at either
  size), which has no subcommand: a Python call that prints the ``repr``
  of the suite's instances;
* ``run_theorem_suite`` on theorem.cfg, at the trial count of
  ``check-theorems``: a Python call that prints the ``repr`` of the
  suite's instances, every float at full precision, where
  ``check-theorems`` rounds them;
* ``rip_exact_witness`` on the Gaussian matrices the suites use (18 x 20 at
  level 3, 64 x 72 at level 2, 8 x 16 at level 4) and on two where few
  supports can be skipped (a tall 1000 x 16 at level 13, the identity at
  n = 20, level 10): a Python call that prints each constant, witness
  support and coefficients at full precision, the matrices drawn from the
  input seed.

Trial counts and sweep values are the benchmark's quick sizes
(``perfbench/workloads.py``), or its full sizes with ``--full``.  Every run
starts in its own directory holding copies of the configs and writes to a
relative ``out`` directory, so the two trees see the same paths.  The
script compares each run's exit code, stdout, stderr and the bytes of every
file it wrote, prints each difference, and exits 1 if there is any, else 0.
Where a differing stdout, stderr or file differs only in tokens that parse
as floats on both sides, its line also counts those tokens and gives their
largest relative difference; it is still a difference.
"""

import argparse
from concurrent.futures import ThreadPoolExecutor
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import tempfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402
    GRID_S, GRID_SAMPLES, LCA_CONFIG, SIZES, SWEEP_P,
)

SWEEP_MU = (0.2, 0.4, 0.8)
CRITERION_7_TRIALS = 20

# the cases that exit 1 with a config error
CONFIG_ERROR_CASES = (
    "sweep-p-repeated", "check-theorems-over-budget", "sweep-lambda-s-level-nan",
    "run-beta-square-subnormal", "run-threads-not-integer", "fit-steady-nan",
)

# argv[1] is the config's fields as JSON
LCA_SCRIPT = """
import json, sys
from streamista.harness import ExperimentConfig
from streamista.suites import run_lca_suite
cfg = ExperimentConfig(**json.loads(sys.argv[1]))
print(repr(run_lca_suite(cfg, slack_factor=5.0, substeps=10).instances))
"""

# argv[1:] are the config file, the trial count and the seed
THEOREM_SCRIPT = """
import dataclasses, sys
from streamista.configio import parse_config
from streamista.suites import run_theorem_suite
cfg = parse_config(sys.argv[1])
cfg = dataclasses.replace(cfg, trials=int(sys.argv[2]), seed=int(sys.argv[3]))
print(repr(run_theorem_suite(cfg).instances))
"""

# argv[1] is the seed
LEMMA_SCRIPT = """
import sys
from streamista.suites import run_lemma_suite
print(repr(run_lemma_suite(int(sys.argv[1]))))
"""

# argv[1:] are the CLI's
THREADS_SCRIPT = """
import os, sys
os.environ["STREAM_ISTA_THREADS"] = "abc"
from streamista.cli import cli_main
sys.exit(cli_main(sys.argv[1:]))
"""

# argv[1] is the text of steady.csv, argv[2:] the CLI's
FIT_SCRIPT = """
import sys
from pathlib import Path
from streamista.cli import cli_main
Path("steady.csv").write_text(sys.argv[1])
sys.exit(cli_main(sys.argv[2:]))
"""

# a P sweep's steady.csv, valid and with a NaN steady value
FIT_STEADY = {
    "fit-steady": "P,steady\n1,0.5\n2,0.4\n5,0.3\n",
    "fit-steady-nan": "P,steady\n1,nan\n2,0.4\n5,0.3\n",
}

# argv[1] is the matrices as JSON, argv[2] the seed of the Gaussian ones
RIP_SCRIPT = """
import json, sys
from streamista.measurement import gen_gaussian_matrix, gen_identity, rip_exact_witness
for kind, m, n, s in json.loads(sys.argv[1]):
    phi = gen_identity(n) if kind == "identity" else gen_gaussian_matrix(m, n, int(sys.argv[2]))
    est, support, coeffs = rip_exact_witness(phi, s)
    print(kind, m, n, s, repr(est), support.tolist(), coeffs.tolist())
"""

# (kind, m, n, level) of every matrix of the rip case
RIP_MATRICES = (
    ("gaussian", 18, 20, 3),
    ("gaussian", 64, 72, 2),
    ("gaussian", 8, 16, 4),
    ("gaussian", 1000, 16, 13),
    ("identity", 20, 20, 10),
)


def cases(seed: int, size: dict) -> dict:
    """``{name: (config, config text additions, argv)}`` of every run at one input seed.

    The argv are Python's.  A run that reads a config file names it, and
    the LCA suite's config is None.
    """
    common = ["--seed", str(seed)]
    grid = f"\nn_samples = {GRID_SAMPLES}\np = 5\n"
    grid_argv = [
        "sweep-lambda-s", "--trials", str(size["grid_trials"]),
        "--lambda-values", ",".join(map(repr, size["grid_lambdas"])),
        "--s-values", ",".join(map(str, GRID_S))]
    lca = dict(LCA_CONFIG, trials=CRITERION_7_TRIALS, seed=seed)
    cli = {
        "run": ("desk.cfg", "", ["run", "--trials", str(size["desk_trials"])]),
        "sweep-p": ("desk.cfg", "", [
            "sweep-p", "--trials", str(size["sweep_p_trials"]),
            "--values", ",".join(map(str, SWEEP_P))]),
        "sweep-mu": ("desk.cfg", "", [
            "sweep-mu", "--trials", str(size["sweep_p_trials"]),
            "--values", ",".join(map(str, SWEEP_MU))]),
        "sweep-lambda-s": ("desk.cfg", grid, grid_argv + ["--level", "4"]),
        "check-theorems": ("theorem.cfg", "", [
            "check-theorems", "--trials", str(size["theorem_trials"])]),
        "lemma-suite": ("desk.cfg", "", ["lemma-suite"]),
        "run-desk-capped": (
            "desk.cfg", "\nnoise_mode = capped\n", ["run", "--trials", str(size["desk_trials"])]),
        "run-desk-eta-0.6": ("desk.cfg", "\neta = 0.6\n", ["run", "--trials", "5"]),
        "sweep-p-eta-0.6": (
            "desk.cfg", "\neta = 0.6\n", ["sweep-p", "--trials", "5", "--values", "2,5,10"]),
        "run-theorem": ("theorem.cfg", "", ["run", "--trials", "20"]),
        "run-capped-noise-1e307": (
            "desk.cfg", "\nnoise_mode = capped\nnoise_level = 1e307\n", ["run", "--trials", "3"]),
        "run-gaussian-noise-1e308": ("desk.cfg", "\nnoise_level = 1e308\n", ["run", "--trials", "3"]),
        "run-tiny-noise-entry-1.5e308": (
            "desk.cfg",
            "\nm = 4\nn = 8\ns = 1\nn_pairs = 0\nn_samples = 8\nbeta = 1.0\nmu = 0.1\n"
            "noise_level = 1.5e308\n",
            ["run", "--trials", "20"]),
        "sweep-p-repeated": ("desk.cfg", "", ["sweep-p", "--values", "1,1"]),
        "check-theorems-over-budget": ("theorem.cfg", "\nn = 40\nq = 8\n", ["check-theorems"]),
        "sweep-lambda-s-level-nan": ("desk.cfg", grid, grid_argv + ["--level", "nan"]),
        "run-beta-square-subnormal": (
            "desk.cfg", "\nbeta = 1e-160\nmu = 5e-161\n", ["run", "--trials", "3"]),
    }
    runs = {
        name: (config, extra, ["-m", "streamista.cli", *argv, *common,
                               "--config", config, "--out", "out"])
        for name, (config, extra, argv) in cli.items()
    }
    runs["lca-suite"] = (None, "", ["-c", LCA_SCRIPT, json.dumps(lca)])
    runs["theorem-suite"] = ("theorem.cfg", "", [
        "-c", THEOREM_SCRIPT, "theorem.cfg", str(size["theorem_trials"]), str(seed)])
    runs["lemma-suite-repr"] = (None, "", ["-c", LEMMA_SCRIPT, str(seed)])
    runs["run-threads-not-integer"] = ("desk.cfg", "", [
        "-c", THREADS_SCRIPT, *cli["run"][2], *common, "--config", "desk.cfg", "--out", "out"])
    runs["rip"] = (None, "", ["-c", RIP_SCRIPT, json.dumps(RIP_MATRICES), str(seed)])
    for name, text in FIT_STEADY.items():
        runs[name] = ("desk.cfg", "", [
            "-c", FIT_SCRIPT, text, "fit-steady", "--input", "steady.csv", *common,
            "--config", "desk.cfg", "--out", "out"])
    return runs


def run_case(tree: Path, work: Path, config: str | None, extra: str, argv: list) -> dict:
    """Run one call of ``tree`` in ``work``; its exit code, streams and files."""
    work.mkdir(parents=True)
    if config is not None:
        (work / config).write_text((tree / "configs" / config).read_text() + extra)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable] + argv, cwd=work, env=env, capture_output=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


# a decimal float, a Python float repr included, or nan / inf
FLOAT = re.compile(rb"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")


def float_differences(a: bytes, b: bytes) -> str:
    """``"; floats only: ..."`` when ``a`` and ``b`` differ only in float tokens, else ``""``.

    The texts split around their float tokens; if the text between the
    tokens is the same on both sides, the note counts the tokens that
    differ and gives their largest relative difference, ``|x - y| / max(|x|, |y|)``
    (inf where either side is not finite).
    """
    parts_a, parts_b = FLOAT.split(a), FLOAT.split(b)
    # split puts the text between the tokens at even places, the tokens at odd
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return ""
    pairs = [(float(x), float(y)) for x, y in zip(parts_a[1::2], parts_b[1::2]) if x != y]
    if not pairs:
        return ""
    worst = max(
        abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf
        for x, y in pairs
    )
    return (f"; floats only: {len(pairs)} of {len(parts_a) // 2} float tokens differ, "
            f"largest relative difference {worst:.3g}")


def differences(name: str, parent: dict, change: dict) -> list:
    found = []
    if parent["exit"] != change["exit"]:
        found.append(f"{name}: exit differs: {parent['exit']!r} != {change['exit']!r}")
    for key in ("stdout", "stderr"):
        if parent[key] != change[key]:
            found.append(f"{name}: {key} differs: {parent[key]!r} != {change[key]!r}"
                         + float_differences(parent[key], change[key]))
    for file in sorted(parent["files"].keys() | change["files"].keys()):
        a, b = parent["files"].get(file), change["files"].get(file)
        if a is None or b is None:
            found.append(f"{name}: {file} written by only one tree")
        elif a != b:
            found.append(f"{name}: {file} differs" + float_differences(a, b))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent source tree")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--seeds", default=",".join(map(str, range(10))),
                        help="comma-separated input seeds (default 0-9)")
    parser.add_argument("--full", action="store_true", help="run at the benchmark's full sizes")
    args = parser.parse_args(argv)
    size = SIZES["full" if args.full else "quick"]
    trees = (args.parent.resolve(), args.change.resolve())
    problems, count = [], 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(max_workers=2) as pool:
        for seed in (int(s) for s in args.seeds.split(",")):
            for name, (config, extra, argv) in cases(seed, size).items():
                label = f"seed {seed} {name}"
                futures = [
                    pool.submit(run_case, tree, Path(tmp) / side / str(seed) / name,
                                config, extra, argv)
                    for side, tree in zip(("parent", "change"), trees)
                ]
                parent, change = (f.result() for f in futures)
                found = differences(label, parent, change)
                problems += found
                count += 1
                print(f"{label}: exit {parent['exit']}, "
                      f"{'DIFFERS' if found else 'identical'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{count} runs compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
