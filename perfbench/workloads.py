"""The benchmark's workloads: the operations of one pass and their checks.

An operation is one CLI invocation, made in-process through
``streamista.cli.cli_main`` with a fresh ``--out`` directory, or one suite
call.  Running it and reading back its outputs gives an observation: a
JSON-ready record of the exit code, every CSV written, and the verdicts the
command printed.  Observations are compared three ways:

* against invariants that hold at every seed (exit code 0, finite values,
  file shapes, the lemma counts, suite verdicts);
* against references recorded for this seed, when there are some (floats
  within rel 1e-9, everything else exactly);
* against the first pass of the same run (passes must repeat exactly).
"""

from dataclasses import dataclass
import math
from pathlib import Path
import re
from typing import Callable

WORKLOADS = ("desk-run", "sweeps", "theory-checks")

REL_TOL = 1e-9

# criterion-8 threshold grid: 0.05 ... 0.80 in steps of 0.05
GRID_LAMBDAS = tuple(round(0.05 * i, 2) for i in range(1, 17))

SIZES = {
    "full": {
        "desk_trials": 400,
        "grid_lambdas": GRID_LAMBDAS,
        "grid_trials": 100,
        "sweep_p_trials": 50,
        "theorem_trials": 100,
        "lca_trials": 20,
    },
    "quick": {
        "desk_trials": 20,
        "grid_lambdas": (0.05, 0.3, 0.55, 0.8),
        "grid_trials": 10,
        "sweep_p_trials": 10,
        "theorem_trials": 10,
        "lca_trials": 4,
    },
}

GRID_S = (4, 8, 16)
SWEEP_P = (1, 2, 5, 10)
DESK_SAMPLES = 40
GRID_SAMPLES = 10

# run_lemma_suite's default sizes: 10 matrices x 1000 draws x 5 inequalities,
# and a 21^3 grid at 3 thresholds x 3 budgets.  None of these depend on the seed.
LEMMA_COUNTS = {
    "rip_checks": 50000,
    "rip_violations": 0,
    "cap_checks": 83349,
    "cap_premise_held": 14109,
    "cap_violations": 0,
    "envelopes": ["holds", "holds", "not_applicable"],
}

# the continuous-bound (criterion 7) instance family
LCA_CONFIG = dict(
    m=64, n=72, s=1, n_pairs=1, n_samples=20, beta=1.0, mu=0.05, lam=0.1, eta=1.0,
    P=5, tau=1.0, noise_mode="capped", noise_level=0.05, q=1,
)


@dataclass(frozen=True)
class Operation:
    """One timed call plus how to read and check what it produced."""

    name: str
    run: Callable  # (out_dir) -> raw result; the only part that is timed
    observe: Callable  # (raw, stdout, out_dir) -> observation
    check: Callable  # observation -> list of problems


@dataclass(frozen=True)
class Workload:
    setup_config: Path  # config a fresh interpreter parses for setup_s
    operations: tuple


def parse_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csvs(out_dir: Path) -> dict:
    """Every CSV in ``out_dir`` as ``{file name: [header, row, ...]}``."""
    files = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        lines = path.read_text().splitlines()
        files[path.name] = [lines[0].split(",")] + [
            [parse_cell(cell) for cell in line.split(",")] for line in lines[1:] if line
        ]
    return files


def cli_operation(cli_main, name: str, argv: list, observe_stdout=None, check=None):
    """Operation running ``streamista <argv> --out <dir>``."""

    def run(out_dir):
        return cli_main(argv + ["--out", str(out_dir)])

    def observe(rc, stdout, out_dir):
        obs = {"exit": rc, "files": read_csvs(out_dir)}
        if observe_stdout:
            obs["stdout"] = observe_stdout(stdout)
        return obs

    def check_all(obs):
        problems = [] if obs["exit"] == 0 else [f"exit code {obs['exit']}, expected 0"]
        return problems + (check(obs) if check else [])

    return Operation(name, run, observe, check_all)


def expect_rows(obs, file_name, count):
    found = len(obs["files"].get(file_name, [[]])) - 1
    return [] if found == count else [f"{file_name}: {found} rows, expected {count}"]


_VERDICT = re.compile(r"^instance\s+(\d+): .*?(?:-> (\S+)|preconditions failed: (.*))$")
_PASSED = re.compile(r"^(\d+)/(\d+) instances passed preconditions")


def theorem_verdicts(stdout: str) -> dict:
    verdicts, summary = [], None
    for line in stdout.splitlines():
        match = _VERDICT.match(line)
        if match:
            index, status, failed = match.groups()
            verdicts.append([int(index), status or f"failed: {failed}"])
        match = _PASSED.match(line)
        if match:
            summary = [int(match.group(1)), int(match.group(2))]
    return {"verdicts": verdicts, "passed": summary}


_LEMMA_LINES = (
    re.compile(r"near-isometry checks: (?P<rip_checks>\d+) run, (?P<rip_violations>\d+) violations"),
    re.compile(
        r"support-cap grid: (?P<cap_checks>\d+) points, premise held (?P<cap_premise_held>\d+), "
        r"violations (?P<cap_violations>\d+)"
    ),
)


def lemma_counts(stdout: str) -> dict:
    counts = {}
    for line in stdout.splitlines():
        for pattern in _LEMMA_LINES:
            match = pattern.search(line)
            if match:
                counts.update({k: int(v) for k, v in match.groupdict().items()})
        if line.startswith("energy envelopes: "):
            counts["envelopes"] = line.split(": ", 1)[1].split(", ")
    return counts


def build(workload: str, seed: int, mode: str, root: Path, work_dir: Path) -> Workload:
    """The operations of one pass of ``workload`` at ``seed``."""
    from streamista.cli import cli_main

    size = SIZES[mode]
    configs = root / "configs"
    desk = str(configs / "desk.cfg")
    common = ["--seed", str(seed)]

    if workload == "desk-run":
        trials = size["desk_trials"]
        op = cli_operation(
            cli_main, "run", ["run", "--config", desk, "--trials", str(trials)] + common,
            check=lambda obs: expect_rows(obs, "curve.csv", DESK_SAMPLES),
        )
        return Workload(configs / "desk.cfg", (op,))

    if workload == "sweeps":
        # the criterion-8 grid runs the desk config at 10 measurements and P = 5
        grid_cfg = work_dir / "grid.cfg"
        grid_cfg.write_text(
            (configs / "desk.cfg").read_text() + f"\nn_samples = {GRID_SAMPLES}\np = 5\n"
        )
        lams = size["grid_lambdas"]
        grid = cli_operation(
            cli_main, "sweep-lambda-s",
            ["sweep-lambda-s", "--config", str(grid_cfg), "--trials", str(size["grid_trials"]),
             "--lambda-values", ",".join(map(repr, lams)),
             "--s-values", ",".join(map(str, GRID_S)), "--level", "4"] + common,
            check=lambda obs: expect_rows(obs, "qratio.csv", len(lams) * len(GRID_S))
            + expect_rows(obs, "qfit.csv", 1),
        )
        sweep_p = cli_operation(
            cli_main, "sweep-p",
            ["sweep-p", "--config", desk, "--trials", str(size["sweep_p_trials"]),
             "--values", ",".join(map(str, SWEEP_P))] + common,
            check=lambda obs: expect_rows(obs, "steady.csv", len(SWEEP_P)) + [
                problem for p in SWEEP_P
                for problem in expect_rows(obs, f"curve_P{p}.csv", DESK_SAMPLES)
            ],
        )
        return Workload(grid_cfg, (grid, sweep_p))

    if workload == "theory-checks":
        theorem = str(configs / "theorem.cfg")
        trials = size["theorem_trials"]

        def check_theorems(obs):
            found = len(obs["stdout"]["verdicts"])
            problems = [] if found == trials else [f"{found} verdicts, expected {trials}"]
            return problems + expect_rows(obs, "preconditions.csv", 5 * trials)

        theorems = cli_operation(
            cli_main, "check-theorems",
            ["check-theorems", "--config", theorem, "--trials", str(trials)] + common,
            observe_stdout=theorem_verdicts, check=check_theorems,
        )
        lca = lca_operation(seed, size["lca_trials"])
        lemma = cli_operation(
            cli_main, "lemma-suite", ["lemma-suite"] + common,
            observe_stdout=lemma_counts,
            check=lambda obs: [] if obs["stdout"] == LEMMA_COUNTS
            else [f"lemma counts {obs['stdout']}, expected {LEMMA_COUNTS}"],
        )
        return Workload(configs / "theorem.cfg", (theorems, lca, lemma))

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def lca_operation(seed: int, trials: int) -> Operation:
    """``run_lca_suite`` on the criterion-7 config; it has no subcommand."""
    from streamista.harness import ExperimentConfig, run_lca_suite

    cfg = ExperimentConfig(trials=trials, seed=seed, **LCA_CONFIG)

    def run(out_dir):
        return run_lca_suite(cfg, slack_factor=5.0, substeps=10)

    def observe(suite, stdout, out_dir):
        return {
            "passed": suite.n_passing,
            "all_resolved": suite.all_resolved,
            "instances": [
                [inst.index, inst.report.passed, inst.resolved, inst.delta, inst.lam]
                + ([inst.max_violation, inst.fine_max_violation] if inst.report.passed else [])
                for inst in suite.instances
            ],
        }

    def check(obs):
        problems = [] if obs["all_resolved"] else ["an LCA instance kept its bound violation"]
        found = len(obs["instances"])
        return problems + ([] if found == trials else [f"{found} instances, expected {trials}"])

    return Operation("lca-suite", run, observe, check)


def non_finite(value, where="") -> list:
    """Paths of every non-finite float inside an observation."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{where}: non-finite value {value!r}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in non_finite(v, f"{where}/{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_finite(v, f"{where}[{i}]")]
    return []


def compare(found, expected, where="", rel=REL_TOL) -> list:
    """Mismatches between two observations: floats within ``rel``, the rest exactly."""
    if isinstance(expected, float) and isinstance(found, (int, float)) and not isinstance(found, bool):
        scale = max(abs(found), abs(expected))
        if found == expected or abs(found - expected) <= rel * scale:
            return []
        return [f"{where}: {found!r} != reference {expected!r}"]
    if isinstance(expected, dict) and isinstance(found, dict):
        if found.keys() != expected.keys():
            return [f"{where}: keys {sorted(found)} != reference {sorted(expected)}"]
        return [p for k in expected for p in compare(found[k], expected[k], f"{where}/{k}", rel)]
    if isinstance(expected, list) and isinstance(found, list):
        if len(found) != len(expected):
            return [f"{where}: length {len(found)} != reference {len(expected)}"]
        return [
            p for i, (f, e) in enumerate(zip(found, expected))
            for p in compare(f, e, f"{where}[{i}]", rel)
        ]
    return [] if found == expected else [f"{where}: {found!r} != reference {expected!r}"]
