#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of streamista.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-run --seed 0 --seconds 20 --trace 0

The package is imported from the checkout's ``src`` directory; nothing is
installed.  A run measures set-up in fresh interpreters, then repeats full
passes of the workload for ``--seconds`` seconds (at least one pass), checks
every operation of every pass, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  ``--quick``
runs every workload at reduced size.  The workload's inputs come from
``--seed`` modulo 10, so every run is checked against references recorded
for that input seed.  ``--record`` runs one pass per workload and input seed
and stores the observations as those references.  See
``perfbench/README.md``.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

SETUP_REPEATS = {"full": 9, "quick": 2}

# --seed is reduced modulo this to pick the input seed; references.json holds
# every input seed, so no run goes unchecked
INPUT_SEEDS = 10

# a fresh interpreter imports the package, parses the config and runs one trial
SETUP_CODE = """
import sys
src, config, out = sys.argv[1:4]
sys.path.insert(0, src)
from streamista.cli import cli_main
sys.exit(cli_main(["run", "--config", config, "--trials", "1", "--out", out]))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


def per_layer_units() -> dict:
    units = {}
    for name in tracing.TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{tracing.CSV_WRITER_NAME}.bytes"] = "bytes"
    units[f"{tracing.ROOT_NAME}.self_s"] = "s"
    for name in tracing.DISTINCT_ARGS:
        units[f"{name}.distinct_ratio"] = "ratio"
    units["kernels.iterations"] = "count"
    units["kernels.flops_computed"] = "flop"
    units["kernels.ns_per_iter"] = "ns"
    units["measurement.rip_exact.supports"] = "count"
    units["trace.overhead_frac"] = "fraction"
    return units


PER_LAYER_UNITS = per_layer_units()


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import streamista from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "streamista" / "__init__.py").is_file():
        raise BenchmarkError(f"no streamista package under {src}")
    sys.path.insert(0, str(src))
    import streamista

    if Path(streamista.__file__).resolve().parent != (src / "streamista").resolve():
        raise BenchmarkError(f"imported streamista from {streamista.__file__}, not {src}")


def environment() -> dict:
    from streamista import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": kernels.active_backend(),
        "STREAM_ISTA_THREADS": os.environ.get("STREAM_ISTA_THREADS"),
        "thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def time_setup(workload: wl.Workload, out_dir: Path) -> float:
    """Wall seconds for a fresh interpreter to import, parse and run one trial."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
            str(workload.setup_config), str(out_dir)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"set-up interpreter did not finish: {exc}") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up interpreter exited {proc.returncode}: {proc.stderr}")
    return elapsed


class Checker:
    """Counts attempts and failures per operation; keeps each one's first observation.

    Each attempt is checked as it runs, against the invariants and against the
    first pass.  References are compared once, after the passes, so that
    parsing them does not raise the peak memory the run reports; every later
    attempt matched the first bit for bit, so it shares the first's verdict.
    """

    def __init__(self, operations):
        self.operations = operations
        self.first = {}
        self.attempts = [0] * len(operations)
        self.failures = [0] * len(operations)

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    @property
    def failed(self) -> int:
        return sum(self.failures)

    def record(self, index: int, obs, problems: list) -> None:
        op = self.operations[index]
        self.attempts[index] += 1
        if obs is not None:
            problems = problems + op.check(obs) + wl.non_finite(obs, op.name)
            if index in self.first:
                problems += wl.compare(obs, self.first[index], f"{op.name} vs first pass", rel=0.0)
            else:
                self.first[index] = obs
        if problems:
            self.failures[index] += 1
            report(op.name, problems)

    def compare_references(self, reference: list) -> None:
        for index, obs in self.first.items():
            op = self.operations[index]
            problems = wl.compare(obs, reference[index], f"{op.name} vs reference")
            if problems:
                self.failures[index] = self.attempts[index]
                report(op.name, problems)


def report(name: str, problems: list) -> None:
    for problem in problems[:10]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)


def run_pass(workload: wl.Workload, pass_dir: Path, checker: Checker, tracer=None,
             between=None) -> float:
    """One full pass; returns the summed wall time of its operations.

    ``between()``, if given, is called untimed before each operation.
    """
    total = 0.0
    for index, op in enumerate(workload.operations):
        if between:
            between()
        out_dir = pass_dir / op.name
        stdout, stderr = io.StringIO(), io.StringIO()
        raw, problems = None, []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            span = tracer.open(tracing.ROOT_NAME) if tracer else None
            try:
                raw = op.run(out_dir)
            except Exception:
                problems.append("raised\n" + traceback.format_exc())
            finally:
                if tracer:
                    tracer.close(span)
                total += time.perf_counter() - start
        obs = None
        if not problems:
            try:
                obs = json.loads(json.dumps(op.observe(raw, stdout.getvalue(), out_dir)))
            except Exception:
                problems.append("outputs unreadable\n" + traceback.format_exc())
        sys.stderr.write(stderr.getvalue())
        checker.record(index, obs, problems)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return total


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name: str, values, unit: str) -> None:
    q1, q2, q3 = quartiles(values)
    print(f"{name}: median {q2:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")


def another_pass(start: float, seconds: float, last: float) -> bool:
    """Start another pass if it should end by half a pass after the deadline."""
    return time.perf_counter() - start + last / 2 < seconds


def end_to_end(workload, work_dir, checker, seconds, mode) -> dict:
    """Passes for ``seconds``, with the set-up samples spread over the same time.

    Spreading the set-up samples between operations lets them see the same
    drift in host speed as the passes, rather than a burst at one moment.
    """
    repeats = SETUP_REPEATS[mode]
    setup, passes = [], []
    start = time.perf_counter()

    def setup_due():
        # sample i is due once i / repeats of the run has elapsed
        while (len(setup) < repeats
               and time.perf_counter() - start >= seconds * len(setup) / repeats):
            setup.append(time_setup(workload, work_dir / f"setup{len(setup)}"))

    while not passes or another_pass(start, seconds, passes[-1]):
        passes.append(run_pass(workload, work_dir / f"pass{len(passes)}", checker,
                               between=setup_due))
    while len(setup) < repeats:
        setup.append(time_setup(workload, work_dir / f"setup{len(setup)}"))
    describe("setup_s", setup, "s")
    describe("wall_s", passes, "s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, work_dir, checker, seconds) -> dict:
    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while not traced or another_pass(start, seconds, plain[-1] + traced[-1]):
        plain.append(run_pass(workload, work_dir / f"plain{len(plain)}", checker))
        tracer.clear()
        tracer.install()
        try:
            traced.append(run_pass(workload, work_dir / f"traced{len(traced)}", checker, tracer))
        finally:
            tracer.restore()
        summaries.append(tracer.summary())
    describe("untraced pass", plain, "s")
    describe("traced pass", traced, "s")

    last = summaries[-1]
    names = tracing.TRACED_NAMES + (tracing.ROOT_NAME,)
    self_s = {
        name: statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
        for name in names
    }
    metrics = {}
    for name in tracing.TRACED_NAMES:
        metrics[f"{name}.calls"] = last.get(name, {}).get("calls", 0)
        metrics[f"{name}.self_s"] = self_s[name]
    metrics[f"{tracing.ROOT_NAME}.self_s"] = self_s[tracing.ROOT_NAME]
    metrics[f"{tracing.CSV_WRITER_NAME}.bytes"] = int(
        tracer.counters[f"{tracing.CSV_WRITER_NAME}.bytes"]
    )
    for name in tracing.DISTINCT_ARGS:
        calls = last.get(name, {}).get("calls", 0)
        metrics[f"{name}.distinct_ratio"] = len(tracer.distinct[name]) / calls if calls else 0.0
    iterations = int(tracer.counters["kernels.iterations"])
    metrics["kernels.iterations"] = iterations
    metrics["kernels.flops_computed"] = int(tracer.counters["kernels.flops_computed"])
    metrics["kernels.ns_per_iter"] = (
        self_s["kernels.stream"] / iterations * 1e9 if iterations else 0.0
    )
    metrics["measurement.rip_exact.supports"] = int(
        tracer.counters["measurement.rip_exact.supports"]
    )
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0

    total_self = sum(self_s.values())
    print("layer self time per traced pass (share of the pass):")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if value:
            calls = last.get(name, {}).get("calls", 0)
            print(f"  {name:40s} {value:10.4f} s {value / total_self:7.1%}  {calls} calls")
    return metrics


def record(names, mode: str, work_root: Path) -> None:
    """Store one checked pass per workload and input seed as the references."""
    references = load_references()
    for name in names:
        for seed in range(INPUT_SEEDS):
            work_dir = work_root / f"{name}-{seed}"
            work_dir.mkdir(parents=True)
            workload = wl.build(name, seed, mode, ROOT, work_dir)
            checker = Checker(workload.operations)
            run_pass(workload, work_dir / "pass", checker)
            if checker.failed:
                raise BenchmarkError(f"{name} seed {seed}: {checker.failed} operations failed")
            observations = [checker.first[i] for i in range(len(workload.operations))]
            references.setdefault(mode, {}).setdefault(name, {})[str(seed)] = observations
            print(f"recorded {mode} {name} seed {seed}", flush=True)
    REFERENCES.write_text(json.dumps(references, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run at reduced size")
    parser.add_argument("--record", action="store_true",
                        help=f"record references for input seeds 0-{INPUT_SEEDS - 1}")
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    if not args.record and args.workload is None:
        parser.error("--workload is required unless --record is given")

    try:
        import_package()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.trace and os.environ.get("STREAM_ISTA_THREADS", "1").strip() not in ("", "1"):
        print("perfbench: tracing needs serial trials; unset STREAM_ISTA_THREADS", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work_root.mkdir(parents=True)
    try:
        print("env: " + json.dumps(environment(), sort_keys=True))
        if args.record:
            names = [args.workload] if args.workload else list(wl.WORKLOADS)
            record(names, mode, work_root)
            return 0
        seed = args.seed % INPUT_SEEDS
        print(f"workload: {args.workload} ({mode}), seed {args.seed}, input seed {seed}")
        workload = wl.build(args.workload, seed, mode, ROOT, work_root)
        checker = Checker(workload.operations)
        if args.trace:
            values = per_layer(workload, work_root, checker, args.seconds)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(workload, work_root, checker, args.seconds, mode)
            units = END_TO_END_UNITS
        reference = load_references().get(mode, {}).get(args.workload, {}).get(str(seed))
        if reference is None:
            raise BenchmarkError(f"no {mode} references for {args.workload} input seed {seed}")
        checker.compare_references(reference)
        values["ok_frac"] = (checker.attempted - checker.failed) / checker.attempted
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()  # only when no other run is using it

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
