"""Time two source trees on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload desk-run \
        --seed 3 --pairs 10 [--seconds 30]

Each tree is a checkout of this repository.  Pair i runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, in its own directory, the parent first in even pairs and the
change first in odd ones, so a drift in host speed falls on both sides.
Every run's last stdout line is perfbench's JSON result.  After each pair
the script prints every end-to-end metric of both runs, so each run of a
metric can be reported.  At the end, for each end-to-end metric it prints
each side's median and quartiles, the
number of pairs the change won (lower is better, except for ``ok_frac``),
and the gap between the medians in units of the parent's interquartile
range, positive when the change is better.  Each summary line ends with
the metric's verdict against its BENCHMARK.json ``bound``, a limit on how
much worse, relative to the parent's median, the change's median may be:
``within bound``, ``WORSE than bound``, or ``unresolved`` when the parent's
interquartile range exceeds that bound of its median and not every run of
the change beats every run of the parent.  It exits 1 if any run failed
or reported a wrong result.
"""

import argparse
import json
import math
from pathlib import Path
import statistics
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent

SIDES = ("parent", "change")


def end_to_end(key: str) -> dict:
    """``{metric: its key}`` of every end-to-end metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric[key] for metric in spec["end_to_end"]}


def better_directions() -> dict:
    """``{metric: "lower" | "higher"}`` of every end-to-end metric in BENCHMARK.json."""
    return end_to_end("better")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``tree``: its parsed result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {result['failed']} of {result['attempted']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pair_line(pair: int, order, runs: dict, names) -> str:
    """Every metric of ``names`` from the last run of each side, in run order."""
    return f"pair {pair + 1}: " + "; ".join(
        side + " " + " ".join(f"{name} {runs[side][-1][name]:.6g}" for name in names)
        for side in order
    )


def _relative(amount: float, median: float) -> float:
    """``amount`` as a fraction of ``median``; for a median of 0, 0 or infinity."""
    if median:
        return amount / abs(median)
    return math.inf if amount > 0 else 0.0


def verdict(parent, change, sign: float, bound: float) -> str:
    """The change's median against ``bound``, or ``unresolved`` when the
    parent's IQR exceeds the bound of its median and the runs overlap;
    ``sign`` is 1 where lower is better, -1 where higher is."""
    p1, p2, p3 = quartiles(parent)
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if _relative(p3 - p1, p2) > bound and not separated:
        return "unresolved"
    worse = _relative(sign * (statistics.median(change) - p2), p2)
    return "WORSE than bound" if worse > bound else "within bound"


def summary(runs: dict, directions: dict, bounds: dict) -> list:
    """One printed line per metric: both sides' quartiles, the change's wins,
    the gap in IQRs and the verdict against the metric's bound."""
    lines = []
    for name, better in directions.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        gap = p2 - c2
        iqr = p3 - p1
        in_iqr = f"{sign * gap / iqr:+.2f} parent IQR" if iqr > 0 else "parent IQR 0"
        rel = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        lines.append(
            f"{name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change {c2:.6g} "
            f"[{c1:.6g}, {c3:.6g}] ({rel}); change better in {wins} of {len(parent)}; "
            f"gap {in_iqr}; {verdict(parent, change, sign, bounds[name])}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent source tree")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per run")
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    directions = better_directions()
    runs = {side: [] for side in SIDES}
    try:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, args.seed, args.seconds))
            print(pair_line(pair, order, runs, directions), flush=True)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs:")
    for line in summary(runs, directions, end_to_end("bound")):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
