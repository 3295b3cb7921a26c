"""Command-line front end.

Subcommands: run, sweep-p, sweep-mu, sweep-lambda-s, fit-steady,
check-theorems, lemma-suite.  Exit codes: 0 success, 1 configuration error
(bad flags, unreadable or invalid config), 2 runtime failure, including a
run or sweep whose trials diverged numerically and a lambda-s grid whose
ratios do not bracket the fit's level (no CSV is written then).

Each value comes from its flag, then the config file, then a built-in
default; the harness raises ConfigError, exit 1, for any config it rejects.
"""

import argparse
from dataclasses import replace
import os
import sys

from .configio import ConfigError, parse_config, parse_list
from .harness import (
    MIN_STEADY_POINTS,
    ExperimentConfig,
    estimate_steady_state,
    fit_steady_state,
    read_steady_csv,
    run_trials,
    sweep,
    sweep_lambda_s,
    write_curve_csv,
    write_fit_csv,
    write_preconditions_csv,
    write_qratio_csv,
    write_steady_csv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(message)


def _add_common(sp, trials: bool = True):
    """The flags every subcommand takes; ``--trials`` only where trials run."""
    sp.add_argument("--config", metavar="PATH", help="experiment config file")
    sp.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    sp.add_argument("--out", metavar="DIR", default=".", help="output directory")
    if trials:
        sp.add_argument("--trials", type=int, metavar="N", help="override the trial count")


def build_parser() -> _Parser:
    parser = _Parser(prog="streamista", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sp = sub.add_parser("run", help="run one configuration and write curve.csv")
    _add_common(sp)

    sp = sub.add_parser("sweep-p", help="sweep iterations-per-measurement")
    _add_common(sp)
    sp.add_argument("--values", metavar="LIST", help="comma-separated P values")

    sp = sub.add_parser("sweep-mu", help="sweep the target drift rate")
    _add_common(sp)
    sp.add_argument("--values", metavar="LIST", help="comma-separated mu values")

    sp = sub.add_parser("sweep-lambda-s", help="active-set ratio grid over (lambda, s)")
    _add_common(sp)
    sp.add_argument("--lambda-values", metavar="LIST", help="comma-separated thresholds")
    sp.add_argument("--s-values", metavar="LIST", help="comma-separated sparsity levels")
    sp.add_argument("--level", type=float, default=4.0, help="ratio level for the C fit")

    sp = sub.add_parser("fit-steady", help="fit the steady-state law to steady.csv")
    _add_common(sp, trials=False)
    sp.add_argument("--input", metavar="PATH", required=True, help="steady.csv to fit")
    sp.add_argument("--mu", type=float, help="drift rate used in the law (default: config)")
    sp.add_argument("--dl", type=float, help="iteration length used in the law (default: config)")

    sp = sub.add_parser("check-theorems", help="small-instance bound dominance suite")
    _add_common(sp)

    sp = sub.add_parser("lemma-suite", help="randomized lemma oracle suite")
    _add_common(sp, trials=False)

    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    return cfg


def _require_steady_curve(cfg: ExperimentConfig) -> None:
    """Reject a config whose curves are too short for a steady-state estimate."""
    if cfg.n_samples < MIN_STEADY_POINTS:
        raise ConfigError(
            f"n_samples must be at least {MIN_STEADY_POINTS} to estimate a steady state, "
            f"got {cfg.n_samples}"
        )


def _parse_list(text, kind=float):
    try:
        return parse_list(text, kind)
    except ValueError as exc:
        raise ConfigError(f"bad list value {text!r}: {exc}") from exc


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    _require_steady_curve(cfg)
    out = _outdir(args)
    result = run_trials(cfg)
    write_curve_csv(os.path.join(out, "curve.csv"), result.mean_curve, result.std_curve)
    steady = estimate_steady_state(result.mean_curve, cfg.tail_fraction)
    print(f"trials={cfg.trials} measurements={cfg.n_samples} steady={steady:.6g}")
    print(f"wrote {os.path.join(out, 'curve.csv')}")
    return 0


def _cmd_sweep(args, axis: str) -> int:
    cfg = _load_config(args)
    _require_steady_curve(cfg)
    out = _outdir(args)
    if args.values:
        values = _parse_list(args.values, int if axis == "P" else float)
    elif cfg.sweep_axis == axis and cfg.sweep_values:
        values = cfg.sweep_values
    else:
        values = (1, 2, 5, 10) if axis == "P" else (0.2, 0.4, 0.8)
    results = sweep(cfg, axis, values)
    steadies = []
    for value, result in results:
        tag = f"{axis}{int(value) if float(value).is_integer() else value}"
        write_curve_csv(os.path.join(out, f"curve_{tag}.csv"), result.mean_curve, result.std_curve)
        steadies.append(estimate_steady_state(result.mean_curve, cfg.tail_fraction))
    write_steady_csv(os.path.join(out, "steady.csv"), axis, [v for v, _ in results], steadies)
    for (value, _), steady in zip(results, steadies):
        print(f"{axis}={value} steady={steady:.6g}")
    print(f"wrote {os.path.join(out, 'steady.csv')}")
    return 0


def _cmd_sweep_lambda_s(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    lams = _parse_list(args.lambda_values) if args.lambda_values else cfg.sweep_lambda_values
    svals = _parse_list(args.s_values, int) if args.s_values else cfg.sweep_s_values
    grid, fit = sweep_lambda_s(cfg, lams, svals, ratio_level=args.level)
    write_qratio_csv(os.path.join(out, "qratio.csv"), grid)
    with open(os.path.join(out, "qfit.csv"), "w") as fh:
        fh.write("C,ratio_level\n")
        fh.write(f"{repr(float(fit.C))},{repr(float(fit.level))}\n")
    print(f"fitted lambda = C / sqrt(s): C={fit.C:.6g} at ratio level {fit.level}")
    print(f"level points: {fit.level_points}")
    print(f"wrote {os.path.join(out, 'qratio.csv')}")
    return 0


def _cmd_fit_steady(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    axis, values, steadies = read_steady_csv(args.input)
    if axis != "P":
        raise ConfigError(f"fit-steady expects a P sweep, got axis {axis!r} in {args.input}")
    mu = args.mu if args.mu is not None else cfg.mu
    dl = args.dl if args.dl is not None else cfg.dl
    try:  # the fit runs no trials; its inputs are the flags and the file
        fit = fit_steady_state(values, steadies, mu, dl)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_fit_csv(os.path.join(out, "fit.csv"), fit)
    print(f"c_hat={fit.c_hat:.6g} V_hat={fit.V_hat:.6g} sse={fit.sse:.6g} r2={fit.r2:.6g}")
    print(f"wrote {os.path.join(out, 'fit.csv')}")
    return 0


def _cmd_check_theorems(args) -> int:
    # the suites load only for the commands that run them
    from .suites import run_theorem_suite

    cfg = _load_config(args)
    out = _outdir(args)
    suite = run_theorem_suite(cfg)
    write_preconditions_csv(
        os.path.join(out, "preconditions.csv"),
        [(f"instance{inst.index:03d}", inst.report) for inst in suite.instances],
    )
    for inst in suite.instances:
        if inst.report.passed:
            status = "dominated" if inst.dominated else "VIOLATED"
            print(
                f"instance {inst.index:3d}: delta={inst.delta:.4f} (exact) "
                f"lambda={inst.lam:.4g} max_violation={inst.max_violation:.3e} "
                f"max_active={inst.max_gamma_size} -> {status}"
            )
        else:
            failed = [c.name for c in inst.report.checks if not c.passed]
            print(
                f"instance {inst.index:3d}: delta={inst.delta:.4f} (exact) "
                f"preconditions failed: {', '.join(failed)}"
            )
    print(
        f"{suite.n_passing}/{len(suite.instances)} instances passed preconditions "
        f"(rate {suite.pass_rate:.2f})"
    )
    print(f"wrote {os.path.join(out, 'preconditions.csv')}")
    if suite.n_passing and not suite.all_dominated:
        print("bound dominance FAILED on a precondition-passing instance", file=sys.stderr)
        return 2
    return 0


def _cmd_lemma_suite(args) -> int:
    from .suites import run_lemma_suite

    cfg = _load_config(args)
    suite = run_lemma_suite(cfg.seed)
    print(
        f"near-isometry checks: {suite.rip_checks} run, {suite.rip_violations} violations, "
        f"worst slack {suite.rip_worst_slack:.3e}"
    )
    print(
        f"support-cap grid: {suite.cap_checks} points, premise held {suite.cap_premise_held}, "
        f"violations {suite.cap_violations}"
    )
    print(f"energy envelopes: {', '.join(suite.envelope_statuses)}")
    if not suite.ok:
        print("lemma suite FAILED", file=sys.stderr)
        return 2
    print("lemma suite passed")
    return 0


_DISPATCH = {
    "run": _cmd_run,
    "sweep-p": lambda a: _cmd_sweep(a, "P"),
    "sweep-mu": lambda a: _cmd_sweep(a, "mu"),
    "sweep-lambda-s": _cmd_sweep_lambda_s,
    "fit-steady": _cmd_fit_steady,
    "check-theorems": _cmd_check_theorems,
    "lemma-suite": _cmd_lemma_suite,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures, numerical divergence included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
