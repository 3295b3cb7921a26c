"""Command-line front end.

Subcommands: run, sweep-p, sweep-mu, sweep-lambda-s, fit-steady,
check-theorems, lemma-suite.  Exit codes: 0 success, 1 configuration error
(bad flags, unreadable or invalid config), 2 runtime failure, including a
run or sweep whose trials diverged numerically and a lambda-s grid whose
ratios do not bracket the fit's level (no CSV is written then).

Each value comes from its flag, then the config file, then a built-in
default; the harness raises ConfigError, exit 1, for any config it rejects.

Each subcommand is declared once, in ``build_parser``: its help text, its
flags and its handler.  ``cli_main`` loads the config, the one place that
does, and calls the handler with ``(args, cfg)``.
"""

import argparse
from dataclasses import replace
import os
import sys

from . import harness
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
    try:
        os.makedirs(args.out, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot create --out directory {args.out!r}: {exc.strerror}") from exc
    return args.out


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    _require_steady_curve(cfg)
    out = _outdir(args)
    result = run_trials(cfg)
    write_curve_csv(os.path.join(out, "curve.csv"), result.mean_curve, result.std_curve)
    steady = estimate_steady_state(result.mean_curve, cfg.tail_fraction)
    print(f"trials={cfg.trials} measurements={cfg.n_samples} steady={steady:.6g}")
    print(f"wrote {os.path.join(out, 'curve.csv')}")
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig, axis: str) -> int:
    _require_steady_curve(cfg)
    out = _outdir(args)
    if args.values is not None:
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


def _cmd_sweep_lambda_s(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args)
    lams = cfg.sweep_lambda_values if args.lambda_values is None else _parse_list(args.lambda_values)
    svals = cfg.sweep_s_values if args.s_values is None else _parse_list(args.s_values, int)
    grid, fit = sweep_lambda_s(cfg, lams, svals, ratio_level=args.level)
    write_qratio_csv(os.path.join(out, "qratio.csv"), grid)
    harness._write_csv(os.path.join(out, "qfit.csv"), ("C", "ratio_level"), [(fit.C, fit.level)])
    print(f"fitted lambda = C / sqrt(s): C={fit.C:.6g} at ratio level {fit.level}")
    print(f"level points: {fit.level_points}")
    print(f"wrote {os.path.join(out, 'qratio.csv')}")
    return 0


def _cmd_fit_steady(args, cfg: ExperimentConfig) -> int:
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


def _cmd_check_theorems(args, cfg: ExperimentConfig) -> int:
    # the suites load only for the commands that run them
    from .suites import run_theorem_suite

    out = _outdir(args)
    suite = run_theorem_suite(cfg)
    write_preconditions_csv(
        os.path.join(out, "preconditions.csv"),
        [(f"instance{inst.index:03d}", inst.report) for inst in suite.instances],
    )
    for inst in suite.instances:
        if inst.report.passed:
            status = "dominated" if inst.dominated else "VIOLATED"
            detail = (f"lambda={inst.lam:.4g} max_violation={inst.max_violation:.3e} "
                      f"max_active={inst.max_gamma_size} -> {status}")
        else:
            failed = [c.name for c in inst.report.checks if not c.passed]
            detail = f"preconditions failed: {', '.join(failed)}"
        print(f"instance {inst.index:3d}: delta={inst.delta:.4f} (exact) {detail}")
    print(
        f"{suite.n_passing}/{len(suite.instances)} instances passed preconditions "
        f"(rate {suite.pass_rate:.2f})"
    )
    print(f"wrote {os.path.join(out, 'preconditions.csv')}")
    if suite.n_passing and not suite.all_dominated:
        print("bound dominance FAILED on a precondition-passing instance", file=sys.stderr)
        return 2
    return 0


def _cmd_lemma_suite(args, cfg: ExperimentConfig) -> int:
    from .suites import run_lemma_suite

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


def build_parser() -> _Parser:
    # --help shows the docstring up to its last paragraph, which is for the code's readers
    parser = _Parser(prog="streamista", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, help, handler, trials=True):
        """A subcommand with the common flags (``--trials`` only where trials
        run) that ``cli_main`` dispatches to ``handler(args, cfg)``."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", metavar="PATH", help="experiment config file")
        sp.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
        sp.add_argument("--out", metavar="DIR", default=".", help="output directory")
        if trials:
            sp.add_argument("--trials", type=int, metavar="N", help="override the trial count")
        sp.set_defaults(handler=handler)
        return sp

    command("run", "run one configuration and write curve.csv", _cmd_run)

    sp = command("sweep-p", "sweep iterations-per-measurement",
                 lambda args, cfg: _cmd_sweep(args, cfg, "P"))
    sp.add_argument("--values", metavar="LIST", help="comma-separated P values")

    sp = command("sweep-mu", "sweep the target drift rate",
                 lambda args, cfg: _cmd_sweep(args, cfg, "mu"))
    sp.add_argument("--values", metavar="LIST", help="comma-separated mu values")

    sp = command("sweep-lambda-s", "active-set ratio grid over (lambda, s)", _cmd_sweep_lambda_s)
    sp.add_argument("--lambda-values", metavar="LIST", help="comma-separated thresholds")
    sp.add_argument("--s-values", metavar="LIST", help="comma-separated sparsity levels")
    sp.add_argument("--level", type=float, default=4.0, help="ratio level for the C fit")

    sp = command("fit-steady", "fit the steady-state law to steady.csv", _cmd_fit_steady,
                 trials=False)
    sp.add_argument("--input", metavar="PATH", required=True, help="steady.csv to fit")
    sp.add_argument("--mu", type=float, help="drift rate used in the law (default: config)")
    sp.add_argument("--dl", type=float, help="iteration length used in the law (default: config)")

    command("check-theorems", "small-instance bound dominance suite", _cmd_check_theorems)
    command("lemma-suite", "randomized lemma oracle suite", _cmd_lemma_suite, trials=False)
    return parser


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
        return args.handler(args, _load_config(args))
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
