"""Command-line interface.

Subcommands: simulate, fit, fim, study, coverage.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import read_dataset_csv, write_dataset_csv
from .errors import ConfigError, NumericalError, ScorefimError
from .fim import (
    conditional_score_fim, observed_fim, score_outer_fim, wald_alpha, wald_confidence_intervals,
    write_fim_csv,
)
from .modelbase import simulate_dataset
from .presets import PRESETS, preset_config
from .reporting import ManifestTimer, fmt, write_table, write_trajectory_csv
from .studies import (
    FIT_KEYS, _config_block, _config_value, _seed, fit_model, fit_route, parse_design_config,
    parse_fit_keys, parse_model_theta, parse_saem_config, parse_study_config, run_study,
)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return raw


def _seed_of(args, raw: dict) -> int:
    """The --seed override, else the config's seed (0 when absent)."""
    return _config_value(raw if args.seed is None else {"seed": args.seed}, "seed", _seed, 0)


def _cmd_simulate(args) -> int:
    raw = _config_block(
        _load_json(args.config), "simulate", {"model", "theta", "design", "seed"},
        required=("model", "theta", "design"),
    )
    model, theta = parse_model_theta(raw, "theta")
    design = parse_design_config(raw["design"])
    seed = _seed_of(args, raw)
    ds = simulate_dataset(model, theta, design, seed)
    out = Path(args.out or "dataset.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(ds, out)
    print(f"wrote {out} ({ds.n} individuals, seed {seed})")
    return 0


def _cmd_fit(args) -> int:
    raw = _config_block(
        _load_json(args.config), "fit",
        {"model", "theta0", "method", "saem", "seed", "alpha", *FIT_KEYS},
        required=("model",),
    )
    if args.data is None:
        raise ConfigError("fit needs --data <dataset.csv>")
    ds = read_dataset_csv(args.data)
    model, theta0 = parse_model_theta(raw, "theta0")
    seed = _seed_of(args, raw)
    alpha = _config_value(raw, "alpha", wald_alpha, 0.05)
    method = raw.get("method", fit_route(raw["model"]))
    saem = parse_saem_config(raw.get("saem", {}), model)

    timer = ManifestTimer({"fit": raw, "data": str(args.data)}, seed)
    theta_hat, fim, trajectories, diagnostics = fit_model(
        model, ds, method, saem, seed, theta0, **parse_fit_keys(raw, method, saem),
    )

    out = Path(args.out or "fit_out")
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "theta.csv", ["parameter", "estimate"],
                [[n, v] for n, v in zip(theta_hat.names, theta_hat.values)])
    timer.add_output(out / "theta.csv")
    write_fim_csv(fim, out / "fim.csv")
    timer.add_output(out / "fim.csv")
    cis = wald_confidence_intervals(theta_hat, fim, alpha)
    write_table(out / "wald_intervals.csv",
                ["parameter", "estimate", "se", "lower", "upper", "alpha"],
                [[c.name, c.estimate, c.se, c.lower, c.upper, alpha] for c in cis])
    timer.add_output(out / "wald_intervals.csv")
    if trajectories is not None:
        write_trajectory_csv(out / "trajectory.csv", trajectories, model.p)
        timer.add_output(out / "trajectory.csv")
    timer.extra["param_names"] = list(model.param_names)
    timer.extra["diagnostics"] = diagnostics
    timer.write(out)
    for n, v in zip(theta_hat.names, theta_hat.values):
        print(f"{n} = {fmt(v)}")
    print(f"wrote {out}/")
    return 0


def _cmd_fim(args) -> int:
    raw = _config_block(
        _load_json(args.config), "fim", {"model", "theta", "estimator"},
        required=("model", "theta"),
    )
    if args.data is None:
        raise ConfigError("fim needs --data <dataset.csv>")
    ds = read_dataset_csv(args.data)
    model, theta = parse_model_theta(raw, "theta")
    estimator = raw.get("estimator", "score")
    if estimator == "score":
        fim = score_outer_fim(model.marginal_score(ds, theta), names=theta.names)
    elif estimator == "observed":
        fim = observed_fim(model.marginal_hessian(ds, theta), names=theta.names)
    elif estimator == "conditional_score":
        fim = conditional_score_fim(model, ds, theta)
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    out = Path(args.out or "fim.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_fim_csv(fim, out)
    print(f"wrote {out} (provenance {fim.provenance}, n={fim.n})")
    return 0


def _cmd_study(args, expect_kind: str | None = None) -> int:
    if args.preset is not None and args.config is not None:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset is not None:
        raw = preset_config(args.preset, desk=args.desk)
    elif args.config is not None:
        raw = _load_json(args.config)
        if args.desk:
            raise ConfigError("--desk applies to --preset runs; desk-scale a custom config directly")
    else:
        raise ConfigError(
            f"study needs --config or --preset (presets: {', '.join(sorted(PRESETS))})"
        )
    if args.seed is not None:
        raw["seed"] = args.seed
    config = parse_study_config(raw)
    if expect_kind is not None and config.kind != expect_kind:
        raise ConfigError(f"this subcommand runs {expect_kind} studies, got {config.kind!r}")
    out = args.out or "study_out"
    report = run_study(config, out_dir=out, threads=args.threads)
    print(f"{config.kind}: M_effective={report.m_effective} failures={report.failures}")
    for f in report.files:
        print(f"wrote {f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorefim",
        description="Score-based Fisher information estimation and simulation studies",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, default=None, help="master seed override")
    common.add_argument("--out", help="output file or directory")
    common.add_argument("--threads", type=int, default=1, help="worker processes")
    common.add_argument("--desk", action="store_true", help="desk-scale preset reduction")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="simulate a dataset to CSV")
    p_fit = sub.add_parser("fit", parents=[common], help="fit a model and export FIM")
    p_fit.add_argument("--data", help="dataset CSV")
    p_fim = sub.add_parser("fim", parents=[common], help="direct FIM estimate at fixed theta")
    p_fim.add_argument("--data", help="dataset CSV")
    p_study = sub.add_parser("study", parents=[common], help="run a simulation study")
    p_study.add_argument("--preset", help=f"built-in study ({', '.join(sorted(PRESETS))})")
    p_cov = sub.add_parser("coverage", parents=[common], help="run a coverage study")
    p_cov.add_argument("--preset", help="built-in coverage preset")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "fim":
            return _cmd_fim(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "coverage":
            return _cmd_study(args, expect_kind="coverage")
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ScorefimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
