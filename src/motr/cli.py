"""Command-line entry point: run experiments, explore Pareto fronts, and
validate configuration files."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import ConfigError, RngStream, _parse_bool, parse_kv_text
from .harness import emit, experiment_spec_from_mapping, run_experiment
from .pareto import FrontConfig, export_archive_csv, run_front

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_FRONT_KEYS = ("front_n_p", "front_n_q", "front_n_r", "front_init_count",
               "front_init_box", "front_perturb_scale", "front_rounds",
               "front_max_size", "front_weak")


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    intervals = []
    for part in text.split(","):
        lo, hi = part.split(":")
        intervals.append((float(lo), float(hi)))
    return tuple(intervals)


def _front_config_from_mapping(mapping: dict[str, str]) -> FrontConfig:
    kwargs: dict = {}
    try:
        for key, attr in (("front_n_p", "n_p"), ("front_n_q", "n_q"),
                          ("front_n_r", "n_r"), ("front_init_count", "init_count"),
                          ("front_rounds", "rounds"), ("front_max_size", "max_size")):
            if key in mapping:
                kwargs[attr] = int(mapping[key])
        if "front_perturb_scale" in mapping:
            kwargs["perturb_scale"] = float(mapping["front_perturb_scale"])
        if "front_init_box" in mapping:
            kwargs["init_box"] = _parse_box(mapping["front_init_box"])
        if "front_weak" in mapping:
            kwargs["weak_dominance"] = _parse_bool(mapping["front_weak"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return FrontConfig(**kwargs)


def _load_mapping(path: str, overrides: list[str], seed: int | None) -> dict[str, str]:
    with open(path) as fh:
        mapping = parse_kv_text(fh.read())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if seed is not None:
        mapping["seed"] = str(seed)
    return mapping


def _split_front_keys(mapping: dict[str, str]) -> tuple[dict[str, str], dict[str, str]]:
    front = {k: v for k, v in mapping.items() if k in _FRONT_KEYS}
    rest = {k: v for k, v in mapping.items() if k not in _FRONT_KEYS}
    return front, rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motr",
        description="Stochastic multi-objective trust-region experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run an experiment spec"),
                            ("front", "approximate the Pareto front"),
                            ("validate", "check a config file and exit")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        if name != "validate":
            p.add_argument("--output", default=None, help="override output_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = _load_mapping(args.config, args.set, args.seed)
        if getattr(args, "output", None):
            mapping["output_path"] = args.output
        front_map, exp_map = _split_front_keys(mapping)
        spec = experiment_spec_from_mapping(exp_map)
        front_cfg = _front_config_from_mapping(front_map)
        if "front_init_box" in front_map and spec.dimension not in (None, len(front_cfg.init_box)):
            raise ConfigError(f"front_init_box has {len(front_cfg.init_box)} intervals, "
                              f"problem dimension is {spec.dimension}")
    except (ConfigError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("config ok")
        return EXIT_OK

    try:
        if args.command == "run":
            rows, summary = run_experiment(spec)
            emit(rows, spec.output_path, spec.output_format, summary)
            print(f"wrote {len(rows)} rows to {spec.output_path}")
        else:
            oracle = spec.build_oracle()
            rng = RngStream(spec.solver.seed, stream_id=999).generator()
            archive = run_front(oracle, front_cfg, spec.solver, rng)
            export_archive_csv(archive, spec.output_path)
            print(f"wrote {len(archive)} archive members to {spec.output_path}")
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
