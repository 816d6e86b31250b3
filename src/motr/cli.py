"""Command-line entry point: run experiments, explore Pareto fronts, and
validate configuration files."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import ConfigError, RngStream
from .harness import emit, experiment_spec, load_config, run_experiment, write_table
from .pareto import FrontConfig, run_front

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


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
        sections = load_config(args.config, args.set, args.seed, getattr(args, "output", None))
        spec = experiment_spec(sections)
        front_cfg = FrontConfig(**sections["front"])
        if spec.dimension is not None:      # a dataset's n is checked at run time
            front_cfg.box(spec.dimension)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("config ok")
        return EXIT_OK

    try:
        # numpy's floating-point warnings stay silent: a non-finite sample
        # is reported below as the one-line runtime error.
        with np.errstate(all="ignore"):
            if args.command == "run":
                batch, summary = run_experiment(spec)
                emit(batch, spec.output_path, spec.output_format, summary)
                print(f"wrote {batch.k.sum()} rows to {spec.output_path}")
            else:
                oracle = spec.build_oracle()
                rng = RngStream(spec.solver.seed, stream_id=999).generator()
                archive = run_front(oracle, front_cfg, spec.solver, rng, smg=spec.smg)
                # One row per member: x_1..x_n, f_1..f_q.
                X, F = np.array([m.x for m in archive]), np.array([m.f for m in archive])
                header = [f"x_{i + 1}" for i in range(oracle.n)]
                header += [f"f_{i + 1}" for i in range(oracle.q)]
                write_table(spec.output_path, spec.output_format, header,
                            [(len(archive), [*X.T, *F.T])])
                print(f"wrote {len(archive)} archive members to {spec.output_path}")
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
