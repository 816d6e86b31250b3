"""Experiment harness: spec parsing, seeded multi-simulation execution,
exact-metric instrumentation and CSV/JSON emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    ConstantsMode,
    DatasetFormat,
    LabelConvention,
    Oracle,
    SolverConfig,
    check_length,
    format_config,
    load_config,
    parse_config,
)
# solve_marginal and run_final stay importable here: perfbench/tracer.py wraps
# harness.solve_marginal and harness.run_final.
from .marginal import solve_marginal  # noqa: F401
from .oracles import (
    AnalyticOracle,
    AnalyticProblem,
    ExactOracle,
    FiniteSumOracle,
    NoiseSpec,
    load_dataset,
    make_synthetic_logistic,
)
from .solver import IterationRecord, run_batch, run_final  # noqa: F401


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: problem + algorithm + solver parameters + output."""

    problem: str = "test1"
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    dataset_path: str | None = None
    dataset_format: DatasetFormat = DatasetFormat.CSV
    label_column: int = 0
    sensitive_column: int = 0
    label_convention: LabelConvention = LabelConvention.PM1
    has_header: bool = False
    keep_sensitive: bool = True
    regularizer: float = 0.1
    synthetic_samples: int = 300
    synthetic_features: int = 10
    synthetic_seed: int = 7
    constants_mode: ConstantsMode = ConstantsMode.ESTIMATED
    constant_value: float = 1.0
    algorithm: str = "smop"
    x0: tuple[float, ...] = (9.0, 9.0)
    num_simulations: int = 10
    output_path: str = "results.csv"
    output_format: str = "csv"
    parallelism: int = 0          # accepted for old configs; has no effect
    smg_t0: float = 0.5
    smg_delta: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.problem not in ("test1", "test2", "synthetic", "dataset"):
            raise ConfigError(f"bad problem {self.problem!r}")
        if self.problem == "dataset" and not self.dataset_path:
            raise ConfigError("dataset problem requires dataset_path")
        if self.algorithm not in ("smop", "dmop", "smg"):
            raise ConfigError(f"bad algorithm {self.algorithm!r}")
        if self.num_simulations < 1:
            raise ConfigError("num_simulations must be >= 1")
        # Seeds are packed into uint64 stream keys.
        if self.solver.seed + self.num_simulations > 2**64:
            raise ConfigError("seed + num_simulations - 1 must be below 2**64")
        if not 0 <= self.synthetic_seed < 2**64:
            raise ConfigError("synthetic_seed must be in [0, 2**64)")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"bad output_format {self.output_format!r}")
        if self.parallelism < 0:
            raise ConfigError("parallelism must be >= 0")
        if self.smg_t0 <= 0:
            raise ConfigError("smg_t0 must be positive")
        if self.smg_delta is not None and not self.smg_delta > 0:
            raise ConfigError("smg_delta must be positive")
        check_length("experiment", "x0", len(self.x0), self.dimension)

    @property
    def dimension(self) -> int | None:
        """The problem's n where it is known without loading data; None for
        a dataset, whose n is checked when the oracle is built."""
        return {"test1": 2, "test2": 2, "synthetic": self.synthetic_features}.get(self.problem)

    def build_oracle(self) -> Oracle:
        if self.problem in ("test1", "test2"):
            oracle: Oracle = AnalyticOracle(AnalyticProblem(self.problem), self.noise)
        else:
            if self.problem == "synthetic":
                fsp = make_synthetic_logistic(self.synthetic_samples,
                                              self.synthetic_features,
                                              seed=self.synthetic_seed,
                                              regularizer=self.regularizer)
            else:
                fsp = load_dataset(self.dataset_path, self.dataset_format,
                                   self.sensitive_column, self.label_convention,
                                   self.label_column, self.has_header,
                                   self.keep_sensitive, self.regularizer)
            oracle = FiniteSumOracle(fsp, self.constants_mode, self.constant_value)
        if self.algorithm == "dmop":
            # The deterministic baseline always sees exact full-batch values.
            oracle = ExactOracle(oracle)
        return oracle


def experiment_spec(sections: dict[str, dict]) -> ExperimentSpec:
    """The ExperimentSpec of a parsed config (``core.parse_config``)."""
    return ExperimentSpec(solver=SolverConfig(**sections["solver"]),
                          noise=NoiseSpec(**sections["noise"]), **sections["experiment"])


def experiment_spec_from_mapping(mapping: dict[str, str]) -> ExperimentSpec:
    return experiment_spec(parse_config(mapping))


def load_experiment_spec(path: str, overrides: dict[str, str] | None = None) -> ExperimentSpec:
    return experiment_spec(load_config(path, [f"{k}={v}" for k, v in (overrides or {}).items()]))


def run_experiment(spec: ExperimentSpec) -> tuple[list[list[IterationRecord]], dict]:
    """Run num_simulations independent seeded runs and return each one's
    iteration history, in simulation order, with a summary.

    Exact marginal/scalar metrics are instrumentation: they consume no run
    randomness and never count toward scalar products. The summary reports
    per-simulation final points, their exact objective values, and the value
    at the mean final point. One oracle (one dataset parse) serves all
    simulations and the summary. Every algorithm runs the simulations as one
    batch (simulation i depends only on its seed); smg as the step rule of
    ``run_batch`` at radius ``smg_delta`` (default ``delta0``). The error of
    the first failed simulation is raised.
    """
    oracle = spec.build_oracle()
    seeds = [spec.solver.seed + sim for sim in range(spec.num_simulations)]
    smg = None
    if spec.algorithm == "smg":
        smg = (spec.smg_t0, spec.solver.delta0 if spec.smg_delta is None else spec.smg_delta)
    states = run_batch(oracle, spec.solver, [spec.x0] * len(seeds), seeds, smg=smg)
    for s in states:
        if s.error is not None:
            raise s.error
    finals = [list(map(float, s.x)) for s in states]

    final_f = []
    for x in finals:
        values, _, _ = oracle.exact_evaluate(np.array(x))
        final_f.append([float(v) for v in values])
    mean_x = np.mean(np.array(finals), axis=0)
    mean_values, _, _ = oracle.exact_evaluate(mean_x)
    summary = {
        "algorithm": spec.algorithm,
        "problem": spec.problem,
        "num_simulations": spec.num_simulations,
        "final_points": finals,
        "final_objectives": final_f,
        "mean_final_point": [float(v) for v in mean_x],
        "objectives_at_mean": [float(v) for v in mean_values],
        "smg_note": "simplified multi-gradient baseline" if spec.algorithm == "smg" else None,
        "config": format_config("solver", spec.solver),
    }
    return [s.history for s in states], summary


_CSV_HEADER = "simulation,k,omega_true,phi_true,scalar_products,delta,success"


def _fmt_opt(value) -> str:
    return "" if value is None else repr(float(value))


def emit(histories: list[list[IterationRecord]], path: str, format: str,
         summary: dict | None = None) -> None:
    """Write the metric table of the simulations' histories (simulation i
    is ``histories[i]``) as CSV or JSON plus a sidecar summary file."""
    records = ((sim, r) for sim, history in enumerate(histories) for r in history)
    if format == "csv":
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
            for sim, r in records:
                fh.write(f"{sim},{r.k},{_fmt_opt(r.omega_true)},"
                         f"{_fmt_opt(r.phi_true)},{r.cost_so_far},"
                         f"{r.delta!r},{int(r.success)}\n")
    elif format == "json":
        payload = [{"simulation": sim, "k": r.k,
                    "omega_true": r.omega_true, "phi_true": r.phi_true,
                    "scalar_products": r.cost_so_far, "delta": r.delta,
                    "success": r.success} for sim, r in records]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ConfigError(f"bad output format {format!r}")
    if summary is not None:
        with open(path + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
