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
from .solver import Batch, run_batch, run_final  # noqa: F401


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

    @property
    def smg(self) -> tuple[float, float] | None:
        """The smg step rule ``(t0, radius)`` of ``run_batch`` (radius
        ``smg_delta``, default ``delta0``); None for smop and dmop."""
        if self.algorithm != "smg":
            return None
        return (self.smg_t0, self.smg_delta or self.solver.delta0)

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


def run_experiment(spec: ExperimentSpec) -> tuple[Batch, dict]:
    """Run num_simulations independent seeded runs as one batch (simulation
    i is state i and depends only on its seed) and return it with a summary.

    Exact marginal/scalar metrics are instrumentation: they consume no run
    randomness and never count toward scalar products. The summary reports
    per-simulation final points, their exact objective values, and the value
    at the mean final point. One oracle (one dataset parse) serves all
    simulations and the summary. The error of the first failed simulation
    is raised.
    """
    oracle = spec.build_oracle()
    seeds = [spec.solver.seed + sim for sim in range(spec.num_simulations)]
    batch = run_batch(oracle, spec.solver, [spec.x0] * len(seeds), seeds, smg=spec.smg)
    for error in batch.errors:
        if error is not None:
            raise error

    final_f, _, _ = oracle.exact_evaluate_batch(batch.x)
    mean_x = np.mean(batch.x, axis=0)
    mean_values, _, _ = oracle.exact_evaluate(mean_x)
    summary = {
        "algorithm": spec.algorithm,
        "problem": spec.problem,
        "num_simulations": spec.num_simulations,
        "final_points": batch.x.tolist(),
        "final_objectives": final_f.tolist(),
        "mean_final_point": mean_x.tolist(),
        "objectives_at_mean": mean_values.tolist(),
        "smg_note": "simplified multi-gradient baseline" if spec.algorithm == "smg" else None,
        "config": format_config("solver", spec.solver),
    }
    return batch, summary


# Emitted column -> trace column.
_COLUMNS = {"k": "k", "omega_true": "omega_true", "phi_true": "phi_true",
            "scalar_products": "cost_so_far", "delta": "delta", "success": "success"}


def _fmt_opt(value) -> str:
    return "" if value is None else repr(value)


def emit(batch: Batch, path: str, format: str, summary: dict | None = None) -> None:
    """Write the metric table of the batch's trace (simulation i is state i)
    as CSV or JSON plus a sidecar summary file; a column the run did not
    compute is empty (CSV) or null (JSON)."""
    columns = [batch.trace[name].T.tolist() if name in batch.trace else None
               for name in _COLUMNS.values()]
    rows = [(sim, *row) for sim, k in enumerate(batch.k.tolist())
            for row in zip(*([None] * k if c is None else c[sim][:k] for c in columns))]
    if format == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(["simulation", *_COLUMNS]) + "\n")
            fh.writelines(f"{sim},{k},{_fmt_opt(omega)},{_fmt_opt(phi)},{cost},{delta!r},"
                          f"{int(success)}\n" for sim, k, omega, phi, cost, delta, success in rows)
    elif format == "json":
        payload = [dict(zip(["simulation", *_COLUMNS], row)) for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ConfigError(f"bad output format {format!r}")
    if summary is not None:
        with open(path + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
