"""Experiment harness: the config schema, spec parsing, seeded multi-simulation
execution, exact-metric instrumentation and CSV/JSON emission."""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from types import UnionType
from typing import Callable, Iterable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    AlphaSchedule,
    ConfigError,
    ConstantsMode,
    DatasetFormat,
    FixedAlpha,
    LabelConvention,
    Oracle,
    SolverConfig,
    SummableToOneAlpha,
)
# solve_marginal and run_final stay importable here: perfbench/tracer.py wraps
# harness.solve_marginal and harness.run_final.
from .marginal import solve_marginal  # noqa: F401
from .oracles import (
    ANALYTIC,
    AnalyticOracle,
    AnalyticProblem,
    ExactOracle,
    FiniteSumOracle,
    NoiseSpec,
    load_dataset,
    make_synthetic_logistic,
)
from .pareto import FrontConfig
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
        if self.problem not in (*ANALYTIC, "synthetic", "dataset"):
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
        if not self.constant_value > 0:
            raise ConfigError("constant_value must be positive")
        if not self.regularizer >= 0:
            raise ConfigError("regularizer must be >= 0")
        if self.synthetic_samples < 2:
            raise ConfigError("synthetic_samples must be >= 2 (one row per group)")
        if self.dimension not in (None, len(self.x0)):
            raise ConfigError(f"x0 has {len(self.x0)} entries, "
                              f"problem dimension is {self.dimension}")

    @property
    def dimension(self) -> int | None:
        """The problem's n where it is known without loading data; None for
        a dataset, whose n is checked when the oracle is built."""
        if self.problem in ANALYTIC:
            return ANALYTIC[self.problem][0]
        return self.synthetic_features if self.problem == "synthetic" else None

    @property
    def smg(self) -> tuple[float, float] | None:
        """The smg step rule ``(t0, radius)`` of ``run_batch`` (radius
        ``smg_delta``, default ``delta0``); None for smop and dmop."""
        if self.algorithm != "smg":
            return None
        return (self.smg_t0, self.smg_delta or self.solver.delta0)

    def build_oracle(self) -> Oracle:
        if self.problem in ANALYTIC:
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
    """The ExperimentSpec of a parsed config (``parse_config``)."""
    return ExperimentSpec(solver=SolverConfig(**sections["solver"]),
                          noise=NoiseSpec(**sections["noise"]), **sections["experiment"])


# Flat key-value (de)serialization of the four section dataclasses. Keys are
# documented in the README; unknown keys are an error so typos never pass
# silently. Value checks are left to the dataclasses.


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; a '#' at the start of a line or
    after whitespace starts a comment, one inside a value is kept."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {s!r}")
    return value


def _interval(s: str) -> tuple[float, float]:
    lo, hi = s.split(":")
    return _finite(lo), _finite(hi)


# (parser, formatter) per annotated field type; a formatted value parses
# back to itself.
_CODECS = {
    float: (_finite, repr),
    int: (int, str),
    str: (str, str),
    bool: (_parse_bool, lambda b: "true" if b else "false"),
    tuple[float, ...]: (lambda s: tuple(map(_finite, s.split(","))),
                        lambda v: ",".join(map(repr, v))),
    tuple[tuple[float, float], ...]: (lambda s: tuple(map(_interval, s.split(","))),
                                      lambda box: ",".join(f"{lo!r}:{hi!r}" for lo, hi in box)),
}


def _codec(tp) -> tuple[Callable[[str], object], Callable[[object], str]]:
    """The (parser, formatter) of a field of type ``tp`` (``X | None`` is
    X): an Enum's class parses and its members' value formats."""
    if get_origin(tp) is UnionType:
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if isinstance(tp, enum.EnumMeta):
        return tp, attrgetter("value")
    return _CODECS[tp]


class ConfigKey(NamedTuple):
    """One config key: the section (the dataclass) and the field it sets, the
    parser of its text and the formatter that writes a field value back."""

    key: str
    section: str
    attr: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


# Each section's dataclass and the prefix of its keys.
_SECTIONS = {"solver": (SolverConfig, ""), "noise": (NoiseSpec, "noise_"),
             "experiment": (ExperimentSpec, ""), "front": (FrontConfig, "front_")}
# The keys that are not prefix + field name.
_RENAMED = {"shared_gradient_noise": "noise_shared_gradient", "weak_dominance": "front_weak"}
# The alpha keys together set SolverConfig.alpha_schedule: alpha_kind picks
# the schedule and the one key it reads; the other is ignored.
_ALPHA_KINDS = {"fixed": (FixedAlpha, "alpha_value", "value"),
                "summable": (SummableToOneAlpha, "alpha_offset", "offset")}


def _section_keys(section: str, cls: type, prefix: str):
    """One key per init field of a section, in field order; a field named
    after a section is that section, and the alpha schedule has the alpha keys."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if not f.init or f.name in _SECTIONS:
            continue
        if f.name == "alpha_schedule":
            yield ConfigKey("alpha_kind", section, f.name, *_codec(str))
            for kind, key, attr in _ALPHA_KINDS.values():
                yield ConfigKey(key, section, f.name, *_codec(get_type_hints(kind)[attr]))
        else:
            yield ConfigKey(_RENAMED.get(f.name, prefix + f.name), section, f.name,
                            *_codec(hints[f.name]))


CONFIG_KEYS = {row.key: row for section, (cls, prefix) in _SECTIONS.items()
               for row in _section_keys(section, cls, prefix)}


def _parse(row: ConfigKey, text: str):
    try:
        return row.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{row.key}: {exc}") from exc


def _parse_alpha(mapping: dict[str, str]) -> AlphaSchedule:
    kind = mapping.get("alpha_kind")
    if kind is None:
        raise ConfigError("alpha_value/alpha_offset given without alpha_kind")
    if kind not in _ALPHA_KINDS:
        raise ConfigError(f"bad alpha_kind: {kind!r} (expected 'fixed' or 'summable')")
    cls, key, attr = _ALPHA_KINDS[kind]
    if key not in mapping:
        return cls()
    return cls(**{attr: _parse(CONFIG_KEYS[key], mapping[key])})


def _format_alpha(schedule: AlphaSchedule) -> dict[str, str]:
    for kind, (cls, key, attr) in _ALPHA_KINDS.items():
        if isinstance(schedule, cls):
            return {"alpha_kind": kind, key: CONFIG_KEYS[key].format(getattr(schedule, attr))}


def parse_config(mapping: dict[str, str]) -> dict[str, dict]:
    """Keyword arguments of each section's dataclass (see ``CONFIG_KEYS``)
    from flat string key-values."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sections: dict[str, dict] = {row.section: {} for row in CONFIG_KEYS.values()}
    for key, text in mapping.items():
        row = CONFIG_KEYS[key]
        if row.attr != "alpha_schedule":
            sections[row.section][row.attr] = _parse(row, text)
    if any(CONFIG_KEYS[key].attr == "alpha_schedule" for key in mapping):
        sections["solver"]["alpha_schedule"] = _parse_alpha(mapping)
    return sections


def format_config(section: str, obj) -> dict[str, str]:
    """The key-values of ``section`` that parse back to ``obj``'s fields; a
    field that is None has no key."""
    out = {}
    for row in CONFIG_KEYS.values():
        if row.section == section and row.attr != "alpha_schedule":
            value = getattr(obj, row.attr)
            if value is not None:
                out[row.key] = row.format(value)
    if section == "solver":
        out.update(_format_alpha(obj.alpha_schedule))
    return out


def load_config(path: str, sets: Iterable[str] = (), seed: int | None = None,
                output: str | None = None) -> dict[str, dict]:
    """``parse_config`` of a config file after the command-line overrides:
    each ``KEY=VALUE`` of ``sets``, then the base seed and the output path."""
    try:
        with open(path, encoding="utf-8") as fh:
            mapping = parse_kv_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for item in sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    if seed is not None:
        mapping["seed"] = str(seed)
    if output:
        mapping["output_path"] = output
    return parse_config(mapping)


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

    mean_x = np.mean(batch.x, axis=0)
    values, _, _ = oracle.exact_evaluate_batch(np.vstack([batch.x, mean_x]))
    final_f, mean_values = values[:-1], values[-1]
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


def _cells(column: np.ndarray):
    """The CSV text of each cell of a 1-D column, lazily: an integer
    (a bool as 0 or 1), or the repr of a float, formatted once for each run
    of cells with the same bit pattern (so -0.0 stays apart from 0.0).
    omega_true and phi_true repeat for as long as a state stays put."""
    if column.dtype.kind != "f":
        yield from map(str, memoryview(column.astype(np.int64)))
        return
    column = column.copy()
    last = text = None
    for key, value in zip(memoryview(column.view(np.int64)), memoryview(column)):
        if key != last:
            last, text = key, repr(value)
        yield text


def write_table(path: str, format: str, header: list[str],
                blocks: Iterable[tuple[int, list[np.ndarray | None]]]) -> None:
    """Write a table as CSV (the header line, then one line per row, cells as
    ``_cells`` formats them) or JSON (one list of row objects). ``blocks``
    yields ``(rows, columns)``: per header name a 1-D column of ``rows`` cells,
    or None for a column not computed (empty cells in CSV, null in JSON)."""
    if format not in ("csv", "json"):
        raise ConfigError(f"bad output format {format!r}")
    cells, empty = (_cells, "") if format == "csv" else (np.ndarray.tolist, None)
    rows = (row for n, columns in blocks
            for row in zip(*([empty] * n if c is None else cells(c) for c in columns)))
    with open(path, "w") as fh:
        if format == "csv":
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        else:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=1, sort_keys=True)
            fh.write("\n")


def emit(batch: Batch, path: str, format: str, summary: dict | None = None) -> None:
    """Write the metric table of the batch's trace (simulation i is state i),
    one ``write_table`` block per simulation, plus a sidecar summary file."""
    columns = [batch.trace.get(name) for name in _COLUMNS.values()]
    blocks = ((k, [np.full(k, sim), *(None if c is None else c[:k, sim] for c in columns)])
              for sim, k in enumerate(batch.k.tolist()))
    write_table(path, format, ["simulation", *_COLUMNS], blocks)
    if summary is not None:
        with open(path + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
