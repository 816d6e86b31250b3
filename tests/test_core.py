"""Core domain types: alpha schedules, scalarization, config (de)serialization."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motr.core import (
    CONFIG_KEYS,
    ConfigError,
    ConstantsMode,
    DatasetFormat,
    DimensionMismatchError,
    FixedAlpha,
    HessianCombine,
    HessianMode,
    LabelConvention,
    ObjectiveSample,
    RngStream,
    SolverConfig,
    SummableToOneAlpha,
    alpha_at,
    as_decision_vector,
    format_config,
    parse_config,
    parse_kv_text,
)
from motr.harness import ExperimentSpec, experiment_spec
from motr.oracles import AnalyticOracle, AnalyticProblem, NoiseSpec
from motr.pareto import FrontConfig
from motr.solver import run


def test_alpha_fixed_constant():
    assert alpha_at(FixedAlpha(math.sqrt(0.5)), 7, 2) == pytest.approx(0.70710678, abs=1e-8)


def test_alpha_summable_values():
    assert alpha_at(SummableToOneAlpha(offset=2), 0, 1) == pytest.approx(0.75)
    assert alpha_at(SummableToOneAlpha(offset=2), 0, 2) == pytest.approx(0.8660254, abs=1e-7)


def test_alpha_summable_increasing_with_limit_one():
    sched = SummableToOneAlpha(offset=2)
    vals = [alpha_at(sched, k, 2) for k in range(200)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0
    assert alpha_at(sched, 10**9, 2) == pytest.approx(1.0, abs=1e-12)


def test_alpha_summable_failure_mass_bounded():
    # Partial sums of 1 - alpha_k^q stay below the comparison series
    # sum 1/(k+offset)^2 for every prefix.
    sched = SummableToOneAlpha(offset=2)
    ks = np.arange(100_000)
    fail = 1.0 - np.array([alpha_at(sched, int(k), 3) for k in ks[:1000]]) ** 3
    comparison = 1.0 / (ks[:1000] + sched.offset) ** 2
    assert np.all(np.cumsum(fail) <= np.cumsum(comparison) + 1e-12)


def test_alpha_rejects_negative_iteration():
    with pytest.raises(ValueError):
        alpha_at(FixedAlpha(0.5), -1, 2)


def test_alpha_schedule_validation():
    with pytest.raises(ConfigError):
        FixedAlpha(1.0)
    with pytest.raises(ConfigError):
        SummableToOneAlpha(offset=1)


def test_scalar_representation_examples():
    # The scalar merit is the max over objective components, values.max().
    assert np.array([3.0, 5.0]).max() == 5.0
    assert np.array([7.0]).max() == 7.0
    # Both objectives of the first analytic benchmark at (9, 9), as the
    # solver records its merit there.
    assert np.array([162.0, 32.0]).max() == 162.0
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    assert run(oracle, SolverConfig(k_max=1), [9.0, 9.0])[0].phi_tilde == 162.0


def test_scalar_representation_monotone():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.normal(size=4)
        w = v + rng.uniform(0, 1, size=4)
        assert v.max() <= w.max()


def test_as_decision_vector_validation():
    np.testing.assert_array_equal(as_decision_vector([1.0, 2.0], 2), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        as_decision_vector([1.0, 2.0], 3)
    with pytest.raises(DimensionMismatchError):
        as_decision_vector([[1.0]])
    with pytest.raises(ValueError):
        as_decision_vector([np.nan, 1.0])


def test_objective_sample_validation():
    good = ObjectiveSample(values=[1.0, 2.0], gradients=[[1.0, 0.0], [0.0, 1.0]],
                           delta=0.5, sample_sizes=[3, 4], cost=7)
    assert good.q == 2 and good.n == 2
    with pytest.raises(ValueError):
        ObjectiveSample(values=[1.0], gradients=[[1.0, 0.0], [0.0, 1.0]],
                        delta=0.5, sample_sizes=[1], cost=0)
    with pytest.raises(ValueError):
        ObjectiveSample(values=[np.inf], gradients=[[1.0]], delta=0.5,
                        sample_sizes=[1], cost=0)
    with pytest.raises(ValueError):
        ObjectiveSample(values=[1.0], gradients=[[1.0, 0.0]], delta=-1.0,
                        sample_sizes=[1], cost=0)
    with pytest.raises(ValueError):
        ObjectiveSample(values=[1.0], gradients=[[1.0, 0.0]], delta=1.0,
                        sample_sizes=[1], cost=0,
                        hessians=[[[0.0, 1.0], [0.5, 0.0]]])


def test_rng_stream_reproducible_and_independent():
    a = RngStream(42, 0).generator().random(8)
    b = RngStream(42, 0).generator().random(8)
    c = RngStream(42, 1).generator().random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert RngStream(42, 3) != RngStream(42, 4)


def test_solver_config_gamma_consistency():
    SolverConfig(gamma1=0.25, gamma2=4.0)
    with pytest.raises(ConfigError):
        SolverConfig(gamma1=0.5, gamma2=3.0)


def test_solver_config_field_validation():
    with pytest.raises(ConfigError):
        SolverConfig(delta0=2.0, delta_max=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(eta1=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(theta=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(k_max=0)
    with pytest.raises(ConfigError):
        SolverConfig(refine_steps=6)


def test_parse_kv_text():
    text = "a = 1\n# comment\n\nb=two # trailing\n"
    assert parse_kv_text(text) == {"a": "1", "b": "two"}
    with pytest.raises(ConfigError):
        parse_kv_text("no equals sign")
    with pytest.raises(ConfigError):
        parse_kv_text("a = 1\na = 2")


def test_parse_kv_text_keeps_hash_inside_a_value():
    text = "#c\np = out#1.csv\nq = a#b\t# note\nr = 5 #\n  # indented\n"
    assert parse_kv_text(text) == {"p": "out#1.csv", "q": "a#b", "r": "5"}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_TEXT = st.text("abcXYZ0129._/-", min_size=1, max_size=12)   # survives a config line


@st.composite
def _solver_configs(draw):
    delta0 = draw(st.floats(0.0, 1e300, exclude_min=True))
    gamma1 = draw(st.floats(1e-6, 1.0, exclude_max=True))
    return SolverConfig(
        delta0=delta0,
        delta_max=draw(st.floats(delta0, exclude_min=True, allow_infinity=False)),
        gamma1=gamma1, gamma2=1.0 / gamma1, eta1=draw(_UNIT), theta=draw(_POSITIVE),
        alpha_schedule=draw(st.one_of(st.builds(FixedAlpha, _UNIT),
                                      st.builds(SummableToOneAlpha, st.integers(2, 10**6)))),
        k_max=draw(st.integers(1, 10**9)),
        hessian_mode=draw(st.sampled_from(HessianMode)),
        hessian_combine=draw(st.sampled_from(HessianCombine)),
        rho_guard=draw(_POSITIVE), omega_tol=draw(_POSITIVE), marginal_tol=draw(_POSITIVE),
        refine_steps=draw(st.integers(0, 5)), exact_metrics=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63)))


@st.composite
def _experiment_specs(draw):
    problem = draw(st.sampled_from(["test1", "test2", "synthetic", "dataset"]))
    features = draw(st.integers(1, 6))
    n = {"synthetic": features, "dataset": draw(st.integers(1, 6))}.get(problem, 2)
    bounded = draw(st.booleans())
    caps = _POSITIVE if bounded else _FINITE
    noise = NoiseSpec(sigma=draw(st.floats(0.0, allow_infinity=False)), bounded=bounded,
                      cap_f=draw(caps), cap_g=draw(caps),
                      shared_gradient_noise=draw(st.booleans()))
    return ExperimentSpec(
        problem=problem, noise=noise,
        dataset_path=draw(_TEXT if problem == "dataset" else st.none() | _TEXT),
        dataset_format=draw(st.sampled_from(DatasetFormat)),
        label_column=draw(st.integers()), sensitive_column=draw(st.integers()),
        label_convention=draw(st.sampled_from(LabelConvention)),
        has_header=draw(st.booleans()), keep_sensitive=draw(st.booleans()),
        regularizer=draw(_FINITE), synthetic_samples=draw(st.integers()),
        synthetic_features=features, synthetic_seed=draw(st.integers(0, 2**64 - 1)),
        constants_mode=draw(st.sampled_from(ConstantsMode)), constant_value=draw(_FINITE),
        algorithm=draw(st.sampled_from(["smop", "dmop", "smg"])),
        x0=tuple(draw(st.lists(_FINITE, min_size=n, max_size=n))),
        num_simulations=draw(st.integers(1, 10**6)), output_path=draw(_TEXT),
        output_format=draw(st.sampled_from(["csv", "json"])),
        parallelism=draw(st.integers(0, 64)), smg_t0=draw(_POSITIVE),
        smg_delta=draw(st.none() | _POSITIVE), solver=draw(_solver_configs()))


@st.composite
def _front_configs(draw):
    interval = st.lists(_FINITE, min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
    return FrontConfig(
        n_p=draw(st.integers(1, 100)), n_q=draw(st.integers(1, 100)),
        n_r=draw(st.integers(1, 100)),
        init_box=tuple(draw(st.lists(interval, min_size=1, max_size=4))),
        init_count=draw(st.integers(1, 100)), perturb_scale=draw(_POSITIVE),
        rounds=draw(st.integers(1, 100)), max_size=draw(st.integers(1, 10**6)),
        weak_dominance=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(spec=_experiment_specs(), front=_front_configs())
@example(spec=ExperimentSpec(solver=SolverConfig(
    delta0=0.3, delta_max=7.0, gamma1=0.25, gamma2=4.0, eta1=0.2, theta=0.4, k_max=33,
    alpha_schedule=SummableToOneAlpha(offset=5), hessian_mode=HessianMode.SUBSAMPLED,
    hessian_combine=HessianCombine.UNIFORM, refine_steps=2, exact_metrics=False, seed=9)),
    front=FrontConfig())
def test_config_round_trip(spec, front):
    # Every section is written by the table's formatters to config lines and
    # read back by its parsers. Compared by repr, so that types count too
    # (an offset read back as 5.0 equals 5 but is not what was written).
    mapping = {**format_config("solver", spec.solver), **format_config("noise", spec.noise),
               **format_config("experiment", spec), **format_config("front", front)}
    sections = parse_config(parse_kv_text("".join(f"{k} = {v}\n" for k, v in mapping.items())))
    assert repr(experiment_spec(sections)) == repr(spec)
    assert repr(FrontConfig(**sections["front"])) == repr(front)
    solver_only = parse_config(format_config("solver", spec.solver))["solver"]
    assert repr(SolverConfig(**solver_only)) == repr(spec.solver)


def test_readme_config_schema_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\| `(\w+)` \|", schema, flags=re.M)) == sorted(CONFIG_KEYS)


def _solver_config(mapping):
    return SolverConfig(**parse_config(mapping)["solver"])


def test_solver_config_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        _solver_config({"delta_zero": "1.0"})
    with pytest.raises(ConfigError):
        _solver_config({"alpha_value": "0.5"})
    with pytest.raises(ConfigError):
        _solver_config({"alpha_kind": "banana"})
    with pytest.raises(ConfigError):
        _solver_config({"k_max": "many"})


def test_solver_config_mapping_parses_types():
    cfg = _solver_config({
        "delta0": "0.5", "k_max": "12", "alpha_kind": "fixed",
        "alpha_value": "0.9", "hessian_mode": "subsampled",
        "exact_metrics": "false", "seed": "4"})
    assert cfg.delta0 == 0.5
    assert cfg.k_max == 12
    assert cfg.alpha_schedule == FixedAlpha(0.9)
    assert cfg.hessian_mode is HessianMode.SUBSAMPLED
    assert cfg.exact_metrics is False
    assert cfg.seed == 4
