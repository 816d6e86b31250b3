"""Experiment harness and CLI: spec parsing, runs, emission, exit codes."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import PoisonedOracle
from hypothesis import given, settings
from hypothesis import strategies as st

import motr
from motr import harness
from motr.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from motr.core import (
    CONFIG_KEYS,
    ConfigError,
    HessianMode,
    Oracle,
    RngStream,
    SampleBatch,
    SolverConfig,
    alpha_at,
    load_config,
    parse_config,
)
from motr.harness import ExperimentSpec, emit, experiment_spec, run_experiment
from motr.marginal import solve_marginal
from motr.oracles import NoiseSpec
from motr.pareto import FrontConfig, export_archive_csv, front_round, init_front
from motr.solver import Batch, IterationRecord, run_batch


def _tiny_spec(**kwargs):
    base = dict(problem="test1", num_simulations=2, parallelism=1,
                solver=SolverConfig(k_max=5))
    base.update(kwargs)
    return ExperimentSpec(**base)


def _histories(batch):
    """Each state's IterationRecord history, in state order."""
    return [s.history for s in batch]


def _plain(histories):
    """The histories with sample sizes as lists, so that == compares records."""
    return [[replace(r, sample_sizes=r.sample_sizes.tolist()) for r in h] for h in histories]


def _record(k, **fields):
    """An IterationRecord with placeholder values in the fields emit skips."""
    base = dict(k=k, omega_m=0.0, omega_true=1.5, phi_tilde=0.0, phi_true=2.5, rho=0.0,
                delta=1.0, success=True, step_norm=0.0, cost_so_far=0,
                sample_sizes=np.zeros(2, dtype=int), predicted_reduction=0.0, beta=1.0)
    base.update(fields)
    return IterationRecord(**base)


def _batch_of(histories):
    """A Batch whose trace holds these records (state b's are histories[b]);
    a field that is None in every record has no column."""
    B, K = len(histories), max(map(len, histories), default=0)
    trace = {}
    for f in dataclasses.fields(IterationRecord):
        cells = [getattr(r, f.name) for h in histories for r in h]
        if cells and all(c is not None for c in cells):
            column = np.zeros((K, B) + np.shape(cells[0]), dtype=np.asarray(cells[0]).dtype)
            for b, h in enumerate(histories):
                for k, r in enumerate(h):
                    column[k, b] = getattr(r, f.name)
            trace[f.name] = column
    return Batch(x=np.zeros((B, 2)), delta=np.ones(B), cost=np.zeros(B, dtype=int),
                 k=np.array([len(h) for h in histories], dtype=int), rngs=[None] * B,
                 errors=[None] * B, trace=trace)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(problem="test9")
    with pytest.raises(ConfigError):
        ExperimentSpec(problem="dataset")
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="newton")
    with pytest.raises(ConfigError):
        ExperimentSpec(num_simulations=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(output_format="xml")


def test_spec_from_mapping_splits_solver_keys():
    spec = experiment_spec(parse_config({
        "problem": "test2", "noise_sigma": "0.01", "x0": "-0.5,1",
        "num_simulations": "3", "k_max": "7", "theta": "0.4", "eta1": "0.4",
        "seed": "11"}))
    assert spec.problem == "test2"
    assert spec.x0 == (-0.5, 1.0)
    assert spec.noise.sigma == 0.01
    assert spec.solver.k_max == 7
    assert spec.solver.theta == 0.4
    assert spec.solver.seed == 11


def test_spec_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        experiment_spec(parse_config({"problem": "test1", "noise_stdev": "0.1"}))


def test_load_experiment_spec_with_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = test1\nnum_simulations = 2\nk_max = 3\n")
    spec = experiment_spec(load_config(str(cfg), ["num_simulations=5"]))
    assert spec.num_simulations == 5
    assert spec.solver.k_max == 3


def test_run_experiment_row_count_and_summary():
    spec = _tiny_spec(num_simulations=1, solver=SolverConfig(k_max=1))
    batch, summary = run_experiment(spec)
    histories = _histories(batch)
    assert [len(h) for h in histories] == [1]
    assert histories[0][0].k == 0
    assert len(summary["final_points"]) == 1
    assert len(summary["final_objectives"][0]) == 2
    assert "config" in summary


def test_scalar_products_non_decreasing_per_simulation():
    spec = _tiny_spec(noise=NoiseSpec(sigma=0.1))
    for history in _histories(run_experiment(spec)[0]):
        costs = [r.cost_so_far for r in history]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_dmop_simulations_identical():
    spec = _tiny_spec(algorithm="dmop", num_simulations=3)
    traces = [[(r.omega_true, r.delta, r.success) for r in h]
              for h in _histories(run_experiment(spec)[0])]
    assert len(traces) == 3 and all(t == traces[0] for t in traces[1:])


class _FixedGradients(Oracle):
    """The same exact gradients ``G`` (q, n) at every point; values 0."""

    stochastic = False
    exact_available = False

    def __init__(self, G):
        self.G = np.asarray(G, dtype=float)
        self.q, self.n = self.G.shape

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        return self.evaluate_one(x, delta, alpha, rng, need_hessians)

    def evaluate_batch(self, X, deltas, alphas, rngs, need_hessians=False):
        B = len(X)
        return SampleBatch(values=np.zeros((B, self.q)),
                           gradients=np.broadcast_to(self.G, (B, self.q, self.n)),
                           delta=deltas, sample_sizes=np.zeros((B, self.q), dtype=int),
                           cost=np.zeros(B, dtype=int))


def _smg_step(x0, G, t0=0.5, radius=1.0):
    """The state after one step of the smg rule, at t_0 = t0."""
    state, = run_batch(_FixedGradients(G), SolverConfig(k_max=1), [x0], [0],
                       smg=(t0, radius))
    assert state.error is None
    return state


def test_smg_step_rule_examples():
    # Single objective reduces to a gradient step.
    state = _smg_step(np.zeros(2), [[2.0, 0.0]])
    np.testing.assert_allclose(state.x, [-1.0, 0.0])
    # Opposing gradients cancel: fixed point.
    state = _smg_step(np.ones(2), [[1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_allclose(state.x, np.ones(2), atol=1e-9)
    state = _smg_step(np.zeros(2), [[2.0, 0.0], [0.0, 2.0]], radius=3.0)
    np.testing.assert_allclose(state.x, [-0.5, -0.5], atol=1e-9)
    # Every step succeeds and the radius stays put.
    record, = state.history
    assert record.success and record.delta == 3.0 and state.delta == 3.0
    with pytest.raises(ValueError):
        _smg_step(np.zeros(2), [[1.0, 0.0]], t0=0.0)


def _smg_reference(spec):
    """smg written out one simulation and one iteration at a time: a
    one-state sample at the fixed radius, the one-matrix subproblem and
    x - t_k * G^T lambda. Returns the emitted columns and the final points."""
    oracle, cfg = spec.build_oracle(), spec.solver
    delta = cfg.delta0 if spec.smg_delta is None else spec.smg_delta
    rows, finals = [], []
    for sim in range(spec.num_simulations):
        rng = RngStream(cfg.seed + sim).generator()
        x = np.array(spec.x0, dtype=float)
        cost = 0
        for k in range(cfg.k_max):
            sample = oracle.evaluate_one(x, delta, alpha_at(cfg.alpha_schedule, k, oracle.q),
                                         rng)
            cost += int(sample.cost)
            omega_true = phi_true = None
            if cfg.exact_metrics:
                values, gradients, _ = oracle.exact_evaluate(x)
                omega_true = solve_marginal(gradients, cfg.marginal_tol).omega
                phi_true = float(values.max())
            rows.append((sim, k, omega_true, phi_true, cost, delta, True))
            weights = solve_marginal(sample.gradients, cfg.marginal_tol).weights
            x = x - spec.smg_t0 / math.sqrt(k + 1.0) * (sample.gradients.T @ weights)
        finals.append(list(map(float, x)))
    return rows, finals


@pytest.mark.parametrize("kwargs", [
    dict(noise=NoiseSpec(sigma=0.5), num_simulations=3, solver=SolverConfig(k_max=60, seed=4)),
    dict(noise=NoiseSpec(sigma=0.5), num_simulations=2, smg_t0=0.2,
         solver=SolverConfig(k_max=40, seed=9, exact_metrics=False)),
    dict(problem="synthetic", x0=(0.0,) * 10, num_simulations=2,
         solver=SolverConfig(k_max=25, seed=1)),
    dict(problem="synthetic", x0=(0.0,) * 10, num_simulations=2, smg_delta=20.0,
         solver=SolverConfig(k_max=25, seed=2, delta_max=10.0,
                             hessian_mode=HessianMode.SUBSAMPLED)),
], ids=["test1", "test1-no-exact-metrics", "synthetic", "synthetic-delta-above-max"])
def test_smg_matches_reference_loop(kwargs):
    # The batched step rule writes the same columns, bit for bit, as the
    # per-simulation loop it replaced.
    spec = _tiny_spec(algorithm="smg", **kwargs)
    batch, summary = run_experiment(spec)
    got = [(sim, r.k, r.omega_true, r.phi_true, r.cost_so_far, r.delta, r.success)
           for sim, h in enumerate(_histories(batch)) for r in h]
    rows, finals = _smg_reference(spec)
    assert repr(got) == repr(rows)
    assert summary["final_points"] == finals


def test_smg_algorithm_runs():
    spec = _tiny_spec(algorithm="smg", num_simulations=1)
    batch, summary = run_experiment(spec)
    assert [len(h) for h in _histories(batch)] == [5]
    assert summary["smg_note"] is not None


def test_emit_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit(_batch_of([]), str(path), "csv")
    assert path.read_text() == "simulation,k,omega_true,phi_true,scalar_products,delta,success\n"
    histories = [[_record(k, cost_so_far=10 * k, success=k % 2 == 0) for k in range(3)]
                 for s in range(2)]
    emit(_batch_of(histories), str(path), "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[1] == "0,0,1.5,2.5,0,1.0,1"


def test_emit_json_round_trip(tmp_path):
    path = tmp_path / "out.json"
    histories = [[_record(0, omega_true=None, phi_true=3.25, cost_so_far=12, delta=0.5,
                          success=True)]]
    emit(_batch_of(histories), str(path), "json", summary={"note": "x"})
    data = json.loads(path.read_text())
    assert data == [{"simulation": 0, "k": 0, "omega_true": None,
                     "phi_true": 3.25, "scalar_products": 12, "delta": 0.5,
                     "success": True}]
    sidecar = json.loads((tmp_path / "out.json.summary.json").read_text())
    assert sidecar == {"note": "x"}


def _reference_emit(batch, format) -> str:
    """The metric table written record by record from ``batch[b].history``."""
    def opt(value):
        return "" if value is None else repr(float(value))

    records = [(sim, r) for sim, state in enumerate(batch) for r in state.history]
    if format == "csv":
        return "simulation,k,omega_true,phi_true,scalar_products,delta,success\n" + "".join(
            f"{sim},{r.k},{opt(r.omega_true)},{opt(r.phi_true)},{r.cost_so_far},"
            f"{r.delta!r},{int(r.success)}\n" for sim, r in records)
    return json.dumps([{"simulation": sim, "k": r.k, "omega_true": r.omega_true,
                        "phi_true": r.phi_true, "scalar_products": r.cost_so_far,
                        "delta": r.delta, "success": r.success} for sim, r in records],
                      indent=1, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(format=st.sampled_from(["csv", "json"]), exact_metrics=st.booleans(),
       smg=st.sampled_from([None, (0.5, 1.0)]), size=st.integers(1, 4),
       fail_first=st.booleans(), seed=st.integers(0, 2**32 - 1),
       k_max=st.integers(1, 8))
def test_emit_writes_the_records_of_every_state(format, exact_metrics, smg, size,
                                                  fail_first, seed, k_max):
    # emit writes from the trace columns exactly what the states' records
    # say, also when a state failed and has fewer rows than the others.
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(-1.0, 6.0, size=(size, 2))
    is_bad = (lambda X: np.all(X == x0s[0], axis=1)) if fail_first else (
        lambda X: np.zeros(len(X), dtype=bool))
    cfg = SolverConfig(k_max=k_max, exact_metrics=exact_metrics)
    batch = run_batch(PoisonedOracle(is_bad), cfg, x0s, rng.integers(0, 2**62, size).tolist(),
                      smg=smg)
    assert (batch.errors[0] is not None) == fail_first
    assert "omega_true" not in batch.trace or exact_metrics
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        emit(batch, path, format)
        with open(path) as fh:
            assert fh.read() == _reference_emit(batch, format)


def test_parallel_and_serial_runs_match():
    # parallelism is accepted for old configs but has no effect.
    noise = NoiseSpec(sigma=0.1)
    runs = [_plain(_histories(run_experiment(_tiny_spec(noise=noise, num_simulations=3,
                                                        parallelism=workers))[0]))
            for workers in (0, 1, 2)]
    assert runs[0] == runs[1] == runs[2]


def test_serial_run_parses_dataset_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((120, 3))
    sensitive = (rng.random(120) < 0.4).astype(float)
    labels = (X @ np.array([1.0, -1.0, 0.5]) + sensitive > 0).astype(float)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([labels, sensitive, X]), delimiter=",", fmt="%.6g")
    spec = _tiny_spec(problem="dataset", dataset_path=str(path),
                      label_convention="zeroone", x0=(0.0,) * 5, num_simulations=3,
                      solver=SolverConfig(k_max=40))
    parses = []
    real = harness.load_dataset
    monkeypatch.setattr(harness, "load_dataset",
                        lambda *a, **kw: parses.append(a) or real(*a, **kw))
    batch, _ = run_experiment(spec)
    assert len(parses) == 1
    assert [len(h) for h in _histories(batch)] == [40] * 3


@pytest.mark.parametrize("problem, noise", [
    ("test1", NoiseSpec(sigma=0.1)),
    ("test2", NoiseSpec(sigma=0.05, bounded=True, cap_f=0.5, cap_g=0.5))])
def test_batch_simulations_match_single_runs(problem, noise):
    # All simulations run as one batch; simulation i must come out as a run
    # of that simulation alone with seed + i.
    spec = _tiny_spec(problem=problem, noise=noise, num_simulations=4, x0=(2.0, -0.5),
                      solver=SolverConfig(k_max=60, seed=3))
    batch, summary = run_experiment(spec)
    histories = _histories(batch)
    for sim in range(4):
        alone, alone_summary = run_experiment(
            replace(spec, num_simulations=1, solver=SolverConfig(k_max=60, seed=3 + sim)))
        assert _plain(_histories(alone)) == _plain([histories[sim]])
        assert alone_summary["final_points"] == [summary["final_points"][sim]]
        assert alone_summary["final_objectives"] == [summary["final_objectives"][sim]]


def _write_cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


def test_cli_validate_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\n")
    assert main(["validate", cfg]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_bad_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nbanana = 2\n")
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_validate_non_numeric_alpha(tmp_path, capsys):
    for keys in ("alpha_kind = fixed\nalpha_value = abc\n",
                 "alpha_kind = summable\nalpha_offset = abc\n"):
        cfg = _write_cfg(tmp_path, "problem = test1\n" + keys)
        assert main(["validate", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


@pytest.mark.parametrize("line", [
    "noise_bounded = ture", "noise_shared_gradient = yess", "has_header = 2",
    "keep_sensitive = nope", "front_weak = ture", "smg_delta = -1", "smg_delta = 0",
    "theta = nan", "noise_sigma = nan", "rho_guard = nan", "smg_t0 = nan",
    "constant_value = nan", "regularizer = nan", "front_perturb_scale = nan",
    "x0 = nan,1", "delta_max = inf", "front_init_box = 0:1,-inf:1",
    "constants_mode = banana", "dataset_format = xml", "label_convention = yesno",
    # Seeds are packed into uint64 stream keys.
    "seed = 99999999999999999999999", "seed = 18446744073709551615\nnum_simulations = 2",
    "synthetic_seed = -1", "synthetic_seed = 18446744073709551616"])
def test_cli_validate_rejects_bad_values(tmp_path, capsys, line):
    sims = "" if "num_simulations" in line else "num_simulations = 1\n"
    cfg = _write_cfg(tmp_path, f"problem = test1\n{line}\nk_max = 2\n{sims}")
    for command in ("validate", "run", "front"):
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


def test_cli_seed_override_is_checked_against_uint64(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\nnum_simulations = 3\n")
    assert main(["validate", cfg, "--seed", str(2**64 - 3)]) == EXIT_OK
    capsys.readouterr()
    for command in ("validate", "run", "front"):
        assert main([command, cfg, "--seed", str(2**64 - 2)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"problem = test1\nx0 = \xff\xfe\n")
    for command in ("validate", "run", "front"):
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "not UTF-8" in err and err.count("\n") == 1


def test_cli_hash_inside_a_value_is_kept(tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace.
    out = tmp_path / "out#1.csv"
    cfg = _write_cfg(tmp_path, f"# comment\nproblem = test1   # trailing comment\n"
                               f"k_max = 2\nnum_simulations = 1\noutput_path = {out}\n")
    assert main(["run", cfg]) == EXIT_OK
    assert out.exists() and Path(f"{out}.summary.json").exists()
    assert not (tmp_path / "out").exists()


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_VALUE_POOL = ["0", "1", "2", "3", "-1", "0.5", "1e-3", "1e400", "nan", "true", "no",
               "fixed", "summable", "zero", "subsampled", "lambda", "uniform", "test1",
               "test2", "synthetic", "dataset", "smop", "dmop", "smg", "csv", "json",
               "libsvm", "pm1", "zeroone", "estimated", "analytic", "banana", "0,0", "9,9",
               "0,0,0", "0:1,0:1", "DATA", "out#1.csv"]


def _parses(key, value):
    try:
        CONFIG_KEYS[key].parse(value)
    except ValueError:
        return False
    return True


@st.composite
def _config_lines(draw):
    """``key = value`` lines of distinct table keys other than k_max; each
    value is one its parser reads, one from the pool, or any text."""
    keys = draw(st.lists(st.sampled_from(sorted(set(CONFIG_KEYS) - {"k_max"})),
                         unique=True, max_size=8))
    values = [draw(st.one_of(st.sampled_from([v for v in _VALUE_POOL if _parses(key, v)]),
                             st.sampled_from(_VALUE_POOL), st.text(max_size=6)))
              for key in keys]
    return [f"{key} = {value}" for key, value in zip(keys, values)]


@settings(max_examples=150, deadline=None)
@given(k_max=st.integers(1, 4), lines=_config_lines(),
       garbage=st.lists(st.tuples(st.integers(0, 10), st.text(max_size=10)), max_size=1),
       junk=st.lists(st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=4)),
                     max_size=1))
def test_cli_any_config_text_is_accepted_or_one_line_error(k_max, lines, garbage, junk):
    # Table keys with good and bad values, at most one garbage line and at
    # most one run of arbitrary bytes. validate never ends in a traceback: it
    # accepts or reports one config error; an accepted short run, and a
    # one-round front, complete or report one runtime error.
    lines = [f"k_max = {k_max}"] + lines
    for at, line in garbage:
        lines.insert(at, line)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("".join(f"{i % 2},{i // 2 % 2},{i / 7!r}\n" for i in range(12)))
        text = "\n".join(lines).replace("DATA", str(data)).encode()
        for at, raw in junk:
            text = text[:at] + raw + text[at:]
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_bytes(text)
        code, err = _main_quietly(["validate", str(cfg)])
        if code != EXIT_OK:
            assert code == EXIT_CONFIG
            assert err.startswith("config error: ") and err.count("\n") == 1
            return
        assert err == ""
        if load_config(str(cfg))["solver"].get("k_max", 500) > 3:
            return
        for command in (["run"], ["front", "--set", "front_rounds=1"]):
            code, err = _main_quietly([*command, str(cfg), "--output", str(Path(tmp) / "out")])
            assert code == EXIT_OK or (code == EXIT_RUNTIME and err.startswith("runtime error: ")
                                       and err.count("\n") == 1)


@pytest.mark.parametrize("lines", [
    "problem = test1\nx0 = 1,2,3",
    "problem = test2\nx0 = 1",
    "problem = synthetic\nsynthetic_features = 4\nx0 = 0,0,0",
    "problem = synthetic",                      # the default x0 is 2-D
    "problem = test1\nfront_init_box = 0:1,0:1,0:1",
    "problem = synthetic\nsynthetic_features = 3\nx0 = 0,0,0\nfront_init_box = 0:1,0:1",
], ids=["test1-x0", "test2-x0", "synthetic-x0", "synthetic-default-x0",
        "test1-init-box", "synthetic-init-box"])
def test_cli_validate_rejects_wrong_dimension(tmp_path, capsys, lines):
    cfg = _write_cfg(tmp_path, lines + "\nk_max = 2\nnum_simulations = 1\n")
    for command in ("validate", "run", "front"):
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "problem dimension is" in err


def test_cli_validate_accepts_matching_dimensions(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = synthetic\nsynthetic_features = 3\nx0 = 0,0,0\n"
                               "front_init_box = 0:1,0:1,0:1\n")
    assert main(["validate", cfg]) == EXIT_OK
    assert capsys.readouterr().out == "config ok\n"


def test_cli_validate_leaves_dataset_dimension_to_run(tmp_path, capsys):
    # A dataset's n is known only once the file is parsed, which validate
    # does not do; run reports the mismatch.
    rng = np.random.default_rng(4)
    table = np.column_stack([rng.random(20) < 0.5, rng.random(20) < 0.5,
                             rng.standard_normal(20)])
    data = tmp_path / "data.csv"
    np.savetxt(data, table, delimiter=",", fmt="%.6g")
    cfg = _write_cfg(tmp_path, f"problem = dataset\ndataset_path = {data}\n"
                               "label_convention = zeroone\nx0 = 0,0\nk_max = 2\n"
                               "num_simulations = 1\nparallelism = 1\n")
    assert main(["validate", cfg]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: expected dimension 3, got 2\n"


def test_cli_run_with_non_finite_samples_exits_3(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path, "problem = test1\nx0 = 9,9\nk_max = 5\n"
                               "num_simulations = 3\nparallelism = 1\n")
    monkeypatch.setattr(harness.ExperimentSpec, "build_oracle",
                        lambda spec: PoisonedOracle.at(spec.x0))
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: objective sample contains NaN/Inf\n"


def test_cli_overflowing_run_prints_one_line(tmp_path):
    # The oracle overflows at x0; numpy's RuntimeWarnings must not reach
    # stderr beside the one-line error. A subprocess, because pytest
    # captures warnings in process.
    cfg = _write_cfg(tmp_path, "problem = synthetic\nsynthetic_features = 2\n"
                               "x0 = 1e300,1e300\nk_max = 3\nnum_simulations = 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(motr.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "motr.cli", "run", cfg,
                           "--output", str(tmp_path / "rows.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr == "runtime error: objective sample contains NaN/Inf\n"


def test_cli_default_length_synthetic_run_completes(tmp_path):
    # At k_max = 500 the radius falls far enough that delta^-4 overflows a
    # float; the group-size cap must apply first.
    cfg = _write_cfg(tmp_path, "problem = synthetic\nx0 = " + ",".join(["0"] * 10)
                     + "\nnum_simulations = 1\nparallelism = 1\n")
    out = tmp_path / "rows.csv"
    assert main(["run", cfg, "--seed", "0", "--output", str(out)]) == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 1 + 500


def test_cli_missing_file():
    assert main(["validate", "/nonexistent/exp.cfg"]) == EXIT_CONFIG


def test_cli_run_writes_output(tmp_path):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\n"
                               "num_simulations = 1\nparallelism = 1\n")
    out = tmp_path / "rows.csv"
    assert main(["run", cfg, "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_set_and_seed_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\n"
                               "num_simulations = 1\nparallelism = 1\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", cfg, "--set", "noise_sigma=0.1", "--seed", "5",
                 "--output", str(out1)]) == EXIT_OK
    assert main(["run", cfg, "--set", "noise_sigma=0.1", "--seed", "5",
                 "--output", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    assert main(["run", cfg, "--set", "bad format"]) == EXIT_CONFIG


def test_cli_front_writes_archive(tmp_path):
    cfg = _write_cfg(tmp_path, "problem = test1\nfront_rounds = 1\n"
                               "front_init_count = 5\nfront_n_q = 5\n")
    out = tmp_path / "front.csv"
    assert main(["front", cfg, "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,f_1,f_2"
    assert len(lines) >= 2


def test_cli_front_honours_smg(tmp_path):
    # With algorithm = smg the front's restarts take the smg step rule: the
    # archive differs from smop's and equals a round run with the rule.
    text = ("problem = test1\nnoise_sigma = 0.1\nfront_rounds = 1\n"
            "front_init_count = 5\nfront_n_q = 5\nsmg_t0 = 0.3\n")
    outs = {}
    for algorithm in ("smop", "smg"):
        cfg = _write_cfg(tmp_path, text + f"algorithm = {algorithm}\n")
        outs[algorithm] = tmp_path / f"{algorithm}.csv"
        assert main(["front", cfg, "--output", str(outs[algorithm])]) == EXIT_OK
    assert outs["smg"].read_bytes() != outs["smop"].read_bytes()

    sections = load_config(cfg)
    spec, front_cfg = experiment_spec(sections), FrontConfig(**sections["front"])
    assert spec.smg == (0.3, spec.solver.delta0)
    oracle = spec.build_oracle()
    rng = RngStream(spec.solver.seed, stream_id=999).generator()
    archive = front_round(init_front(front_cfg, oracle, rng), oracle, front_cfg,
                          spec.solver, rng, smg=(0.3, spec.solver.delta0))
    export_archive_csv(archive, str(tmp_path / "direct.csv"))
    assert (tmp_path / "direct.csv").read_bytes() == outs["smg"].read_bytes()


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\n"
                               "num_simulations = 1\nparallelism = 1\n")
    assert main(["run", cfg, "--output", "/nonexistent/dir/out.csv"]) == EXIT_RUNTIME


def test_every_tracer_boundary_resolves(monkeypatch):
    # perfbench/tracer.py wraps each (owner, attribute) of its BOUNDARIES
    # through vars(owner)[attr]; removing one of those names from motr would
    # end the benchmark's traced runs in a KeyError.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    resolve = tracer.Tracer(motr)._owner
    for layer, owner_path, attr in tracer.BOUNDARIES:
        assert attr in vars(resolve(owner_path)), f"{layer}: motr.{owner_path}.{attr}"
