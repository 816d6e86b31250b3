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
    ConfigError,
    HessianMode,
    Oracle,
    RngStream,
    SampleBatch,
    SolverConfig,
    alpha_at,
)
from motr.harness import (
    CONFIG_KEYS,
    ExperimentSpec,
    emit,
    experiment_spec,
    load_config,
    parse_config,
    run_experiment,
    write_table,
)
from motr.marginal import solve_marginal
from motr.oracles import ExactOracle, NoiseSpec
from motr.pareto import FrontConfig, front_round, init_front
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

    def __init__(self, G):
        self.G = np.asarray(G, dtype=float)
        self.q, self.n = self.G.shape

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        B = len(X)
        return SampleBatch(values=np.zeros((B, self.q)),
                           gradients=np.broadcast_to(self.G, (B, self.q, self.n)),
                           sample_sizes=np.zeros((B, self.q), dtype=int))


def test_exact_oracle_rejects_an_oracle_without_exact_values():
    # _FixedGradients has no exact_evaluate_batch, so exact_available is False.
    assert not _FixedGradients([[1.0, 0.0]]).exact_available
    with pytest.raises(ConfigError, match="no exact evaluation"):
        ExactOracle(_FixedGradients([[1.0, 0.0]]))


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
            sample = oracle.evaluate(x, delta, alpha_at(cfg.alpha_schedule, k, oracle.q), rng)
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


def _row_formula_csv(batch) -> str:
    """The CSV as emit wrote it row by row, one f-string per row, before it
    formatted by column."""
    def opt(value):
        return "" if value is None else repr(value)

    columns = [batch.trace.get(name) for name in harness._COLUMNS.values()]
    rows = ((sim, *row) for sim, k in enumerate(batch.k.tolist())
            for row in zip(*([None] * k if c is None else c[:k, sim].tolist() for c in columns)))
    return "simulation,k,omega_true,phi_true,scalar_products,delta,success\n" + "".join(
        f"{sim},{k},{opt(omega)},{opt(phi)},{cost},{delta!r},{int(success)}\n"
        for sim, k, omega, phi, cost, delta, success in rows)


def test_emit_csv_formats_each_cell_as_the_row_formula(tmp_path):
    # Repeated floats (in runs and apart), -0.0 next to 0.0, nan, inf, an
    # absent column and simulations with fewer rows than k_max.
    K, B = 40, 4
    rng = np.random.default_rng(17)
    pool = np.array([1.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 0.1 + 0.2, 1e-300, 5e-324, -2.5])
    phi = pool[rng.integers(0, pool.size, size=(K, B))]
    phi[5:12, 0] = -0.0
    phi[12:15, 0] = 0.0
    phi[15:20, 0] = np.nan
    delta = np.where(rng.random((K, B)) < 0.5, 0.5, -0.0) * 2.0 ** -rng.integers(0, 1100, (K, B))
    trace = {"k": np.repeat(np.arange(K)[:, None], B, axis=1), "phi_true": phi,
             "cost_so_far": rng.integers(0, 10**12, size=(K, B)), "delta": delta,
             "success": rng.random((K, B)) < 0.3}
    batch = Batch(x=np.zeros((B, 2)), delta=np.ones(B), cost=np.zeros(B, dtype=int),
                  k=np.array([K, 17, 0, 33]), rngs=[None] * B, errors=[None] * B, trace=trace)
    path = tmp_path / "out.csv"
    emit(batch, str(path), "csv")
    text = path.read_text()
    assert text == _row_formula_csv(batch)
    assert ",-0.0," in text and ",0.0," in text and ",nan," in text and "\n2," not in text
    assert len(text.splitlines()) == 1 + K + 17 + 33


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


@st.composite
def _tables(draw):
    """A header and blocks of float (-0.0, subnormals, nan and inf among
    them, each drawn from a small pool so bit patterns repeat; some strided),
    int, bool and None columns; blocks may have no rows."""
    header = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True),
                           min_size=1, max_size=5, unique=True))
    pool = draw(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=4))
    pool += [-0.0, 0.0, 5e-324, -2.5e-310]
    cells = {"float": st.sampled_from(pool), "int": st.integers(-2**63, 2**63 - 1),
             "bool": st.booleans()}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(st.integers(0, 6))
        columns = []
        for _ in header:
            kind = draw(st.sampled_from(["float", "int", "bool", None]))
            if kind is None:
                columns.append(None)
                continue
            column = np.array(draw(st.lists(cells[kind], min_size=rows, max_size=rows)),
                              dtype={"float": float, "int": np.int64, "bool": bool}[kind])
            if kind == "float" and draw(st.booleans()):
                column = np.column_stack([column, column])[:, 0]
            columns.append(column)
        blocks.append((rows, columns))
    return header, blocks


def _reference_cell(column, i) -> str:
    if column is None:
        return ""
    value = column[i].item()
    return repr(value) if isinstance(value, float) else str(int(value))


def _json_repr(rows):
    """The rows with each value as its repr, so that -0.0, nan and the type
    of every value take part in ==."""
    return [{name: repr(value) for name, value in row.items()} for row in rows]


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_write_table_matches_a_per_cell_reference(table):
    header, blocks = table
    want_csv = ",".join(header) + "\n" + "".join(
        ",".join(_reference_cell(c, i) for c in columns) + "\n"
        for n, columns in blocks for i in range(n))
    want_json = [{name: None if c is None else c[i].item() for name, c in zip(header, columns)}
                 for n, columns in blocks for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write_table(path, "csv", header, iter(blocks))
        with open(path) as fh:
            assert fh.read() == want_csv
        write_table(path, "json", header, iter(blocks))
        with open(path) as fh:
            text = fh.read()
    assert text.endswith("]\n")
    assert _json_repr(json.loads(text)) == _json_repr(want_json)


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
    "constant_value = nan", "regularizer = nan", "regularizer = -1",
    "front_perturb_scale = nan",
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


def test_cli_init_box_length_error_reads_the_same_at_validate_and_run_time(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nfront_init_box = 0:1,0:1,0:1\n")
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: front_init_box has 3 entries, problem dimension is 2\n")
    # A dataset's n is known only once the file is read, so front reports it:
    # label, sensitive column, one feature and the intercept make n = 3.
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{i % 2},{i // 2 % 2},{i / 7!r}\n" for i in range(12)))
    cfg = _write_cfg(tmp_path, f"problem = dataset\ndataset_path = {data}\n"
                               "label_convention = zeroone\nfront_init_box = 0:1,0:1\n")
    assert main(["validate", cfg]) == EXIT_OK
    capsys.readouterr()
    assert main(["front", cfg, "--output", str(tmp_path / "front.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime error: front_init_box has 2 entries, problem dimension is 3\n")


@pytest.mark.parametrize("line", ["constant_value = 0", "constant_value = -1",
                                  "synthetic_samples = 1", "synthetic_samples = 0",
                                  "synthetic_samples = -3"])
def test_cli_validate_rejects_finite_sum_values_the_run_rejects(tmp_path, capsys, line):
    cfg = _write_cfg(tmp_path, f"problem = synthetic\nsynthetic_features = 2\n{line}\n"
                               "k_max = 2\nnum_simulations = 1\n")
    for command in ("validate", "run", "front"):
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {line.split()[0]} ") and err.count("\n") == 1


def test_cli_two_synthetic_samples_run(tmp_path):
    cfg = _write_cfg(tmp_path, "problem = synthetic\nsynthetic_features = 2\n"
                               "synthetic_samples = 2\nk_max = 2\nnum_simulations = 1\n")
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_OK


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


@pytest.mark.parametrize("column", [1, 2])
def test_cli_non_finite_dataset_value_is_one_line_error(tmp_path, capsys, column):
    # A NaN in the sensitive column (1) or in a feature column (2) is the
    # file's fault: one line naming its line and column, not a constant
    # sensitive column or a NaN objective sample once the run has started.
    rng = np.random.default_rng(5)
    table = np.column_stack([rng.random(20) < 0.5, rng.random(20) < 0.5,
                             rng.standard_normal(20)])
    table[6, column] = np.nan
    data = tmp_path / "data.csv"
    np.savetxt(data, table, delimiter=",", fmt="%.6g")
    cfg = _write_cfg(tmp_path, f"problem = dataset\ndataset_path = {data}\n"
                               "label_convention = zeroone\nx0 = 0,0,0\nk_max = 2\n"
                               "num_simulations = 1\n")
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"runtime error: {data}:7: column {column}: non-finite value nan\n")


def test_cli_empty_median_split_group_is_one_line_error(tmp_path, capsys):
    # A sensitive column with more than two values is split at its median;
    # when no value lies above it, the error names that split.
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{i % 2},{s},0.5\n" for i, s in enumerate([0, 1, 2, 2, 2])))
    cfg = _write_cfg(tmp_path, f"problem = dataset\ndataset_path = {data}\n"
                               "label_convention = zeroone\nx0 = 0,0,0\nk_max = 2\n"
                               "num_simulations = 1\n")
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime error: no sensitive value is above the median 2.0: "
        "the median split leaves group 1 empty\n")


def test_cli_run_with_non_finite_samples_exits_3(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path, "problem = test1\nx0 = 9,9\nk_max = 5\n"
                               "num_simulations = 3\nparallelism = 1\n")
    monkeypatch.setattr(harness.ExperimentSpec, "build_oracle",
                        lambda spec: PoisonedOracle.at(spec.x0))
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: objective sample contains NaN/Inf\n"


def test_cli_exhausted_bounded_noise_exits_3_with_one_line(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nnoise_sigma = 1\nnoise_bounded = true\n"
                               "noise_cap_g = 0.001\nk_max = 5\nnum_simulations = 2\n")
    assert main(["run", cfg, "--output", str(tmp_path / "rows.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime error: bounded noise: no draw within cap 0.001 in 10000 tries\n")


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


def test_cli_exact_run_past_the_radius_underflow_completes(tmp_path):
    # Without noise every step near the solution is rejected, so the radius
    # halves each iteration and would round to 0 after about 1,075 of them.
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 1100\nnum_simulations = 1\n")
    out = tmp_path / "rows.csv"
    assert main(["run", cfg, "--output", str(out)]) == EXIT_OK
    rows = out.read_text().strip().splitlines()
    delta = np.array([float(row.split(",")[5]) for row in rows[1:]])
    assert len(delta) == 1100 and (delta > 0).all() and delta[-1] == 5e-324


def test_cli_synthetic_front_without_init_box_runs(tmp_path, capsys):
    # The default box is (-1, 6) per coordinate, whatever the dimension.
    cfg = _write_cfg(tmp_path, "problem = synthetic\nx0 = " + ",".join(["0"] * 10)
                     + "\nfront_rounds = 1\nfront_init_count = 4\nfront_n_q = 3\n")
    out = tmp_path / "front.csv"
    assert main(["validate", cfg]) == EXIT_OK
    assert main(["front", cfg, "--output", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0].count(",") == 10 + 2 - 1
    assert "runtime error" not in capsys.readouterr().err


def test_cli_front_names_the_cause_when_every_initial_point_fails(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "problem = test1\nnoise_sigma = 0.1\nfront_init_count = 5\n"
                               "front_init_box = 1e155:1e156,0:1\n")
    assert main(["front", cfg, "--output", str(tmp_path / "front.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: all 5 initial points failed\n"


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
    # With output_format = json the same members are one list of objects.
    out_json = tmp_path / "f.json"
    argv = ["front", cfg, "--set", "output_format=json", "--output", str(out_json)]
    assert main(argv) == EXIT_OK
    members = json.loads(out_json.read_text())
    header = lines[0].split(",")
    assert all(sorted(m) == sorted(header) for m in members)
    assert [[m[name] for name in header] for m in members] == \
        [[float(v) for v in line.split(",")] for line in lines[1:]]


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
    X, F = np.array([m.x for m in archive]), np.array([m.f for m in archive])
    write_table(str(tmp_path / "direct.csv"), "csv", ["x_1", "x_2", "f_1", "f_2"],
                [(len(archive), [*X.T, *F.T])])
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


@pytest.mark.parametrize("change,match", [
    (dict(parallelism=-1), "parallelism must be >= 0"),
    (dict(smg_t0=0.0), "smg_t0 must be positive"),
    (dict(smg_t0=-0.5), "smg_t0 must be positive"),
])
def test_experiment_spec_rejects_negative_parallelism_and_step(change, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentSpec(**change)


def test_emit_rejects_an_unknown_format(tmp_path):
    spec = ExperimentSpec(num_simulations=1, solver=SolverConfig(k_max=2))
    batch, summary = run_experiment(spec)
    out = tmp_path / "rows.xml"
    with pytest.raises(ConfigError, match="bad output format 'xml'"):
        emit(batch, str(out), "xml", summary)
    assert not out.exists() and not Path(f"{out}.summary.json").exists()
