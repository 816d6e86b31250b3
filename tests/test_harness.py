"""Experiment harness and CLI: spec parsing, runs, emission, exit codes."""

import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import PoisonedOracle

from motr import harness
from motr.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from motr.core import ConfigError, SolverConfig
from motr.harness import (
    ExperimentSpec,
    MetricRow,
    emit,
    experiment_spec_from_mapping,
    load_experiment_spec,
    run_experiment,
    smg_baseline_step,
)
from motr.oracles import NoiseSpec


def _tiny_spec(**kwargs):
    base = dict(problem="test1", num_simulations=2, parallelism=1,
                solver=SolverConfig(k_max=5))
    base.update(kwargs)
    return ExperimentSpec(**base)


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
    spec = experiment_spec_from_mapping({
        "problem": "test2", "noise_sigma": "0.01", "x0": "-0.5,1",
        "num_simulations": "3", "k_max": "7", "theta": "0.4", "eta1": "0.4",
        "seed": "11"})
    assert spec.problem == "test2"
    assert spec.x0 == (-0.5, 1.0)
    assert spec.noise.sigma == 0.01
    assert spec.solver.k_max == 7
    assert spec.solver.theta == 0.4
    assert spec.solver.seed == 11


def test_spec_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        experiment_spec_from_mapping({"problem": "test1", "noise_stdev": "0.1"})


def test_load_experiment_spec_with_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = test1\nnum_simulations = 2\nk_max = 3\n")
    spec = load_experiment_spec(str(cfg), overrides={"num_simulations": "5"})
    assert spec.num_simulations == 5
    assert spec.solver.k_max == 3


def test_run_experiment_row_count_and_summary():
    spec = _tiny_spec(num_simulations=1, solver=SolverConfig(k_max=1))
    rows, summary = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].simulation == 0 and rows[0].k == 0
    assert len(summary["final_points"]) == 1
    assert len(summary["final_objectives"][0]) == 2
    assert "config" in summary


def test_scalar_products_non_decreasing_per_simulation():
    spec = _tiny_spec(noise=NoiseSpec(sigma=0.1))
    rows, _ = run_experiment(spec)
    by_sim = {}
    for r in rows:
        by_sim.setdefault(r.simulation, []).append(r.scalar_products)
    for costs in by_sim.values():
        assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_dmop_simulations_identical():
    spec = _tiny_spec(algorithm="dmop", num_simulations=3)
    rows, _ = run_experiment(spec)
    by_sim = {}
    for r in rows:
        by_sim.setdefault(r.simulation, []).append((r.omega_true, r.delta, r.success))
    traces = list(by_sim.values())
    assert all(t == traces[0] for t in traces[1:])


def test_smg_baseline_step_examples():
    # Single objective reduces to a gradient step.
    x = smg_baseline_step(np.zeros(2), np.array([[2.0, 0.0]]), 0.5)
    np.testing.assert_allclose(x, [-1.0, 0.0])
    # Opposing gradients cancel: fixed point.
    x = smg_baseline_step(np.ones(2), np.array([[1.0, 1.0], [-1.0, -1.0]]), 0.5)
    np.testing.assert_allclose(x, np.ones(2), atol=1e-9)
    x = smg_baseline_step(np.zeros(2), np.array([[2.0, 0.0], [0.0, 2.0]]), 0.5)
    np.testing.assert_allclose(x, [-0.5, -0.5], atol=1e-9)
    with pytest.raises(ValueError):
        smg_baseline_step(np.zeros(2), np.array([[1.0, 0.0]]), 0.0)


def test_smg_algorithm_runs():
    spec = _tiny_spec(algorithm="smg", num_simulations=1)
    rows, summary = run_experiment(spec)
    assert len(rows) == 5
    assert summary["smg_note"] is not None


def test_emit_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit([], str(path), "csv")
    assert path.read_text() == "simulation,k,omega_true,phi_true,scalar_products,delta,success\n"
    rows = [MetricRow(simulation=s, k=k, omega_true=1.5, phi_true=2.5,
                      scalar_products=10 * k, delta=1.0, success=k % 2 == 0)
            for s in range(2) for k in range(3)]
    emit(rows, str(path), "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[1] == "0,0,1.5,2.5,0,1.0,1"


def test_emit_json_round_trip(tmp_path):
    path = tmp_path / "out.json"
    rows = [MetricRow(simulation=0, k=0, omega_true=None, phi_true=3.25,
                      scalar_products=12, delta=0.5, success=True)]
    emit(rows, str(path), "json", summary={"note": "x"})
    data = json.loads(path.read_text())
    assert data == [{"simulation": 0, "k": 0, "omega_true": None,
                     "phi_true": 3.25, "scalar_products": 12, "delta": 0.5,
                     "success": True}]
    sidecar = json.loads((tmp_path / "out.json.summary.json").read_text())
    assert sidecar == {"note": "x"}


def test_parallel_and_serial_runs_match():
    # parallelism is accepted for old configs but has no effect.
    noise = NoiseSpec(sigma=0.1)
    runs = [run_experiment(_tiny_spec(noise=noise, num_simulations=3, parallelism=workers))[0]
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
    rows, _ = run_experiment(spec)
    assert len(parses) == 1
    assert len(rows) == 3 * 40


@pytest.mark.parametrize("problem, noise", [
    ("test1", NoiseSpec(sigma=0.1)),
    ("test2", NoiseSpec(sigma=0.05, bounded=True, cap_f=0.5, cap_g=0.5))])
def test_batch_simulations_match_single_runs(problem, noise):
    # All simulations run as one batch; simulation i must come out as a run
    # of that simulation alone with seed + i.
    spec = _tiny_spec(problem=problem, noise=noise, num_simulations=4, x0=(2.0, -0.5),
                      solver=SolverConfig(k_max=60, seed=3))
    rows, summary = run_experiment(spec)
    for sim in range(4):
        alone, alone_summary = run_experiment(
            replace(spec, num_simulations=1, solver=SolverConfig(k_max=60, seed=3 + sim)))
        assert [replace(r, simulation=sim) for r in alone] == [r for r in rows
                                                               if r.simulation == sim]
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
    "x0 = nan,1", "delta_max = inf", "front_init_box = 0:1,-inf:1"])
def test_cli_validate_rejects_bad_values(tmp_path, capsys, line):
    cfg = _write_cfg(tmp_path, f"problem = test1\n{line}\nk_max = 2\nnum_simulations = 1\n")
    for command in ("validate", "run", "front"):
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


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


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, "problem = test1\nk_max = 2\n"
                               "num_simulations = 1\nparallelism = 1\n")
    assert main(["run", cfg, "--output", "/nonexistent/dir/out.csv"]) == EXIT_RUNTIME
