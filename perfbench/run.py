#!/usr/bin/env python3
"""Benchmark of the motr command line.

Run from the repository root (motr is taken from ./src):

    python3 perfbench/run.py --workload test1_noisy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

With ``--trace 0`` each workload's motr command runs as a child process,
again and again until ``--seconds`` are used up, with tracing off; the
end-to-end metrics are medians over those invocations. Set-up time is the
median wall time of several ``motr validate`` calls on the same config.
With ``--trace 1`` the same command runs in-process through
``motr.cli.main``, alternately untraced and traced, and the per-layer
metrics come from the traced calls. ``--workload all`` runs every
workload, both ways unless ``--trace`` is given.

Every output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Reports,
span files and a results file with a machine record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import selftest
from checks import RESTART_WARNING, check_invocation
from tracer import LAYERS, Tracer, layer_metrics, write_spans
from workloads import DEFECT_PROBE, DEFECT_PROBE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(argv: list[str], cwd: Path, env: dict[str, str] | None) -> Invocation:
    """Run a command to completion through launch.py, in ``cwd``."""
    result = cwd / "invocation.json"
    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w+") as err:
        subprocess.run([sys.executable, str(HERE / "launch.py"), str(result),
                        str(CHILD_TIMEOUT_S), "--", *argv],
                       cwd=cwd, env=env, stdout=out, stderr=err, check=True,
                       timeout=CHILD_TIMEOUT_S + 30)
        out.seek(0)
        err.seek(0)
        rec = json.loads(result.read_text())
        return Invocation(rec["code"], rec["wall_s"], rec["peak_rss_mb"], out.read(), err.read())


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None while that percentile is not above the median."""
    n = len(samples)
    k = n - 10
    if k <= n / 2:
        return None
    return 100.0 * k / n, sorted(samples)[k - 1]


def machine_record(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_commit": commit}


def reference_digest(workload: str, seed: int) -> tuple[str | None, str]:
    path = HERE / "reference.json"
    if not path.exists():
        return None, "unknown"
    ref = json.loads(path.read_text())
    return ref["digests"].get(workload, {}).get(str(seed)), ref["commit"]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def motr_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "motr.cli", *args]


def measure(wl, seed: int, seconds: float, root: Path, out_dir: Path) -> dict:
    """Untraced run of one workload: set-up samples, timed invocations, checks."""
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    try:
        cfg = wl.write_inputs(seed, work)
        env = child_env(root)
        validate_failures: list[str] = []
        validate_argv = motr_argv("validate", str(cfg))

        def validate() -> float:
            r = invoke(validate_argv, work, env)
            if r.code != 0 or r.stdout.strip() != "config ok":
                validate_failures.append(f"validate: exit {r.code}: {r.stderr.strip()[-200:]}")
            return r.wall_s

        validate()                      # fills the bytecode cache; not a sample
        # Set-up samples are taken between the timed invocations, so that
        # both spread over the whole run.
        setup, walls, rss, outcomes = [], [], [], []
        start = time.perf_counter()
        while True:
            setup.append(validate())
            r = invoke(motr_argv(wl.command, str(cfg)), work, env)
            walls.append(r.wall_s)
            rss.append(r.peak_rss_mb)
            outcome = check_invocation(wl, r.code, r.stderr.count(RESTART_WARNING), work)
            if r.code != 0:
                outcome.failures.append(r.stderr.strip()[-200:])
            outcomes.append(outcome)
            left = seconds - (time.perf_counter() - start)
            if left < statistics.median(walls) + statistics.median(setup):
                break
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(validate())
        probe = None
        if wl.name == "logreg_synth":
            probe_cfg = DEFECT_PROBE.write_inputs(DEFECT_PROBE_SEED, work)
            p = invoke(motr_argv("run", str(probe_cfg)), work, env)
            probe = {"exit_code": p.code, "message": (p.stderr or p.stdout).strip()[-300:]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {"samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
            "metrics": {"wall_s": statistics.median(walls),
                        "setup_s": statistics.median(setup),
                        "peak_rss_mb": statistics.median(rss)},
            "probe": probe, "attempted": 1 + len(setup) + len(walls),
            **summarise(outcomes, validate_failures)}


def summarise(outcomes: list, other_failures: list[str]) -> dict:
    """Failures, output digest and result metrics of a run's checked
    invocations. Every invocation of one seed must write the same bytes."""
    failures = other_failures + [f for o in outcomes for f in o.failures]
    failed = len(other_failures) + sum(not o.ok for o in outcomes)
    digests = sorted({o.digest for o in outcomes if o.ok})
    if len(digests) > 1:
        failures.append(f"{len(digests)} different outputs from one seed")
        failed += 1
    return {"failures": failures, "failed": failed,
            "digest": digests[0] if digests else None,
            "results": next((o.results for o in outcomes if o.ok), {})}


def trace(wl, seed: int, seconds: float, root: Path, out_dir: Path) -> dict:
    """In-process run of one workload: a warm-up call, then untraced and
    traced calls in turn until the time is up."""
    sys.path.insert(0, str(root / "src"))
    import motr
    import motr.cli

    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    argv = [wl.command, str(wl.write_inputs(seed, work))]
    untraced, traced, reps, outcomes = [], [], [], []

    def call(tracer: Tracer | None = None) -> float:
        main = motr.cli.main if tracer is None else tracer.wrap("cli.main", motr.cli.main)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - t0
        warnings = (tracer.counts["restart_warnings"] if tracer
                    else err.getvalue().count(RESTART_WARNING))
        outcomes.append(check_invocation(wl, code, warnings, work))
        return wall

    try:
        call()
        start = time.perf_counter()
        while True:
            untraced.append(call())
            tracer = Tracer(motr)
            traced.append(call(tracer))
            reps.append(layer_metrics(tracer))
            if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    stem = out_dir / f"{wl.name}-seed{seed}"
    write_spans(tracer, f"{stem}.spans.csv")
    table = layer_table(metrics, statistics.median(traced))
    Path(f"{stem}.layers.txt").write_text(table)
    return {"samples": {"untraced_s": untraced, "traced_s": traced},
            "metrics": metrics, "table": table, "probe": None,
            "attempted": len(outcomes), **summarise(outcomes, [])}


def layer_table(metrics: dict[str, float], traced_wall: float) -> str:
    lines = [f"{'layer':34} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        lines.append(f"{layer:34} {metrics[f'{layer}.calls']:9.0f} {self_s:10.4f} "
                     f"{100 * self_s / traced_wall:6.1f}%")
    return "\n".join(lines) + "\n"


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def report(wl, seed: int, trace_on: bool, res: dict) -> None:
    print(f"== {wl.name} (seed {seed}, {'traced' if trace_on else 'untraced'}): {wl.why}")
    for f in res["failures"]:
        print(f"  CHECK FAILED: {f}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  fail_frac     {fail_frac:.4f} ratio ({res['failed']} failed of "
          f"{res['attempted']} invocations)")
    if trace_on:
        print(res["table"], end="")
        print(f"  trace.overhead_s {res['metrics']['trace.overhead_s']:.4f} s "
              f"(median traced {statistics.median(res['samples']['traced_s']):.4f} s, "
              f"untraced {statistics.median(res['samples']['untraced_s']):.4f} s)")
    else:
        for name, unit in END_TO_END_UNITS.items():
            samples = res["samples"][name]
            t = tail(samples)
            tail_text = (f"p{t[0]:.0f} {t[1]:.4f} {unit}" if t else
                         "no percentile above the median has 10 samples beyond it")
            print(f"  {name:13} median {res['metrics'][name]:.4f} {unit}; {tail_text} "
                  f"(n={len(samples)})")
    r = res["results"]
    for name, unit in (("iters_to_eps", "count"), ("sp_to_eps", "scalar products"),
                       ("front_hv", "f1*f2 area"), ("front_near", "count")):
        value = r.get(name)
        if name == "sp_to_eps" and value == 0:
            value = None             # analytic oracles spend no scalar products
        print(f"  {name:13} " + ("n/a for this workload" if value is None else f"{value:g} {unit}"))
    ref, commit = reference_digest(wl.name, seed)
    match = ("no reference for this seed" if ref is None or res["digest"] is None
             else "yes" if ref == res["digest"] else "NO")
    print(f"  sha256 {res['digest']}; matches seed commit {commit[:12]}: {match}")
    if res["probe"]:
        print(f"  known-defect probe (synthetic, k_max=500, seed {DEFECT_PROBE_SEED}): "
              f"exit {res['probe']['exit_code']}: "
              f"{res['probe']['message']}")


def run_workload(wl, seed, seconds, trace_on, root, out_dir, machine) -> dict:
    res = (trace if trace_on else measure)(wl, seed, seconds, root, out_dir)
    report(wl, seed, trace_on, res)
    units = ({n: per_layer_unit(n) for n in res["metrics"]} if trace_on else END_TO_END_UNITS)
    line = {"correct": not res["failures"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in res["metrics"].items()}}
    record = {"machine": machine, "workload": wl.name, "why": wl.why, "seed": seed,
              "seconds": seconds, "trace": int(trace_on),
              **{k: v for k, v in res.items() if k != "table"}, "result": line}
    path = out_dir / f"{wl.name}-seed{seed}-trace{int(trace_on)}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"  results file: {path.relative_to(root)}")
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced in-process run (default 0; with --workload "
                             "all, both kinds of run when not given)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "motr" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/motr is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=out_dir) as scratch:
        broken = selftest.run(invoke, Path(scratch))
    if broken:
        print("perfbench: self-test of the checks failed: " + "; ".join(broken), file=sys.stderr)
        return 1
    machine = machine_record(root)
    print(f"machine: {machine['cpu']}, {machine['nproc']} CPUs, Python {machine['python']}, "
          f"numpy {machine['numpy']}, commit {machine['git_commit']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1] if len(names) > 1 else [0]
    lines = {}
    for name in names:
        for t in traces:
            line = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(t),
                                root, out_dir, machine)
            lines[f"{name}.trace{t}"] = line
            if len(names) > 1:
                print(json.dumps(line))
    if len(lines) > 1:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{k}.{m}": v for k, l in lines.items()
                            for m, v in l["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
