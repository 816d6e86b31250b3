#!/usr/bin/env python3
"""Compare the outputs two motr source trees write for the same configs.

    python3 tools/diff_outputs.py OLD_TREE NEW_TREE [--seeds 0-31] [--configs a,b,...]

Each tree's motr is imported from ``<tree>/src`` in a child process of its
own, with bytecode writing off, and writes into a temporary directory, so
both trees are only read. The configs are the benchmark workloads
(``perfbench/workloads.py``), the golden configs (``tests/test_golden.py``)
and the README fronts, all taken from NEW_TREE; every config runs at every
seed of ``--seeds`` (``--seed`` overrides a config's own).

One line per config: "byte-identical" over all seeds, or
  - how many seeds are byte-identical and the first differing
    (seed, simulation, k);
  - the success flips among the rows present on both sides;
  - the largest absolute and relative change of each numeric column;
  - the median final omega_true on each side (``run`` configs);
  - the median archive size and 2-D hypervolume on each side (``front``
    configs; reference point ``--reference``).
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True      # importing from the trees writes nothing there

README = {"problem": "test1", "noise_sigma": "0.1", "x0": "9,9", "k_max": "500",
          "num_simulations": "10"}
README_FRONTS = {
    "readme_front": ("front", dict(README, front_rounds="5")),
    "readme_front_s05_r8": ("front", dict(README, noise_sigma="0.5", front_rounds="8")),
    "readme_front_s05_bounded_r8": ("front", dict(README, noise_sigma="0.5", front_rounds="8",
                                                  noise_bounded="true",
                                                  noise_shared_gradient="true",
                                                  noise_cap_f="0.6", noise_cap_g="0.6")),
    "readme_front_refine3": ("front", dict(README, noise_sigma="0.5", front_rounds="8",
                                           refine_steps="3")),
}

# Run in each child: the jobs (command, config, seed, output) come on stdin.
_CHILD = """
import contextlib, json, sys
from motr.cli import main
for command, cfg, seed, out in json.load(sys.stdin):
    with open(out + ".stdout", "w") as fh, contextlib.redirect_stdout(fh):
        code = main([command, cfg, "--seed", str(seed), "--output", out])
    with open(out + ".code", "w") as fh:
        fh.write(str(code))
"""


def _module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def configs(tree: Path) -> dict:
    """name -> (command, keys, writer of the dataset file or None)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    workloads = _module(tree / "perfbench" / "workloads.py", "workloads")
    golden = _module(tree / "tests" / "test_golden.py", "test_golden")
    found = {}
    for name, wl in workloads.WORKLOADS.items():
        write = (lambda path, seed: workloads.write_dataset(path, seed)) \
            if name == "logreg_csv" else None
        found[name] = (wl.command, dict(wl.keys), write)
    for name, (command, keys) in golden.CONFIGS.items():
        write = golden.DATASETS.get(name)
        found[f"golden_{name}"] = (command, dict(keys),
                                   None if write is None else lambda path, seed, w=write: w(path))
    for name, (command, keys) in README_FRONTS.items():
        found[name] = (command, keys, None)
    return found


def run_tree(tree: Path, jobs: list, env: dict) -> subprocess.Popen:
    child_env = dict(env, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", _CHILD], stdin=subprocess.PIPE,
                            env=child_env, text=True)
    proc.stdin.write(json.dumps(jobs))
    proc.stdin.close()
    return proc


def _text(directory: Path, name: str) -> str | None:
    """A written file's text, with its own directory left out (standard
    output names the output path); None if the file is missing."""
    path = directory / name
    return path.read_text().replace(str(directory), "") if path.exists() else None


def _rows(path: Path) -> list[dict]:
    """The metric rows of a run output, CSV or JSON, values as floats or None."""
    text = path.read_text()
    if text.startswith("["):
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(text.splitlines()))
    return [{k: (None if v in ("", None) else float(v)) for k, v in row.items()} for row in rows]


def _archive(path: Path, hypervolume) -> tuple[int, float]:
    """The member count of an archive CSV and ``hypervolume`` of its (f_1, f_2)."""
    rows = list(csv.DictReader(path.read_text().splitlines()))
    F = np.array([(float(r["f_1"]), float(r["f_2"])) for r in rows]).reshape(-1, 2)
    return len(rows), hypervolume(F)


def compare(name: str, command: str, seeds: list[int], old: Path, new: Path,
            hypervolume) -> str:
    same, first, flips, common = 0, None, 0, 0
    change: dict[str, list[float]] = {}
    finals = ([], [])
    fronts = ([], [])
    for seed in seeds:
        a, b = old / f"{name}-{seed}", new / f"{name}-{seed}"
        files = sorted({p.name for d in (a, b) for p in d.iterdir()})
        if all(_text(a, f) == _text(b, f) for f in files):
            same += 1
        codes = [(d / "out.code").read_text() for d in (a, b)]
        if codes != ["0", "0"]:
            return f"{name}: exit codes {codes[0]} -> {codes[1]} at seed {seed}"
        if command == "front":
            for side, d in zip(fronts, (a, b)):
                side.append(_archive(d / "out", hypervolume))
            continue
        ra, rb = _rows(a / "out"), _rows(b / "out")
        for side, rows in zip(finals, (ra, rb)):
            last = {}
            for row in rows:
                last[row["simulation"]] = row["omega_true"]
            side.extend(v for v in last.values() if v is not None)
        if first is None:
            for i in range(max(len(ra), len(rb))):
                if i >= len(ra) or i >= len(rb) or ra[i] != rb[i]:
                    row = (ra if i < len(ra) else rb)[i]
                    first = (seed, int(row["simulation"]), int(row["k"]))
                    break
        keyed = {(r["simulation"], r["k"]): r for r in rb}
        for row in ra:
            other = keyed.get((row["simulation"], row["k"]))
            if other is None:
                continue
            common += 1
            flips += row["success"] != other["success"]
            for col in ("omega_true", "phi_true", "scalar_products", "delta"):
                x, y = row[col], other[col]
                if x is None or y is None:
                    continue
                d = abs(y - x)
                best = change.setdefault(col, [0.0, 0.0])
                best[0] = max(best[0], d)
                best[1] = max(best[1], d / abs(x) if x else (0.0 if d == 0 else float("inf")))
    if same == len(seeds):
        return f"{name}: byte-identical over {len(seeds)} seeds"
    parts = [f"{name}: {same}/{len(seeds)} seeds byte-identical"]
    if command == "front":
        for label, i, fmt in (("archive size", 0, "{:.0f}"), ("hypervolume", 1, "{:.2f}")):
            medians = [statistics.median(v[i] for v in side) for side in fronts]
            parts.append(f"median {label} " + " -> ".join(fmt.format(m) for m in medians))
        return "; ".join(parts)
    if first is not None:
        parts.append("first difference at seed {}, simulation {}, k {}".format(*first))
    parts.append(f"success flips {flips} of {common} common rows")
    parts += [f"max |d {col}| {d:.3g} (rel {r:.3g})" for col, (d, r) in change.items()]
    if all(finals):
        parts.append("median final omega_true {:.4g} -> {:.4g}".format(
            *(statistics.median(side) for side in finals)))
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--configs", default=None, help="comma-separated names (default all)")
    parser.add_argument("--reference", default="60,60", help="hypervolume reference point")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    ref = tuple(float(v) for v in args.reference.split(","))
    table = configs(args.new.resolve())
    checks = _module(args.new.resolve() / "perfbench" / "checks.py", "checks")
    names = args.configs.split(",") if args.configs else list(table)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs = {"old": [], "new": []}
        for name in names:
            command, keys, write = table[name]
            for seed in seeds:
                inputs = tmp / "inputs" / f"{name}-{seed}"
                inputs.mkdir(parents=True)
                keys = dict(keys)
                if write is not None:
                    write(inputs / "data", seed)
                    keys["dataset_path"] = str(inputs / "data")
                cfg = inputs / "cfg"
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
                for side in jobs:
                    out = tmp / side / f"{name}-{seed}"
                    out.mkdir(parents=True)
                    jobs[side].append((command, str(cfg), seed, str(out / "out")))
        procs = [run_tree(tree.resolve(), jobs[side], env)
                 for side, tree in (("old", args.old), ("new", args.new))]
        if any(proc.wait() for proc in procs):
            print("a tree's child process failed", file=sys.stderr)
            return 1
        for name in names:
            print(compare(name, table[name][0], seeds, tmp / "old", tmp / "new",
                          lambda F: checks.hypervolume_2d(F, ref)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
