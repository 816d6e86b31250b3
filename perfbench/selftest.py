"""Self-test of the benchmark's checks: a dominated archive row, a truncated
run CSV and a non-zero exit must each make the relevant check fail, while
the same outputs without the defect pass."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from checks import RUN_HEADER, check_invocation, test1_objectives
from workloads import WORKLOADS, Workload

TINY_RUN = Workload("selftest_run", "run", "",
                    {"problem": "test1", "num_simulations": "2", "k_max": "3"})


def _archive(directory: Path, dominated: bool) -> None:
    t = np.linspace(0.2, 4.8, 60)
    X = np.stack([t, t], axis=1)
    if dominated:                     # worse than (t, t) in both objectives
        X = np.vstack([X, [X[10, 0] + 0.01, X[10, 1] - 0.01]])
    F = test1_objectives(X)
    lines = ["x_1,x_2,f_1,f_2"] + [",".join(repr(float(v)) for v in row)
                                   for row in np.hstack([X, F])]
    (directory / WORKLOADS["front_test1"].output_name).write_text("\n".join(lines) + "\n")


def _run_output(directory: Path, truncate: bool) -> None:
    rows = [f"{s},{k},{10.0 / (k + 1)!r},1.0,0,1.0,1" for s in range(2) for k in range(3)]
    text = RUN_HEADER + "\n" + "\n".join(rows) + "\n"
    if truncate:
        text = text[: len(text) - 9]
    out = directory / TINY_RUN.output_name
    out.write_text(text)
    Path(f"{out}.summary.json").write_text(json.dumps({"final_points": [[2.5, 2.5]] * 2}))


def run(invoke, directory: Path) -> list[str]:
    """Names of the checks that misbehave; empty when all work."""
    broken = []
    front = WORKLOADS["front_test1"]
    for dominated in (False, True):
        _archive(directory, dominated)
        if check_invocation(front, 0, 0, directory).ok == dominated:
            broken.append(f"dominance check (dominated row: {dominated})")
    for truncate in (False, True):
        _run_output(directory, truncate)
        if check_invocation(TINY_RUN, 0, 0, directory).ok == truncate:
            broken.append(f"run CSV check (truncated: {truncate})")
    _run_output(directory, truncate=False)      # only the exit code is wrong
    r = invoke([sys.executable, "-c", "import sys; sys.exit(3)"], directory, None)
    if r.code != 3 or check_invocation(TINY_RUN, r.code, 0, directory).ok:
        broken.append("exit-code check")
    return broken
