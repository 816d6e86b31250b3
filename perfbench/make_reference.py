#!/usr/bin/env python3
"""Record the deterministic outputs of every workload for a range of seeds.

    python3 perfbench/make_reference.py --seeds 0 32

Runs each workload once per seed (untimed), checks it, and writes
perfbench/reference.json: the sha256 of each output and its result
metrics, against which run.py reports whether a later commit still
produces byte-identical results. Run it from the repository root at the
commit the reference should describe.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import RESTART_WARNING, check_invocation
from run import HERE, child_env, invoke, motr_argv
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "STOP"), required=True)
    args = parser.parse_args()
    root = Path.cwd()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                            capture_output=True, check=True).stdout.strip()
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict[str, str]] = {name: {} for name in WORKLOADS}
    results: dict[str, dict[str, dict]] = {name: {} for name in WORKLOADS}
    bad = 0
    for seed in range(*args.seeds):
        for name, wl in WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=out_dir))
            try:
                cfg = wl.write_inputs(seed, work)
                r = invoke(motr_argv(wl.command, str(cfg)), work, child_env(root))
                outcome = check_invocation(wl, r.code, r.stderr.count(RESTART_WARNING), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"seed {seed} {name}: {outcome.results} {'; '.join(outcome.failures) or 'ok'}",
                  flush=True)
            if outcome.ok:
                digests[name][str(seed)] = outcome.digest
                results[name][str(seed)] = outcome.results
            else:
                bad += 1
    (HERE / "reference.json").write_text(json.dumps(
        {"commit": commit, "digests": digests, "results": results}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
