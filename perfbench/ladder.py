#!/usr/bin/env python3
"""Scaling ladder (report only, never a gate): one traced ``compare`` on
the road lattice at each size k, printed as one row of per-layer self
times and sizes per k.

    python3 perfbench/ladder.py --seed 0 --ks 4,8,12,16,20

Run from the repository root. Each size runs the lattice-exact workload's
configuration in a fresh worker process, exactly as a traced benchmark
repetition does; output checks still run and failures are printed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, layer_metrics, load_layers, missing_inputs, run_worker
from workloads import make_inputs

# Each size gets at most this long.
SIZE_TIMEOUT_S = 600

COLUMNS = (
    ("states", "gridenv.model_states", "d"),
    ("pruned", "synthesis.pruned_states", "d"),
    ("unknowns", "exact.max_reach.unknowns", "d"),
    ("nts", "gridenv.build_nts.s", ".2f"),
    ("mdp", "gridenv.build_mdp.s", ".2f"),
    ("product", "synthesis.build_product.s", ".2f"),
    ("prune", "synthesis.prune_unreachable.s", ".2f"),
    ("amecs", "synthesis.amecs.s", ".2f"),
    ("lift", "synthesis.with_probabilities.s", ".2f"),
    ("max_reach", "exact.max_reach.s", ".2f"),
    ("eval", "exact.eval_policy_reach.s", ".2f"),
    ("ac_run", "actor_critic.run.s", ".2f"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ks", default="4,8,12,16,20")
    args = parser.parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"ladder: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ladder-", dir=out))
    header = ["k"] + [name for name, _, _ in COLUMNS] + ["wall_s"]
    print(" ".join(f"{h:>9}" for h in header))
    try:
        for k in (int(x) for x in args.ks.split(",")):
            inputs = make_inputs("lattice-exact", workdir, k=k, map_seed=args.seed)
            rep_dir = workdir / f"k{k}"
            rep = run_worker({"workload": "lattice-exact", "seed": args.seed,
                              "inputs": inputs, "mode": "run", "trace": True,
                              "run_id": k}, rep_dir,
                             time.perf_counter() + SIZE_TIMEOUT_S)
            metrics = layer_metrics(load_layers(rep_dir), rep)
            cells = [f"{k:>9d}"]
            for _name, metric, fmt in COLUMNS:
                value = metrics.get(metric, {}).get("value", 0)
                cells.append(f"{value:>9{fmt}}")
            cells.append(f"{rep.get('wall_s', 0.0):>9.2f}")
            print(" ".join(cells), flush=True)
            for failure in rep["failures"]:
                print(f"  FAILED at k={k}: {failure}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
