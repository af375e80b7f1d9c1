#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of runs, one
``<run>/<file> <sha256>`` line each, so that two checkouts compare with a
single ``diff``:

    python3 tools/output_digests.py > after.txt
    (cd ../parent && python3 tools/output_digests.py) > before.txt
    diff before.txt after.txt

The set of runs:

- desk ``compare``, seeds 1-5 (values.csv, trace.csv, curve.csv,
  policy.tsv, summary.txt);
- desk-lazy: desk ``synthesize`` with ``exact_reference`` false,
  ``eval_every`` 0 and 20,000 iterations, seeds 1-3, and once more with
  Monte-Carlo noise rows (``mc_runs`` 200, seed 1);
- lattice-exact: ``compare`` on the k=20 road lattice (map seed 0),
  ``eval_every`` 0, 2,000 iterations, seed 1;
- ``build`` (product.model, ssp.model) on desk and on the k=20 lattice,
  which pins the product's state numbering and names at scale;
- ``eval`` of the desk ``compare`` seed 1 run's policy.tsv, its value
  written as its ``repr`` to value.txt;
- model-file ``compare``: desk's probabilistic model serialized and run as
  an MDP model file, seed 1, 2,000 iterations.

It imports the package from the ``src`` directory and the lattice
generator from ``perfbench/lattice.py`` of the checkout it lives in, and
writes the outputs to a temporary directory. The actor-critic's step is
Python float arithmetic and its random draws come from ``actor_critic.
Pcg64``, numpy's ``default_rng`` stream drawn in Python, so neither a BLAS
kernel nor numpy's generator code touches it; numpy's ``exp`` kernel
decides the last bits of the policy's weights, and numpy's elementwise
kernels and the dense LU of each elimination plan's core those of the
values. Only the ``mc_runs`` run still draws from ``numpy.random``, for its
Monte-Carlo rows. A core can exceed ``exact.CORE_LIMIT`` (a rest above
``exact.DENSE_REST`` that has filled in stops the elimination early), and
OpenBLAS threads the LU of a large core, so the tool pins
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy loads. Digests therefore compare only between runs on one
machine and one numpy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # read once, when numpy loads

from tlcontrol.models import serialize_model  # noqa: E402
from tlcontrol.pipeline import (  # noqa: E402
    RunConfig,
    compare,
    evaluate_policy_file,
    load_task,
    synthesize,
    write_models,
)

DESK_SEEDS = (1, 2, 3, 4, 5)
LAZY_SEEDS = (1, 2, 3)
LAZY_ITERS = 20_000
LAZY_MC_RUNS, LAZY_MC_SEED = 200, 1
LATTICE_K, LATTICE_MAP_SEED, LATTICE_ITERS, LATTICE_SEED = 20, 0, 2_000, 1
EVAL_SEED = 1
MODEL_FILE_ITERS, MODEL_FILE_SEED = 2_000, 1


def lattice_map(k: int, map_seed: int) -> str:
    spec = importlib.util.spec_from_file_location("lattice", ROOT / "perfbench" / "lattice.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lattice_map(k, map_seed)


def runs(work: Path):
    """(run name, call, config) for every run of the set."""
    desk = RunConfig.from_file(ROOT / "tasks" / "desk.json")
    desk = dataclasses.replace(desk, map=str(ROOT / desk.map), dra=str(ROOT / desk.dra))
    for seed in DESK_SEEDS:
        name = f"desk-compare-s{seed}"
        yield name, compare, dataclasses.replace(desk, seed=seed, outdir=str(work / name))
    for seed in LAZY_SEEDS:
        name = f"desk-lazy-s{seed}"
        yield name, synthesize, dataclasses.replace(
            desk, seed=seed, outdir=str(work / name), exact_reference=False,
            eval_every=0, max_iters=LAZY_ITERS)
    name = f"desk-lazy-mc{LAZY_MC_RUNS}-s{LAZY_MC_SEED}"
    yield name, synthesize, dataclasses.replace(
        desk, seed=LAZY_MC_SEED, outdir=str(work / name), exact_reference=False,
        eval_every=0, max_iters=LAZY_ITERS, mc_runs=LAZY_MC_RUNS)
    lattice = work / f"lattice-k{LATTICE_K}-m{LATTICE_MAP_SEED}.map"
    lattice.write_text(lattice_map(LATTICE_K, LATTICE_MAP_SEED))
    name = f"lattice-exact-s{LATTICE_SEED}"
    yield name, compare, dataclasses.replace(
        desk, seed=LATTICE_SEED, outdir=str(work / name), task_name=f"lattice-k{LATTICE_K}",
        map=str(lattice), eval_every=0, max_iters=LATTICE_ITERS)
    yield "desk-build", write_models, dataclasses.replace(desk, outdir=str(work / "desk-build"))
    name = f"lattice-k{LATTICE_K}-build"
    yield name, write_models, dataclasses.replace(desk, outdir=str(work / name), map=str(lattice))
    policy = work / f"desk-compare-s{EVAL_SEED}" / "policy.tsv"

    def evaluate(cfg: RunConfig) -> None:
        Path(cfg.outdir).mkdir(parents=True)
        value = evaluate_policy_file(cfg, policy)
        (Path(cfg.outdir) / "value.txt").write_text(f"{value!r}\n")

    name = f"desk-eval-s{EVAL_SEED}"
    yield name, evaluate, dataclasses.replace(desk, outdir=str(work / name))
    model = work / "desk.model"
    model.write_text(serialize_model(load_task(desk).base_mdp))
    name = f"desk-model-compare-s{MODEL_FILE_SEED}"
    yield name, compare, dataclasses.replace(
        desk, seed=MODEL_FILE_SEED, outdir=str(work / name), map=None, model=str(model),
        max_iters=MODEL_FILE_ITERS)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, call, cfg in runs(work):
            call(cfg)
            for path in sorted((work / name).iterdir()):
                print(f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
