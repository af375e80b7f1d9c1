#!/usr/bin/env python3
"""Benchmark driver: runs one workload closed-loop and prints its metrics.

    python3 perfbench/run.py --workload desk-curve --seed 1 --seconds 35 --trace 0

Run from the repository root. Each repetition is a fresh worker process
(``perfbench/worker.py``) that makes the workload's public call, so peak
memory is measured per repetition; the next repetition starts when the
previous one ends, and repetitions continue while another one fits in
``--seconds`` (at least one always runs). Every repetition uses the same
seed, so their ``trace.csv`` files must be byte-identical.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``wall_s``, ``setup_s`` (inside ``pipeline.load_task``, with
extra set-up-only repetitions until there are at least three samples) and
``peak_rss_mb``. ``--trace 1`` runs a traced repetition between two
untraced ones and reports the per-layer metrics of the traced one;
``trace.overhead_s`` is its wall time minus the mean of the other two (the
first repetition of a run tends to be the fastest, so one untraced
repetition before the traced one would overstate the overhead).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A repetition that
raises or fails an output check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_same_trace
from recorder import read_spans, summarize
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# A run must end within 180 s: workers that would start or run past this
# many seconds after the run began are skipped or killed, and count as failed.
DEADLINE_S = 170
# Held equal on both sides of any comparison.
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer metric -> (span name, field) for timings and call counts.
SPAN_METRICS = {
    "gridenv.build_nts.s": ("gridenv.build_nts", "self_s"),
    "gridenv.build_nts.calls": ("gridenv.build_nts", "calls"),
    "gridenv.build_mdp.s": ("gridenv.build_mdp", "self_s"),
    "models.parse_dra.s": ("models.parse_dra", "self_s"),
    "synthesis.build_product.s": ("synthesis.build_product", "self_s"),
    "synthesis.prune_unreachable.s": ("synthesis.prune_unreachable", "self_s"),
    "synthesis.amecs.s": ("synthesis.amecs", "self_s"),
    "synthesis.goal_and_bad_sets.s": ("synthesis.goal_and_bad_sets", "self_s"),
    "synthesis.with_probabilities.s": ("synthesis.with_probabilities", "self_s"),
    "synthesis.mrp_to_ssp.s": ("synthesis.mrp_to_ssp", "self_s"),
    "synthesis.source.calls": ("synthesis.source", "calls"),
    "exact.max_reach.s": ("exact.max_reach", "self_s"),
    "exact.max_reach.calls": ("exact.max_reach", "calls"),
    "exact.eval_policy_reach.s": ("exact.eval_policy_reach", "self_s"),
    "exact.eval_policy_reach.calls": ("exact.eval_policy_reach", "calls"),
    "pipeline.rsp_product_policy.s": ("pipeline.rsp_product_policy", "self_s"),
    "pipeline.rsp_product_policy.calls": ("pipeline.rsp_product_policy", "calls"),
    "pipeline.load_task.s": ("pipeline.load_task", "self_s"),
    "lookahead.init.s": ("lookahead.init", "self_s"),
    "lookahead.sequence_table.calls": ("lookahead.sequence_table", "calls"),
    "lookahead.sequence_table.s": ("lookahead.sequence_table", "self_s"),
    "lookahead.action_distribution.calls": ("lookahead.action_distribution", "calls"),
    "lookahead.action_distribution.s": ("lookahead.action_distribution", "self_s"),
    "lookahead.sample_action.s": ("lookahead.sample_action", "self_s"),
    "lookahead.log_policy_gradient.calls": ("lookahead.log_policy_gradient", "calls"),
    "lookahead.log_policy_gradient.s": ("lookahead.log_policy_gradient", "self_s"),
    "actor_critic.run.s": ("actor_critic.run", "self_s"),
    "actor_critic.critic_update.s": ("actor_critic.critic_update", "self_s"),
    "actor_critic.actor_update.s": ("actor_critic.actor_update", "self_s"),
}
UNIT_OF_COUNT = {"synthesis.lazy_ratio": "1", "pipeline.final_ratio": "1",
                 "actor_critic.converged": "1"}

# What the traced run should show each workload stressing (reported, not gated).
STRESS = {
    "desk-curve": "rsp_product_policy + eval_policy_reach >= 0.5 of wall_s",
    "desk-lazy": "actor_critic.run >= 0.8 of wall_s, no exact call",
    "lattice-exact": "load_task + max_reach >= 0.9 of wall_s, "
                     "max_reach.calls == 2, build_nts.calls == 2",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "tlcontrol" / "__init__.py", ROOT / "tasks" / "desk.json",
              ROOT / "tasks" / "desk.map", ROOT / "tasks" / "mission.dra"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec: dict, outdir: Path, deadline: float) -> dict:
    """Run one repetition to completion; a crash or timeout is a failure."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return {"failures": ["no time left before the run's deadline"]}
    outdir.mkdir(parents=True)
    spec = dict(spec, outdir=str(outdir), root=str(ROOT))
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(outdir / "worker.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=worker_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failures": [f"worker killed at the run's {DEADLINE_S} s deadline"]}
    result_path = outdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (outdir / "worker.log").read_text()[-2000:]
        return {"failures": [f"worker exited with {proc.returncode}: {tail}"]}
    return json.loads(result_path.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_reps(args, inputs, workdir, deadline) -> list[dict]:
    """With --trace 1, untraced, traced and untraced repetitions; otherwise
    untraced repetitions while another one fits in --seconds."""
    base = {"workload": args.workload, "seed": args.seed, "inputs": inputs, "mode": "run"}
    reps: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = bool(args.trace) and len(reps) == 1
        reps.append(run_worker(dict(base, trace=traced, run_id=len(reps)),
                               workdir / f"rep{len(reps)}", deadline))
        durations.append(time.perf_counter() - began)
        if args.trace:
            if len(reps) == 3:
                return reps
        elif time.perf_counter() - start + median(durations) > args.seconds:
            return reps


def setup_reps(args, inputs, workdir, have: int, deadline) -> list[dict]:
    base = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
            "mode": "setup", "trace": False}
    return [run_worker(dict(base, run_id=i), workdir / f"setup{i}", deadline)
            for i in range(max(0, SETUP_SAMPLES - have))]


def describe(values, unit) -> str:
    lo, hi = quartiles(values)
    return f"median {median(values):.6g} {unit} (n={len(values)}, quartiles {lo:.6g}..{hi:.6g})"


def end_to_end_metrics(reps, setups) -> dict:
    ok = [r for r in reps if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok + setups if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name}: {describe(samples[name], unit)}")
        metrics[name] = {"value": median(samples[name]), "unit": unit}
    return metrics


def layer_metrics(layers: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced repetition from its span summary and
    the counters the worker read off the task and the run's trace."""
    metrics = {}
    for name, (span, field) in SPAN_METRICS.items():
        value = layers.get(span, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": "count" if field == "calls" else "s"}
    counts = traced.get("counts", {})
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": UNIT_OF_COUNT.get(name, "count")}
    run_s = layers.get("actor_critic.run", {}).get("inclusive_s", 0.0)
    iterations = counts.get("actor_critic.iterations", 0)
    metrics["actor_critic.iters_per_s"] = {
        "value": iterations / run_s if run_s else 0.0, "unit": "1/s"}
    return metrics


def load_layers(rep_dir: Path) -> dict:
    spans_path = rep_dir / "spans.csv"
    return summarize(read_spans(spans_path)) if spans_path.is_file() else {}


def per_layer_metrics(workload, reps, workdir) -> dict:
    before, traced, after = reps
    layers = load_layers(workdir / "rep1")
    metrics = layer_metrics(layers, traced)
    wall = traced.get("wall_s", 0.0)
    untraced = (before.get("wall_s", 0.0) + after.get("wall_s", 0.0)) / 2
    metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}

    def share(*spans):
        """Inclusive time of ``spans`` as a share of the traced wall_s."""
        total = sum(layers.get(s, {}).get("inclusive_s", 0.0) for s in spans)
        return total / wall if wall else 0.0

    def calls(span):
        return layers.get(span, {}).get("calls", 0)

    if workload == "desk-curve":
        seen = f"share {share('pipeline.rsp_product_policy', 'exact.eval_policy_reach'):.3f}"
    elif workload == "desk-lazy":
        seen = (f"share {share('actor_critic.run'):.3f}, exact calls "
                f"{calls('exact.max_reach') + calls('exact.eval_policy_reach')}")
    else:
        seen = (f"share {share('pipeline.load_task', 'exact.max_reach'):.3f}, "
                f"max_reach.calls {calls('exact.max_reach')}, "
                f"build_nts.calls {calls('gridenv.build_nts')}")
    print(f"stress ({STRESS[workload]}): {seen}")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS}")
    deadline = time.perf_counter() + DEADLINE_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=out))
    try:
        inputs = make_inputs(args.workload, workdir)
        reps = run_reps(args, inputs, workdir, deadline)
        setups = [] if args.trace else setup_reps(
            args, inputs, workdir, sum("setup_s" in r for r in reps), deadline)
        runs = reps + setups
        digests = [r["trace_digest"] for r in reps if "trace_digest" in r]
        for rep in reps:
            if "trace_digest" in rep:
                rep["failures"] += check_same_trace(digests[0], rep["trace_digest"])
        for failure in (f for r in runs for f in r["failures"]):
            print(f"FAILED: {failure}")
        failed = sum(1 for r in runs if r["failures"])
        print(f"fail_rate: {failed}/{len(runs)} = {failed / len(runs):.3f}")
        finals = [r["final_ratio"] for r in reps if "final_ratio" in r]
        if finals:
            print(f"final_ratio: {describe(finals, '1')}")
        if args.trace:
            metrics = per_layer_metrics(args.workload, reps, workdir)
        else:
            metrics = end_to_end_metrics(reps, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
