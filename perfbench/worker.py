"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

The spec names the workload, seed, output directory, and mode: ``run``
makes the workload's public call (``compare`` or ``synthesize``) and then
checks its outputs; ``setup`` only calls ``pipeline.load_task``. Untraced,
the only instrumentation is one boundary timer on ``pipeline.load_task``;
traced, the span recorder wraps every layer boundary. The result, with the
wall time, set-up time, peak resident memory and any check failures, goes
to ``result.json`` in the output directory. A fresh process per
repetition keeps each peak-memory reading its own.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
from recorder import Recorder, layer_targets
from workloads import WORKLOADS, run_config


class LoadTimer:
    """Boundary timer on ``pipeline.load_task`` that keeps each call's
    duration and returned task context."""

    def __init__(self, pipeline):
        self.seconds: list[float] = []
        self.contexts: list[object] = []
        inner = pipeline.load_task

        def load_task(cfg):
            start = time.perf_counter()
            ctx = inner(cfg)
            self.seconds.append(time.perf_counter() - start)
            self.contexts.append(ctx)
            return ctx

        pipeline.load_task = load_task


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_checks(workload, cfg, report, ctx, inputs) -> tuple[list[str], str]:
    """All checks on one repetition's outputs; returns (failures, trace digest)."""
    outdir = Path(cfg.outdir)
    digest = file_digest(outdir / "trace.csv")
    failures = []
    if WORKLOADS[workload]["call"] == "compare":
        values = checks.read_values(outdir / "values.csv")
        failures += checks.check_exact(ctx.product_mdp.base, values, ctx.goal, ctx.bad,
                                       report.final_probability, report.optimal_probability)
    if workload == "desk-curve":
        failures += checks.check_desk_optimum(report.optimal_probability)
    if workload == "desk-lazy":
        from tlcontrol.synthesis import mrp_to_ssp

        ssp = mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)
        failures += checks.check_lazy(dict(report.lines)["pairs computed"],
                                      checks.needable_pairs(ssp, ctx.product),
                                      report.trace.iterations)
    if workload == "lattice-exact":
        failures += checks.check_instance(ctx, inputs["k"])
    return failures, digest


def layer_counts(report, ctx, exact_calls: int) -> dict[str, float]:
    """Sizes and counters of one traced repetition."""
    lines = dict(report.lines)
    trace = report.trace
    enabled = lines["model enabled pairs"]
    pairs = lines.get("pairs computed", 0)
    return {
        "gridenv.model_states": ctx.base_nts.n_states,
        "gridenv.enabled_pairs": enabled,
        "synthesis.product_states": ctx.product.unpruned_states,
        "synthesis.pruned_states": ctx.product.base.n_states,
        "synthesis.goal_states": len(ctx.goal),
        "synthesis.zero_states": len(ctx.bad),
        "synthesis.pairs_computed": pairs,
        "synthesis.lazy_ratio": pairs / enabled,
        "exact.max_reach.unknowns": checks.unknown_count(ctx) if exact_calls else 0,
        "actor_critic.iterations": trace.iterations,
        "actor_critic.episodes": trace.episodes[-1] if trace.episodes else 0,
        "actor_critic.stale_solves": len(trace.stale_solves),
        "actor_critic.converged": int(trace.converged),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from tlcontrol import actor_critic, exact, gridenv, lookahead, pipeline, synthesis

    workload, mode = spec["workload"], spec["mode"]
    outdir = Path(spec["outdir"])
    result: dict = {"failures": []}
    recorder = None
    if spec["trace"]:
        recorder = Recorder(spec["run_id"])
        recorder.install(layer_targets(pipeline, gridenv, synthesis,
                                       lookahead, actor_critic, exact))
    loads = LoadTimer(pipeline)
    try:
        start = time.perf_counter()
        cfg = run_config(pipeline, workload, spec["seed"], str(outdir), spec["inputs"])
        if mode == "setup":
            pipeline.load_task(cfg)
            report = None
        else:
            report = getattr(pipeline, WORKLOADS[workload]["call"])(cfg)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["setup_s"] = loads.seconds[0]
        if recorder is not None:
            recorder.uninstall()
            recorder.write(outdir / "spans.csv")
        if report is not None:
            failures, digest = output_checks(workload, cfg, report,
                                             loads.contexts[0], spec["inputs"])
            result["failures"] += failures
            result["trace_digest"] = digest
            if report.final_probability is not None and report.optimal_probability:
                result["final_ratio"] = report.final_probability / report.optimal_probability
            if recorder is not None:
                exact_calls = recorder.names.count("exact.max_reach")
                result["counts"] = layer_counts(report, loads.contexts[0], exact_calls)
                result["counts"]["pipeline.final_ratio"] = result.get("final_ratio", 0.0)
    except Exception:
        result["failures"].append(traceback.format_exc())
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
