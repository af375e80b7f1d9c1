"""Command-line front end.

Subcommands: ``synthesize`` (full pipeline), ``compare`` (adds the exact
optimum and curve data), ``eval`` (exact value of a saved policy table),
``build`` (emit product/SSP model files only). Flags override the JSON
configuration file, which overrides defaults. Exit codes: 0 converged (or
trivially solved), 2 iteration-capped, 3 zero satisfaction probability,
1 input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .models import ModelError, ParseError
from .gridenv import MapError
from .pipeline import (
    RunConfig,
    compare,
    evaluate_policy_file,
    synthesize,
    synthesize_seeds,
    write_models,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--dra", help="Rabin automaton file")
    p.add_argument("--map", dest="map", help="environment map file")
    p.add_argument("--model", help="MDP model file")
    p.add_argument("--task-name", dest="task_name")
    p.add_argument("--outdir")
    p.add_argument("--horizon", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--theta0", type=float, nargs=2, metavar=("T1", "T2"))
    p.add_argument("--progress-penalty", dest="progress_penalty", type=float)
    p.add_argument("--sequence-cap", dest="sequence_cap", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--gamma-exponent", dest="gamma_exponent", type=float)
    p.add_argument("--beta-scale", dest="beta_scale", type=float)
    p.add_argument("--beta-exponent", dest="beta_exponent", type=float)
    p.add_argument("--clip", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--min-iters", dest="min_iters", type=int)
    p.add_argument("--gate-iters", dest="gate_iters", type=int)
    p.add_argument("--gate-sigma", dest="gate_sigma", type=float)
    p.add_argument("--reset-trace-on-restart", dest="reset_trace_on_restart",
                   action="store_true", default=None)
    p.add_argument("--solve-with-updated-stats", dest="solve_with_updated_stats",
                   action="store_true", default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--no-exact-reference", dest="exact_reference",
                   action="store_false", default=None)
    p.add_argument("--label-rule", dest="label_rule", choices=["next", "current"])
    p.add_argument("--eta", type=float)
    p.add_argument("--confusion", choices=["uniform", "undershoot"])
    p.add_argument("--mc-runs", dest="mc_runs", type=int)
    p.add_argument("--noise-seed", dest="noise_seed", type=int)


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = tuple(value) if f.name == "theta0" else value
    return dataclasses.replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tlcontrol",
        description="Synthesize control policies maximizing the probability "
                    "of satisfying an automaton-specified task on an MDP.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="run the full pipeline")
    _add_common(p_syn)
    p_syn.add_argument("--seeds", help="comma-separated seeds for a multi-run")

    p_cmp = sub.add_parser("compare", help="actor-critic vs. the exact optimum")
    _add_common(p_cmp)

    p_eval = sub.add_parser("eval", help="exact value of a saved policy table")
    _add_common(p_eval)
    p_eval.add_argument("policy", help="policy table (.tsv) to evaluate")

    p_build = sub.add_parser("build", help="emit product and SSP model files")
    _add_common(p_build)

    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "synthesize":
            if args.seeds:
                try:
                    seeds = [int(s) for s in args.seeds.split(",")]
                except ValueError:
                    raise ModelError(f"--seeds needs comma-separated integers, "
                                     f"got {args.seeds!r}") from None
                reports = synthesize_seeds(cfg, seeds)
                for seed, report in zip(seeds, reports):
                    print(f"seed {seed}: {report.status} "
                          f"(final probability {report.final_probability})")
                return max(r.exit_code for r in reports)
            report = synthesize(cfg)
            print(report.summary_text(), end="")
            return report.exit_code
        if args.command == "compare":
            report = compare(cfg)
            print(report.summary_text(), end="")
            return report.exit_code
        if args.command == "eval":
            value = evaluate_policy_file(cfg, args.policy)
            print(f"exact reachability probability: {value!r}")
            return 0
        if args.command == "build":
            for path in write_models(cfg):
                print(f"wrote {path}")
            return 0
    except (ModelError, ParseError, MapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
