"""Command-line front end.

Subcommands: ``synthesize`` (full pipeline), ``compare`` (adds the exact
optimum and curve data), ``eval`` (exact value of a saved policy table),
``build`` (emit product/SSP model files only). Each ``RunConfig`` field
is a flag; flags override the JSON configuration file, which overrides
defaults. Exit codes: 0 converged (or trivially solved), 2
iteration-capped, 3 zero satisfaction probability, 1 input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import types
import typing

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


class _Parser(argparse.ArgumentParser):
    """Ends a usage error in the one ``error:`` line and exit 1 (argparse's
    exit 2 means iteration-capped here); subparsers inherit it."""

    def error(self, message: str):
        raise ModelError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per ``RunConfig`` field, of its type."""
    p.add_argument("--config", help="JSON configuration file")
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(RunConfig):
        name, hint = f.name.replace("_", "-"), hints[f.name]
        if hint is bool:  # a switch away from the default
            p.add_argument(f"--no-{name}" if f.default else f"--{name}", dest=f.name,
                           action="store_const", const=not f.default, default=None)
            continue
        if isinstance(hint, types.UnionType):  # X | None
            hint = typing.get_args(hint)[0]
        elems = typing.get_args(hint) if typing.get_origin(hint) is tuple else ()
        p.add_argument(f"--{name}", dest=f.name, type=elems[0] if elems else hint,
                       nargs=len(elems) or None)


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return dataclasses.replace(cfg, **{key: tuple(value) if isinstance(value, list) else value
                                       for key, value in given.items() if value is not None})


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
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

    try:
        args = parser.parse_args(argv)
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
