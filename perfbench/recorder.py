"""Span recorder for the traced benchmark run.

The recorder replaces public functions and methods of the package, by
name, at the attributes the pipeline looks up at call time, so repeated
calls (a model rebuilt inside another build, an exact solve run twice)
show up as separate spans. Spans stay in memory as parallel lists and are
written out once the run ends; self times and call counts are derived from
the written spans.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

SPAN_HEADER = ("run", "name", "start", "end", "parent")


def layer_targets(pipeline, gridenv, synthesis, lookahead, actor_critic, exact):
    """(owner, attribute, span name) for every boundary the traced run wraps.

    Functions the pipeline imports by name are wrapped in the pipeline's
    namespace; module-qualified calls (``gridenv.build_nts``,
    ``exact.max_reach``) and methods are wrapped where they are defined.
    """
    return [
        (pipeline, "load_task", "pipeline.load_task"),
        (pipeline, "synthesize", "pipeline.synthesize"),
        (pipeline, "rsp_product_policy", "pipeline.rsp_product_policy"),
        (pipeline, "parse_dra", "models.parse_dra"),
        (gridenv, "parse_map", "gridenv.parse_map"),
        (gridenv, "build_nts", "gridenv.build_nts"),
        (gridenv, "build_mdp", "gridenv.build_mdp"),
        (pipeline, "build_product", "synthesis.build_product"),
        (pipeline, "prune_unreachable", "synthesis.prune_unreachable"),
        (pipeline, "amecs", "synthesis.amecs"),
        (pipeline, "goal_and_bad_sets", "synthesis.goal_and_bad_sets"),
        (pipeline, "with_probabilities", "synthesis.with_probabilities"),
        (pipeline, "mrp_to_ssp", "synthesis.mrp_to_ssp"),
        (synthesis.SspTransitionSource, "__call__", "synthesis.source"),
        (exact, "max_reach", "exact.max_reach"),
        (exact, "eval_policy_reach", "exact.eval_policy_reach"),
        (lookahead.LookaheadPolicy, "__init__", "lookahead.init"),
        (lookahead.LookaheadPolicy, "sequence_table", "lookahead.sequence_table"),
        (lookahead.LookaheadPolicy, "action_distribution", "lookahead.action_distribution"),
        (lookahead.LookaheadPolicy, "sample_action", "lookahead.sample_action"),
        (lookahead.LookaheadPolicy, "log_policy_gradient", "lookahead.log_policy_gradient"),
        (pipeline, "run", "actor_critic.run"),
        (actor_critic, "critic_update", "actor_critic.critic_update"),
        (actor_critic, "actor_update", "actor_critic.actor_update"),
    ]


class Recorder:
    """In-memory spans (name, start, end, parent) of one traced run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, targets) -> list[str]:
        """Wrap every target that exists; returns the span names wrapped.
        A boundary missing from the program is skipped, so its metrics read 0."""
        wrapped = []
        for owner, attr, name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self.wrap(name, original))
            self._patches.append((owner, attr, original))
            wrapped.append(name)
        return wrapped

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(SPAN_HEADER)
            for i, name in enumerate(self.names):
                out.writerow((self.run_id, name, repr(self.starts[i]),
                              repr(self.ends[i]), self.parents[i]))


def read_spans(path) -> list[tuple[int, str, float, float, int]]:
    with open(path, newline="") as f:
        rows = csv.reader(f)
        if tuple(next(rows)) != SPAN_HEADER:
            raise ValueError(f"{path} is not a span file")
        return [(int(run), name, float(start), float(end), int(parent))
                for run, name, start, end, parent in rows]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time, and self time (inclusive
    time minus the time covered by its direct child spans)."""
    inclusive = [end - start for _run, _name, start, end, _parent in spans]
    child_time = [0.0] * len(spans)
    for i, (_run, _name, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += inclusive[i]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for i, (_run, name, _start, _end, _parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["inclusive_s"] += inclusive[i]
        entry["self_s"] += inclusive[i] - child_time[i]
    return dict(out)
