"""End-to-end synthesis: load inputs, build the product and SSP, optimize
the lookahead policy with the actor-critic, and report.

A task is either a map file (the pair-state model and its noisy motion
probabilities are generated, probabilities lazily) or an MDP-mode model
file, plus a Rabin automaton file sharing the proposition set. The exact
oracles consume a fully materialized probabilistic model and are used for
the optimal reference value and for the periodic evaluation curve, exactly
when ``exact_reference`` is on, on either kind of task; the actor-critic
itself only ever sees the possibilistic structure and the lazy
probability source.

``load_task`` builds one ``TaskContext`` per invocation, and every
subcommand reads it: the models, the product with its goal/zero sets and
the number of its accepting components, ``early_exit`` (the satisfaction
probability when no policy choice matters), the restart SSP handed to the
actor-critic, its probabilistic twin ``exact_ssp`` that the exact oracles
read, and ``optimal_values``, the exact optimum that ``synthesize`` and
``compare`` read. The SSPs and the optimum are built on first use, so a
multi-seed run computes the optimum once. ``exact_ssp`` is the one
probabilistic model kept: the product's refit, ``product_mdp``, is
rebuilt on every access.

A policy lives in the SSP's row space, one probability per row of the
SSP's model (``LookaheadPolicy.policy_rows``, ``parse_policy``). The two
SSPs share their rows, so the policy is judged on ``exact_ssp`` as it
stands: reaching the terminal, with the restart states as zeros, is
reaching the product's goal states.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import exact, gridenv
from .actor_critic import ActorCriticConfig, RunTrace, run
from .lookahead import LookaheadPolicy
from .models import (
    MDP,
    LabeledModel,
    ModelError,
    RabinAutomaton,
    nts_from_mdp,
    parse_dra,
    parse_model,
    parse_policy,
    save_policy,
    serialize_model,
)
from .synthesis import (
    LABEL_RULES,
    ProductModel,
    SspModel,
    SspTransitionSource,
    TransitionSource,
    amecs,
    build_product,
    goal_and_bad_sets,
    mrp_to_ssp,
    product_state_names,
    serialize_ssp,
    ssp_state_names,
    with_probabilities,
)

EXIT_CONVERGED = 0
EXIT_CAPPED = 2
EXIT_ZERO_PROBABILITY = 3


@dataclass
class RunConfig(ActorCriticConfig):
    """Everything a pipeline invocation needs; JSON-loadable, flag-overridable.
    The actor-critic settings are the fields inherited from
    ``ActorCriticConfig``."""

    dra: str = ""
    map: str | None = None
    model: str | None = None
    task_name: str = "task"
    outdir: str = "out"
    # lookahead policy
    horizon: int = 2
    radius: int | None = None
    theta0: tuple[float, float] = (5.0, -0.5)
    progress_penalty: float | None = None
    sequence_cap: int = 10_000
    # evaluation and construction
    exact_reference: bool = True
    label_rule: str = "next"
    # map noise
    eta: float = 0.9
    confusion: str = "uniform"
    mc_runs: int | None = None
    noise_seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ModelError(f"configuration file {path} is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ModelError(f"configuration file {path} must hold a JSON object")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ModelError(f"unknown configuration keys {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            if not _fits(value, hints[key]):
                raise ModelError(f"configuration key {key!r} must be "
                                 f"{fields[key].type}, got {value!r}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in data.items()})

    def validate(self) -> None:
        if not self.dra:
            raise ModelError("configuration needs a 'dra' path")
        if bool(self.map) == bool(self.model):
            raise ModelError("configuration needs exactly one of 'map' or 'model'")
        if not 0 < self.epsilon < math.inf or self.horizon < 1 or self.eval_every < 0:
            raise ModelError(
                "epsilon must be positive and finite, horizon >= 1, eval_every >= 0")
        if not (self.clip > 0 and 0 < self.beta_scale < math.inf):
            raise ModelError("clip and beta_scale must be positive, beta_scale finite")
        if not 0 <= self.gate_sigma < math.inf:
            raise ModelError("gate_sigma must be finite and not negative")
        if self.progress_penalty is not None and not math.isfinite(self.progress_penalty):
            raise ModelError("progress_penalty must be finite")
        if not 0.0 <= self.lam < 1.0:
            raise ModelError("lam must lie in [0, 1)")
        if not all(math.isfinite(t) for t in self.theta0):
            raise ModelError("theta0 must be finite")
        if not all(0 < e < math.inf for e in (self.gamma_exponent, self.beta_exponent)):
            raise ModelError("gamma_exponent and beta_exponent must be positive and finite")
        if self.mc_runs is not None and self.mc_runs < 0:
            raise ModelError("mc_runs must not be negative")
        if self.seed < 0 or self.noise_seed < 0:
            raise ModelError("seed and noise_seed must not be negative")
        if min(self.max_iters, self.min_iters, self.gate_iters) < 0:
            raise ModelError("max_iters, min_iters and gate_iters must not be negative")
        if (self.radius is not None and self.radius < 1) or self.sequence_cap < 1:
            raise ModelError("radius (when set) and sequence_cap must be >= 1")
        if not 0 < self.eta <= 1:
            raise ModelError("eta must lie in (0, 1]")
        if self.label_rule not in LABEL_RULES:
            raise ModelError(f"label_rule must be one of {LABEL_RULES}, got {self.label_rule!r}")
        if self.confusion not in gridenv.CONFUSION_MODES:
            raise ModelError(f"confusion must be one of {gridenv.CONFUSION_MODES}, "
                             f"got {self.confusion!r}")


def _fits(value: object, hint: object) -> bool:
    """Whether the JSON value ``value`` has the declared type ``hint``: an
    int is a float, a bool is neither, and a list is a tuple."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class TaskContext:
    """The task every subcommand reads, built once per invocation; the
    SSPs and the exact optimum are built on first use, and the exact
    layer runs when ``cfg.exact_reference`` is on."""

    cfg: RunConfig
    dra: RabinAutomaton
    base_nts: LabeledModel
    base_mdp: LabeledModel | None
    # base_mdp's rows, or the map's lazy rows (gridenv.transition_rows) when
    # no MDP is built
    base_row: TransitionSource
    product: ProductModel
    n_amecs: int
    goal: frozenset[int]
    bad: frozenset[int]

    @property
    def trivial(self) -> bool:
        return self.product.base.initial in self.goal

    @property
    def zero_probability(self) -> bool:
        return not self.n_amecs or self.product.base.initial in self.bad

    @property
    def early_exit(self) -> float | None:
        """The satisfaction probability when no policy choice matters: 0.0
        when no policy can satisfy the task, 1.0 when the initial state
        already sits in an accepting component; None otherwise."""
        if self.zero_probability:
            return 0.0
        return 1.0 if self.trivial else None

    @cached_property
    def ssp(self) -> SspModel:
        return mrp_to_ssp(self.product, self.goal, self.bad)

    @property
    def product_mdp(self) -> ProductModel | None:
        """The product refit with ``base_mdp``'s probabilities (None without
        an MDP), rebuilt on every access: ``exact_ssp`` reads it once, and
        checks of the exact values read it after a run."""
        return (None if self.base_mdp is None
                else with_probabilities(self.product, self.base_mdp))

    @cached_property
    def exact_ssp(self) -> SspModel:
        """The restart SSP of ``product_mdp`` (``base_mdp`` must exist):
        ``ssp``'s states, rows and restart set, with transition
        probabilities. Only the SSP is kept."""
        return mrp_to_ssp(self.product_mdp, self.goal, self.bad)

    @cached_property
    def optimal_values(self) -> np.ndarray:
        """Each product state's optimal satisfaction probability:
        ``exact.max_reach`` of the terminal on ``exact_ssp``, read back
        through ``origin``, with 1 on the goal states."""
        ssp = self.exact_ssp
        v = exact.max_reach(ssp.base, frozenset({ssp.terminal}), ssp.bad)[0]
        values = np.ones(self.product.base.n_states)
        values[ssp.origin[:ssp.terminal]] = v[:ssp.terminal]
        return values


def load_task(cfg: RunConfig) -> TaskContext:
    cfg.validate()
    dra = parse_dra(Path(cfg.dra).read_text())
    if cfg.map:
        env = gridenv.parse_map(Path(cfg.map).read_text())
        noise = gridenv.NoiseModel(eta=cfg.eta, mc_runs=cfg.mc_runs, seed=cfg.noise_seed)
        base_nts = gridenv.build_nts(env, cfg.confusion)
        base_mdp = gridenv.build_mdp(env, noise, base_nts) if cfg.exact_reference else None
    else:
        base_mdp = parse_model(Path(cfg.model).read_text())
        if base_mdp.mode != MDP:
            raise ModelError("model-file tasks need an MDP-mode model")
        base_nts = nts_from_mdp(base_mdp)
    base_row = (base_mdp.successors if base_mdp is not None
                else gridenv.transition_rows(env, noise, base_nts))
    product = build_product(base_nts, dra, cfg.label_rule)
    amec_list = amecs(product)
    goal, bad = goal_and_bad_sets(product, amec_list)
    return TaskContext(cfg=cfg, dra=dra, base_nts=base_nts, base_mdp=base_mdp,
                       base_row=base_row, product=product, n_amecs=len(amec_list),
                       goal=goal, bad=bad)


@dataclass
class Report:
    cfg: RunConfig
    exit_code: int
    status: str
    lines: list[tuple[str, object]] = field(default_factory=list)
    trace: RunTrace | None = None
    theta: tuple[float, float] | None = None
    final_probability: float | None = None
    optimal_probability: float | None = None

    def summary_text(self) -> str:
        out = [f"{key}: {value}" for key, value in self.lines]
        out.append(f"status: {self.status}")
        return "\n".join(out) + "\n"


def _base_lines(ctx: TaskContext) -> list[tuple[str, object]]:
    return [
        ("task", ctx.cfg.task_name),
        ("model states", ctx.base_nts.n_states),
        ("model enabled pairs", ctx.base_nts.n_enabled_pairs()),
        ("automaton states", ctx.dra.n_states),
        ("accepting pairs", len(ctx.dra.pairs)),
        ("product states (unpruned)", ctx.product.unpruned_states),
        ("product states (pruned)", ctx.product.base.n_states),
        ("amecs", ctx.n_amecs),
        ("goal states", len(ctx.goal)),
        ("zero states", len(ctx.bad)),
    ]


def synthesize(cfg: RunConfig, ctx: TaskContext | None = None) -> Report:
    """The full pipeline; writes trace.csv, policy.tsv, and summary.txt."""
    ctx = ctx or load_task(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = _base_lines(ctx)

    if ctx.early_exit is not None:
        # No policy choice matters. At 1.0 the initial state already sits
        # inside an accepting component, where the uniform retained-action
        # policy satisfies the task almost surely.
        if ctx.early_exit == 0.0:
            exit_code, status = (EXIT_ZERO_PROBABILITY,
                                 "satisfaction probability is 0 for all policies")
        else:
            exit_code, status = (EXIT_CONVERGED, "initial state is in the goal set; "
                                                 "uniform component policy is optimal")
        lines.append(("final exact probability", ctx.early_exit))
        report = Report(cfg=cfg, exit_code=exit_code, status=status, lines=lines,
                        final_probability=ctx.early_exit)
        (outdir / "summary.txt").write_text(report.summary_text())
        return report

    ssp = ctx.ssp
    policy = LookaheadPolicy(
        ssp, horizon=cfg.horizon, radius=cfg.radius, theta=cfg.theta0,
        progress_penalty=cfg.progress_penalty, sequence_cap=cfg.sequence_cap)
    source = SspTransitionSource(ssp, ctx.product, ctx.base_row)

    evaluator = None
    optimal = None
    if cfg.exact_reference:
        exact_ssp = ctx.exact_ssp
        reach = exact.ReachEvaluator(exact_ssp.base, frozenset({exact_ssp.terminal}),
                                     exact_ssp.bad)

        def evaluator(theta):
            policy.theta = theta
            return exact.eval_policy_reach(reach, policy.policy_rows())

        optimal = float(ctx.optimal_values[ctx.product.base.initial])

    theta, trace = run(ssp, source, policy, cfg, evaluator=evaluator)

    final_prob = evaluator(theta) if evaluator is not None else None
    with open(outdir / "trace.csv", "w") as f:
        trace.write_csv(f)
    with open(outdir / "policy.tsv", "w") as f:
        save_policy(f, policy.policy_rows(), ssp.base)

    lines += [
        ("iterations", trace.iterations),
        ("episodes", trace.episodes[-1] if trace.episodes else 0),
        ("converged", trace.converged),
        ("pairs computed", trace.pairs[-1] if trace.pairs else 0),
        ("theta", list(map(float, theta))),
    ]
    if final_prob is not None:
        lines.append(("final exact probability", final_prob))
    if optimal is not None:
        lines.append(("optimal probability", optimal))
        if final_prob is not None and optimal > 0:
            lines.append(("ratio", final_prob / optimal))
    status = "converged" if trace.converged else "iteration-capped"
    report = Report(cfg=cfg, exit_code=EXIT_CONVERGED if trace.converged else EXIT_CAPPED,
                    status=status, lines=lines, trace=trace,
                    theta=(float(theta[0]), float(theta[1])),
                    final_probability=final_prob, optimal_probability=optimal)
    (outdir / "summary.txt").write_text(report.summary_text())
    return report


def compare(cfg: RunConfig) -> Report:
    """Exact optimum vs. actor-critic on the same task, with curve data."""
    if not cfg.exact_reference:
        raise ModelError("compare needs exact probabilities (enable exact_reference)")
    ctx = load_task(cfg)
    report = synthesize(cfg, ctx)
    if ctx.early_exit is not None:
        return report
    outdir = Path(cfg.outdir)
    with open(outdir / "values.csv", "w") as f:
        exact.write_value_csv(f, ctx.optimal_values)
    with open(outdir / "curve.csv", "w") as f:
        f.write("k,rsp_probability,optimal_probability\n")
        for k in sorted(report.trace.exact):
            f.write(f"{k},{report.trace.exact[k]!r},{report.optimal_probability!r}\n")
    return report


def evaluate_policy_file(cfg: RunConfig, policy_path: str | Path) -> float:
    """Exact reachability probability of a saved policy file, evaluated on
    ``exact_ssp``. The file must define the policy at every SSP state that
    is neither the terminal nor a restart state, and an error names the
    file's own state ids."""
    if not cfg.exact_reference:
        raise ModelError("eval needs exact probabilities (enable exact_reference)")
    ctx = load_task(cfg)
    if ctx.early_exit is not None:
        return ctx.early_exit
    ssp = ctx.exact_ssp
    probs = parse_policy(Path(policy_path).read_text(), ssp.base)
    reach = exact.ReachEvaluator(ssp.base, frozenset({ssp.terminal}), ssp.bad)
    return exact.eval_policy_reach(reach, probs)


def write_models(cfg: RunConfig) -> list[Path]:
    """Emit the (reachable) product and its SSP conversion as model files,
    their state names formatted here (the models in memory carry none).
    Both are possibilistic, so no probabilistic model is built."""
    ctx = load_task(dataclasses.replace(cfg, exact_reference=False))
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = product_state_names(ctx.product, ctx.base_nts.state_names)
    paths = [outdir / "product.model"]
    paths[0].write_text(serialize_model(
        dataclasses.replace(ctx.product.base, state_names=names)))
    if not ctx.trivial:
        ssp = ctx.ssp
        named = dataclasses.replace(ssp.base, state_names=ssp_state_names(ssp, names))
        paths.append(outdir / "ssp.model")
        paths[1].write_text(serialize_ssp(dataclasses.replace(ssp, base=named)))
    return paths


def synthesize_seeds(cfg: RunConfig, seeds: list[int]) -> list[Report]:
    """Independent runs on one loaded task, one output directory per seed,
    plus an aggregate summary in the parent directory."""
    subs = [dataclasses.replace(cfg, seed=seed, outdir=str(Path(cfg.outdir) / f"seed{seed}"))
            for seed in seeds]
    for sub in subs:
        sub.validate()
    ctx = load_task(cfg)
    reports = [synthesize(sub, ctx) for sub in subs]
    probs = [r.final_probability for r in reports if r.final_probability is not None]
    if probs:
        # statistics.median's arithmetic, which would load decimal and fractions.
        ordered, mid = sorted(probs), len(probs) // 2
        median = ordered[mid] if len(probs) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        lines = [f"seeds: {seeds}",
                 f"final probabilities: {[round(p, 6) for p in probs]}",
                 f"median final probability: {median!r}"]
        opt = reports[0].optimal_probability
        if opt:
            lines.append(f"optimal probability: {opt!r}")
            lines.append(f"median ratio: {median / opt!r}")
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.outdir) / "seeds-summary.txt").write_text("\n".join(lines) + "\n")
    return reports
