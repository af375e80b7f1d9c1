"""End-to-end synthesis: load inputs, build the product and SSP, optimize
the lookahead policy with the actor-critic, and report.

A task is either a map file (the pair-state model and its noisy motion
probabilities are generated, probabilities lazily) or an MDP-mode model
file, plus a Rabin automaton file sharing the proposition set. The exact
oracles consume a fully materialized probabilistic model and are used for
the optimal reference value and for the periodic evaluation curve; the
actor-critic itself only ever sees the possibilistic structure and the
lazy probability source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from dataclasses import dataclass, field
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
    Amec,
    ProductModel,
    SspModel,
    SspTransitionSource,
    TransitionSource,
    amecs,
    build_product,
    goal_and_bad_sets,
    mrp_to_ssp,
    serialize_ssp,
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
        data = json.loads(Path(path).read_text())
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"unknown configuration keys {sorted(unknown)}")
        if "theta0" in data:
            data["theta0"] = tuple(data["theta0"])
        return cls(**data)

    def validate(self) -> None:
        if not self.dra:
            raise ModelError("configuration needs a 'dra' path")
        if bool(self.map) == bool(self.model):
            raise ModelError("configuration needs exactly one of 'map' or 'model'")
        if self.epsilon <= 0 or self.horizon < 1 or self.eval_every < 0:
            raise ModelError("epsilon must be positive, horizon >= 1, eval_every >= 0")
        if not (self.clip > 0 and self.beta_scale > 0):
            raise ModelError("clip and beta_scale must be positive")
        if not 0.0 <= self.lam < 1.0:
            raise ModelError("lam must lie in [0, 1)")
        if not all(math.isfinite(t) for t in self.theta0):
            raise ModelError("theta0 must be finite")
        if not all(0 < e < math.inf for e in (self.gamma_exponent, self.beta_exponent)):
            raise ModelError("gamma_exponent and beta_exponent must be positive and finite")
        if self.mc_runs is not None and self.mc_runs < 0:
            raise ModelError("mc_runs must not be negative")


@dataclass
class TaskContext:
    """All artifacts shared by the subcommands, built once per invocation."""

    cfg: RunConfig
    dra: RabinAutomaton
    base_nts: LabeledModel
    base_mdp: LabeledModel | None
    # base_mdp's rows, or the map's lazy rows (gridenv.transition_rows) when
    # no MDP is built
    base_row: TransitionSource
    product: ProductModel
    product_mdp: ProductModel | None
    amec_list: list[Amec]
    goal: frozenset[int]
    bad: frozenset[int]

    @property
    def trivial(self) -> bool:
        return self.product.base.initial in self.goal

    @property
    def zero_probability(self) -> bool:
        return not self.amec_list or self.product.base.initial in self.bad


def load_task(cfg: RunConfig) -> TaskContext:
    cfg.validate()
    dra = parse_dra(Path(cfg.dra).read_text())
    if cfg.map:
        env = gridenv.parse_map(Path(cfg.map).read_text())
        noise = gridenv.NoiseModel(eta=cfg.eta, confusion=cfg.confusion,
                                   mc_runs=cfg.mc_runs, seed=cfg.noise_seed)
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
    product_mdp = with_probabilities(product, base_mdp) if base_mdp is not None else None
    return TaskContext(cfg=cfg, dra=dra, base_nts=base_nts, base_mdp=base_mdp,
                       base_row=base_row, product=product,
                       product_mdp=product_mdp, amec_list=amec_list,
                       goal=goal, bad=bad)


def _product_row_index(ssp: SspModel, m: LabeledModel) -> np.ndarray:
    """The row of the product model ``m`` that each of the SSP's
    non-terminal rows (states in order, actions ascending) stands for.

    ``mrp_to_ssp`` keeps every state's enabled actions, so the rows of SSP
    state s line up one to one with those of product state origin[s].
    """
    s = ssp.base
    ssp_rows = np.flatnonzero(s.row_state != ssp.terminal)
    state = s.row_state[ssp_rows]
    return m.state_ptr[np.asarray(ssp.origin)[state]] + ssp_rows - s.state_ptr[state]


def _to_product_rows(m: LabeledModel, index: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Re-index probabilities over an SSP's non-terminal rows onto the rows
    of the product model ``m``, through ``index`` (``_product_row_index``).
    Goal rows stay 0: goal states are evaluation boundary.
    """
    out = np.zeros(len(m.row_action))
    out[index] = probs
    return out


def rsp_product_policy(policy: LookaheadPolicy, m: LabeledModel,
                       index: np.ndarray) -> np.ndarray:
    """The lookahead policy at its current theta as one probability per row
    of the product model ``m``, through ``index`` (``_product_row_index``
    of the policy's SSP)."""
    return _to_product_rows(m, index, policy.policy_rows())


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
    optimal_values: np.ndarray | None = None

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
        ("amecs", len(ctx.amec_list)),
        ("goal states", len(ctx.goal)),
        ("zero states", len(ctx.bad)),
    ]


def synthesize(cfg: RunConfig, ctx: TaskContext | None = None) -> Report:
    """The full pipeline; writes trace.csv, policy.tsv, and summary.txt."""
    ctx = ctx or load_task(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = _base_lines(ctx)

    if ctx.zero_probability:
        lines.append(("final exact probability", 0.0))
        report = Report(cfg=cfg, exit_code=EXIT_ZERO_PROBABILITY,
                        status="satisfaction probability is 0 for all policies",
                        lines=lines, final_probability=0.0)
        (outdir / "summary.txt").write_text(report.summary_text())
        return report

    if ctx.trivial:
        # The initial state already sits inside an accepting component; the
        # uniform retained-action policy satisfies the task almost surely.
        lines.append(("final exact probability", 1.0))
        report = Report(cfg=cfg, exit_code=EXIT_CONVERGED,
                        status="initial state is in the goal set; "
                               "uniform component policy is optimal",
                        lines=lines, final_probability=1.0)
        (outdir / "summary.txt").write_text(report.summary_text())
        return report

    ssp = mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)
    policy = LookaheadPolicy(
        ssp, horizon=cfg.horizon, radius=cfg.radius, theta=cfg.theta0,
        progress_penalty=cfg.progress_penalty, sequence_cap=cfg.sequence_cap)
    source = SspTransitionSource(ssp, ctx.product, ctx.dra, ctx.base_nts, ctx.base_row)

    evaluator = None
    optimal = values = None
    if ctx.product_mdp is not None:
        pm = ctx.product_mdp
        reach = exact.ReachEvaluator(pm.base, ctx.goal, ctx.bad)
        index = _product_row_index(ssp, pm.base)

        def evaluator(theta, _pm=pm, _pol=policy, _reach=reach, _index=index):
            _pol.theta = np.array(theta, dtype=float)
            product_policy = rsp_product_policy(_pol, _pm.base, _index)
            return exact.eval_policy_reach(_pm.base, product_policy, ctx.goal, ctx.bad,
                                           evaluator=_reach)

        if cfg.exact_reference:
            values, _ = exact.max_reach(pm.base, ctx.goal, ctx.bad)
            optimal = float(values[pm.base.initial])

    theta, trace = run(ssp, source, policy, cfg, evaluator=evaluator)

    final_prob = evaluator(theta) if evaluator is not None else None
    with open(outdir / "trace.csv", "w") as f:
        trace.write_csv(f)
    policy.theta = np.array(theta, dtype=float)
    # One probability per SSP row: the terminal's rows are uniform.
    probs = np.full(ssp.base.n_enabled_pairs(), 1.0 / len(ssp.base.actions))
    probs[ssp.base.row_state != ssp.terminal] = policy.policy_rows()
    with open(outdir / "policy.tsv", "w") as f:
        save_policy(f, probs, ssp.base)

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
                    final_probability=final_prob, optimal_probability=optimal,
                    optimal_values=values)
    (outdir / "summary.txt").write_text(report.summary_text())
    return report


def compare(cfg: RunConfig) -> Report:
    """Exact optimum vs. actor-critic on the same task, with curve data."""
    ctx = load_task(cfg)
    if ctx.product_mdp is None:
        raise ModelError("compare needs exact probabilities (enable exact_reference)")
    report = synthesize(cfg, ctx)
    outdir = Path(cfg.outdir)
    if report.exit_code == EXIT_ZERO_PROBABILITY or ctx.trivial:
        return report
    values = report.optimal_values
    if values is None:
        values, _ = exact.max_reach(ctx.product_mdp.base, ctx.goal, ctx.bad)
        report.optimal_probability = float(values[ctx.product_mdp.base.initial])
    optimal = report.optimal_probability
    with open(outdir / "values.csv", "w") as f:
        exact.write_value_csv(f, values)
    with open(outdir / "curve.csv", "w") as f:
        f.write("k,rsp_probability,optimal_probability\n")
        for k in sorted(report.trace.exact):
            f.write(f"{k},{report.trace.exact[k]!r},{optimal!r}\n")
    return report


def evaluate_policy_file(cfg: RunConfig, policy_path: str | Path) -> float:
    """Exact reachability probability of a saved policy file."""
    ctx = load_task(cfg)
    if ctx.product_mdp is None:
        raise ModelError("eval needs exact probabilities (enable exact_reference)")
    if ctx.zero_probability:
        return 0.0
    if ctx.trivial:
        return 1.0
    ssp = mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)
    probs = parse_policy(Path(policy_path).read_text(), ssp.base)
    m = ctx.product_mdp.base
    rows = _to_product_rows(m, _product_row_index(ssp, m),
                            probs[ssp.base.row_state != ssp.terminal])
    return exact.eval_policy_reach(m, rows, ctx.goal, ctx.bad)


def write_models(cfg: RunConfig) -> list[Path]:
    """Emit the (reachable) product and its SSP conversion as model files."""
    ctx = load_task(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / "product.model"]
    paths[0].write_text(serialize_model(ctx.product.base))
    if not ctx.trivial:
        ssp = mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)
        paths.append(outdir / "ssp.model")
        paths[1].write_text(serialize_ssp(ssp))
    return paths


def synthesize_seeds(cfg: RunConfig, seeds: list[int]) -> list[Report]:
    """Independent runs, one output directory per seed, plus an aggregate
    summary in the parent directory."""
    reports = []
    for seed in seeds:
        sub = dataclasses.replace(cfg, seed=seed,
                                  outdir=str(Path(cfg.outdir) / f"seed{seed}"))
        reports.append(synthesize(sub))
    probs = [r.final_probability for r in reports if r.final_probability is not None]
    if probs:
        lines = [f"seeds: {seeds}",
                 f"final probabilities: {[round(p, 6) for p in probs]}",
                 f"median final probability: {statistics.median(probs)!r}"]
        opt = reports[0].optimal_probability
        if opt:
            lines.append(f"optimal probability: {opt!r}")
            lines.append(f"median ratio: {statistics.median(probs) / opt!r}")
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.outdir) / "seeds-summary.txt").write_text("\n".join(lines) + "\n")
    return reports
