import argparse
import dataclasses
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlcontrol import exact, gridenv, pipeline
from tlcontrol.actor_critic import ActorCriticConfig
from tlcontrol.cli import _add_common, _config_from, main
from tlcontrol.lookahead import LookaheadPolicy
from tlcontrol.models import ModelError, dra_step, nts_from_mdp, parse_model, serialize_model
from tlcontrol.pipeline import (
    EXIT_CONVERGED,
    EXIT_ZERO_PROBABILITY,
    RunConfig,
    compare,
    evaluate_policy_file,
    load_task,
    synthesize,
    synthesize_seeds,
    write_models,
)
from tlcontrol.synthesis import (
    Amec,
    SspTransitionSource,
    build_product,
    goal_and_bad_sets,
    mrp_to_ssp,
    with_probabilities,
)
from dict_reference import prop_mask
from conftest import (
    PROP_NAMES, lattice_map, make_random_ssp, parse_ssp_text, random_dra, random_mdp)

TINY_MAP = """
#######
#u.a..#
###.###
###.###
#######
legend
u: up
a: mark
start 2,3 1,3
"""

F_UP_DRA = """
states 2
initial 0
props up mark
edge 0 {up} 1
edge 0 {up,mark} 1
edge 0 else 0
edge 1 else 1
pair L={} K={1}
"""

UNREACHABLE_K_DRA = """
states 2
initial 0
props up mark
edge 0 else 0
edge 1 else 1
pair L={} K={1}
"""

UNIT_DRA = """
states 1
initial 0
props up mark
edge 0 else 0
pair L={} K={0}
"""

SINGLE_ACTION_MODEL = """
states 3
initial 0
mode mdp
props up mark
label 2: up
trans 0 a 1 1.0
trans 1 a 2 1.0
trans 2 a 2 1.0
"""


@pytest.fixture
def tiny_task(tmp_path):
    (tmp_path / "tiny.map").write_text(TINY_MAP)
    (tmp_path / "fup.dra").write_text(F_UP_DRA)
    return RunConfig(
        map=str(tmp_path / "tiny.map"), dra=str(tmp_path / "fup.dra"),
        outdir=str(tmp_path / "out"), eta=1.0, max_iters=200, min_iters=50,
        eval_every=20, seed=3, task_name="tiny")


def test_noise_free_goal_next_door_reaches_probability_one(tiny_task):
    report = synthesize(tiny_task)
    assert report.exit_code in (0, 2)
    assert report.final_probability == pytest.approx(1.0, abs=1e-9)
    assert report.optimal_probability == pytest.approx(1.0, abs=1e-9)
    summary = Path(tiny_task.outdir, "summary.txt").read_text()
    assert "final exact probability" in summary


def test_unreachable_accepting_states_exit_distinctly(tiny_task, tmp_path):
    (tmp_path / "never.dra").write_text(UNREACHABLE_K_DRA)
    tiny_task.dra = str(tmp_path / "never.dra")
    report = synthesize(tiny_task)
    assert report.exit_code == EXIT_ZERO_PROBABILITY
    assert "probability is 0" in report.status
    assert report.final_probability == 0.0


def test_trivial_task_initial_already_accepting(tiny_task, tmp_path):
    (tmp_path / "unit.dra").write_text(UNIT_DRA)
    tiny_task.dra = str(tmp_path / "unit.dra")
    report = synthesize(tiny_task)
    assert report.exit_code == EXIT_CONVERGED
    assert report.final_probability == 1.0
    assert "goal set" in report.status


@pytest.mark.parametrize("dra, value", [(UNREACHABLE_K_DRA, 0.0), (UNIT_DRA, 1.0)])
def test_no_choice_tasks_exit_early_in_every_subcommand(tiny_task, tmp_path, monkeypatch,
                                                        dra, value):
    # Zero probability, or the initial state already in the goal: every
    # subcommand answers from the task's early-exit value alone.
    (tmp_path / "task.dra").write_text(dra)
    cfg = dataclasses.replace(tiny_task, dra=str(tmp_path / "task.dra"))
    contexts = []

    def loading(cfg):
        contexts.append(load_task(cfg))
        return contexts[-1]

    monkeypatch.setattr(pipeline, "load_task", loading)
    ctx = load_task(cfg)
    assert ctx.early_exit == value
    report = synthesize(cfg, ctx)
    assert report.final_probability == value
    assert "ssp" not in vars(ctx)

    compared = compare(dataclasses.replace(cfg, outdir=str(tmp_path / "compare")))
    assert dataclasses.replace(compared, cfg=cfg) == report
    assert [path.name for path in (tmp_path / "compare").iterdir()] == ["summary.txt"]

    # No policy is read: the file need not exist.
    assert evaluate_policy_file(cfg, tmp_path / "absent.tsv") == value

    paths = write_models(dataclasses.replace(cfg, outdir=str(tmp_path / "build")))
    assert [path.name for path in paths] == (
        ["product.model"] if value == 1.0 else ["product.model", "ssp.model"])
    assert sorted(path.name for path in (tmp_path / "build").iterdir()) == [
        path.name for path in paths]
    # No subcommand builds the exact SSP on an early exit.
    assert len(contexts) == 3
    assert not any("exact_ssp" in vars(c) for c in [ctx, *contexts])


def test_pipeline_determinism_byte_identical_trace(tiny_task, tmp_path):
    report = synthesize(tiny_task)
    first = Path(tiny_task.outdir, "trace.csv").read_bytes()
    tiny_task.outdir = str(tmp_path / "out2")
    synthesize(tiny_task)
    second = Path(tiny_task.outdir, "trace.csv").read_bytes()
    assert first == second
    assert report.trace is not None


def test_summary_pairs_match_lazy_counter(tiny_task):
    report = synthesize(tiny_task)
    lines = dict(report.lines)
    assert lines["pairs computed"] == report.trace.pairs[-1]
    assert lines["pairs computed"] <= lines["model enabled pairs"]
    assert lines["pairs computed"] <= lines["iterations"]


def test_compare_single_action_model_hits_optimum(tmp_path):
    (tmp_path / "chain.model").write_text(SINGLE_ACTION_MODEL)
    (tmp_path / "fup.dra").write_text(F_UP_DRA)
    cfg = RunConfig(model=str(tmp_path / "chain.model"), dra=str(tmp_path / "fup.dra"),
                    outdir=str(tmp_path / "out"), max_iters=120, min_iters=30,
                    eval_every=10, seed=0)
    report = compare(cfg)
    curve = Path(cfg.outdir, "curve.csv").read_text().splitlines()
    assert curve[0] == "k,rsp_probability,optimal_probability"
    rows = [row.split(",") for row in curve[1:]]
    assert rows
    optimal = float(rows[0][2])
    for _k, rsp_val, opt_val in rows:
        assert float(opt_val) == optimal
        assert float(rsp_val) <= optimal + 1e-9
    assert abs(float(rows[-1][1]) - optimal) <= 1e-6


def test_compare_curve_matches_replayed_evaluation(tiny_task):
    report = compare(tiny_task)
    ctx = load_task(tiny_task)
    ssp, twin = ctx.ssp, ctx.exact_ssp
    trace_rows = Path(tiny_task.outdir, "trace.csv").read_text().splitlines()[1:]
    by_k = {}
    for row in trace_rows:
        parts = row.split(",")
        by_k[int(parts[0])] = (float(parts[1]), float(parts[2]), parts[8])
    curve = Path(tiny_task.outdir, "curve.csv").read_text().splitlines()[1:]
    assert curve
    reach = exact.ReachEvaluator(twin.base, frozenset({twin.terminal}), twin.bad)
    for row in curve:
        k, rsp_val, opt_val = row.split(",")
        t1, t2, exact_col = by_k[int(k)]
        pol = LookaheadPolicy(ssp, horizon=tiny_task.horizon, theta=(t1, t2))
        replayed = exact.eval_policy_reach(reach, pol.policy_rows())
        assert abs(replayed - float(rsp_val)) <= 1e-12
        assert float(exact_col) == float(rsp_val)
        assert float(opt_val) >= float(rsp_val) - 1e-9


@pytest.mark.parametrize("theta", [(5.0, -0.5), (0.0, 0.0), (800.0, -800.0)])
@pytest.mark.parametrize("task", ["tiny", "desk"])
def test_whole_policy_sweep_matches_per_state(tiny_task, task, theta):
    cfg = tiny_task if task == "tiny" else RunConfig.from_file("tasks/desk.json")
    ctx = load_task(cfg)
    ssp = ctx.ssp
    pol = LookaheadPolicy(ssp, horizon=cfg.horizon, theta=theta)
    per_state = [pol.action_distribution(s) for s in range(ssp.base.n_states)]
    sweep = pol.policy_rows()
    assert np.all(np.isfinite(sweep))
    assert np.array_equal(sweep, np.concatenate([probs for _acts, probs in per_state]))


def assert_exact_ssp_shares_the_rows(ssp, twin):
    """The probabilistic twin of an SSP has its states, rows, restart set
    and origin, so a row policy of one is a row policy of the other."""
    for name in ("state_ptr", "row_state", "row_action"):
        assert np.array_equal(getattr(twin.base, name), getattr(ssp.base, name))
    assert np.array_equal(twin.origin, ssp.origin)
    assert (twin.terminal, twin.bad, twin.initial) == (ssp.terminal, ssp.bad, ssp.initial)


@pytest.mark.parametrize("task", ["tiny", "desk", "desk-mc20", "lattice-k8"])
def test_exact_ssp_shares_the_ssps_rows(tiny_task, tmp_path, task):
    # With mc_runs 20 the probability refit drops edges: rows stay.
    cfg = tiny_task if task == "tiny" else RunConfig.from_file("tasks/desk.json")
    if task == "desk-mc20":
        cfg = dataclasses.replace(cfg, mc_runs=20)
    if task == "lattice-k8":
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"))
    ctx = load_task(cfg)
    assert_exact_ssp_shares_the_rows(ctx.ssp, ctx.exact_ssp)


def desk_model_task(tmp_path) -> RunConfig:
    """The desk task with its probabilistic model serialized and read back
    as an MDP model file."""
    on_map = RunConfig.from_file("tasks/desk.json")
    model = tmp_path / "desk.model"
    model.write_text(serialize_model(load_task(on_map).base_mdp))
    return dataclasses.replace(on_map, map=None, model=str(model), outdir=str(tmp_path / "out"))


@pytest.mark.parametrize("task", ["desk", "desk-mc20", "lattice-k8", "lattice-k8-sure",
                                  "desk-model"])
def test_the_learner_samples_the_chain_the_judge_evaluates(tmp_path, task):
    # Every row the actor-critic samples, from the lazy rows of a run
    # without the exact reference or from the model's own, is exact_ssp's
    # row bit for bit. At eta 1.0 the slips of probability 0 are dropped.
    cfg = RunConfig.from_file("tasks/desk.json")
    if task == "desk-mc20":
        cfg = dataclasses.replace(cfg, mc_runs=20)
    if task.startswith("lattice-k8"):
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"),
                                  eta=1.0 if task.endswith("sure") else cfg.eta)
    if task == "desk-model":
        cfg = desk_model_task(tmp_path)
    ctx = load_task(cfg)
    judged = ctx.exact_ssp.base
    pairs = [(x, u) for x, u in judged.enabled_pairs() if x != ctx.exact_ssp.terminal]
    assert pairs
    lazy = load_task(dataclasses.replace(cfg, exact_reference=False))
    for base_row in (ctx.base_row, lazy.base_row):
        source = SspTransitionSource(ctx.ssp, ctx.product, base_row)
        assert all(source(x, u) == judged.successors(x, u) for x, u in pairs)


def test_no_exact_reference_builds_no_exact_layer_on_a_model_file(tmp_path, monkeypatch):
    cfg = dataclasses.replace(desk_model_task(tmp_path), exact_reference=False,
                              max_iters=200, min_iters=0)

    def unused(*args, **kwargs):
        raise AssertionError("a run without the exact reference builds no exact layer")

    monkeypatch.setattr(pipeline, "with_probabilities", unused)
    monkeypatch.setattr(exact, "ReachEvaluator", unused)
    ctx = load_task(cfg)
    report = synthesize(cfg, ctx)
    assert report.trace.iterations and not report.trace.exact
    assert report.final_probability is report.optimal_probability is None
    assert "exact_ssp" not in vars(ctx)
    keys = [line.split(":")[0] for line in
            Path(cfg.outdir, "summary.txt").read_text().splitlines()]
    assert "iterations" in keys
    assert not {"final exact probability", "optimal probability", "ratio"} & set(keys)


@pytest.mark.parametrize("task", ["map", "model"])
def test_compare_and_eval_refuse_without_the_exact_reference_before_loading(
        tmp_path, monkeypatch, capsys, task):
    cfg = (dataclasses.replace(RunConfig.from_file("tasks/desk.json"),
                               outdir=str(tmp_path / "out"))
           if task == "map" else desk_model_task(tmp_path))
    cfg = dataclasses.replace(cfg, exact_reference=False)

    def unused(cfg):
        raise AssertionError("a refused command loads no task")

    monkeypatch.setattr(pipeline, "load_task", unused)
    with pytest.raises(ModelError, match=r"compare needs exact probabilities"):
        compare(cfg)
    with pytest.raises(ModelError, match=r"eval needs exact probabilities"):
        evaluate_policy_file(cfg, tmp_path / "absent.tsv")
    task_flags = (["--config", "tasks/desk.json"] if task == "map"
                  else ["--dra", cfg.dra, "--model", cfg.model])
    for command in (["compare"], ["eval", str(tmp_path / "absent.tsv")]):
        assert main([*command, *task_flags, "--outdir", cfg.outdir,
                     "--no-exact-reference"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command[0]} needs exact probabilities"), err
        assert err.count("\n") == 1, err
    assert not Path(cfg.outdir).exists()


def test_model_file_compare_reports_one_optimum(tmp_path):
    cfg = dataclasses.replace(desk_model_task(tmp_path), max_iters=200, min_iters=0)
    report = compare(cfg)
    ctx = load_task(cfg)
    summary = dict(line.split(": ", 1) for line in
                   Path(cfg.outdir, "summary.txt").read_text().splitlines())
    values = Path(cfg.outdir, "values.csv").read_text().splitlines()[1:]
    curve = Path(cfg.outdir, "curve.csv").read_text().splitlines()[1:]
    initial = values[ctx.product.base.initial].split(",")
    assert int(initial[0]) == ctx.product.base.initial
    assert curve
    optimal = float(summary["optimal probability"])
    assert optimal == report.optimal_probability == float(initial[1]) > 0
    assert all(float(row.split(",")[2]) == optimal for row in curve)
    assert float(summary["ratio"]) == report.final_probability / optimal


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), label_rule=st.sampled_from(["next", "current"]),
       n_states=st.integers(1, 7), n_actions=st.integers(1, 3), n_props=st.integers(1, 3),
       dra_states=st.integers(1, 4))
def test_exact_ssp_shares_the_ssps_rows_on_random_products(
        seed, label_rule, n_states, n_actions, n_props, dra_states):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=3, n_props=n_props)
    product = build_product(nts_from_mdp(m), random_dra(rng, dra_states, PROP_NAMES[:n_props]),
                            label_rule)
    n = product.base.n_states
    goal = frozenset(np.flatnonzero(rng.random(n) < 0.3).tolist()) - {product.base.initial}
    found = [Amec(states=goal, rows=np.zeros(0, dtype=np.int64), pair_index=0)] if goal else []
    _goal, bad = goal_and_bad_sets(product, found)
    assert_exact_ssp_shares_the_rows(mrp_to_ssp(product, goal, bad),
                                     mrp_to_ssp(with_probabilities(product, m), goal, bad))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_states=st.integers(2, 7), n_actions=st.integers(1, 3))
def test_exact_ssp_judges_policies_as_the_product_does(seed, n_states, n_actions):
    rng = np.random.default_rng(seed)
    *_, product_mdp, goal, bad, ssp, twin = make_random_ssp(
        rng, n_states=n_states, n_actions=n_actions, want_mdp=True)
    assert_exact_ssp_shares_the_rows(ssp, twin)
    m, terminal = product_mdp.base, frozenset({twin.terminal})
    # The optimum read back through origin is the product's to the last bit.
    values = np.ones(m.n_states)
    values[twin.origin[:twin.terminal]] = exact.max_reach(twin.base, terminal, twin.bad)[0][:-1]
    assert np.array_equal(values, exact.max_reach(m, goal, bad)[0])
    # The SSP's rows are the product's non-goal rows in order, then the
    # terminal's, so a random SSP row policy carries over row for row.
    # The values may differ in the last bit: the SSP merges a row's goal
    # mass before weighting it, p * (w1 + w2), where the product sums
    # p * w1 + p * w2.
    s = twin.base
    product_rows = ~np.isin(m.row_state, list(goal))
    on_ssp = exact.ReachEvaluator(twin.base, terminal, twin.bad)
    on_product = exact.ReachEvaluator(m, goal, bad)
    for _ in range(5):
        probs = rng.random(len(s.row_action)) * (rng.random(len(s.row_action)) < 0.8)
        probs[s.state_ptr[:-1]] += 0.1  # every state keeps some mass
        probs /= np.add.reduceat(probs, s.state_ptr[:-1])[s.row_state]
        product_probs = np.zeros(len(m.row_action))
        product_probs[product_rows] = probs[s.row_state != twin.terminal]
        assert abs(exact.eval_policy_reach(on_ssp, probs)
                   - exact.eval_policy_reach(on_product, product_probs)) <= 1e-12


def test_desk_compare_builds_two_solve_plans(tmp_path, monkeypatch):
    # One plan for the max_reach polish and one for the lookahead policy,
    # whose support does not move with theta: every periodic evaluation
    # reuses it.
    built = []

    class CountedPlan(exact._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(len(self.unknown))

    monkeypatch.setattr(exact, "_Plan", CountedPlan)
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              max_iters=200, seed=1)
    report = compare(cfg)
    assert len(report.trace.exact) > 2
    assert built == [372, 372]


RUN_CONFIG_DEFAULTS = {
    "lam": 0.9, "gamma_exponent": 0.6, "beta_scale": 0.05, "beta_exponent": 0.85,
    "clip": 10.0, "epsilon": 1e-4, "max_iters": 5000, "min_iters": 100,
    "gate_iters": 50, "gate_sigma": 1e-8, "reset_trace_on_restart": False,
    "solve_with_updated_stats": False, "seed": 0, "eval_every": 25,
    "dra": "", "map": None, "model": None, "task_name": "task", "outdir": "out",
    "horizon": 2, "radius": None, "theta0": (5.0, -0.5), "progress_penalty": None,
    "sequence_cap": 10_000, "exact_reference": True, "label_rule": "next",
    "eta": 0.9, "confusion": "uniform", "mc_runs": None, "noise_seed": 0,
}


def test_run_config_fields_and_defaults():
    # The actor-critic settings are declared once, in ActorCriticConfig.
    assert issubclass(RunConfig, ActorCriticConfig)
    fields = dataclasses.fields(RunConfig)
    assert len(fields) == 30
    assert {f.name: f.default for f in fields} == RUN_CONFIG_DEFAULTS
    assert {f.name for f in dataclasses.fields(ActorCriticConfig)} < set(RUN_CONFIG_DEFAULTS)


def test_desk_config_file_fields():
    cfg = RunConfig.from_file("tasks/desk.json")
    assert dataclasses.asdict(cfg) == {
        **RUN_CONFIG_DEFAULTS, "task_name": "desk-data-mission", "map": "tasks/desk.map",
        "dra": "tasks/mission.dra", "confusion": "undershoot", "beta_scale": 0.5,
        "min_iters": 500}


def test_every_config_key_has_a_flag():
    parser = argparse.ArgumentParser()
    _add_common(parser)
    dests = {action.dest for action in parser._actions}
    assert {f.name for f in dataclasses.fields(RunConfig)} <= dests


# The flags are generated from RunConfig's fields, so renaming a field
# renames its flag; this pins them.
CLI_OPTIONS = {
    "--config", "--dra", "--map", "--model", "--task-name", "--outdir", "--horizon",
    "--radius", "--theta0", "--progress-penalty", "--sequence-cap", "--lam",
    "--gamma-exponent", "--beta-scale", "--beta-exponent", "--clip", "--epsilon",
    "--max-iters", "--min-iters", "--gate-iters", "--gate-sigma",
    "--reset-trace-on-restart", "--solve-with-updated-stats", "--seed", "--eval-every",
    "--no-exact-reference", "--label-rule", "--eta", "--confusion", "--mc-runs",
    "--noise-seed",
}


def test_cli_option_strings_are_pinned():
    parser = argparse.ArgumentParser(add_help=False)
    _add_common(parser)
    options = [o for action in parser._actions for o in action.option_strings]
    assert len(options) == 31
    assert set(options) == CLI_OPTIONS


def test_flags_round_trip_every_setting():
    away = {
        "lam": 0.5, "gamma_exponent": 0.7, "beta_scale": 0.25, "beta_exponent": 0.95,
        "clip": 3.0, "epsilon": 1e-3, "max_iters": 11, "min_iters": 12,
        "gate_iters": 13, "gate_sigma": 1e-6, "reset_trace_on_restart": True,
        "solve_with_updated_stats": True, "seed": 5, "eval_every": 6,
        "dra": "a.dra", "map": "a.map", "model": "a.model", "task_name": "t", "outdir": "o",
        "horizon": 3, "radius": 2, "theta0": (1.5, -2.25), "progress_penalty": 3.5,
        "sequence_cap": 77, "exact_reference": False, "label_rule": "current",
        "eta": 0.5, "confusion": "undershoot", "mc_runs": 9, "noise_seed": 4,
    }
    assert away.keys() == RUN_CONFIG_DEFAULTS.keys()
    assert all(away[k] != RUN_CONFIG_DEFAULTS[k] for k in away)
    argv = ["synthesize"]
    for key, value in away.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv += [flag, *map(repr, value)] if isinstance(value, tuple) else [flag, str(value)]
    parser = argparse.ArgumentParser()
    _add_common(parser.add_subparsers(dest="command").add_parser("synthesize"))
    assert _config_from(parser.parse_args(argv)) == RunConfig(**away)


def test_eval_subcommand_round_trip(tiny_task, tmp_path):
    # The written policy.tsv holds the run's final policy to the last bit,
    # so evaluating it gives the run's final exact probability exactly.
    desk = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                               seed=1, max_iters=300, eval_every=0)
    for cfg in (tiny_task, desk):
        report = synthesize(cfg)
        value = evaluate_policy_file(cfg, Path(cfg.outdir, "policy.tsv"))
        assert value == report.final_probability


def test_eval_names_the_policy_files_own_undefined_states(tmp_path, capsys):
    # Desk's SSP state 3 stands for product state 10; the error names the
    # state as the file numbers it.
    out = tmp_path / "run"
    assert main(["synthesize", "--config", "tasks/desk.json", "--outdir", str(out),
                 "--max-iters", "50", "--eval-every", "0"]) in (0, 2)
    ctx = load_task(RunConfig.from_file("tasks/desk.json"))
    assert ctx.ssp.origin[3] == 10 and 3 not in ctx.ssp.bad
    lines = (out / "policy.tsv").read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.tsv"
    partial.write_text("".join(line for line in lines if not line.startswith("3\t")))
    capsys.readouterr()
    assert main(["eval", "--config", "tasks/desk.json", str(partial)]) == 1
    assert capsys.readouterr().err == "error: policy undefined at states [3]\n"


def test_build_writes_parseable_models(tiny_task):
    paths = write_models(tiny_task)
    product_text = Path(paths[0]).read_text()
    m = parse_model(product_text)
    assert m.mode == "nts"
    ssp_model, terminal, _bad = parse_ssp_text(Path(paths[1]).read_text())
    assert terminal == ssp_model.n_states - 1


def test_load_task_builds_the_nts_once(monkeypatch):
    calls = []
    build_nts = gridenv.build_nts

    def counting(*args, **kwargs):
        calls.append(args)
        return build_nts(*args, **kwargs)

    monkeypatch.setattr(gridenv, "build_nts", counting)
    ctx = load_task(RunConfig.from_file("tasks/desk.json"))
    assert len(calls) == 1
    assert ctx.base_mdp is not None
    # The SSP is built on first use, not by load_task.
    assert "ssp" not in vars(ctx)


def test_the_task_keeps_one_probabilistic_model(tmp_path, monkeypatch):
    # The product's probability refit and the accepting components are
    # intermediates: once the curve and the optimum are built, the task
    # holds neither, and the refit was built once.
    refit, components = pipeline.with_probabilities, pipeline.amecs
    made, refits = [], []

    def recording_refit(*args):
        out = refit(*args)
        refits.append(weakref.ref(out))
        return out

    def recording_amecs(*args):
        out = components(*args)
        made.extend(weakref.ref(amec) for amec in out)
        return out

    monkeypatch.setattr(pipeline, "with_probabilities", recording_refit)
    monkeypatch.setattr(pipeline, "amecs", recording_amecs)
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              max_iters=100, min_iters=0)
    ctx = load_task(cfg)
    report = synthesize(cfg, ctx)
    assert report.trace.exact and ctx.optimal_values.size
    gc.collect()
    assert made and ctx.n_amecs == len(made)
    assert len(refits) == 1
    assert all(ref() is None for ref in made + refits)
    assert "product_mdp" not in vars(ctx)
    # The refit is still there on request, for checks of the exact values.
    assert ctx.product_mdp.base == refit(ctx.product, ctx.base_mdp).base


def test_build_skips_the_probabilistic_model(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("build writes no probabilistic model")

    on_map = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path))
    # A model-file task parses its MDP, but build refits no product with it.
    on_model = desk_model_task(tmp_path)
    monkeypatch.setattr(gridenv, "build_mdp", unused)
    monkeypatch.setattr(pipeline, "with_probabilities", unused)
    for cfg in (on_map, on_model):
        assert [path.name for path in write_models(cfg)] == ["product.model", "ssp.model"]


# sha256 of the desk task's `build` output (product and SSP model files):
# any change to the bytes of either file fails here.
DESK_MODEL_DIGESTS = {
    "product.model": "88ffa4d549d861f5ba86c3f2cf9b38628d1eba19bec08dda2331a03efb88acf9",
    "ssp.model": "1afd61d2749a3b412c8153c7c19643dd6802b2778bb116b8f3760da148af7ef7",
}


def test_desk_build_output_is_byte_identical(tmp_path):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path))
    paths = write_models(cfg)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths} == DESK_MODEL_DIGESTS


# sha256 of the state names, one per line, that `build` writes into the
# product and SSP model files, on desk and on the k=8 road lattice (map seed 0).
MODEL_NAME_DIGESTS = {
    "desk": {"product": "365616a8fd5c4c94d3b9c90e31c4fe6694bcba10f189fdf59bcc786e6c1bee7a",
             "ssp": "3d061bc2aabd3b2850946eb120ef726777963c5172ddcb5d7d2a9f0bd74fb4fd"},
    "lattice-k8": {"product": "734fe13c91bd1dda07dc64d7cc2db1ab01c520706f2102a59eda8088fcdea362",
                   "ssp": "25e0dfe5fcb4f7404fc081389ff4612615f1190cbe053c15a914d4fbcf8c5921"},
}


@pytest.mark.parametrize("task", ["desk", "lattice-k8"])
def test_state_names_are_formatted_only_when_build_writes(tmp_path, task):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path))
    if task == "lattice-k8":
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"))
    ctx = load_task(cfg)
    assert ctx.product.base.state_names is None and ctx.ssp.base.state_names is None
    assert len(ctx.base_nts.state_names) == ctx.base_nts.n_states
    product_path, ssp_path = write_models(cfg)
    product = parse_model(product_path.read_text())
    ssp = parse_ssp_text(ssp_path.read_text())[0]
    names = {"product": product.state_names, "ssp": ssp.state_names}
    assert {key: hashlib.sha256("\n".join(value).encode()).hexdigest()
            for key, value in names.items()} == MODEL_NAME_DIGESTS[task]
    assert product.n_states == ctx.product.base.n_states
    assert ssp.state_names == tuple(product.state_names[old] for old in ctx.ssp.origin[:-1]) + (
        "terminal",)
    model_names = ctx.base_nts.state_names
    assert product.state_names == tuple(f"{model_names[q]}|{s}"
                                        for q, s in ctx.product.projection.tolist())


# sha256 of desk `synthesize` output without the exact reference (eval_every
# 0, 2,000 iterations): trace.csv must stay byte-identical for a fixed config
# and seed. The actor-critic's step is Python float arithmetic apart from
# numpy's exp kernel, which decides the last bit of the policy's weights
# (the values a curve records come from numpy's elementwise operations and
# one LU of at most 64 unknowns, which OpenBLAS runs on one thread), so the
# digests hold for the numpy they were taken with.
DESK_RUN_NUMPY = "2.4.6"
DESK_RUN_DIGESTS = {
    1: {"trace.csv": "ae5f102b23424c37cebb0a7d8fd295e2ba75f82ece59bcc5f660922edbeb1462",
        "policy.tsv": "ec022a32d55152e70c49e33ae3fcf6e9085e756c56dc0e70d5999ffb43882b0d"},
    2: {"trace.csv": "6c3d110c60c6eb61edf1526be899c71f4a1434f1fea173872b814b529a3b37f9",
        "policy.tsv": "576afb1975920a223a8012041f4e2219871aadc9e11dda5d62fae9f87dbfd741"},
    # Seed 1 on the two other row providers of the lazy source: desk's
    # probabilistic model written out as a model-file task, which reads back
    # as the same model and so takes the map run's path (its digests are
    # seed 1's), and the map's Monte-Carlo noise estimates.
    "model-file": {
        "trace.csv": "ae5f102b23424c37cebb0a7d8fd295e2ba75f82ece59bcc5f660922edbeb1462",
        "policy.tsv": "ec022a32d55152e70c49e33ae3fcf6e9085e756c56dc0e70d5999ffb43882b0d"},
    "mc-runs": {
        "trace.csv": "431a1a427765eefdc360c3944f8bd62b29e15a8b40eac3d6e60f52f9c2ccf2ed",
        "policy.tsv": "e7b324ddf18b738ec24fac3015b64d8786b6c33c35e0262093450eeadc051dbf"},
}


@pytest.mark.skipif(np.__version__ != DESK_RUN_NUMPY,
                    reason=f"digests taken with numpy {DESK_RUN_NUMPY}")
@pytest.mark.parametrize("case", list(DESK_RUN_DIGESTS))
def test_desk_synthesize_output_is_byte_identical(tmp_path, case):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              seed=case if isinstance(case, int) else 1,
                              exact_reference=False, eval_every=0, max_iters=2000)
    if case == "model-file":
        assert DESK_RUN_DIGESTS[case] == DESK_RUN_DIGESTS[1]
        model = tmp_path / "desk.model"
        model.write_text(serialize_model(load_task(RunConfig.from_file("tasks/desk.json")).base_mdp))
        cfg = dataclasses.replace(cfg, map=None, model=str(model))
    elif case == "mc-runs":
        cfg = dataclasses.replace(cfg, mc_runs=200)
    synthesize(cfg)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "policy.tsv")} == DESK_RUN_DIGESTS[case]


# sha256 of `compare`'s values.csv on desk and on the k=8 road lattice (map
# seed 0). The values come from the optimal policy's elimination plan: its
# waves are numpy elementwise operations, its core one small LAPACK solve, so
# the digests hold for the numpy they were taken with.
VALUES_DIGESTS = {
    "desk": "c8f581378f79a04807db11edff3dcb292f4c28b836580c57dd28a7724f9a25fe",
    "lattice-k8": "3b7c6d1e038f77a015015db2470f4ae7133b21adb13265a12a6fa863ca07b4fe",
}
# The same k=8 lattice run's trace.csv: the actor-critic's path on a model
# other than desk's.
LATTICE_TRACE_DIGEST = "3d5626876b850be619753fe908ea253a3687a870fc0122fbfb051eb2751cf576"


@pytest.mark.skipif(np.__version__ != DESK_RUN_NUMPY,
                    reason=f"digests taken with numpy {DESK_RUN_NUMPY}")
@pytest.mark.parametrize("task", sorted(VALUES_DIGESTS))
def test_compare_values_are_byte_identical(tmp_path, task):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              seed=1, eval_every=0, max_iters=200)
    if task != "desk":
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"))
    compare(cfg)
    digest = hashlib.sha256((tmp_path / "values.csv").read_bytes()).hexdigest()
    assert digest == VALUES_DIGESTS[task]
    if task == "lattice-k8":
        digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
        assert digest == LATTICE_TRACE_DIGEST


# sha256 of desk `synthesize` output (seed 3, 2,000 iterations, no exact
# reference) with one critic flag set: each flag takes a branch of the loop
# that the default run never enters.
DESK_FLAG_DIGESTS = {
    "reset_trace_on_restart": {
        "trace.csv": "b584795366dcf7af1260ae13687b76a9b72041f3d5a40d8bf4d24708a3e11b0f",
        "policy.tsv": "2aeea0b8b9125501abf232eb5787e1654d5f8fcc597f7310f58ee81720ba59c4"},
    "solve_with_updated_stats": {
        "trace.csv": "9e7848bd9b6b5febdacf7e4bfb3921ffc1886849499d9bd0c4ed3771e32753ad",
        "policy.tsv": "7962cd7b37b69158eb3b21df1823ead5b9a79f1766e6a4aa00d375f21580e518"},
}


@pytest.mark.skipif(np.__version__ != DESK_RUN_NUMPY,
                    reason=f"digests taken with numpy {DESK_RUN_NUMPY}")
@pytest.mark.parametrize("flag", sorted(DESK_FLAG_DIGESTS))
def test_desk_critic_flag_output_is_byte_identical(tmp_path, flag):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              seed=3, exact_reference=False, eval_every=0, max_iters=2000,
                              **{flag: True})
    synthesize(cfg)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "policy.tsv")} == DESK_FLAG_DIGESTS[flag]


# sha256 of desk `compare` output (seed 1, 2,000 iterations) with an exact
# evaluation every 25 steps: the evaluator sets the policy's theta between
# steps, and curve.csv records what it returned.
DESK_CURVE_DIGESTS = {
    "trace.csv": "8e574fa21c301df094594553ff91ff21b53077fae97d9d5e0ef5f84e012b6da0",
    "curve.csv": "dc32219f4583045fbefc19d381cc28b85a85eb11682115c9552b6781228a84d2",
}


@pytest.mark.skipif(np.__version__ != DESK_RUN_NUMPY,
                    reason=f"digests taken with numpy {DESK_RUN_NUMPY}")
def test_desk_compare_curve_is_byte_identical(tmp_path):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              seed=1, eval_every=25, max_iters=2000)
    compare(cfg)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "curve.csv")} == DESK_CURVE_DIGESTS


# A desk `compare` with an exact evaluation every 25 steps, run in a fresh
# interpreter so that the BLAS thread count takes effect. By iteration 650
# theta has reached policies whose values a threaded LU of a 190-state
# block would round differently.
def package_env(**extra):
    """The environment for a subprocess that imports the package from ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}


SHORT_CURVE = """
import dataclasses, sys
from tlcontrol.pipeline import RunConfig, compare
compare(dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=sys.argv[1],
                            seed=1, eval_every=25, max_iters=1000))
"""


def test_desk_curve_does_not_depend_on_the_blas_thread_count(tmp_path):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run([sys.executable, "-c", SHORT_CURVE, str(out)],
                              env=package_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("trace.csv", "curve.csv")})
    assert digests[0] == digests[1]


FOOTPRINT = """
import dataclasses, json, sys
from tlcontrol.pipeline import RunConfig, compare, synthesize
cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), max_iters=300, **json.loads(sys.argv[2]))
synthesize(dataclasses.replace(cfg, outdir=sys.argv[1] + "/lazy", exact_reference=False, eval_every=0))
if cfg.mc_runs is None:
    compare(dataclasses.replace(cfg, outdir=sys.argv[1] + "/compare", eval_every=100))
print(json.dumps([m for m in ("numpy.random", "secrets", "hashlib", "statistics") if m in sys.modules]))
"""


def test_only_monte_carlo_rows_load_numpy_random(tmp_path):
    # The actor-critic draws from its own Pcg64, and synthesize_seeds takes
    # its median without statistics: a desk synthesize and compare load
    # neither numpy.random (nor secrets and hashlib, which it imports) nor
    # statistics. Monte-Carlo rows still draw from numpy.random.
    loaded = []
    for overrides in ({}, {"mc_runs": 200}):
        done = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path),
                               json.dumps(overrides)], env=package_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded.append(json.loads(done.stdout))
    assert loaded[0] == []
    assert "numpy.random" in loaded[1]


def test_multi_seed_aggregation(tiny_task, tmp_path):
    reports = synthesize_seeds(tiny_task, [0, 1])
    assert len(reports) == 2
    agg = Path(tiny_task.outdir, "seeds-summary.txt").read_text()
    assert "median final probability" in agg
    assert (Path(tiny_task.outdir) / "seed0" / "trace.csv").exists()
    # The medians are statistics.median's, for an even and an odd seed count
    # of distinct final probabilities.
    desk = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), max_iters=300,
                               eval_every=0)
    for seeds in ([1, 2], [1, 2, 3]):
        out = tmp_path / f"desk{len(seeds)}"
        reports = synthesize_seeds(dataclasses.replace(desk, outdir=str(out)), seeds)
        probs = [r.final_probability for r in reports]
        assert len(set(probs)) == len(seeds)
        lines = (out / "seeds-summary.txt").read_text().splitlines()
        median = statistics.median(probs)
        assert f"median final probability: {median!r}" in lines
        assert f"median ratio: {median / reports[0].optimal_probability!r}" in lines


def test_multi_seed_run_loads_the_task_once(tmp_path, monkeypatch):
    loads = []
    load = pipeline.load_task

    def counting(cfg):
        loads.append(cfg)
        return load(cfg)

    monkeypatch.setattr(pipeline, "load_task", counting)
    solves = []
    max_reach = exact.max_reach

    def counting_solve(*args):
        solves.append(args)
        return max_reach(*args)

    monkeypatch.setattr(exact, "max_reach", counting_solve)
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), max_iters=300,
                              eval_every=100)
    reports = synthesize_seeds(dataclasses.replace(cfg, outdir=str(tmp_path / "multi")), [1, 2])
    assert len(loads) == 1
    # The optimum depends only on the task: one exact solve serves both seeds.
    assert len(solves) == 1
    assert reports[0].optimal_probability == reports[1].optimal_probability is not None
    # Each seed still gets a fresh policy, source and evaluator.
    for seed in (1, 2):
        alone = tmp_path / f"alone{seed}"
        synthesize(dataclasses.replace(cfg, seed=seed, outdir=str(alone)))
        for name in ("trace.csv", "policy.tsv"):
            assert (tmp_path / "multi" / f"seed{seed}" / name).read_bytes() == \
                (alone / name).read_bytes()


def test_cli_main_exit_codes(tiny_task, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "map": tiny_task.map, "dra": tiny_task.dra, "outdir": tiny_task.outdir,
        "eta": 1.0, "max_iters": 120, "min_iters": 30, "seed": 1}))
    code = main(["synthesize", "--config", str(cfg_path)])
    assert code in (0, 2)
    assert main(["eval", "--config", str(cfg_path),
                 str(Path(tiny_task.outdir, "policy.tsv"))]) == 0
    assert main(["build", "--config", str(cfg_path)]) == 0
    assert main(["synthesize", "--dra", "missing.dra", "--map", tiny_task.map]) == 1


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dra": "x", "map": "y", "not_a_key": 1}))
    with pytest.raises(ModelError, match="unknown configuration keys"):
        RunConfig.from_file(path)
    with pytest.raises(ModelError, match="exactly one"):
        RunConfig(dra="x").validate()


@pytest.mark.parametrize("bad, message", [
    ({"clip": 0.0}, "clip and beta_scale must be positive"),
    ({"clip": -10.0}, "clip and beta_scale must be positive"),
    ({"beta_scale": 0.0}, "clip and beta_scale must be positive"),
    ({"lam": 1.5}, r"lam must lie in \[0, 1\)"),
    ({"lam": 1.0}, r"lam must lie in \[0, 1\)"),
    ({"lam": -0.1}, r"lam must lie in \[0, 1\)"),
    ({"theta0": (float("nan"), 0.0)}, "theta0 must be finite"),
    ({"theta0": (5.0, float("inf"))}, "theta0 must be finite"),
    ({"gamma_exponent": -1.0}, "gamma_exponent and beta_exponent must be positive"),
    ({"gamma_exponent": 0.0}, "gamma_exponent and beta_exponent must be positive"),
    ({"gamma_exponent": float("nan")}, "gamma_exponent and beta_exponent must be positive"),
    ({"beta_exponent": -2.0}, "gamma_exponent and beta_exponent must be positive"),
    ({"beta_exponent": float("inf")}, "gamma_exponent and beta_exponent must be positive"),
    ({"mc_runs": -5}, "mc_runs must not be negative"),
    ({"seed": -1}, "seed and noise_seed must not be negative"),
    ({"mc_runs": 10, "noise_seed": -1}, "seed and noise_seed must not be negative"),
    ({"max_iters": -5}, "max_iters, min_iters and gate_iters must not be negative"),
    ({"min_iters": -1}, "max_iters, min_iters and gate_iters must not be negative"),
    ({"gate_iters": -1}, "max_iters, min_iters and gate_iters must not be negative"),
    ({"beta_scale": float("inf")}, "beta_scale finite"),
    ({"beta_scale": float("nan")}, "beta_scale finite"),
    ({"epsilon": 0.0}, "epsilon must be positive and finite"),
    ({"epsilon": float("nan")}, "epsilon must be positive and finite"),
    ({"epsilon": float("inf")}, "epsilon must be positive and finite"),
    ({"gate_sigma": -1e-8}, "gate_sigma must be finite and not negative"),
    ({"gate_sigma": float("nan")}, "gate_sigma must be finite and not negative"),
    ({"gate_sigma": float("inf")}, "gate_sigma must be finite and not negative"),
    ({"progress_penalty": float("nan")}, "progress_penalty must be finite"),
    ({"progress_penalty": float("-inf")}, "progress_penalty must be finite"),
    ({"eta": 0.0}, r"eta must lie in \(0, 1\]"),
    ({"eta": 1.5}, r"eta must lie in \(0, 1\]"),
    ({"eta": float("nan")}, r"eta must lie in \(0, 1\]"),
    ({"radius": 0}, "radius .when set. and sequence_cap must be >= 1"),
    ({"sequence_cap": 0}, "radius .when set. and sequence_cap must be >= 1"),
    ({"label_rule": "bogus"}, "label_rule must be one of"),
    ({"confusion": "bogus"}, "confusion must be one of"),
])
def test_config_rejects_invalid_actor_critic_settings(bad, message):
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), **bad)
    with pytest.raises(ModelError, match=message):
        cfg.validate()
    with pytest.raises(ModelError, match=message):
        load_task(cfg)


def test_model_file_config_checks_the_map_noise_settings(tmp_path, capsys):
    # eta and confusion are RunConfig's own settings, checked on a
    # model-file task too although only a map task reads them.
    (tmp_path / "single.model").write_text(SINGLE_ACTION_MODEL)
    (tmp_path / "fup.dra").write_text(F_UP_DRA)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": str(tmp_path / "single.model"),
                                "dra": str(tmp_path / "fup.dra"), "confusion": "bogus"}))
    cfg = RunConfig.from_file(path)
    with pytest.raises(ModelError, match="confusion must be one of"):
        load_task(cfg)
    with pytest.raises(ModelError, match=r"eta must lie in \(0, 1\]"):
        load_task(dataclasses.replace(cfg, confusion="uniform", eta=7.0))
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(path), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: confusion must be one of")
    assert not out.exists()


def test_config_takes_zero_iteration_counts():
    dataclasses.replace(RunConfig.from_file("tasks/desk.json"), max_iters=0, min_iters=0,
                        gate_iters=0).validate()


def test_package_runs_as_a_module():
    done = subprocess.run([sys.executable, "-m", "tlcontrol", "--help"], env=package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: tlcontrol")


def test_cli_exits_with_an_error_on_invalid_actor_critic_settings(tmp_path, capsys):
    code = main(["synthesize", "--config", "tasks/desk.json", "--outdir", str(tmp_path),
                 "--clip", "-10"])
    assert code == 1
    assert "clip and beta_scale must be positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [
    ("--sequence-cap", "0"),
    ("--gamma-exponent", "-1"),
    ("--beta-exponent", "-2"),
    ("--mc-runs", "-5"),
    ("--seed", "-1"),
    ("--mc-runs", "10", "--noise-seed", "-1"),
    ("--seeds", "1,x"),
    ("--seeds", "1,-2"),
    ("--max-iters", "-5"),
    ("--min-iters", "-1"),
    ("--gate-iters", "-1"),
    ("--epsilon", "nan"),
    ("--gate-sigma", "nan"),
    ("--progress-penalty", "nan"),
    ("--beta-scale", "inf"),
    ("--label-rule", "bogus"),
    ("--confusion", "bogus"),
    ("--eta", "1.5"),
    ("--radius", "0"),
    ("--seed", "x"),
    ("--theta0", "1"),
])
def test_cli_reports_bad_inputs_in_one_error_line(tmp_path, capsys, flag):
    code = main(["synthesize", "--config", "tasks/desk.json", "--outdir", str(tmp_path),
                 "--max-iters", "300", *flag])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", [
    ("--radius", "0"),
    ("--sequence-cap", "0"),
    ("--no-exact-reference", "--eta", "1.5"),
    ("--label-rule", "bogus"),
    ("--confusion", "bogus"),
    ("--seed", "x"),
])
def test_cli_rejects_bad_settings_before_making_the_output_directory(tmp_path, capsys, flag):
    out = tmp_path / "out"
    code = main(["synthesize", "--config", "tasks/desk.json", "--outdir", str(out),
                 "--max-iters", "300", *flag])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["bogus"], ["eval", "--config", "tasks/desk.json"]])
def test_cli_usage_errors_exit_1_in_one_error_line(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"dra": ', "is not JSON"),
    ('{"horizon": "2"}', "'horizon' must be int, got '2'"),
    ('{"theta0": 5}', r"'theta0' must be tuple\[float, float\], got 5"),
    ('{"theta0": [5, "x"]}', "'theta0' must be tuple"),
    ('{"max_iters": 2.5}', "'max_iters' must be int, got 2.5"),
    ('{"horizon": null}', "'horizon' must be int, got None"),
    ('{"lam": true}', "'lam' must be float, got True"),
    ('{"exact_reference": 1}', "'exact_reference' must be bool, got 1"),
    ('{"map": 3}', "'map' must be str | None, got 3"),
])
def test_cli_reports_bad_config_files_in_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ModelError, match=message):
        RunConfig.from_file(path)
    code = main(["synthesize", "--config", str(path), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("model", [
    "states -1\ninitial 0\nmode mdp\n",
    SINGLE_ACTION_MODEL.replace("trans 1 a 2 1.0", "trans 1 a 1 1.0\ntrans 1 a 2 nan"),
], ids=["negative-states", "nan-weight"])
def test_cli_reports_bad_model_files_in_one_error_line(tmp_path, capsys, model):
    (tmp_path / "bad.model").write_text(model)
    (tmp_path / "fup.dra").write_text(F_UP_DRA)
    code = main(["synthesize", "--model", str(tmp_path / "bad.model"),
                 "--dra", str(tmp_path / "fup.dra"), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line ") and err.count("\n") == 1, err


def test_config_file_takes_ints_for_floats_and_null_where_the_default_is_none(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta": 1, "theta0": [5, -1], "radius": None,
                                "mc_runs": None, "progress_penalty": 2}))
    cfg = RunConfig.from_file(path)
    assert (cfg.eta, cfg.theta0, cfg.radius, cfg.progress_penalty) == (1, (5, -1), None, 2)


def test_mission_dra_run_enters_accepting_states_along_oracle_path():
    cfg = RunConfig.from_file("tasks/desk.json")
    ctx = load_task(cfg)
    dra = ctx.dra
    accepting = dra.pairs[0][1]
    targets = {p for p in range(ctx.product.base.n_states)
               if ctx.product.projection[p][1] in accepting}
    # BFS over the possibilistic product for a witness path from the start.
    parent = {ctx.product.base.initial: None}
    frontier = [ctx.product.base.initial]
    hit = None
    while frontier and hit is None:
        nxt = []
        for p in frontier:
            for u in ctx.product.base.enabled[p]:
                for s, _ in ctx.product.base.successors(p, u):
                    if s not in parent:
                        parent[s] = p
                        if s in targets:
                            hit = s
                            break
                        nxt.append(s)
                if hit:
                    break
            if hit:
                break
        frontier = nxt
    assert hit is not None
    path = []
    node = hit
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    # Replay the base-state labels through the automaton and check the run
    # tracks the product's automaton components, ending inside K.
    letters = [prop_mask(dra, [p for i, p in enumerate(ctx.base_nts.props)
                               if ctx.base_nts.labels[q] >> i & 1])
               for q in range(ctx.base_nts.n_states)]
    q0, s0 = ctx.product.projection[path[0]]
    state = dra_step(dra, dra.initial, letters[q0])
    assert state == s0
    for p in path[1:]:
        q, s_expect = ctx.product.projection[p]
        state = dra_step(dra, state, letters[q])
        assert state == s_expect
    assert state in accepting
