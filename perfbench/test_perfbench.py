"""Tests of the benchmark itself: input generation, output checks, and the
span recorder.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
from lattice import lattice_map
from recorder import Recorder, read_spans, summarize

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def desk():
    """The shipped desk task, its product MDP values, and its optimum."""
    from tlcontrol import exact
    from tlcontrol.pipeline import RunConfig, load_task

    cfg = RunConfig.from_file(ROOT / "tasks" / "desk.json")
    cfg.map, cfg.dra = str(ROOT / cfg.map), str(ROOT / cfg.dra)
    ctx = load_task(cfg)
    values, _ = exact.max_reach(ctx.product_mdp.base, ctx.goal, ctx.bad)
    return ctx, [float(v) for v in values]


def test_lattice_map_is_deterministic():
    assert lattice_map(8, 3) == lattice_map(8, 3)
    assert lattice_map(8, 3) != lattice_map(8, 4)
    assert lattice_map(8, 3) != lattice_map(9, 3)
    grid = lattice_map(8, 3).split("legend")[0].split()
    assert len(grid) == 24 and all(len(row) == 24 for row in grid)
    for marker in "vdurn":
        assert marker in "".join(grid)


def test_small_lattice_instance_passes_instance_check(tmp_path):
    from tlcontrol.pipeline import RunConfig, load_task

    path = tmp_path / "lattice.map"
    path.write_text(lattice_map(5, 0))
    ctx = load_task(RunConfig(dra=str(ROOT / "tasks" / "mission.dra"), map=str(path),
                              confusion="undershoot"))
    assert checks.check_instance(ctx, 5) == []


def fake_context(trivial=False, zero=False, states=20_000, goal=9_000, bad=4_000):
    return SimpleNamespace(trivial=trivial, zero_probability=zero, goal=range(goal),
                           bad=range(bad), product=SimpleNamespace(
                               base=SimpleNamespace(n_states=states)))


def test_instance_check_fires():
    assert checks.check_instance(fake_context(), 20) == []
    assert checks.check_instance(fake_context(trivial=True), 20)
    assert checks.check_instance(fake_context(zero=True), 20)
    few_unknowns = fake_context(states=14_000)
    assert checks.check_instance(few_unknowns, 20)
    assert checks.check_instance(few_unknowns, 8) == []


def test_exact_checks_pass_on_desk_and_fire_on_perturbation(desk):
    ctx, values = desk
    model = ctx.product_mdp.base
    optimum = values[model.initial]
    assert checks.check_exact(model, values, ctx.goal, ctx.bad, optimum, optimum) == []
    assert checks.check_desk_optimum(optimum) == []

    unknown = next(q for q in range(model.n_states)
                   if q not in ctx.goal and q not in ctx.bad and q != model.initial)
    perturbed = list(values)
    perturbed[unknown] += 1e-6
    failures = checks.check_exact(model, perturbed, ctx.goal, ctx.bad, optimum, optimum)
    assert any("Bellman residual" in f for f in failures)

    assert checks.check_exact(model, values, ctx.goal, ctx.bad, optimum + 1e-9, optimum)
    assert checks.check_desk_optimum(optimum + 1e-9)


def test_lazy_check_fires_on_forged_counts(desk):
    from tlcontrol.synthesis import mrp_to_ssp

    ctx, _ = desk
    needable = checks.needable_pairs(mrp_to_ssp(ctx.product, ctx.goal, ctx.bad), ctx.product)
    assert needable < ctx.base_nts.n_enabled_pairs()
    assert checks.check_lazy(needable, needable, 5000) == []
    # An eager source computing every enabled pair breaks the contract.
    assert checks.check_lazy(ctx.base_nts.n_enabled_pairs(), needable, 5000)
    assert checks.check_lazy(needable, needable, needable - 1)


def test_trace_check_fires():
    assert checks.check_same_trace("ab" * 32, "ab" * 32) == []
    assert checks.check_same_trace("ab" * 32, "ba" * 32)


def test_read_values_rejects_other_files(tmp_path):
    path = tmp_path / "values.csv"
    path.write_text("state,value\n0,0.5\n1,1.0\n")
    assert checks.read_values(path) == [0.5, 1.0]
    path.write_text("k,value\n0,0.5\n")
    with pytest.raises(ValueError):
        checks.read_values(path)


def test_recorder_spans_give_self_times(tmp_path):
    box = SimpleNamespace()
    box.inner = lambda: sum(range(1000))
    box.outer = lambda: box.inner() + box.inner()
    original = box.inner
    rec = Recorder(run_id=7)
    assert rec.install([(box, "inner", "m.inner"), (box, "outer", "m.outer"),
                        (box, "missing", "m.missing")]) == ["m.inner", "m.outer"]
    box.outer()
    rec.uninstall()
    assert box.inner is original
    rec.write(tmp_path / "spans.csv")
    spans = read_spans(tmp_path / "spans.csv")
    assert [(s[0], s[1], s[4]) for s in spans] == [
        (7, "m.outer", -1), (7, "m.inner", 0), (7, "m.inner", 0)]
    summary = summarize(spans)
    assert summary["m.inner"]["calls"] == 2
    outer = summary["m.outer"]
    assert outer["self_s"] == pytest.approx(
        outer["inclusive_s"] - summary["m.inner"]["inclusive_s"])


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-curve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
