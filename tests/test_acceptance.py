"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them inline)."""

import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from dict_reference import action_probability
from tlcontrol import exact
from tlcontrol.lookahead import LookaheadPolicy
from tlcontrol.pipeline import RunConfig, synthesize
from tlcontrol.synthesis import max_end_components, mrp_to_ssp, amecs
from conftest import (
    enumerate_policies, make_random_ssp, own_product, random_mdp, random_nts, retained,
    support_zeros)
from test_synthesis import brute_force_mecs

DESK_SEEDS = [0, 1, 2, 3, 4]


def test_criterion_1_reachability_oracle_equivalence():
    """max_reach equals brute-force policy enumeration on 25 random MDPs."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(25):
        n_states = int(rng.integers(3, 7))
        n_actions = int(rng.integers(2, 4))
        m = random_mdp(rng, n_states=n_states, n_actions=n_actions)
        k = int(rng.integers(1, max(2, n_states - 1)))
        targets = frozenset(int(s) for s in rng.choice(n_states, size=k, replace=False))
        zeros = support_zeros(m, targets) - targets
        v, _pol = exact.max_reach(m, targets, zeros)
        reach = exact.ReachEvaluator(m, targets, zeros)
        best = max(exact.eval_policy_reach(reach, pol) for pol in enumerate_policies(m))
        worst = max(worst, abs(float(v[m.initial]) - best))
        assert abs(float(v[m.initial]) - best) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 25 instances, max |vi - enumeration| = {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_amec_exhaustive_equivalence():
    """End-component decomposition matches subset enumeration on 25 NTSs."""
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    for i in range(25):
        n_states = int(rng.integers(3, 9))
        n = random_nts(rng, n_states=n_states, n_actions=2)
        got = max_end_components(n)
        want = brute_force_mecs(n)
        assert [(s, retained(n, r)) for s, r in got] == want
        # Accepting components against the restricted oracle.
        left = frozenset(int(s) for s in
                         rng.choice(n_states, size=min(2, n_states - 1), replace=False))
        right = frozenset(int(s) for s in
                          rng.choice(n_states, size=min(2, n_states), replace=False))
        p = own_product(n, ((left, right),))
        got_a = [(a.states, retained(n, a.rows)) for a in amecs(p)]
        want_a = [(s, r) for s, r in
                  brute_force_mecs(n, within=set(range(n_states)) - left) if s & right]
        assert got_a == want_a
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: 25 instances match exhaustive enumeration, "
          f"{elapsed:.1f}s")


def test_criterion_3_mrp_ssp_equivalence():
    """Minimizing expected total cost maximizes reachability, and every
    policy that does not diverge obeys the geometric-restart identity
    C = (1 - p)/p."""
    rng = np.random.default_rng(303)
    done = 0
    identities = 0
    while done < 10:
        m, dra, product, product_mdp, goal, bad, ssp, ssp_mdp = make_random_ssp(
            rng, n_states=int(rng.integers(3, 5)), n_actions=2, want_mdp=True)
        values, _ = exact.max_reach(product_mdp.base, goal, bad)
        if values[product_mdp.base.initial] <= 1e-9:
            continue
        best_reach = -1.0
        best_cost = float("inf")
        cost_winner_reach = None
        # Each SSP policy's reachability is judged on the SSP itself: the
        # terminal is the target and the restart states are zeros.
        evaluator = exact.ReachEvaluator(ssp_mdp.base, frozenset({ssp_mdp.terminal}),
                                         ssp_mdp.bad)
        for pol in enumerate_policies(ssp_mdp.base):
            reach = exact.eval_policy_reach(evaluator, pol)
            best_reach = max(best_reach, reach)
            try:
                cost = exact.expected_total_cost(ssp_mdp, pol)
            except exact.PolicyDivergence:
                continue
            # Attempts are independent and each succeeds with probability
            # p, so the expected number of unit-cost restarts is (1 - p)/p.
            assert cost == pytest.approx((1 - reach) / reach, rel=1e-9)
            identities += 1
            if cost < best_cost - 1e-12:
                best_cost = cost
                cost_winner_reach = reach
        assert cost_winner_reach is not None
        assert abs(cost_winner_reach - best_reach) <= 1e-9
        # Across models: the best SSP policy attains the product's optimum.
        assert abs(best_reach - values[product_mdp.base.initial]) <= 1e-9
        done += 1
    # Geometric restart: one attempt succeeds with probability 1/2, so the
    # expected number of unit-cost restarts is exactly 1.
    from test_exact import _restart_product, lowest_actions
    product = _restart_product(0.5)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset({2}))
    cost = exact.expected_total_cost(ssp, lowest_actions(ssp.base))
    assert abs(cost - 1.0) <= 1e-9
    print(f"\nACCEPTANCE 3 PASS: 10 products, cost-minimizer attains the "
          f"reachability optimum; C = (1 - p)/p on {identities} policies; "
          f"restart cost at p=1/2 is {cost!r}")


def test_criterion_4_policy_gradient_correctness():
    """psi matches central finite differences of ln(mu) on 100 randomized
    (state, theta) instances across horizons 1..3."""
    rng = np.random.default_rng(404)
    checked = 0
    worst_fd = 0.0
    worst_norm = 0.0
    worst_score = 0.0
    while checked < 100:
        horizon = int(rng.integers(1, 4))
        ssp = make_random_ssp(rng, n_states=int(rng.integers(4, 7)), n_actions=2)
        theta = rng.normal(scale=2.0, size=2)
        pol = LookaheadPolicy(ssp, horizon=horizon, theta=theta)
        states = [s for s in range(ssp.base.n_states) if s != ssp.terminal]
        state = int(states[rng.integers(0, len(states))])
        acts, probs = pol.action_distribution(state)
        assert abs(probs.sum() - 1.0) <= 1e-12
        worst_norm = max(worst_norm, abs(probs.sum() - 1.0))
        total = np.zeros(2)
        for u, p in zip(acts, probs):
            total += p * np.array(pol.log_policy_gradient(state, int(u)))
        assert np.linalg.norm(total) <= 1e-9
        worst_score = max(worst_score, float(np.linalg.norm(total)))
        u = int(acts[rng.integers(0, len(acts))])
        psi = pol.log_policy_gradient(state, u)
        h = 1e-5
        fd = np.zeros(2)
        base = pol.theta
        for i in range(2):
            for sign in (1.0, -1.0):
                pol.theta = [t + sign * h if j == i else t for j, t in enumerate(base)]
                fd[i] += sign * np.log(action_probability(pol, state, u))
        pol.theta = base
        fd /= 2 * h
        rel = np.linalg.norm(fd - psi) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-5
        worst_fd = max(worst_fd, float(rel))
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: 100 instances, worst FD rel err {worst_fd:.2e}, "
          f"worst normalization gap {worst_norm:.2e}, worst score identity "
          f"{worst_score:.2e}")


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("desk")
    cfg = RunConfig.from_file("tasks/desk.json")
    cfg.outdir = str(outdir)
    t0 = time.monotonic()
    reports = []
    for seed in DESK_SEEDS:
        import dataclasses
        sub = dataclasses.replace(cfg, seed=seed, outdir=str(outdir / f"seed{seed}"))
        reports.append(synthesize(sub))
    elapsed = time.monotonic() - t0
    return cfg, reports, elapsed


def test_criterion_5_end_to_end_convergence(desk_runs):
    """Median exact value of the optimized policy over 5 seeds reaches at
    least 70% of the exact optimum within 5000 iterations."""
    cfg, reports, elapsed = desk_runs
    assert elapsed <= 300.0
    optimal = reports[0].optimal_probability
    assert optimal is not None and optimal > 0
    finals = [r.final_probability for r in reports]
    median = statistics.median(finals)
    for r in reports:
        assert r.trace.iterations <= 5000
        assert cfg.lam == 0.9 and tuple(cfg.theta0) == (5.0, -0.5) and cfg.horizon == 2
        # The periodic exact evaluations are present for curve plotting.
        assert len(r.curve) >= 10
        text = Path(r.cfg.outdir, "trace.csv").read_text()
        assert any(line.split(",")[8] for line in text.splitlines()[1:])
    assert median >= 0.7 * optimal
    print(f"\nACCEPTANCE 5 PASS: median {median:.4f} vs optimal {optimal:.4f} "
          f"(ratio {median / optimal:.3f}) over seeds {DESK_SEEDS}, "
          f"{elapsed:.0f}s for 5 runs")


def test_criterion_6_lazy_probability_queries(desk_runs):
    """Distinct computed pairs stay below the iteration count and below half
    of the map's enabled pairs; repeated queries never recompute."""
    cfg, reports, _elapsed = desk_runs
    total = dict(reports[0].lines)["model enabled pairs"]
    for r in reports:
        computed = dict(r.lines)["pairs computed"]
        assert computed <= r.trace.iterations
        assert computed <= 0.5 * total
        # The counter is non-decreasing along the trace.
        assert all(a <= b for a, b in zip(r.trace.pairs, r.trace.pairs[1:]))
    fractions = [dict(r.lines)["pairs computed"] / total for r in reports]
    print(f"\nACCEPTANCE 6 PASS: computed-pair fractions "
          f"{[f'{x:.2f}' for x in fractions]} of {total} enabled pairs")


def test_criterion_7_determinism(desk_runs):
    """Identical configuration and seed reproduce the trace byte for byte."""
    cfg, reports, _elapsed = desk_runs
    import dataclasses
    first_dir = Path(reports[0].cfg.outdir)
    rerun_dir = first_dir.parent / "rerun"
    sub = dataclasses.replace(cfg, seed=DESK_SEEDS[0], outdir=str(rerun_dir))
    synthesize(sub)
    original = (first_dir / "trace.csv").read_bytes()
    rerun = (rerun_dir / "trace.csv").read_bytes()
    assert original == rerun
    assert (first_dir / "policy.tsv").read_bytes() == (rerun_dir / "policy.tsv").read_bytes()
    print(f"\nACCEPTANCE 7 PASS: byte-identical trace.csv over a rerun "
          f"({len(original)} bytes)")
