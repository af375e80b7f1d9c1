import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlcontrol.exact import (
    PolicyDivergence,
    enumerate_policies,
    eval_policy_reach,
    expected_total_cost,
    max_reach,
    policy_reach_vector,
    write_value_csv,
)
from tlcontrol.models import ModelError, StationaryPolicy, parse_model
from tlcontrol.synthesis import ProductModel, mrp_to_ssp
from conftest import random_mdp, support_zeros


def test_max_reach_trivial_values():
    m = parse_model("states 2\ninitial 0\nmode mdp\ntrans 0 a 1 1.0\ntrans 1 a 1 1.0")
    v, pol = max_reach(m, frozenset({1}), frozenset())
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 a 1 0.5\ntrans 0 a 2 0.5\ntrans 1 a 1 1.0\ntrans 2 a 2 1.0")
    v, pol = max_reach(m, frozenset({1}), frozenset({2}))
    assert v[0] == pytest.approx(0.5, abs=1e-12)


def test_max_reach_equals_policy_enumeration(rng):
    for _ in range(8):
        m = random_mdp(rng, n_states=5, n_actions=2)
        targets = frozenset(int(s) for s in rng.choice(5, size=2, replace=False))
        zeros = support_zeros(m, targets) - targets
        v, greedy = max_reach(m, targets, zeros)
        best = max(eval_policy_reach(m, pol, targets, zeros)
                   for pol in enumerate_policies(m))
        assert v[m.initial] == pytest.approx(best, abs=1e-9)
        # The returned greedy policy achieves the optimal value everywhere.
        gv = policy_reach_vector(m, greedy, targets, zeros)
        assert np.abs(gv - v).max() <= 1e-9
        # Dominance: no policy beats the optimum.
        for pol in enumerate_policies(m):
            assert eval_policy_reach(m, pol, targets, zeros) <= v[m.initial] + 1e-9


def test_eval_policy_reach_cases():
    # Symmetric two-armed state: uniform policy scores one half.
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 l 1 1.0\ntrans 0 r 2 1.0\ntrans 1 l 1 1.0\ntrans 2 l 2 1.0")
    uniform = StationaryPolicy(kind="randomized", table={0: {0: 0.5, 1: 0.5}})
    val = eval_policy_reach(m, uniform, frozenset({1}), frozenset({2}))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_eval_policy_reach_support_preprocessing():
    # The policy refuses the only exit; its value is 0 even though the
    # state is not in the zero set.
    m = parse_model("states 2\ninitial 0\nmode mdp\n"
                    "trans 0 stay 0 1.0\ntrans 0 go 1 1.0\ntrans 1 stay 1 1.0")
    dawdler = StationaryPolicy(kind="deterministic", table={0: {0: 1.0}})
    assert eval_policy_reach(m, dawdler, frozenset({1}), frozenset()) == 0.0


def test_eval_policy_reach_matches_monte_carlo(rng):
    m = random_mdp(rng, n_states=5, n_actions=2)
    targets = frozenset({3, 4})
    zeros = support_zeros(m, targets) - targets
    pol_table = {}
    for q in range(5):
        acts = m.enabled[q]
        w = rng.random(len(acts)) + 0.2
        w /= w.sum()
        pol_table[q] = {u: float(p) for u, p in zip(acts, w)}
    pol = StationaryPolicy(kind="randomized", table=pol_table)
    exact_val = eval_policy_reach(m, pol, targets, zeros)
    n_episodes = 100_000
    hits = 0
    sim = np.random.default_rng(9)
    for _ in range(n_episodes):
        q = m.initial
        for _ in range(200):
            if q in targets:
                hits += 1
                break
            if q in zeros:
                break
            acts = list(pol.table[q])
            probs = [pol.table[q][u] for u in acts]
            u = acts[sim.choice(len(acts), p=probs)] if len(acts) > 1 else acts[0]
            row = m.transitions[(q, u)]
            x = sim.random()
            acc = 0.0
            q = row[-1][0]
            for succ, w in row:
                acc += w
                if x < acc:
                    q = succ
                    break
    estimate = hits / n_episodes
    sigma = np.sqrt(max(exact_val * (1 - exact_val), 1e-6) / n_episodes)
    assert abs(estimate - exact_val) <= 3.5 * sigma + 1e-3


def _restart_product(p_succeed):
    """Initial state: one action, p to the goal state, 1-p to a zero state."""
    text = f"""
states 3
initial 0
mode mdp
trans 0 a 1 {p_succeed!r}
trans 0 a 2 {1.0 - p_succeed!r}
trans 1 a 1 1.0
trans 2 a 2 1.0
"""
    m = parse_model(text)
    return ProductModel(base=m, projection=tuple((q, 0) for q in range(3)),
                        pairs=((frozenset(), frozenset({1})),), unpruned_states=3)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_expected_cost_is_geometric_restart_formula(p):
    product = _restart_product(p)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset({2}))
    pol = StationaryPolicy(kind="deterministic",
                           table={q: {0: 1.0} for q in range(ssp.base.n_states)})
    cost = expected_total_cost(ssp, pol)
    assert cost == pytest.approx((1.0 - p) / p, abs=1e-9)
    if p == 0.5:
        assert cost == pytest.approx(1.0, abs=1e-9)


def test_expected_cost_zero_without_bad_states():
    product = _restart_product(1.0)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset())
    pol = StationaryPolicy(kind="deterministic",
                           table={q: {0: 1.0} for q in range(ssp.base.n_states)})
    assert expected_total_cost(ssp, pol) == 0.0


def test_expected_cost_diverges_for_improper_policy():
    text = """
states 3
initial 0
mode mdp
trans 0 stay 0 1.0
trans 0 go 1 1.0
trans 1 a 1 1.0
trans 2 a 2 1.0
"""
    m = parse_model(text)
    product = ProductModel(base=m, projection=tuple((q, 0) for q in range(3)),
                           pairs=((frozenset(), frozenset({1})),), unpruned_states=3)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset({2}))
    dawdler = StationaryPolicy(
        kind="deterministic",
        table={q: {(0 if 0 in ssp.base.enabled[q] else ssp.base.enabled[q][0]): 1.0}
               for q in range(ssp.base.n_states)})
    with pytest.raises(PolicyDivergence, match="diverges"):
        expected_total_cost(ssp, dawdler)


def test_enumerate_policies_counts(rng):
    m = random_mdp(rng, n_states=2, n_actions=2)
    # Force exactly two actions per state for the 2x2 count.
    m = parse_model("states 2\ninitial 0\nmode mdp\n"
                    "trans 0 a 0 1.0\ntrans 0 b 1 1.0\n"
                    "trans 1 a 0 1.0\ntrans 1 b 1 1.0")
    pols = list(enumerate_policies(m))
    assert len(pols) == 4
    assert len({tuple(sorted((q, next(iter(d))) for q, d in p.table.items()))
                for p in pols}) == 4
    single = parse_model("states 2\ninitial 0\nmode mdp\n"
                         "trans 0 a 1 1.0\ntrans 1 a 1 1.0")
    assert len(list(enumerate_policies(single))) == 1
    mixed = parse_model("states 3\ninitial 0\nmode mdp\n"
                        "trans 0 a 1 1.0\ntrans 0 b 2 1.0\n"
                        "trans 1 a 1 1.0\ntrans 1 b 2 1.0\ntrans 1 c 0 1.0\n"
                        "trans 2 a 2 1.0")
    assert len(list(enumerate_policies(mixed))) == 6
    with pytest.raises(ModelError, match="exceed"):
        list(enumerate_policies(mixed, limit=5))


def test_fixed_point_matches_dense(rng):
    # A dense limit of 2 sends every policy solve of the polish through the
    # vectorized fixed-point iteration.
    m = random_mdp(rng, n_states=6, n_actions=2)
    targets = frozenset({4, 5})
    zeros = support_zeros(m, targets) - targets
    v_dense, _ = max_reach(m, targets, zeros)
    v_fixed, _ = max_reach(m, targets, zeros, dense_limit=2)
    assert np.abs(v_dense - v_fixed).max() <= 1e-9


def test_value_iteration_cap_is_loud():
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 a 1 0.5\ntrans 0 a 2 0.5\ntrans 1 a 1 1.0\ntrans 2 a 2 1.0")
    with pytest.raises(ModelError, match="within 1 sweeps"):
        max_reach(m, frozenset({1}), frozenset(), max_sweeps=1)


def _random_policy(rng, m):
    """Randomized policy that drops each action with probability 0.4 but
    keeps at least one per state."""
    table = {}
    for q in range(m.n_states):
        acts = m.enabled[q]
        w = rng.random(len(acts)) * (rng.random(len(acts)) > 0.4)
        if not w.any():
            w[rng.integers(len(acts))] = 1.0
        table[q] = {u: float(p) for u, p in zip(acts, w / w.sum())}
    return StationaryPolicy(kind="randomized", table=table)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(3, 8))
def test_dense_and_fixed_point_evaluations_agree(seed, n_states):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=3)
    # The last state becomes an absorbing trap outside the target set and no
    # zero set is given, so the support preprocessing alone removes the
    # states whose policy support cannot reach the target.
    trap = n_states - 1
    transitions = {k: row for k, row in m.transitions.items() if k[0] != trap}
    transitions[(trap, 0)] = ((trap, 1.0),)
    m = dataclasses.replace(m, transitions=transitions,
                            enabled=m.enabled[:trap] + ((0,),))
    targets = frozenset({int(rng.integers(trap))})
    pol = _random_policy(rng, m)
    v_dense = policy_reach_vector(m, pol, targets, frozenset())
    v_fixed = policy_reach_vector(m, pol, targets, frozenset(), dense_limit=0)
    assert v_dense[trap] == 0.0 and v_fixed[trap] == 0.0
    assert np.abs(v_dense - v_fixed).max() <= 1e-9

    # Restart SSP: the last state is the goal, the one before it restarts.
    m = random_mdp(rng, n_states=n_states, n_actions=3)
    product = ProductModel(base=m, projection=tuple((q, 0) for q in range(n_states)),
                           pairs=((frozenset(), frozenset({trap})),), unpruned_states=n_states)
    ssp = mrp_to_ssp(product, frozenset({trap}), frozenset({trap - 1}))
    pol = _random_policy(rng, ssp.base)
    try:
        dense = expected_total_cost(ssp, pol)
    except PolicyDivergence:
        with pytest.raises(PolicyDivergence):
            expected_total_cost(ssp, pol, dense_limit=0)
        return
    assert abs(expected_total_cost(ssp, pol, dense_limit=0) - dense) <= 1e-9 * max(1.0, dense)


def test_value_csv_round_trip(tmp_path):
    values = np.array([0.0, 0.25, 1.0])
    path = tmp_path / "values.csv"
    with open(path, "w") as f:
        write_value_csv(f, values)
    rows = path.read_text().splitlines()
    assert rows[0] == "state,value"
    assert rows[2].split(",") == ["1", "0.25"]


def test_value_iteration_sweeps_are_monotone(rng):
    # From the zero initialization every sweep is pointwise non-decreasing.
    from tlcontrol.exact import flat_rows

    m = random_mdp(rng, n_states=6, n_actions=2)
    targets = frozenset({5})
    zeros = support_zeros(m, targets) - targets
    _er, _rs, _ra, row_ptr, state_ptr, cols, vals = flat_rows(m)
    free = np.ones(m.n_states, dtype=bool)
    for q in targets | zeros:
        free[q] = False
    v = np.zeros(m.n_states)
    v[list(targets)] = 1.0
    for _ in range(60):
        q_vals = np.add.reduceat(vals * v[cols], row_ptr[:-1])
        best = np.maximum.reduceat(q_vals, state_ptr[:-1])
        v_next = np.where(free, best, v)
        assert (v_next >= v - 1e-15).all()
        v = v_next
