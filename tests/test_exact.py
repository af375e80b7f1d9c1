
import csv
import dataclasses
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlcontrol import exact
from tlcontrol.exact import (
    PolicyDivergence,
    ReachEvaluator,
    eval_policy_reach,
    expected_total_cost,
    max_reach,
    write_value_csv,
)
from tlcontrol.models import MDP, LabeledModel, ModelError, parse_model
from tlcontrol.pipeline import RunConfig, load_task
from tlcontrol.synthesis import mrp_to_ssp
from dict_reference import model_rows
import conftest
from conftest import enumerate_policies, lattice_map, own_product, random_mdp, support_zeros


def test_max_reach_trivial_values():
    m = parse_model("states 2\ninitial 0\nmode mdp\ntrans 0 a 1 1.0\ntrans 1 a 1 1.0")
    v, pol = max_reach(m, frozenset({1}), frozenset())
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 a 1 0.5\ntrans 0 a 2 0.5\ntrans 1 a 1 1.0\ntrans 2 a 2 1.0")
    v, pol = max_reach(m, frozenset({1}), frozenset({2}))
    assert v[0] == pytest.approx(0.5, abs=1e-12)


def brute_force_optimum(m, targets, zeros):
    """The best value at every state over all deterministic policies."""
    reach = ReachEvaluator(m, targets, zeros)
    return np.max([reach.values(pol) for pol in enumerate_policies(m)], axis=0)


def test_max_reach_equals_policy_enumeration(rng):
    for _ in range(8):
        m = random_mdp(rng, n_states=5, n_actions=2)
        targets = frozenset(int(s) for s in rng.choice(5, size=2, replace=False))
        zeros = support_zeros(m, targets) - targets
        v, greedy = max_reach(m, targets, zeros)
        best = brute_force_optimum(m, targets, zeros)
        assert v[m.initial] == pytest.approx(best[m.initial], abs=1e-9)
        # The returned greedy policy achieves the optimal value everywhere.
        reach = ReachEvaluator(m, targets, zeros)
        gv = reach.values(greedy)
        assert np.abs(gv - v).max() <= 1e-9
        # Dominance: no policy beats the optimum.
        for pol in enumerate_policies(m):
            assert eval_policy_reach(reach, pol) <= v[m.initial] + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(3, 8))
def test_max_reach_with_large_fixed_sets_equals_policy_enumeration(seed, n_states):
    # At least half the states are targets or zeros (both sets nonempty, at
    # least one state free), and each keeps its own random rows, which the
    # free-state kernel must ignore in favour of the fixed value.
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=2)
    side = rng.permutation(n_states)
    n_fixed = int(rng.integers(max(2, n_states // 2), n_states))
    n_targets = int(rng.integers(1, n_fixed))
    targets = frozenset(side[:n_targets].tolist())
    zeros = frozenset(side[n_targets:n_fixed].tolist())
    v, _ = max_reach(m, targets, zeros)
    assert np.abs(v - brute_force_optimum(m, targets, zeros)).max() <= 1e-12


def test_max_reach_certifies_its_result(monkeypatch):
    # State 0 reaches the target surely with action b and half the time with
    # a. A greedy that always returns the lowest action settles the polish
    # on a, and the certificate must reject the values it gives.
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 a 1 0.5\ntrans 0 a 2 0.5\ntrans 0 b 1 1.0\n"
                    "trans 1 a 1 1.0\ntrans 2 a 2 1.0")
    v, _ = max_reach(m, frozenset({1}), frozenset({2}))
    assert v[0] == 1.0
    monkeypatch.setattr(exact, "_attractor_greedy",
                        lambda m, bellman, v, is_target: m.state_ptr[:-1].copy())
    with pytest.raises(ModelError, match="Bellman equation by 0.5"):
        max_reach(m, frozenset({1}), frozenset({2}))


WARM_START_TOLS = (1.0, 1e-3, 1e-12)


def warm_started(m, targets, zeros):
    """``max_reach``'s values after a warm start stopped at each of
    ``WARM_START_TOLS``. The policy solves of these models are dense, so
    the tolerance reaches the warm start only."""
    values = []
    for tol in WARM_START_TOLS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "VALUE_TOL", tol)
            values.append(max_reach(m, targets, zeros)[0])
    return values


@pytest.mark.parametrize("task", ["desk", "lattice-k8"])
def test_max_reach_polish_reaches_the_optimum_from_a_coarse_warm_start(task, tmp_path):
    # A coarse value iteration leaves value 0 on states that can reach the
    # goal; the polish must still end at the optimum, not at a policy that
    # circles in a component without the goal.
    cfg = RunConfig.from_file("tasks/desk.json")
    if task != "desk":
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"))
    ctx = load_task(cfg)
    m = ctx.product_mdp.base
    values = warm_started(m, ctx.goal, ctx.bad)
    assert values[-1][m.initial] > 0.5
    for v in values[:-1]:
        assert np.abs(v - values[-1]).max() <= 1e-12
    if task == "desk":
        assert abs(values[0][m.initial] - 0.89019) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(2, 9), n_actions=st.integers(1, 3))
def test_max_reach_does_not_depend_on_the_warm_start_tolerance(seed, n_states, n_actions):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=2)
    targets = frozenset({int(rng.integers(n_states))})
    zeros = support_zeros(m, targets) - targets
    values = warm_started(m, targets, zeros)
    for v in values[:-1]:
        assert np.abs(v - values[-1]).max() <= 1e-12


def reference_greedy(m, v, free, is_target):
    """``_attractor_greedy`` one state at a time, layer by layer."""
    q_vals = np.add.reduceat(m.weight * v[m.succ], m.row_ptr[:-1])
    rows = {q: range(m.state_ptr[q], m.state_ptr[q + 1]) for q in range(m.n_states)}
    optimal = [q_vals[r] >= max(q_vals[rows[q]]) - 1e-12
               for q in range(m.n_states) for r in rows[q]]
    succ = [m.succ[m.row_ptr[r]:m.row_ptr[r + 1]].tolist() for r in range(len(q_vals))]
    choice = m.state_ptr[:-1].copy()
    layered = set(np.flatnonzero(is_target).tolist())
    pending = set(np.flatnonzero(free & (v > 0)).tolist())
    widened = False
    while True:
        placed = {}
        for q in sorted(pending):
            progress = [r for r in rows[q] if any(s in layered for s in succ[r])]
            best = [r for r in progress if optimal[r]]
            if best or (widened and progress):
                placed[q] = (best or progress)[0]
        if not placed:
            if widened or set(np.flatnonzero(free).tolist()) <= layered:
                return choice
            widened = True
            pending = set(np.flatnonzero(free).tolist()) - layered
            continue
        for q, r in placed.items():
            choice[q] = r
            layered.add(q)
            pending.discard(q)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(2, 9), n_actions=st.integers(1, 3))
def test_attractor_greedy_matches_the_layer_by_layer_definition(seed, n_states, n_actions):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=2)
    is_target = rng.random(n_states) < 0.25
    free = ~is_target & (rng.random(n_states) < 0.8)
    # Values with exact ties and zeros, as an early-stopped warm start leaves them.
    v = np.where(is_target, 1.0, rng.choice([0.0, 0.25, 0.5, rng.random()], size=n_states))
    bellman = exact._FreeBellman(m, free, v)
    got = exact._attractor_greedy(m, bellman, v, is_target)
    assert got.tolist() == reference_greedy(m, v, free, is_target).tolist()


@pytest.mark.parametrize("task", ["desk", "lattice-k8"])
def test_attractor_greedy_matches_the_layer_by_layer_definition_on_products(task, tmp_path):
    # The goal indicator leaves every free state to the second pass; a few
    # sweeps from zero leave values of 0 where the goal is within reach; the
    # optimum is positive at every free state, so the first pass sees all.
    cfg = RunConfig.from_file("tasks/desk.json")
    if task != "desk":
        (tmp_path / "lattice.map").write_text(lattice_map(8))
        cfg = dataclasses.replace(cfg, map=str(tmp_path / "lattice.map"))
    ctx = load_task(cfg)
    m = ctx.product_mdp.base
    is_target = np.isin(np.arange(m.n_states), list(ctx.goal))
    free = ~is_target & ~np.isin(np.arange(m.n_states), list(ctx.bad))
    bellman = exact._FreeBellman(m, free, is_target.astype(float))
    early = is_target.astype(float)
    for _ in range(5):
        early[bellman.states] = bellman.best(early[bellman.states])
    for v in (is_target.astype(float), early, ctx.optimal_values):
        got = exact._attractor_greedy(m, bellman, v, is_target)
        assert got.tolist() == reference_greedy(m, v, free, is_target).tolist()


def test_eval_policy_reach_cases():
    # Symmetric two-armed state: uniform policy scores one half.
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 l 1 1.0\ntrans 0 r 2 1.0\ntrans 1 l 1 1.0\ntrans 2 l 2 1.0")
    # Rows: state 0 takes l or r, states 1 and 2 their one action each.
    uniform = np.array([0.5, 0.5, 0.0, 0.0])
    val = eval_policy_reach(ReachEvaluator(m, frozenset({1}), frozenset({2})), uniform)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_eval_policy_reach_support_preprocessing():
    # The policy refuses the only exit; its value is 0 even though the
    # state is not in the zero set.
    m = parse_model("states 2\ninitial 0\nmode mdp\n"
                    "trans 0 stay 0 1.0\ntrans 0 go 1 1.0\ntrans 1 stay 1 1.0")
    dawdler = np.array([1.0, 0.0, 0.0])
    assert eval_policy_reach(ReachEvaluator(m, frozenset({1}), frozenset()), dawdler) == 0.0


def test_eval_policy_reach_matches_monte_carlo(rng):
    m = random_mdp(rng, n_states=5, n_actions=2)
    targets = frozenset({3, 4})
    zeros = support_zeros(m, targets) - targets
    pol = np.concatenate([w / w.sum() for w in
                          (rng.random(len(acts)) + 0.2 for acts in m.enabled)])
    exact_val = eval_policy_reach(ReachEvaluator(m, targets, zeros), pol)
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
            lo, hi = m.state_ptr[q], m.state_ptr[q + 1]
            acts, probs = m.row_action[lo:hi].tolist(), pol[lo:hi]
            u = acts[sim.choice(len(acts), p=probs)] if len(acts) > 1 else acts[0]
            row = m.successors(q, u)
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
    return own_product(m, ((frozenset(), frozenset({1})),))


def lowest_actions(m):
    """The deterministic policy taking every state's lowest action, as row
    probabilities."""
    probs = np.zeros(len(m.row_action))
    probs[m.state_ptr[:-1]] = 1.0
    return probs


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_expected_cost_is_geometric_restart_formula(p):
    product = _restart_product(p)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset({2}))
    cost = expected_total_cost(ssp, lowest_actions(ssp.base))
    assert cost == pytest.approx((1.0 - p) / p, abs=1e-9)
    if p == 0.5:
        assert cost == pytest.approx(1.0, abs=1e-9)


def test_expected_cost_zero_without_bad_states():
    product = _restart_product(1.0)
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset())
    assert expected_total_cost(ssp, lowest_actions(ssp.base)) == 0.0


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
    product = own_product(m, ((frozenset(), frozenset({1})),))
    ssp = mrp_to_ssp(product, frozenset({1}), frozenset({2}))
    with pytest.raises(PolicyDivergence, match="diverges"):
        expected_total_cost(ssp, lowest_actions(ssp.base))


def test_enumerate_policies_counts(rng, monkeypatch):
    m = random_mdp(rng, n_states=2, n_actions=2)
    # Force exactly two actions per state for the 2x2 count.
    m = parse_model("states 2\ninitial 0\nmode mdp\n"
                    "trans 0 a 0 1.0\ntrans 0 b 1 1.0\n"
                    "trans 1 a 0 1.0\ntrans 1 b 1 1.0")
    pols = list(enumerate_policies(m))
    assert len(pols) == 4
    assert len({p.tobytes() for p in pols}) == 4
    # One-hot: each state puts mass 1 on one row; the last state varies fastest.
    assert [p.tolist() for p in pols] == [[1, 0, 1, 0], [1, 0, 0, 1],
                                          [0, 1, 1, 0], [0, 1, 0, 1]]
    single = parse_model("states 2\ninitial 0\nmode mdp\n"
                         "trans 0 a 1 1.0\ntrans 1 a 1 1.0")
    assert len(list(enumerate_policies(single))) == 1
    mixed = parse_model("states 3\ninitial 0\nmode mdp\n"
                        "trans 0 a 1 1.0\ntrans 0 b 2 1.0\n"
                        "trans 1 a 1 1.0\ntrans 1 b 2 1.0\ntrans 1 c 0 1.0\n"
                        "trans 2 a 2 1.0")
    assert len(list(enumerate_policies(mixed))) == 6
    monkeypatch.setattr(conftest, "POLICY_LIMIT", 5)
    with pytest.raises(ModelError, match="exceed the cap of 5"):
        list(enumerate_policies(mixed))


def test_fixed_point_matches_dense(rng, monkeypatch):
    # A dense limit of 2 sends every policy solve of the polish through the
    # vectorized fixed-point iteration.
    m = random_mdp(rng, n_states=6, n_actions=2)
    targets = frozenset({4, 5})
    zeros = support_zeros(m, targets) - targets
    v_dense, _ = max_reach(m, targets, zeros)
    monkeypatch.setattr(exact, "DENSE_LIMIT", 2)
    v_fixed, _ = max_reach(m, targets, zeros)
    assert np.abs(v_dense - v_fixed).max() <= 1e-9


def test_value_iteration_cap_is_loud(monkeypatch):
    m = parse_model("states 3\ninitial 0\nmode mdp\n"
                    "trans 0 a 1 0.5\ntrans 0 a 2 0.5\ntrans 1 a 1 1.0\ntrans 2 a 2 1.0")
    monkeypatch.setattr(exact, "MAX_SWEEPS", 1)
    with pytest.raises(ModelError, match="within 1 sweeps"):
        max_reach(m, frozenset({1}), frozenset())


def test_fixed_point_cap_is_loud(monkeypatch):
    # Three unknowns above a dense limit of 2 go to the fixed point, and
    # one sweep from zero moves state 2's value by 0.5.
    m = parse_model("states 4\ninitial 0\nmode mdp\ntrans 0 a 1 1.0\ntrans 1 a 2 1.0\n"
                    "trans 2 a 3 0.5\ntrans 2 a 0 0.5\ntrans 3 a 3 1.0")
    monkeypatch.setattr(exact, "DENSE_LIMIT", 2)
    monkeypatch.setattr(exact, "MAX_SWEEPS", 1)
    with pytest.raises(ModelError,
                       match="^fixed-point iteration did not converge within 1 sweeps$"):
        eval_policy_reach(ReachEvaluator(m, frozenset({3}), frozenset()), np.ones(4))


def _random_policy(rng, m):
    """Randomized policy that drops each action with probability 0.4 but
    keeps at least one per state."""
    probs = []
    for q in range(m.n_states):
        acts = m.enabled[q]
        w = rng.random(len(acts)) * (rng.random(len(acts)) > 0.4)
        if not w.any():
            w[rng.integers(len(acts))] = 1.0
        probs.extend(w / w.sum())
    return np.array(probs)


def fixed_point(solve, *args):
    """``solve(*args)`` with every plan above the dense limit, so that its
    linear systems go through the fixed-point iteration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "DENSE_LIMIT", 0)
        return solve(*args)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(3, 8))
def test_dense_and_fixed_point_evaluations_agree(seed, n_states):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=3)
    # The last state becomes an absorbing trap outside the target set and no
    # zero set is given, so the support preprocessing alone removes the
    # states whose policy support cannot reach the target.
    trap = n_states - 1
    transitions = {k: row for k, row in model_rows(m).items() if k[0] != trap}
    transitions[(trap, 0)] = ((trap, 1.0),)
    m = LabeledModel.from_rows(transitions, n_states=m.n_states, initial=m.initial,
                               actions=m.actions, props=m.props, labels=m.labels, mode=MDP)
    targets = frozenset({int(rng.integers(trap))})
    pol = _random_policy(rng, m)
    v_dense = ReachEvaluator(m, targets, frozenset()).values(pol)
    v_fixed = fixed_point(ReachEvaluator(m, targets, frozenset()).values, pol)
    assert v_dense[trap] == 0.0 and v_fixed[trap] == 0.0
    assert np.abs(v_dense - v_fixed).max() <= 1e-9

    # Restart SSP: the last state is the goal, the one before it restarts.
    m = random_mdp(rng, n_states=n_states, n_actions=3)
    product = own_product(m, ((frozenset(), frozenset({trap})),))
    ssp = mrp_to_ssp(product, frozenset({trap}), frozenset({trap - 1}))
    pol = _random_policy(rng, ssp.base)
    try:
        dense = expected_total_cost(ssp, pol)
    except PolicyDivergence:
        with pytest.raises(PolicyDivergence):
            fixed_point(expected_total_cost, ssp, pol)
        return
    assert abs(fixed_point(expected_total_cost, ssp, pol) - dense) <= 1e-9 * max(1.0, dense)


def test_value_csv_round_trip(tmp_path):
    values = np.array([0.0, 0.25, 1.0, 1e-300, 0.1 + 0.2, 5e-324])
    path = tmp_path / "values.csv"
    with open(path, "w") as f:
        write_value_csv(f, values)
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(["state", "value"])
    for q, val in enumerate(values):
        writer.writerow([q, repr(float(val))])
    assert path.read_bytes() == reference.getvalue().encode()
    rows = path.read_text().splitlines()
    assert rows[0] == "state,value"
    assert rows[2].split(",") == ["1", "0.25"]


def test_value_iteration_sweeps_are_monotone(rng):
    # From the zero initialization every sweep of the free-state kernel is
    # pointwise non-decreasing.
    m = random_mdp(rng, n_states=6, n_actions=2)
    targets = frozenset({5})
    zeros = support_zeros(m, targets) - targets
    is_target = exact._members(targets, m.n_states)
    free = ~(is_target | exact._members(zeros, m.n_states))
    bellman = exact._FreeBellman(m, free, is_target.astype(float))
    x = np.zeros(int(free.sum()))
    for _ in range(60):
        x_next = bellman.best(x)
        assert (x_next >= x - 1e-15).all()
        x = x_next


def _component_mdp(rng):
    """A random MDP whose policies' graphs split into several strongly
    connected components. State 0 is the target and state 1 an absorbing
    trap, both absorbing. Then come clusters of 1-6 states, each state
    stepping within its cluster (self-loops included) and sometimes into
    an earlier cluster, the target or the trap, and last a chain of
    singletons, each falling back to the state before it or looping."""
    sizes = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(2, 5)))]
    sizes.append(0)
    chain = int(rng.integers(1, 5))
    n = 2 + sum(sizes) + chain
    transitions = {(0, 0): ((0, 1.0),), (1, 0): ((1, 1.0),)}
    lo = 2
    for k in sizes[:-1]:
        cluster = np.arange(lo, lo + k)
        for q in cluster:
            acts = tuple(sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist()))
            for u in acts:
                succ = set(rng.choice(cluster, size=int(rng.integers(1, k + 1))).tolist())
                if rng.random() < 0.5:
                    succ.add(int(rng.integers(lo)))
                succ = sorted(succ)
                w = rng.random(len(succ)) + 0.2
                transitions[(int(q), u)] = tuple(zip(succ, (w / w.sum()).tolist()))
        lo += k
    for q in range(lo, n):
        transitions[(q, 0)] = ((q - 1, 0.7), (q, 0.3))
        transitions[(q, 1)] = ((int(rng.integers(q)), 1.0),)
    return LabeledModel.from_rows(transitions, n_states=n, initial=n - 1,
                                  actions=("a", "b", "c"), props=("p",), mode=MDP)


def _bounded_policy(rng, m):
    """Random row probabilities: each action dropped with probability 0.3
    (one kept per state), the kept ones weighted between 0.2 and 1.2."""
    probs = []
    for q in range(m.n_states):
        k = len(m.enabled[q])
        w = (rng.random(k) + 0.2) * (rng.random(k) > 0.3)
        if not w.any():
            w[rng.integers(k)] = 1.0
        probs.extend(w / w.sum())
    return np.array(probs)


def _kernel_matrix(m, probs):
    """The policy's dense transition matrix and its support graph."""
    p = np.zeros((m.n_states, m.n_states))
    for r, succ, w in zip(m.entry_row, m.succ, m.weight):
        p[m.row_state[r], succ] += probs[r] * w
    return p


def _backward_closure(p, seeds):
    reach = set(seeds)
    stack = list(seeds)
    while stack:
        q = stack.pop()
        for prev in np.flatnonzero(p[:, q] > 0).tolist():
            if prev not in reach:
                reach.add(prev)
                stack.append(prev)
    return reach


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_block_solves_match_one_dense_solve(seed):
    rng = np.random.default_rng(seed)
    m = _component_mdp(rng)
    probs = _bounded_policy(rng, m)
    p = _kernel_matrix(m, probs)
    v = ReachEvaluator(m, frozenset({0}), frozenset({1})).values(probs)
    unknown = sorted(_backward_closure(p, [0]) - {0, 1})
    want = np.zeros(m.n_states)
    want[0] = 1.0
    if unknown:
        a = np.eye(len(unknown)) - p[np.ix_(unknown, unknown)]
        want[unknown] = np.linalg.solve(a, p[unknown, 0])
    assert np.abs(v - want).max() <= 1e-12

    # The same model as a restart SSP: the target is the goal, the trap restarts.
    product = own_product(m, ((frozenset(), frozenset({0})),))
    ssp = mrp_to_ssp(product, frozenset({0}), frozenset({1}))
    probs = _bounded_policy(rng, ssp.base)
    p = _kernel_matrix(ssp.base, probs)
    reachable, stack = {ssp.base.initial}, [ssp.base.initial]
    while stack:
        q = stack.pop()
        for succ in np.flatnonzero(p[q] > 0).tolist():
            if succ != ssp.terminal and succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    if not reachable <= _backward_closure(p, [ssp.terminal]):
        with pytest.raises(PolicyDivergence):
            expected_total_cost(ssp, probs)
        return
    states = sorted(reachable)
    a = np.eye(len(states)) - p[np.ix_(states, states)]
    want = np.linalg.solve(a, [ssp.cost(q) for q in states])[states.index(ssp.base.initial)]
    assert abs(expected_total_cost(ssp, probs) - want) <= 1e-12 * max(1.0, want)


def _sparse_system(rng, shape, n):
    """Entries (src, dst, weight) of a substochastic kernel on the unknowns
    0..n-1, the target n and a zero state n + 1, shaped as ``shape``, in
    which every unknown reaches the target. Some (src, dst) pairs repeat."""
    edges = []
    for q in range(n):
        if shape == "acyclic":
            edges += [(q, int(t)) for t in rng.integers(q, size=min(q, 2))]
        elif shape == "self-loops":
            edges += [(q, q)] + [(q, int(t)) for t in rng.integers(n, size=int(rng.integers(3)))]
        elif shape == "cycle":
            edges.append((q, (q + 1) % n))
        elif shape == "sccs":
            # Blocks of up to 5 states: a cycle inside each, and a few
            # entries into earlier blocks.
            lo = q - q % 5
            edges.append((q, lo + (q + 1 - lo) % min(5, n - lo)))
            if lo and rng.random() < 0.5:
                edges.append((q, int(rng.integers(lo))))
    reach = _backward_closure(_dense(edges, n + 2), [n])
    for q in range(n):
        if q not in reach or rng.random() < 0.2:
            edges.append((q, n))
            reach = _backward_closure(_dense(edges, n + 2), [n])
        if rng.random() < 0.2:
            edges.append((q, n + 1))
    edges += [edges[k] for k in rng.integers(len(edges), size=int(rng.integers(3)))]
    src, dst = np.array(edges).T
    w = rng.random(len(edges)) + 0.1
    w *= rng.uniform(0.5, 1.0, size=n + 2)[src] / np.bincount(src, weights=w, minlength=n + 2)[src]
    return src, dst, w


def _dense(edges, n):
    p = np.zeros((n, n))
    for q, t in edges:
        p[q, t] = 1.0
    return p


def _exact_solve(a, b):
    """x with a x = b by Gaussian elimination in exact rationals."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        for r in range(k + 1, n):
            if m[r][k]:
                f = m[r][k] / m[k][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][c] * x[c] for c in range(k + 1, n))) / m[k][k]
    return x


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30),
       shape=st.sampled_from(["acyclic", "self-loops", "cycle", "sccs", "empty"]))
def test_elimination_plans_match_exact_rational_solves(seed, n, shape):
    rng = np.random.default_rng(seed)
    src, dst, w = _sparse_system(rng, shape, n)
    is_target = np.arange(n + 2) == n
    a = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    b = [Fraction(0)] * n
    for q, t, weight in zip(src.tolist(), dst.tolist(), w.tolist()):
        if t < n:
            a[q][t] -= Fraction(weight)
        elif t == n:
            b[q] += Fraction(weight)
    want = [float(x) for x in _exact_solve(a, b)]
    want_time = [float(x) for x in _exact_solve(a, [Fraction(1)] * n)]
    # Pure elimination, the default core and one dense solve of everything.
    for core in (0, exact.CORE_LIMIT, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "CORE_LIMIT", core)
            plan = exact._Plan(np.arange(n), np.arange(len(w)), src, dst, is_target)
        assert len(plan.core) == min(core, n)
        assert np.abs(plan.solve(w, plan.target_rhs(w)) - want).max() <= 1e-12
        time = plan.solve(w, np.ones(n))
        assert np.abs(time - want_time).max() <= 1e-12 * max(1.0, max(want_time))


def test_elimination_hands_a_dense_rest_to_the_core(rng):
    # Three random successors per state: elimination fills the rest in
    # fast, so it stops above CORE_LIMIT, once the rest is a quarter dense.
    n = 1000
    src = np.repeat(np.arange(n), 3)
    dst = rng.integers(n + 1, size=len(src))  # state n is the target
    w = rng.random(len(src))
    w *= 0.99 / np.bincount(src, weights=w)[src]
    plan = exact._Plan(np.arange(n), np.arange(len(w)), src, dst, np.arange(n + 1) == n)
    core = len(plan.core)
    assert core > exact.DENSE_REST
    assert 4 * len(plan.core_slot) >= core * core
    a = np.eye(n)
    inner = dst < n
    np.add.at(a, (src[inner], dst[inner]), -w[inner])
    want = np.linalg.solve(a, plan.target_rhs(w))
    assert np.abs(plan.solve(w, plan.target_rhs(w)) - want).max() <= 1e-12


def test_evaluator_rebuilds_its_plan_when_the_support_changes(monkeypatch):
    built = []

    class CountedPlan(exact._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.unknown.tolist())

    monkeypatch.setattr(exact, "_Plan", CountedPlan)
    # State 3 either heads for the target (action a) or falls back to 2;
    # state 2 steps to 3 or back to itself.
    m = parse_model("states 4\ninitial 3\nmode mdp\n"
                    "trans 0 a 0 1.0\ntrans 1 a 1 1.0\n"
                    "trans 2 a 3 0.5\ntrans 2 a 2 0.5\n"
                    "trans 3 a 0 0.6\ntrans 3 a 1 0.4\ntrans 3 b 2 1.0")
    targets, zeros = frozenset({0}), frozenset({1})
    ev = ReachEvaluator(m, targets, zeros)
    both = np.array([1.0, 1.0, 1.0, 0.5, 0.5])
    assert ev.values(both)[3] == pytest.approx(0.6, abs=1e-12)
    # Other weights on the same support reuse the plan.
    tilted = np.array([1.0, 1.0, 1.0, 0.25, 0.75])
    assert ev.values(tilted)[3] == pytest.approx(0.6, abs=1e-12)
    assert len(built) == 1
    # Action a at state 3 set to 0 cuts states 2 and 3 off from the target.
    cut = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    fresh = ReachEvaluator(m, targets, zeros).values(cut)
    assert fresh[2] == fresh[3] == 0.0
    assert np.array_equal(ev.values(cut), fresh)
    assert eval_policy_reach(ev, both) == pytest.approx(0.6, abs=1e-12)
    assert sorted(map(sorted, built)) == [[], [], [2, 3], [2, 3]]
