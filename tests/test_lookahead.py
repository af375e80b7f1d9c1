import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dict_reference
from dict_reference import (action_probability, action_sequences, model_rows, neighborhood, safe,
                            sequence_table)
from tlcontrol.lookahead import LookaheadPolicy, SequenceCapExceeded, min_distances
from tlcontrol.models import ModelError, parse_model
from tlcontrol.pipeline import RunConfig, load_task
from tlcontrol.synthesis import SspModel, mrp_to_ssp
from conftest import make_random_ssp, random_nts

F_P_DRA = """
states 2
initial 0
props p
edge 0 {p} 1
edge 0 else 0
edge 1 else 1
pair L={} K={1}
"""


# -- distances and neighborhoods ----------------------------------------------

def test_min_distances_trivial_and_chain():
    chain = parse_model("states 4\ninitial 0\nmode nts\n"
                        "trans 0 a 1 1\ntrans 1 a 2 1\ntrans 2 a 3 1\ntrans 3 a 3 1")
    d = min_distances(chain, [3])
    assert list(d) == [3.0, 2.0, 1.0, 0.0]
    assert d[3] == 0.0


def test_min_distances_against_floyd_warshall(rng):
    for _ in range(5):
        n = random_nts(rng, n_states=9, n_actions=2)
        targets = [int(s) for s in rng.choice(9, size=2, replace=False)]
        d = min_distances(n, targets)
        # Floyd-Warshall on the possibilistic edge relation.
        inf = float("inf")
        fw = np.full((9, 9), inf)
        np.fill_diagonal(fw, 0.0)
        for (q, _u), row in model_rows(n).items():
            for succ, _ in row:
                fw[q, succ] = min(fw[q, succ], 1.0)
        for k in range(9):
            for i in range(9):
                for j in range(9):
                    fw[i, j] = min(fw[i, j], fw[i, k] + fw[k, j])
        want = fw[:, targets].min(axis=1)
        assert all(a == b or (np.isinf(a) and np.isinf(b)) for a, b in zip(d, want))


def test_min_distances_blocked_sources():
    chain = parse_model("states 3\ninitial 0\nmode nts\n"
                        "trans 0 a 1 1\ntrans 1 a 2 1\ntrans 2 a 2 1")
    d = min_distances(chain, [2], blocked_sources=frozenset({1}))
    assert np.isinf(d[0]) and np.isinf(d[1]) and d[2] == 0.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(1, 12), n_actions=st.integers(1, 3))
def test_min_distances_match_the_queue_bfs(seed, n_states, n_actions):
    rng = np.random.default_rng(seed)
    m = random_nts(rng, n_states=n_states, n_actions=n_actions)
    targets = rng.choice(n_states, size=int(rng.integers(1, n_states + 1)), replace=False)
    blocked = frozenset(np.flatnonzero(rng.random(n_states) < 0.3).tolist())
    want = dict_reference.min_distances(m, targets.tolist(), blocked)
    got = min_distances(m, targets.tolist(), blocked_sources=blocked)
    assert got.dtype == np.float64
    assert got.tolist() == want
    with pytest.raises(ModelError, match="nonempty"):
        min_distances(m, [], blocked_sources=blocked)


def test_neighborhood_trivial_cases(rng):
    n = random_nts(rng, n_states=7, n_actions=2)
    everything = neighborhood(n, 0, 100)
    # Large radius: exactly the forward-reachable set.
    reach = {0}
    stack = [0]
    while stack:
        q = stack.pop()
        for u in n.enabled[q]:
            for s in n.support(q, u):
                if s not in reach:
                    reach.add(s)
                    stack.append(s)
    assert everything == frozenset(reach)
    loner = parse_model("states 1\ninitial 0\nmode nts\ntrans 0 a 0 1")
    assert neighborhood(loner, 0, 3) == frozenset({0})


def test_neighborhood_matches_bfs_ball(rng):
    for _ in range(5):
        n = random_nts(rng, n_states=8, n_actions=2)
        for state in range(8):
            ball = {state}
            frontier = {state}
            for _ in range(2):
                frontier = {s for q in frontier for u in n.enabled[q]
                            for s in n.support(q, u)} - ball
                ball |= frontier
            assert neighborhood(n, state, 2) == frozenset(ball)


def test_safety_score_cases(rng):
    n = parse_model("states 4\ninitial 0\nmode nts\n"
                    "trans 0 a 1 1\ntrans 0 a 2 1\ntrans 0 a 3 1\n"
                    "trans 1 a 1 1\ntrans 2 a 2 1\ntrans 3 a 3 1")

    def score(model, radius, bad, state):
        ssp = SspModel(base=model, terminal=0, bad=bad, origin=tuple(range(model.n_states)))
        return safe(LookaheadPolicy(ssp, horizon=radius), state)

    assert score(n, 1, frozenset(), 0) == 1.0
    # Neighborhood of 0 at radius 1 is {0,1,2,3}; one of four is flagged.
    assert score(n, 1, frozenset({3}), 0) == 0.75
    for _ in range(5):
        m = random_nts(rng, n_states=8, n_actions=2)
        bad = frozenset(int(s) for s in rng.choice(8, size=2, replace=False))
        for state in range(8):
            nb = neighborhood(m, state, 2)
            want = sum(1 for j in nb if j not in bad) / len(nb)
            assert score(m, 2, bad, state) == want


# -- sequence enumeration -----------------------------------------------------

def test_action_sequences_horizon_one(rng):
    n = random_nts(rng, n_states=6, n_actions=3)
    for state in range(6):
        seqs = action_sequences(n, state, 1)
        assert [e for e, _ in seqs] == [(u,) for u in sorted(n.enabled[state])]
        for (u,), reach in seqs:
            assert reach == frozenset(n.support(state, u))


def test_action_sequences_deterministic_chain():
    chain = parse_model("states 3\ninitial 0\nmode nts\n"
                        "trans 0 a 1 1\ntrans 1 a 2 1\ntrans 2 a 2 1")
    seqs = action_sequences(chain, 0, 2)
    assert seqs == [((0, 0), frozenset({2}))]


def test_action_sequences_match_path_enumeration(rng):
    # Oracle: enumerate every length-2 possibilistic path explicitly; the
    # reach set of a sequence is the set of endpoints over paths labeled
    # with it, and a sequence exists iff the step-wise enabling holds.
    for _ in range(5):
        n = random_nts(rng, n_states=7, n_actions=2)
        for state in range(7):
            got = dict(action_sequences(n, state, 2))
            want: dict[tuple[int, int], set[int]] = {}
            for u1 in n.enabled[state]:
                mid = n.support(state, u1)
                for u2 in sorted({u for q in mid for u in n.enabled[q]}):
                    ends = {s for q in mid if u2 in n.enabled[q]
                            for s in n.support(q, u2)}
                    if ends:
                        want[(u1, u2)] = ends
            assert {e: set(r) for e, r in got.items()} == want


def test_sequence_cap():
    n = random_nts(np.random.default_rng(3), n_states=8, n_actions=3)
    with pytest.raises(SequenceCapExceeded):
        action_sequences(n, 0, 6, cap=10)


# -- the policy ---------------------------------------------------------------

def three_sequence_policy():
    """State 0 has sequences u0u0, u0u1, u1u0 exactly."""
    text = """
states 3
initial 0
mode nts
trans 0 a 1 1
trans 0 b 2 1
trans 1 a 1 1
trans 1 b 2 1
trans 2 a 2 1
"""
    n = parse_model(text)
    return SspModel(base=n, terminal=2, bad=frozenset(), origin=(0, 1, -1))


def test_action_distribution_counts_sequences():
    pol = LookaheadPolicy(three_sequence_policy(), horizon=2, theta=(0.0, 0.0))
    acts, probs = pol.action_distribution(0)
    assert list(acts) == [0, 1]
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_single_action_state_is_certain(rng):
    ssp = make_random_ssp(rng)
    pol = LookaheadPolicy(ssp, horizon=2, theta=(3.0, -1.0))
    for state in range(ssp.base.n_states):
        if state != ssp.terminal and len(ssp.base.enabled[state]) == 1:
            acts, probs = pol.action_distribution(state)
            assert len(acts) == 1 and probs[0] == 1.0
            break
    else:
        pytest.skip("no single-action state in this draw")


def test_sequence_scores_and_distribution_against_brute_force(rng):
    for _ in range(5):
        ssp = make_random_ssp(rng)
        pol = LookaheadPolicy(ssp, horizon=2, theta=(1.0, 1.0))
        for state in range(ssp.base.n_states):
            if state == ssp.terminal:
                continue
            first, feats = sequence_table(pol, state)
            seqs = [e for e, _reach in action_sequences(ssp.base, state, 2)]
            # Independent recomputation of features and the softmax.
            nb = neighborhood(ssp.base, state, 2)
            here = pol.progress[state]
            if np.isinf(here):
                here = pol.progress_penalty
            scores = []
            for e, reach in action_sequences(ssp.base, state, 2):
                inside = reach & nb
                f1 = 0.0
                for j in inside:
                    nb_j = neighborhood(ssp.base, j, 2)
                    f1 += sum(1 for i in nb_j if i not in ssp.bad) / len(nb_j)
                f2 = 0.0
                for j in inside:
                    pj = pol.progress[j]
                    f2 += (pol.progress_penalty if np.isinf(pj) else pj) - here
                scores.append((e, np.exp(1.0 * f1 + 1.0 * f2)))
            total = sum(s for _, s in scores)
            by_action: dict[int, float] = {}
            for e, s in scores:
                by_action[e[0]] = by_action.get(e[0], 0.0) + s / total
            acts, probs = pol.action_distribution(state)
            assert sorted(by_action) == list(acts)
            for u, p in zip(acts, probs):
                assert abs(by_action[int(u)] - p) <= 1e-9
            # Raw scores agree where finite.
            for e, s in scores:
                f = feats[seqs.index(e)]
                assert np.isclose(np.exp(f @ pol.theta), s, rtol=1e-9)


def test_neighborhoods_are_computed_once_and_dropped_with_the_tables(rng):
    # Construction builds every state's neighborhood and sequences at once
    # from the model's arrays (the per-state definitions live only in the
    # tests' reference), and the safety scores and tables equal the
    # per-state definitions.
    import tlcontrol.lookahead as lookahead

    assert not hasattr(lookahead, "neighborhood")
    assert not hasattr(lookahead, "action_sequences")
    ssp = make_random_ssp(rng, n_states=8)
    pol = LookaheadPolicy(ssp, horizon=2)
    pol.policy_rows()
    for state in range(ssp.base.n_states):
        nb = neighborhood(ssp.base, state, 2)
        assert safe(pol, state) == sum(1 for j in nb if j not in ssp.bad) / len(nb)
        first, feats = sequence_table(pol, state)
        if state == ssp.terminal:
            assert first.tolist() == list(ssp.base.enabled[state])
            assert not feats.any()
        else:
            assert first.tolist() == [e[0] for e, _ in action_sequences(ssp.base, state, 2)]


@pytest.mark.parametrize("theta", [(5.0, -0.5), (0.0, 0.0), (-3.0, 2.5)])
def test_policy_rows_cover_every_ssp_row(rng, theta):
    # One probability per row of the SSP's model, the terminal's uniform
    # rows included, wherever the terminal sits and whichever actions it
    # enables: action_distribution state by state, bit for bit.
    chain = parse_model("states 3\ninitial 1\nmode nts\ntrans 0 a 0 1\ntrans 0 b 0 1\n"
                        "trans 1 a 2 1\ntrans 1 b 0 1\ntrans 2 a 0 1\ntrans 2 b 1 1")
    ssps = [make_random_ssp(rng, n_states=int(rng.integers(3, 9)),
                            n_actions=int(rng.integers(1, 4))) for _ in range(6)]
    ssps += [load_task(RunConfig.from_file("tasks/desk.json")).ssp,
             SspModel(base=chain, terminal=0, bad=frozenset(), origin=(-1, 0, 1)),
             three_sequence_policy()]
    for ssp in ssps:
        pol = LookaheadPolicy(ssp, horizon=2, theta=theta)
        rows = pol.policy_rows()
        assert len(rows) == len(ssp.base.row_action)
        for state in range(ssp.base.n_states):
            acts, probs = pol.action_distribution(state)
            lo, hi = ssp.base.state_ptr[state], ssp.base.state_ptr[state + 1]
            assert ssp.base.row_action[lo:hi].tolist() == acts.tolist()
            assert np.array_equal(rows[lo:hi], probs)


def test_sequence_score_exp_of_dot_product():
    pol = LookaheadPolicy(three_sequence_policy(), horizon=2, theta=(5.0, -0.5))
    first, feats = sequence_table(pol, 0)
    assert [e for e, _reach in action_sequences(pol.model, 0, 2)] == [(0, 0), (0, 1), (1, 0)]
    # Direct substitution at the default parameter vector: sequence scores
    # exp(5), exp(0) and exp(-0.5), the first two on action 0.
    feats[:] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    acts, probs = pol.action_distribution(0)
    total = np.exp(5.0) + 1.0 + np.exp(-0.5)
    assert list(acts) == [0, 1]
    assert np.allclose(probs, [(np.exp(5.0) + 1.0) / total, np.exp(-0.5) / total])


def test_gradient_trivial_cases():
    pol = LookaheadPolicy(three_sequence_policy(), horizon=2, theta=(0.0, 0.0))
    first, feats = sequence_table(pol, 0)
    psi = pol.log_policy_gradient(0, 0)
    mean_u = feats[first == 0].mean(axis=0)
    mean_all = feats.mean(axis=0)
    assert np.allclose(psi, mean_u - mean_all)
    # A state with a single action and a single sequence has zero gradient.
    chain = parse_model("states 2\ninitial 0\nmode nts\ntrans 0 a 1 1\ntrans 1 a 1 1")
    single = SspModel(base=chain, terminal=1, bad=frozenset(), origin=(0, -1))
    pol1 = LookaheadPolicy(single, horizon=1, theta=(2.0, 2.0))
    assert np.allclose(pol1.log_policy_gradient(0, 0), 0.0)
    assert action_probability(pol1, 0, 0) == 1.0


def finite_difference_gradient(pol, state, action, h=1e-5):
    base = pol.theta
    grad = np.zeros(2)
    for i in range(2):
        for sign in (+1, -1):
            pol.theta = [t + sign * h if j == i else t for j, t in enumerate(base)]
            p = action_probability(pol, state, action)
            grad[i] += sign * np.log(p)
    pol.theta = base
    return grad / (2 * h)


def test_gradient_matches_finite_differences(rng):
    checked = 0
    for _ in range(6):
        ssp = make_random_ssp(rng)
        theta = rng.normal(size=2)
        pol = LookaheadPolicy(ssp, horizon=int(rng.integers(1, 4)), theta=theta)
        for state in range(ssp.base.n_states):
            if state == ssp.terminal:
                continue
            acts, probs = pol.action_distribution(state)
            u = int(acts[np.argmax(probs)])
            psi = pol.log_policy_gradient(state, u)
            fd = finite_difference_gradient(pol, state, u)
            err = np.linalg.norm(fd - psi) / max(1.0, np.linalg.norm(fd))
            assert err <= 1e-5
            checked += 1
    assert checked >= 20


def test_gradient_rejects_zero_probability_actions(rng):
    ssp = make_random_ssp(rng)
    pol = LookaheadPolicy(ssp, horizon=1)
    state = next(s for s in range(ssp.base.n_states) if s != ssp.terminal)
    missing = len(ssp.base.actions) + 5
    with pytest.raises(ModelError, match="zero probability"):
        pol.log_policy_gradient(state, missing)


def test_terminal_state_conventions(rng):
    ssp = make_random_ssp(rng)
    pol = LookaheadPolicy(ssp, horizon=2)
    acts, probs = pol.action_distribution(ssp.terminal)
    assert np.allclose(probs, 1.0 / len(acts))
    assert np.allclose(pol.log_policy_gradient(ssp.terminal, int(acts[0])), 0.0)
    # A terminal that enables only some actions offers only those: action 0
    # ("a") is certain there, and the disabled action 1 ("b") has zero
    # probability, as at any other state.
    pol = LookaheadPolicy(three_sequence_policy(), horizon=2)
    r = np.random.default_rng(0)
    assert {pol.sample_action(2, r) for _ in range(50)} == {0}
    assert pol.log_policy_gradient(2, 0) == (0.0, 0.0)
    with pytest.raises(ModelError, match="zero probability"):
        pol.log_policy_gradient(2, 1)


@settings(max_examples=30, deadline=None)
@given(t1=st.floats(-8, 8), t2=st.floats(-8, 8), seed=st.integers(0, 50))
def test_distribution_normalizes_and_score_is_zero_mean(t1, t2, seed):
    ssp = make_random_ssp(np.random.default_rng(seed))
    pol = LookaheadPolicy(ssp, horizon=2, theta=(t1, t2))
    for state in range(ssp.base.n_states):
        acts, probs = pol.action_distribution(state)
        assert abs(probs.sum() - 1.0) <= 1e-12
        if state == ssp.terminal:
            continue
        # Expected score identity: sum_u mu(u) psi(u) = 0.
        total = np.zeros(2)
        for u, p in zip(acts, probs):
            total += p * np.array(pol.log_policy_gradient(state, int(u)))
        assert np.linalg.norm(total) <= 1e-9


def test_softmax_shift_invariance(rng):
    ssp = make_random_ssp(rng)
    pol = LookaheadPolicy(ssp, horizon=2, theta=(1.5, -0.5))
    state = next(s for s in range(ssp.base.n_states)
                 if s != ssp.terminal and len(ssp.base.enabled[s]) > 1)
    acts, probs = pol.action_distribution(state)
    first, feats = sequence_table(pol, state)
    # Translating every feature row by a constant leaves the softmax alone.
    shifted = LookaheadPolicy(ssp, horizon=2, theta=(1.5, -0.5))
    sequence_table(shifted, state)[1][:] = feats + np.array([3.7, -1.2])
    acts2, probs2 = shifted.action_distribution(state)
    assert list(acts) == list(acts2)
    assert np.allclose(probs, probs2, atol=1e-12)


def test_concentration_on_max_f1_at_large_theta1(rng):
    for _ in range(5):
        ssp = make_random_ssp(rng)
        pol = LookaheadPolicy(ssp, horizon=2, theta=(50.0, 0.0))
        for state in range(ssp.base.n_states):
            if state == ssp.terminal or len(ssp.base.enabled[state]) < 2:
                continue
            first, feats = sequence_table(pol, state)
            best = feats[:, 0].max()
            winners = {int(first[i]) for i in range(len(first))
                       if feats[i, 0] >= best - 1e-12}
            if len(winners) > 1:
                continue
            acts, probs = pol.action_distribution(state)
            assert int(acts[np.argmax(probs)]) in winners


def test_sampling_determinism_and_concentration(rng):
    ssp = make_random_ssp(rng)
    pol = LookaheadPolicy(ssp, horizon=2, theta=(1.0, -1.0))
    state = next(s for s in range(ssp.base.n_states)
                 if s != ssp.terminal and len(ssp.base.enabled[s]) >= 2)
    r1 = np.random.default_rng(11)
    r2 = np.random.default_rng(11)
    draws1 = [pol.sample_action(state, r1) for _ in range(200)]
    draws2 = [pol.sample_action(state, r2) for _ in range(200)]
    assert draws1 == draws2
    acts, probs = pol.action_distribution(state)
    n = 100_000
    r = np.random.default_rng(5)
    counts = {int(u): 0 for u in acts}
    for _ in range(n):
        counts[pol.sample_action(state, r)] += 1
    for u, p in zip(acts, probs):
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[int(u)] / n - p) <= 3.5 * sigma + 1e-12


def test_progress_is_infinite_exactly_on_bad_states(rng):
    for _ in range(5):
        ssp = make_random_ssp(rng)
        pol = LookaheadPolicy(ssp, horizon=2)
        for state in range(ssp.base.n_states):
            if state in ssp.bad:
                assert np.isinf(pol.progress[state])
            else:
                assert np.isfinite(pol.progress[state])
        assert pol.progress[ssp.terminal] == 0.0


# -- per-(state, theta) records ------------------------------------------------

@functools.lru_cache(maxsize=1)
def desk_ssp():
    ctx = load_task(RunConfig.from_file("tasks/desk.json"))
    return mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)


def _call(pol, op, state):
    """One policy query as comparable bytes (or the error it raises)."""
    kind, _state, arg = op
    if kind == "distribution":
        acts, probs = pol.action_distribution(state)
        return acts.tobytes(), probs.tobytes()
    if kind == "probability":
        acts, _probs = pol.action_distribution(state)
        return action_probability(pol, state, arg % (len(acts) + 2) - 1)
    if kind == "gradient":
        acts, _probs = pol.action_distribution(state)
        # One index past the enabled actions asks for an absent action.
        i = arg % (len(acts) + 1)
        u = int(acts[i]) if i < len(acts) else 99
        try:
            return np.array(pol.log_policy_gradient(state, u)).tobytes()
        except ModelError as err:
            return str(err)
    r = np.random.default_rng(arg)
    return [pol.sample_action(state, r) for _ in range(3)], r.random()


theta_part = st.floats(-30, 30, allow_nan=False)
policy_ops = st.lists(st.one_of(
    st.tuples(st.just("assign"), theta_part, theta_part),
    st.tuples(st.just("shift"), st.integers(0, 1), st.floats(-2, 2, allow_nan=False)),
    st.tuples(st.sampled_from(["distribution", "probability", "gradient", "sample"]),
              st.integers(0, 10 ** 6), st.integers(0, 2 ** 32 - 1)),
), min_size=1, max_size=14)


@settings(max_examples=60, deadline=None)
@given(task=st.one_of(st.just("desk"), st.integers(0, 40)), ops=policy_ops)
def test_records_match_a_fresh_policy(task, ops):
    """After any sequence of theta assignments (arrays or pairs, and shifts
    of one component), every query answers bitwise as a freshly built
    policy at that theta does. Theta is a pair of floats, so it cannot be
    edited in place."""
    ssp = desk_ssp() if task == "desk" else make_random_ssp(np.random.default_rng(task))
    pol = LookaheadPolicy(ssp, horizon=2, theta=(5.0, -0.5))
    for op in ops:
        if op[0] == "assign":
            pol.theta = np.array(op[1:])
            assert pol.theta == op[1:] and all(type(t) is float for t in pol.theta)
        elif op[0] == "shift":
            with pytest.raises(TypeError):
                pol.theta[op[1]] += op[2]
            pol.theta = [t + op[2] if i == op[1] else t for i, t in enumerate(pol.theta)]
        else:
            state = op[1] % ssp.base.n_states
            fresh = LookaheadPolicy(ssp, horizon=2, theta=pol.theta)
            assert _call(pol, op, state) == _call(fresh, op, state)


def held_weights(pol, state):
    """The policy's softmax weights at ``state`` and its theta."""
    return pol._weights(state, pol._visits.get(state) or pol._visit(state))


def test_weights_are_held_for_the_last_state_at_the_current_theta():
    ssp = desk_ssp()
    pol = LookaheadPolicy(ssp, horizon=2, theta=(5.0, -0.5))
    states = [s for s in range(ssp.base.n_states) if s != ssp.terminal]
    for s in range(ssp.base.n_states):
        pol.action_distribution(s)
    # A sweep over every state leaves the last state's weights behind (on
    # desk the terminal, which has one zero-feature sequence per action).
    assert ssp.terminal == ssp.base.n_states - 1
    assert pol._held_key == (ssp.terminal, pol.theta)
    state = next(s for s in states if len(pol.action_distribution(s)[0]) > 1)
    w = held_weights(pol, state)
    assert held_weights(pol, state) is w
    # A new theta is a new key, and the weights are rebuilt.
    pol.theta = (pol.theta[0] + 1.0, pol.theta[1])
    rebuilt = held_weights(pol, state)
    assert rebuilt is not w
    fresh = LookaheadPolicy(ssp, horizon=2, theta=pol.theta)
    assert np.array(rebuilt).tobytes() == np.array(held_weights(fresh, state)).tobytes()
    # Single-action states neither form weights nor replace the held ones.
    single = next(s for s in states if len(pol.action_distribution(s)[0]) == 1)
    held_weights(pol, state)
    u = pol.sample_action(single, np.random.default_rng(0))
    pol.log_policy_gradient(single, u)
    assert pol._held_key == (state, pol.theta)


def test_a_state_of_one_feature_pair_takes_no_exp_call():
    """On desk the terminal's sequences (one per row) all have zero
    features, so at a finite theta its weights are exactly 1.0: no np.exp
    call forms them, and its answers match policy_rows bit for bit."""
    ssp = desk_ssp()
    pol = LookaheadPolicy(ssp, horizon=2)
    t = ssp.terminal
    lo, hi = ssp.base.state_ptr[t:t + 2]
    assert hi - lo > 1

    def no_exp(*args, **kwargs):
        raise AssertionError("np.exp called at the terminal")

    for theta in ((5.0, -0.5), (0.0, 0.0), (-30.0, 12.5), (1e300, -1e300)):
        pol.theta = theta
        want = pol.policy_rows()[lo:hi]
        draws, ref = np.random.default_rng(7), np.random.default_rng(7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "exp", no_exp)
            acts, probs = pol.action_distribution(t)
            psis = [pol.log_policy_gradient(t, u) for u in acts.tolist()]
            sampled = [pol.sample_action(t, draws) for _ in range(20)]
        assert probs.tobytes() == want.tobytes()
        assert all(psi == (0.0, 0.0) and np.array(psi).tobytes() == bytes(16) for psi in psis)
        cdf = np.cumsum(want)
        assert sampled == [int(acts[min(int(np.searchsorted(cdf, ref.random(), side="right")),
                                        len(acts) - 1)]) for _ in range(20)]
    # A non-finite logit takes the exp path, as policy_rows does.
    pol.theta = (math.inf, 0.0)
    with np.errstate(invalid="ignore"):
        want = pol.policy_rows()[lo:hi]
    assert np.isnan(want).all() and np.isnan(pol.action_distribution(t)[1]).all()


# -- single-action states and the sampler ---------------------------------------

def reference_gradient(pol, state, action):
    """psi = E[f | first action] - E[f] by the general formula, as the
    policy once formed it at every state: the softmax weights, the group's
    and the state's weighted feature sums, each over its weight sum."""
    first, feats = sequence_table(pol, state)
    logits = feats @ pol.theta
    w = np.exp(logits - np.maximum.reduce(logits))
    at = np.flatnonzero(first == action)
    lo, hi = int(at[0]), int(at[-1]) + 1
    wg = w[lo:hi]
    return (wg @ feats[lo:hi]) / np.add.reduce(wg) - (w @ feats) / np.add.reduce(w)


@functools.lru_cache(maxsize=None)
def step_policy(task, horizon):
    ssp = desk_ssp() if task == "desk" else make_random_ssp(np.random.default_rng(task))
    return LookaheadPolicy(ssp, horizon=horizon)


@settings(max_examples=40, deadline=None)
@given(task=st.one_of(st.just("desk"), st.integers(0, 20)), horizon=st.integers(1, 3),
       t1=theta_part, t2=theta_part, seed=st.integers(0, 2 ** 32 - 1))
def test_single_action_states_score_zero_without_a_draw(task, horizon, t1, t2, seed):
    pol = step_policy(task, horizon)
    pol.theta = np.array((t1, t2))
    ssp = pol.ssp
    for state in range(ssp.base.n_states):
        first, _feats = sequence_table(pol, state)
        acts = np.unique(first)
        if len(acts) != 1:
            continue
        u = int(acts[0])
        psi = np.array(pol.log_policy_gradient(state, u))
        assert psi.tobytes() == reference_gradient(pol, state, u).tobytes()
        assert psi.tobytes() == np.array([0.0, 0.0]).tobytes()
        with pytest.raises(ModelError, match="zero probability"):
            pol.log_policy_gradient(state, u + 1)
        r = np.random.default_rng(seed)
        before = r.bit_generator.state
        assert pol.sample_action(state, r) == u
        assert r.bit_generator.state == before


@settings(max_examples=40, deadline=None)
@given(task=st.one_of(st.just("desk"), st.integers(0, 20)), horizon=st.integers(1, 3),
       t1=theta_part, t2=theta_part)
def test_float_gradient_matches_the_array_formula(task, horizon, t1, t2):
    # The float pair built from left-to-right sums against the array formula
    # (w_g @ F_g) / sum(w_g) - (w @ F) / sum(w): only the summation order
    # and the logits' rounding differ, so they agree to 1e-12 of the
    # features' scale, and both reject an action whose weights all underflow.
    pol = step_policy(task, horizon)
    pol.theta = (t1, t2)
    for state in range(pol.ssp.base.n_states):
        first, feats = sequence_table(pol, state)
        if len(np.unique(first)) < 2:
            continue
        for u in np.unique(first).tolist():
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = reference_gradient(pol, state, u)
            if not np.isfinite(ref).all():
                with pytest.raises(ModelError, match="zero probability"):
                    pol.log_policy_gradient(state, u)
                continue
            psi = pol.log_policy_gradient(state, u)
            assert type(psi) is tuple and all(type(x) is float for x in psi)
            assert np.abs(np.array(psi) - ref).max() <= 1e-12 * max(1.0, np.abs(feats).max())


@settings(max_examples=40, deadline=None)
@given(task=st.one_of(st.just("desk"), st.integers(0, 20)), horizon=st.integers(1, 3),
       t1=theta_part, t2=theta_part, seed=st.integers(0, 2 ** 32 - 1))
def test_sampler_is_an_inverse_cdf_draw_over_the_distribution(task, horizon, t1, t2, seed):
    pol = step_policy(task, horizon)
    pol.theta = np.array((t1, t2))
    ssp = pol.ssp
    r, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for state in range(ssp.base.n_states):
        acts, probs = pol.action_distribution(state)
        if len(acts) < 2:
            continue
        # The first action whose running sum exceeds the draw, else the last.
        k = int(np.searchsorted(np.cumsum(probs), ref.random(), side="right"))
        assert pol.sample_action(state, r) == int(acts[min(k, len(acts) - 1)])
    assert r.bit_generator.state == ref.bit_generator.state
