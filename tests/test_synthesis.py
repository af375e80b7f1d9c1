import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlcontrol import synthesis
from tlcontrol.models import MDP, LabeledModel, ModelError, parse_dra, parse_model
from tlcontrol.synthesis import (
    Amec,
    ProductModel,
    SspTransitionSource,
    _strongly_connected,
    amecs,
    build_product,
    goal_and_bad_sets,
    max_end_components,
    mrp_to_ssp,
    serialize_ssp,
    with_probabilities,
)
from tlcontrol.models import nts_from_mdp
from dict_reference import model_rows
from conftest import PROP_NAMES, parse_ssp_text, random_dra, random_mdp, random_nts, retained

UNIT_DRA = """
states 1
initial 0
props p
edge 0 else 0
pair L={} K={0}
"""

F_P_DRA = """
states 2
initial 0
props p
edge 0 {p} 1
edge 0 else 0
edge 1 else 1
pair L={} K={1}
"""


# -- oracles -----------------------------------------------------------------

def brute_force_mecs(m, within=None):
    """Exhaustive candidate enumeration: a state set C is an end-component
    set iff every state keeps an action whose support stays in C and the
    kept-action graph is strongly connected; MECs are the inclusion-maximal
    such sets."""
    states = sorted(within if within is not None else range(m.n_states))
    candidates = []
    for k in range(1, len(states) + 1):
        for combo in itertools.combinations(states, k):
            cset = set(combo)
            retained = {}
            ok = True
            for q in combo:
                keep = [u for u in m.enabled[q]
                        if all(s in cset for s in m.support(q, u))]
                if not keep:
                    ok = False
                    break
                retained[q] = tuple(keep)
            if ok and _strongly_connected_oracle(cset, m, retained):
                candidates.append((frozenset(cset), retained))
    maximal = [c for c in candidates
               if not any(c[0] < other[0] for other in candidates)]
    return sorted(maximal, key=lambda item: min(item[0]))


def _strongly_connected_oracle(cset, m, retained):
    for src in cset:
        seen = {src}
        stack = [src]
        while stack:
            q = stack.pop()
            for u in retained[q]:
                for s in m.support(q, u):
                    if s in cset and s not in seen:
                        seen.add(s)
                        stack.append(s)
        if seen != cset:
            return False
    return True


def boolean_reach_matrix(m):
    """Reachability via repeated squaring of the boolean edge matrix."""
    n = m.n_states
    a = np.eye(n, dtype=bool)
    for (q, _u), row in model_rows(m).items():
        for succ, _ in row:
            a[q, succ] = True
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        a = a @ a
    return a


# -- products ----------------------------------------------------------------

def test_unit_automaton_product_is_isomorphic(rng):
    # The product is the part of the model reachable from its initial
    # state, in state order, with the same rows.
    for _ in range(5):
        m = random_mdp(rng, n_states=5, n_actions=2)
        p = build_product(m, parse_dra(UNIT_DRA))
        states = p.projection[:, 0].tolist()
        assert states == np.flatnonzero(boolean_reach_matrix(m)[m.initial]).tolist()
        assert p.projection[:, 1].tolist() == [0] * len(states)
        assert p.unpruned_states == m.n_states
        assert p.base.n_enabled_pairs() == sum(len(m.enabled[q]) for q in states)
        for (i, u), row in model_rows(p.base).items():
            assert tuple((states[s], w) for s, w in row) == m.successors(states[i], u)


def test_chain_times_reachability_automaton():
    chain = parse_model("states 2\ninitial 0\nmode mdp\nprops p\nlabel 1: p\n"
                        "trans 0 a 1 1.0\ntrans 1 a 1 1.0")
    p = build_product(chain, parse_dra(F_P_DRA))
    # Of the 4 pairs only (0,0) and, one step later, (1,1) are reachable;
    # they keep the order of their codes q * |S| + s.
    assert p.unpruned_states == 4
    assert p.base.n_states == 2
    assert p.projection.tolist() == [[0, 0], [1, 1]]
    assert p.base.initial == 0
    assert p.base.successors(0, 0) == ((1, 1.0),)
    assert p.base.successors(1, 0) == ((1, 1.0),)
    assert p.pairs == ((frozenset(), frozenset({1})),)


def test_proposition_mismatch():
    m = random_mdp(rng=np.random.default_rng(0), n_states=2, n_props=1)
    dra = parse_dra("states 1\ninitial 0\nprops q\nedge 0 else 0\npair L={} K={0}")
    with pytest.raises(ModelError, match="proposition mismatch"):
        build_product(m, dra)


def test_product_rows_stay_stochastic(rng):
    for _ in range(5):
        m = random_mdp(rng, n_states=5, n_actions=2, n_props=1)
        p = build_product(m, parse_dra(F_P_DRA))
        for key in p.base.enabled_pairs():
            assert abs(sum(w for _, w in p.base.successors(*key)) - 1.0) <= 1e-9


def test_prune_keeps_reachable_and_projection(rng):
    m = random_mdp(rng, n_states=5, n_actions=2)
    p = build_product(m, parse_dra(F_P_DRA))
    assert p.unpruned_states == 10
    assert p.base.n_states <= 10
    # Every kept state must be reachable from the initial state.
    seen = {p.base.initial}
    stack = [p.base.initial]
    while stack:
        q = stack.pop()
        for u in p.base.enabled[q]:
            for s, _ in p.base.successors(q, u):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
    assert seen == set(range(p.base.n_states))
    assert len(p.projection) == p.base.n_states


def test_current_label_rule_differs_on_first_letter():
    chain = parse_model("states 2\ninitial 0\nmode mdp\nprops p\nlabel 0: p\n"
                        "trans 0 a 1 1.0\ntrans 1 a 1 1.0")
    nxt = build_product(chain, parse_dra(F_P_DRA), label_rule="next")
    cur = build_product(chain, parse_dra(F_P_DRA), label_rule="current")
    # Next-rule consumes h(q0)={p} immediately; current-rule starts at s0.
    assert nxt.projection[nxt.base.initial].tolist() == [0, 1]
    assert cur.projection[cur.base.initial].tolist() == [0, 0]
    # From (0, 0) the current rule reads h(0)={p} and lands in (1, 1).
    assert cur.projection.tolist() == [[0, 0], [1, 1]]
    assert cur.base.successors(0, 0) == ((1, 1.0),)


# -- end components ----------------------------------------------------------

def test_mec_trivial_cases():
    absorbing = parse_model("states 2\ninitial 0\nmode nts\n"
                            "trans 0 a 1 1\ntrans 1 a 1 1")
    mecs = max_end_components(absorbing)
    assert len(mecs) == 1 and mecs[0][0] == frozenset({1})
    cycle = parse_model("states 2\ninitial 0\nmode nts\n"
                        "trans 0 a 1 1\ntrans 1 a 0 1")
    mecs = max_end_components(cycle)
    assert len(mecs) == 1 and mecs[0][0] == frozenset({0, 1})


def test_mec_requires_nts_mode(rng):
    with pytest.raises(ModelError, match="NTS-mode"):
        max_end_components(random_mdp(rng))


def test_mecs_match_brute_force(rng):
    for _ in range(10):
        n = random_nts(rng, n_states=6, n_actions=2)
        got = max_end_components(n)
        want = brute_force_mecs(n)
        assert [(s, retained(n, r)) for s, r in got] == want


def test_mec_split_resplits_a_part_that_lost_a_row():
    # {0, 1} is strongly connected only through action a of state 0, whose
    # support also reaches the absorbing state 2; dropping that border row
    # disconnects the part, so state 1 belongs to no end component.
    n = parse_model("states 3\ninitial 0\nmode nts\n"
                    "trans 0 a 1 1\ntrans 0 a 2 1\ntrans 0 b 0 1\n"
                    "trans 1 a 0 1\ntrans 2 a 2 1")
    got = [(s, retained(n, r)) for s, r in max_end_components(n)]
    assert got == [(frozenset({0}), {0: (1,)}), (frozenset({2}), {2: (0,)})]
    assert got == brute_force_mecs(n)


def test_mec_split_four_rounds_deep(monkeypatch):
    # Found by a seeded search over random_nts (6 states): each round's
    # border rows split off a smaller part that has to be split again.
    # Round 1 settles {3}; round 2 settles {0} and {4}, cut off by the
    # border rows (0, a0) and (4, a1); round 3 settles {1, 5} once
    # (5, a0) is gone; round 4 settles {2} after (2, a0) is gone.
    n = parse_model("states 6\ninitial 0\nmode nts\n"
                    "trans 0 a 3 1\ntrans 0 b 0 1\ntrans 1 b 5 1\n"
                    "trans 2 a 1 1\ntrans 2 a 5 1\ntrans 2 b 2 1\ntrans 3 a 3 1\n"
                    "trans 4 a 4 1\ntrans 4 b 0 1\ntrans 4 b 2 1\n"
                    "trans 5 a 2 1\ntrans 5 a 4 1\ntrans 5 b 1 1")
    rounds = []
    scc = synthesis._strongly_connected

    def counting(src, dst, n):
        rounds.append(n)  # the round's pending states
        return scc(src, dst, n)

    monkeypatch.setattr(synthesis, "_strongly_connected", counting)
    got = [(s, retained(n, r)) for s, r in max_end_components(n)]
    assert rounds == [6, 5, 3, 1]
    assert got == brute_force_mecs(n)
    assert [sorted(s) for s, _kept in got] == [[0], [1, 5], [2], [3], [4]]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n_states=st.integers(3, 8),
       n_actions=st.integers(1, 3), max_succ=st.integers(1, 3),
       restrict=st.booleans())
def test_worklist_mecs_match_brute_force(seed, n_states, n_actions, max_succ, restrict):
    rng = np.random.default_rng(seed)
    n = random_nts(rng, n_states=n_states, n_actions=n_actions, max_succ=max_succ)
    within = None
    if restrict:
        within = {q for q in range(n_states) if rng.random() < 0.7}
    got = max_end_components(n, within=within)
    want = brute_force_mecs(n, within=within)
    # Retained actions are compared as tuples, so their order counts too.
    assert [(s, retained(n, r)) for s, r in got] == want


def test_amecs_trivial_and_brute_force(rng):
    # K state absorbing and not in L: the singleton is accepting.
    n = parse_model("states 2\ninitial 0\nmode nts\ntrans 0 a 1 1\ntrans 1 a 1 1")
    p = ProductModel(base=n, projection=((0, 0), (1, 0)),
                     pairs=((frozenset(), frozenset({1})),),
                     unpruned_states=2)
    found = amecs(p)
    assert len(found) == 1 and found[0].states == frozenset({1})
    # The only cycle through K also passes through L: nothing accepts.
    cyc = parse_model("states 2\ninitial 0\nmode nts\ntrans 0 a 1 1\ntrans 1 a 0 1")
    p = ProductModel(base=cyc, projection=((0, 0), (1, 0)),
                     pairs=((frozenset({0}), frozenset({1})),),
                     unpruned_states=2)
    assert amecs(p) == []
    # Random products against restrict-then-enumerate.
    for _ in range(8):
        n = random_nts(rng, n_states=6, n_actions=2)
        left = frozenset(int(s) for s in rng.choice(6, size=2, replace=False))
        right = frozenset(int(s) for s in rng.choice(6, size=2, replace=False))
        p = ProductModel(base=n, projection=tuple((q, 0) for q in range(6)),
                         pairs=((left, right),), unpruned_states=6)
        got = [(a.states, retained(n, a.rows)) for a in amecs(p)]
        want = [(s, r) for s, r in brute_force_mecs(n, within=set(range(6)) - left)
                if s & right]
        assert got == want


def test_multi_pair_amecs_match_brute_force_pair_by_pair():
    # Random products with two or three accepting pairs, each with an L
    # that meets the reachable product: every pair's components are the
    # maximal end components of the product without L that meet K, and
    # components of different pairs may overlap.
    rng = np.random.default_rng(707)
    instances = accepting = overlapping = 0
    while instances < 200:
        m = random_nts(rng, n_states=int(rng.integers(2, 5)), n_actions=2, max_succ=2,
                       n_props=2)
        dra = random_dra(rng, int(rng.integers(2, 4)), PROP_NAMES[:2], n_pairs=0)
        pairs = tuple((frozenset({int(rng.integers(dra.n_states))}),
                       frozenset(np.flatnonzero(rng.random(dra.n_states) < 0.6).tolist()))
                      for _ in range(int(rng.integers(2, 4))))
        p = build_product(m, dataclasses.replace(dra, pairs=pairs))
        n = p.base
        if n.n_states > 10 or not all(left for left, _right in p.pairs):
            continue
        instances += 1
        found = amecs(p)
        for i, (left, right) in enumerate(p.pairs):
            got = [(a.states, retained(n, a.rows)) for a in found if a.pair_index == i]
            want = [(states, kept) for states, kept in
                    brute_force_mecs(n, within=set(range(n.n_states)) - left)
                    if states & right]
            assert got == want
        accepting += bool(found)
        overlapping += any(a.pair_index != b.pair_index and a.states & b.states
                           for a, b in itertools.combinations(found, 2))
    assert accepting >= 50 and overlapping >= 10


def test_overlapping_amecs_of_two_pairs():
    # One model state with a self loop and a two-state loop through it; the
    # automaton tracks the letter read last. Pair 0 forbids the letter {p}
    # and accepts on {}, pair 1 accepts on {p}: its component holds the
    # whole loop, pair 0's only the self loop, which overlaps it.
    n = parse_model("states 2\ninitial 0\nmode nts\nprops p\nlabel 1: p\n"
                    "trans 0 a 0 1\ntrans 0 b 1 1\ntrans 1 a 0 1")
    dra = parse_dra("states 2\ninitial 0\nprops p\nedge 0 {p} 1\nedge 0 else 0\n"
                    "edge 1 {p} 1\nedge 1 else 0\npair L={1} K={0}\npair L={} K={1}")
    p = build_product(n, dra)
    found = [(a.pair_index, sorted(p.projection[sorted(a.states)].tolist()),
              retained(p.base, a.rows)) for a in amecs(p)]
    assert [(i, states) for i, states, _kept in found] == [
        (0, [[0, 0]]), (1, [[0, 0], [1, 1]])]
    assert found[0][2] == {p.base.initial: (0,)}


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                            max_size=40))
def test_strongly_connected_components_come_out_sinks_first(n, edges):
    edges = [(a % n, b % n) for a, b in edges]
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    count, comp = _strongly_connected(src, dst, n)
    assert comp.dtype == np.int64
    reach = np.eye(n, dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    # Two nodes share a component exactly when each reaches the other.
    same = np.equal.outer(comp, comp)
    assert (same == (reach & reach.T)).all()
    assert sorted(set(comp)) == list(range(count))
    # Every edge that leaves a component enters one numbered before it.
    assert all(comp[b] <= comp[a] for a, b in edges)


def test_goal_and_bad_sets(rng):
    # All states reach the goal: empty zero set.
    n = parse_model("states 2\ninitial 0\nmode nts\ntrans 0 a 1 1\ntrans 1 a 1 1")
    p = ProductModel(base=n, projection=((0, 0), (1, 0)),
                     pairs=((frozenset(), frozenset({1})),), unpruned_states=2)
    goal, bad = goal_and_bad_sets(p, amecs(p))
    assert goal == frozenset({1}) and bad == frozenset()
    # A self-loop-only state outside the goal is a zero state.
    n = parse_model("states 3\ninitial 0\nmode nts\n"
                    "trans 0 a 1 1\ntrans 0 a 2 1\ntrans 1 a 1 1\ntrans 2 a 2 1")
    p = ProductModel(base=n, projection=tuple((q, 0) for q in range(3)),
                     pairs=((frozenset(), frozenset({1})),), unpruned_states=3)
    goal, bad = goal_and_bad_sets(p, amecs(p))
    assert 2 in bad and 0 not in bad
    # Random: complement of the boolean-matrix-power backward closure.
    for _ in range(8):
        n = random_nts(rng, n_states=7, n_actions=2)
        p = ProductModel(base=n, projection=tuple((q, 0) for q in range(7)),
                         pairs=((frozenset(), frozenset({0, 3})),), unpruned_states=7)
        found = amecs(p)
        goal, bad = goal_and_bad_sets(p, found)
        reach = boolean_reach_matrix(n)
        want_bad = frozenset(q for q in range(7)
                             if not any(reach[q, g] for g in goal)) if goal else \
            frozenset(range(7))
        assert bad == want_bad
        assert not (goal & bad)


# -- SSP conversion ----------------------------------------------------------

def _tiny_product(goal_weights):
    """State 0 branches into goal states 1, 2 and plain state 3."""
    rows = "\n".join(f"trans 0 a {s} {w}" for s, w in goal_weights.items())
    text = f"""
states 4
initial 0
mode mdp
{rows}
trans 1 a 1 1.0
trans 2 a 2 1.0
trans 3 a 3 1.0
"""
    m = parse_model(text)
    return ProductModel(base=m, projection=tuple((q, 0) for q in range(4)),
                        pairs=((frozenset(), frozenset({1, 2})),), unpruned_states=4)


def test_ssp_sum_redirection():
    p = _tiny_product({1: 0.3, 2: 0.2, 3: 0.5})
    ssp = mrp_to_ssp(p, frozenset({1, 2}), frozenset({3}))
    # Kept states: 0 -> 0, 3 -> 1; terminal = 2.
    assert ssp.terminal == 2
    assert ssp.base.successors(0, 0) == ((1, 0.5), (2, 0.5))
    # Zero states restart at the initial state with unit cost.
    assert ssp.base.successors(1, 0) == ((0, 1.0),)
    assert ssp.cost(1) == 1.0 and ssp.cost(0) == 0.0
    # The terminal is absorbing and cost-free under every action.
    for u in range(len(ssp.base.actions)):
        assert ssp.base.successors(2, u) == ((2, 1.0),)
        assert ssp.cost(2, u) == 0.0


def test_ssp_flag_redirection_and_support_agreement():
    p = _tiny_product({1: 0.3, 2: 0.2, 3: 0.5})
    goal, bad = frozenset({1, 2}), frozenset({3})
    ssp_mdp = mrp_to_ssp(p, goal, bad)
    p_nts = ProductModel(base=nts_from_mdp(p.base), projection=p.projection,
                         pairs=p.pairs, unpruned_states=4)
    ssp_nts = mrp_to_ssp(p_nts, goal, bad)
    assert ssp_nts.base.successors(0, 0) == ((1, 1.0), (2, 1.0))
    for key, row in model_rows(ssp_mdp.base).items():
        assert tuple(s for s, _ in row) == tuple(s for s, _ in ssp_nts.base.successors(*key))


def test_ssp_rejects_trivial_instance():
    p = _tiny_product({1: 1.0})
    with pytest.raises(ModelError, match="goal set"):
        mrp_to_ssp(p, frozenset({0, 1, 2}), frozenset())


def test_ssp_serialize_round_trip():
    p = _tiny_product({1: 0.25, 2: 0.25, 3: 0.5})
    ssp = mrp_to_ssp(p, frozenset({1, 2}), frozenset({3}))
    again, terminal, bad = parse_ssp_text(serialize_ssp(ssp))
    assert terminal == ssp.terminal
    assert bad == ssp.bad
    assert model_rows(again) == model_rows(ssp.base)
    assert again == ssp.base


def test_inside_amec_policy_uniform_and_recurrent(rng):
    n = parse_model("states 3\ninitial 0\nmode nts\n"
                    "trans 0 a 1 1\ntrans 0 b 0 1\ntrans 1 a 0 1\ntrans 1 a 2 1\n"
                    "trans 2 a 0 1")
    p = ProductModel(base=n, projection=tuple((q, 0) for q in range(3)),
                     pairs=((frozenset(), frozenset({2})),), unpruned_states=3)
    found = amecs(p)
    assert len(found) == 1
    a = found[0]
    kept = retained(n, a.rows)
    assert kept[0] == (0, 1)
    assert kept[1] == (0,)
    # Under the uniform choice over retained actions, the induced chain
    # restricted to the component is an irreducible stochastic matrix, so
    # its stationary distribution is strictly positive and K states are
    # visited infinitely often.
    states = sorted(a.states)
    idx = {q: i for i, q in enumerate(states)}
    kernel = np.zeros((len(states), len(states)))
    for q in states:
        for u in kept[q]:
            succ = n.support(q, u)
            for s in succ:
                kernel[idx[q], idx[s]] += 1.0 / len(kept[q]) / len(succ)
    assert np.allclose(kernel.sum(axis=1), 1.0)
    vals, vecs = np.linalg.eig(kernel.T)
    station = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    station = station / station.sum()
    assert (station > 1e-12).all()
    assert any(q in a.states for q in p.pairs[a.pair_index][1])


def test_with_probabilities_validates_support(rng):
    m = random_mdp(rng, n_states=4, n_actions=2)
    skeleton = build_product(nts_from_mdp(m), parse_dra(F_P_DRA))
    refit = with_probabilities(skeleton, m)
    for key, row in model_rows(refit.base).items():
        assert abs(sum(w for _, w in row) - 1.0) <= 1e-9
    # A probabilistic edge outside the skeleton support must be rejected.
    other = model_rows(m)
    q, u = next(iter(other))
    succs = [s for s, _ in other[(q, u)]]
    extra = next(s for s in range(m.n_states) if s not in succs)
    row = [(s, w * 0.5) for s, w in other[(q, u)]]
    other[(q, u)] = tuple(sorted(row + [(extra, 0.5)]))
    m2 = LabeledModel.from_rows(other, n_states=m.n_states, initial=m.initial,
                                actions=m.actions, props=m.props, labels=m.labels, mode=MDP)
    with pytest.raises(ModelError, match="support mismatch"):
        with_probabilities(skeleton, m2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), label_rule=st.sampled_from(["next", "current"]),
       n_states=st.integers(1, 7), n_actions=st.integers(1, 3), n_props=st.integers(1, 3),
       dra_states=st.integers(1, 4))
def test_ssp_transition_source_matches_direct_conversion(
        seed, label_rule, n_states, n_actions, n_props, dra_states):
    # Arbitrary goal sets on random products under both label rules, with
    # automata of two or three accepting pairs.
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=3, n_props=n_props)
    dra = random_dra(rng, dra_states, PROP_NAMES[:n_props], n_pairs=int(rng.integers(2, 4)))
    product = build_product(nts_from_mdp(m), dra, label_rule)
    n = product.base.n_states
    goal = frozenset(np.flatnonzero(rng.random(n) < 0.3).tolist()) - {product.base.initial}
    found = [Amec(states=goal, rows=np.zeros(0, dtype=np.int64), pair_index=0)] if goal else []
    _goal, bad = goal_and_bad_sets(product, found)
    # More restart states, so that they share model states with the others.
    bad |= frozenset(np.flatnonzero(rng.random(n) < 0.2).tolist()) - goal
    ssp = mrp_to_ssp(product, goal, bad)
    want = mrp_to_ssp(with_probabilities(product, m), goal, bad)
    source = SspTransitionSource(ssp, product, m.successors)
    rows = {key: row for key, row in model_rows(want.base).items() if key[0] != want.terminal}
    for key in rows:
        source(*key)
    # Each row, asked for or filled in by another query, is the conversion's, bit for bit.
    for (s, u), row in rows.items():
        assert source(s, u) == row
    # A probability source that leaves the possibilistic support is refused.
    for s in sorted(set(range(ssp.terminal)) - ssp.bad):
        q, u = int(product.projection[ssp.origin[s], 0]), ssp.base.enabled[s][0]
        outside = sorted(set(range(m.n_states)) - set(m.support(q, u)))
        if outside:
            def base_row(q2, u2, extra=outside[0]):
                return m.successors(q2, u2) + ((extra, 0.0),)

            with pytest.raises(ModelError, match="outside the possibilistic support"):
                SspTransitionSource(ssp, product, base_row)(s, u)
            break


def test_ssp_source_asks_each_model_row_once():
    # A desk run, where several SSP states (one per automaton state) sit
    # over one model state and share its rows.
    from tlcontrol.actor_critic import run
    from tlcontrol.lookahead import LookaheadPolicy
    from tlcontrol.pipeline import RunConfig, load_task

    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), max_iters=2000,
                              eval_every=0)
    ctx = load_task(cfg)
    asked = []

    def base_row(q, u):
        asked.append((q, u))
        return ctx.base_row(q, u)

    ssp = mrp_to_ssp(ctx.product, ctx.goal, ctx.bad)
    source = SspTransitionSource(ssp, ctx.product, base_row)
    policy = LookaheadPolicy(ssp, horizon=cfg.horizon, theta=cfg.theta0)
    _theta, trace = run(ssp, source, policy, cfg)

    model_state = {x: ctx.product.projection[old][0] for x, old in enumerate(ssp.origin)
                   if old >= 0 and x not in ssp.bad}
    visited = {x for x in trace.states if x in model_state}
    assert len({model_state[x] for x in visited}) < len(visited)
    assert len(asked) == len(set(asked)) == source.pairs_computed == trace.pairs[-1]
    x = max(visited)
    u = ssp.base.enabled[x][0]
    row = source(x, u)
    counted = source.pairs_computed
    assert source(x, u) == row and source.pairs_computed == counted
    # Every row, asked for or filled in, is the SSP conversion's row, bit for bit.
    ssp_mdp = mrp_to_ssp(ctx.product_mdp, ctx.goal, ctx.bad)
    for (s, u), want in model_rows(ssp_mdp.base).items():
        if s != ssp.terminal:
            assert source(s, u) == want
    assert len(asked) == len(set(asked)) == source.pairs_computed


def test_ssp_proper_policies_absorb_at_terminal(rng):
    # Under any full-support policy, every state reachable from the initial
    # state is absorbed at the terminal with probability one (checked by
    # the exact linear solve: reach probability of the terminal equals 1).
    from tlcontrol.exact import ReachEvaluator
    from conftest import make_random_ssp

    done = 0
    while done < 5:
        out = make_random_ssp(rng, n_states=5, n_actions=2, want_mdp=True)
        _m, _dra, _product, _product_mdp, _goal, bad, _ssp, ssp_mdp = out
        if ssp_mdp.base.initial in ssp_mdp.bad:
            continue
        m = ssp_mdp.base
        pol = 1.0 / np.diff(m.state_ptr)[m.row_state]
        v = ReachEvaluator(m, frozenset({ssp_mdp.terminal}), frozenset()).values(pol)
        reachable = {ssp_mdp.base.initial}
        stack = [ssp_mdp.base.initial]
        while stack:
            q = stack.pop()
            if q == ssp_mdp.terminal:
                continue
            for u in ssp_mdp.base.enabled[q]:
                for s, _w in ssp_mdp.base.successors(q, u):
                    if s not in reachable:
                        reachable.add(s)
                        stack.append(s)
        for q in reachable:
            assert v[q] == pytest.approx(1.0, abs=1e-9)
        done += 1
