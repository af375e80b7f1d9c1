"""The array model builds and lookahead tables against per-row and
per-state references."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dict_reference as ref
from tlcontrol.lookahead import LookaheadPolicy, SequenceCapExceeded
from tlcontrol.models import MDP, NTS, LabeledModel, ModelError, RabinAutomaton, nts_from_mdp
from tlcontrol.synthesis import (
    Amec,
    build_product,
    goal_and_bad_sets,
    mrp_to_ssp,
    with_probabilities,
)
from conftest import PROP_NAMES, make_random_ssp, random_dra, random_mdp


def with_extra_edge(rng, m):
    """``m`` with one row given a successor it did not have, or None when
    every row already reaches every state."""
    rows = ref.model_rows(m)
    open_rows = [key for key, row in rows.items() if len(row) < m.n_states]
    if not open_rows:
        return None
    key = open_rows[int(rng.integers(len(open_rows)))]
    have = {s for s, _ in rows[key]}
    extra = next(s for s in rng.permutation(m.n_states).tolist() if s not in have)
    rows[key] = tuple((s, w * 0.5) for s, w in rows[key]) + ((extra, 0.5),)
    return LabeledModel.from_rows(rows, n_states=m.n_states, initial=m.initial,
                                  actions=m.actions, props=m.props, labels=m.labels, mode=MDP)


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ModelError it raises."""
    try:
        return fn(*args)
    except ModelError as err:
        return f"ModelError: {err}"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from([MDP, NTS]),
       label_rule=st.sampled_from(["next", "current"]), n_states=st.integers(1, 7),
       n_actions=st.integers(1, 3), n_props=st.integers(1, 3), dra_states=st.integers(1, 4))
def test_array_builds_match_the_dict_reference(seed, mode, label_rule, n_states, n_actions,
                                               n_props, dra_states):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=4, n_props=n_props)
    m = m if mode == MDP else nts_from_mdp(m)
    dra = random_dra(rng, dra_states, PROP_NAMES[:n_props])

    pruned = build_product(m, dra, label_rule)
    want = ref.prune_unreachable(ref.build_product(m, dra, label_rule))
    assert ref.of_product(pruned) == want

    # The probability refit, on the skeleton of the MDP twin.
    if mode == MDP:
        skeleton = build_product(nts_from_mdp(m), dra, label_rule)
        dict_skeleton = ref.prune_unreachable(ref.build_product(nts_from_mdp(m), dra, label_rule))
        for mdp in (m, with_extra_edge(rng, m)):
            if mdp is None:
                continue
            got = outcome(with_probabilities, skeleton, mdp)
            expect = outcome(ref.with_probabilities, dict_skeleton, mdp)
            assert (got if isinstance(got, str) else ref.of_product(got)) == expect

    # Goal closure and SSP conversion for a random goal and restart set.
    n = pruned.base.n_states
    goal = frozenset(int(q) for q in np.flatnonzero(rng.random(n) < 0.3))
    found = [Amec(states=goal, rows=np.zeros(0, dtype=np.int64), pair_index=0)] if goal else []
    got_goal, bad = goal_and_bad_sets(pruned, found)
    assert got_goal == goal
    assert bad == ref.bad_states(want, goal)
    if pruned.base.initial in goal:
        return
    restart = frozenset(int(q) for q in np.flatnonzero(rng.random(n) < 0.3)) - goal
    for zeros in (bad, restart):
        got = mrp_to_ssp(pruned, goal, zeros)
        assert ref.of_ssp(got, want.base.names) == ref.mrp_to_ssp(want, goal, zeros, len(m.actions))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), label_rule=st.sampled_from(["next", "current"]),
       n_states=st.integers(1, 8), n_actions=st.integers(1, 3), n_props=st.integers(1, 3),
       dra_states=st.integers(1, 4), unreachable=st.integers(0, 3))
def test_forward_product_matches_the_pruned_reference(seed, label_rule, n_states, n_actions,
                                                      n_props, dra_states, unreachable):
    # Sparse models leave model states unreachable too; the automaton's
    # extra states are never entered.
    rng = np.random.default_rng(seed)
    m = random_mdp(rng, n_states=n_states, n_actions=n_actions, max_succ=2, n_props=n_props)
    dra = random_dra(rng, dra_states, PROP_NAMES[:n_props], unreachable=unreachable)
    got = build_product(m, dra, label_rule)
    assert (ref.of_product(got)
            == ref.prune_unreachable(ref.build_product(m, dra, label_rule)))
    assert got.unpruned_states == n_states * (dra_states + unreachable)
    assert not (set(got.projection[:, 1].tolist()) & set(range(dra_states, dra.n_states)))


def test_goal_mass_is_summed_in_entry_order():
    # Three goal entries whose sum depends on the order of the additions:
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in binary floating point.
    rows = {(0, 0): ((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4)), (1, 0): ((1, 1.0),),
            (2, 0): ((2, 1.0),), (3, 0): ((3, 1.0),), (4, 0): ((4, 1.0),)}
    m = LabeledModel.from_rows(rows, n_states=5, initial=0, actions=("a",), mode=MDP)
    product = build_product(m, RabinAutomaton(n_states=1, initial=0, props=(),
                                              delta=np.zeros((1, 1), dtype=np.int32),
                                              pairs=((frozenset(), frozenset({0})),)))
    ssp = mrp_to_ssp(product, frozenset({1, 2, 3}), frozenset())
    assert ssp.base.successors(0, 0) == ((1, 0.4), (2, (0.1 + 0.2) + 0.3))
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def brute_force_features(pol, ssp, state, horizon, radius):
    """The feature pairs of the state's sequences from the per-state
    definitions, each a running sum in ascending state order."""
    nb = ref.neighborhood(ssp.base, state, radius)
    clamped = np.where(np.isfinite(pol.progress), pol.progress, pol.progress_penalty)
    out = []
    for _seq, reach in ref.action_sequences(ssp.base, state, horizon):
        f1 = f2 = 0.0
        for j in sorted(reach & nb):
            nb_j = ref.neighborhood(ssp.base, j, radius)
            f1 += sum(1 for i in nb_j if i not in ssp.bad) / len(nb_j)
            f2 += float(clamped[j]) - float(clamped[state])
        out.append([f1, f2])
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), horizon=st.integers(1, 3), radius=st.integers(1, 3),
       n_states=st.integers(3, 8), n_actions=st.integers(1, 3),
       theta=st.tuples(st.floats(-8, 8), st.floats(-8, 8)))
# Instances where adding a sequence's safety scores in another order
# changes the feature's last bit.
@example(seed=39, horizon=3, radius=2, n_states=10, n_actions=2, theta=(1.0, -1.0))
@example(seed=76, horizon=2, radius=3, n_states=12, n_actions=2, theta=(0.5, 0.5))
def test_all_state_tables_match_brute_force(seed, horizon, radius, n_states, n_actions, theta):
    ssp = make_random_ssp(np.random.default_rng(seed), n_states=n_states, n_actions=n_actions)
    pol = LookaheadPolicy(ssp, horizon=horizon, radius=radius, theta=theta)
    per_state = []
    for state in range(ssp.base.n_states):
        nb = ref.neighborhood(ssp.base, state, radius)
        assert ref.safe(pol, state) == sum(1 for j in nb if j not in ssp.bad) / len(nb)
        per_state.append(pol.action_distribution(state)[1])
        first, feats = ref.sequence_table(pol, state)
        if state == ssp.terminal:
            assert first.tolist() == list(ssp.base.enabled[state])
            assert feats.tolist() == [[0.0, 0.0]] * len(first)
            continue
        seqs = ref.action_sequences(ssp.base, state, horizon)
        assert first.tolist() == [seq[0] for seq, _reach in seqs]
        assert feats.tolist() == brute_force_features(pol, ssp, state, horizon, radius)
    # The whole-policy sweep is the per-state distribution, bit for bit,
    # terminal included, also where a first action owns 8 or more sequences.
    assert np.array_equal(pol.policy_rows(), np.concatenate(per_state))


def test_sequence_cap_is_checked_at_construction():
    ssp = make_random_ssp(np.random.default_rng(7), n_states=8, n_actions=3)
    counts = {s: len(ref.action_sequences(ssp.base, s, 3, cap=10 ** 6))
              for s in range(ssp.base.n_states) if s != ssp.terminal}
    cap = max(counts.values()) - 1
    with pytest.raises(SequenceCapExceeded, match=f"more than {cap} action sequences") as err:
        LookaheadPolicy(ssp, horizon=3, sequence_cap=cap)
    named = int(re.search(r"from state (\d+)", str(err.value)).group(1))
    assert counts[named] > cap
    with pytest.raises(SequenceCapExceeded):
        ref.action_sequences(ssp.base, named, 3, cap=cap)
    LookaheadPolicy(ssp, horizon=3, sequence_cap=cap + 1)
