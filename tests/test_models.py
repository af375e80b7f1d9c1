import dataclasses
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tlcontrol.exact import write_value_csv
from tlcontrol.models import (
    BLOCK_ROWS,
    MDP,
    NTS,
    LabeledModel,
    ModelError,
    ParseError,
    dra_step,
    nts_from_mdp,
    parse_dra,
    parse_model,
    parse_policy,
    _ptr,
    save_policy,
    serialize_model,
)
from dict_reference import model_rows, prop_mask
from conftest import random_mdp, random_nts

SINGLETON = """
states 1
initial 0
mode mdp
trans 0 loop 0 1.0
"""

CHAIN_NTS = """
states 4
initial 0
mode nts
props p
label 3: p
trans 0 go 1 1
trans 0 go 2 1
trans 1 go 3 1
trans 2 go 3 1
trans 3 go 3 1
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


def test_parse_absorbing_singleton():
    m = parse_model(SINGLETON)
    assert m.n_states == 1 and m.mode == MDP
    assert m.successors(0, 0) == ((0, 1.0),)


def test_stochasticity_violation_names_state_and_action():
    bad = """
states 3
initial 0
mode mdp
trans 0 a 1 0.6
trans 0 a 2 0.3
trans 1 a 1 1.0
trans 2 a 2 1.0
"""
    with pytest.raises(ParseError, match=r"stochasticity violation at \(0, 'a'\)"):
        parse_model(bad)


def test_dangling_state_and_empty_enabled():
    with pytest.raises(ParseError, match="dangling state id 7"):
        parse_model("states 2\ninitial 0\nmode mdp\ntrans 0 a 7 1.0\ntrans 1 a 1 1.0")
    # A state without rows breaks a whole-model rule: no line to name.
    with pytest.raises(ModelError, match="state 1 has no enabled actions") as info:
        parse_model("states 2\ninitial 0\nmode mdp\ntrans 0 a 0 1.0")
    assert info.type is ModelError and info.value.row is None


def test_nts_weights_must_be_flags():
    with pytest.raises(ParseError, match=r"line 4: state 0, action 'a': NTS weight 0.5 is not 1"):
        parse_model("states 1\ninitial 0\nmode nts\ntrans 0 a 0 0.5")


@pytest.mark.parametrize("text, message", [
    ("states -1\ninitial 0\nmode mdp\n", "line 1: negative state count -1"),
    ("states 2\ninitial 0\nmode mdp\ntrans 0 a 0 1.0\ntrans 0 a 1 nan\ntrans 1 a 1 1.0",
     "line 4: state 0, action 'a': weight nan outside"),
], ids=["negative-states", "nan-weight"])
def test_out_of_range_header_and_weight_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_model(text)


# Row (0, a) starts on line 4; its second entry, on line 6, comes after a
# line of row (1, a).
SPLIT_ROW = "states 2\ninitial 0\nmode {}\ntrans 0 a 0 {}\ntrans 1 a 1 1\ntrans 0 a {} {}\n"


@pytest.mark.parametrize("mode, first, succ, second, message", [
    (MDP, 0, 1, 0.0, r"state 0, action 'a': no transitions"),
    (MDP, 0.5, 7, 0.5, r"dangling state id 7 in row \(0, 'a'\)"),
    (NTS, 1, 1, 0.5, r"state 0, action 'a': NTS weight 0.5 is not 1"),
    (MDP, 0.5, 1, -0.5, r"state 0, action 'a': weight -0.5 outside \(0, 1\]"),
    (MDP, 0.5, 1, 1.5, r"state 0, action 'a': weight 1.5 outside \(0, 1\]"),
    (MDP, 0.5, 1, "nan", r"state 0, action 'a': weight nan outside \(0, 1\]"),
    (MDP, 0.5, 1, 0.4, r"stochasticity violation at \(0, 'a'\): row sum 0.9"),
], ids=["all-zero", "dangling", "nts-flag", "negative", "above-one", "nan", "row-sum"])
def test_row_errors_name_the_first_line_of_the_row(mode, first, succ, second, message):
    with pytest.raises(ParseError, match=r"^line 4: " + message) as info:
        parse_model(SPLIT_ROW.format(mode, first, succ, second))
    assert info.value.lineno == 4


def test_duplicate_transition_rejected():
    text = "states 1\ninitial 0\nmode mdp\ntrans 0 a 0 0.5\ntrans 0 a 0 0.5"
    with pytest.raises(ParseError, match="duplicate transition"):
        parse_model(text)


def test_nts_file_matches_nts_from_mdp():
    # The possible-transition set of an NTS file equals the positive-support
    # set of the matching MDP file after abstraction.
    mdp_text = """
states 4
initial 0
mode mdp
props p
label 3: p
trans 0 go 1 0.4
trans 0 go 2 0.6
trans 1 go 3 1.0
trans 2 go 3 1.0
trans 3 go 3 1.0
"""
    from_file = parse_model(CHAIN_NTS)
    from_mdp = nts_from_mdp(parse_model(mdp_text))
    assert model_rows(from_file) == model_rows(from_mdp)
    assert from_file.enabled == from_mdp.enabled


def test_nts_from_mdp_flags_and_idempotence(rng):
    m = parse_model("states 2\ninitial 0\nmode mdp\n"
                    "trans 0 a 0 0.5\ntrans 0 a 1 0.5\ntrans 1 b 1 1.0")
    n = nts_from_mdp(m)
    assert n.successors(0, 0) == ((0, 1.0), (1, 1.0))
    assert n.successors(1, 1) == ((1, 1.0),)
    assert nts_from_mdp(n) is n
    for _ in range(5):
        m = random_mdp(rng, n_states=5, n_actions=3)
        n = nts_from_mdp(m)
        for key, row in model_rows(m).items():
            assert tuple(s for s, _ in n.successors(*key)) == \
                tuple(s for s, w in row if w > 0)


def test_row_sums_of_random_mdps(rng):
    for _ in range(10):
        m = random_mdp(rng, n_states=6, n_actions=3)
        for q, u in m.enabled_pairs():
            assert abs(sum(w for _, w in m.successors(q, u)) - 1.0) <= 1e-9


def test_serialize_round_trip(rng):
    for _ in range(5):
        m = random_mdp(rng, n_states=5, n_actions=2, n_props=2)
        again = parse_model(serialize_model(m))
        assert again == m
    n = parse_model(CHAIN_NTS)
    assert parse_model(serialize_model(n)) == n


# A name the model format can hold: no whitespace, line break or '#'.
TOKEN = st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
                min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_states=st.integers(1, 6), n_actions=st.integers(1, 3),
       nts=st.booleans(), data=st.data())
def test_model_file_round_trip(seed, n_states, n_actions, nts, data):
    # Action ids in declaration order (not in order of first appearance,
    # and with actions no row uses) and state names survive the round trip.
    rng = np.random.default_rng(seed)
    m = (random_nts if nts else random_mdp)(rng, n_states=n_states, n_actions=n_actions,
                                            n_props=2)
    actions = data.draw(st.lists(TOKEN, min_size=n_actions, max_size=n_actions + 2,
                                 unique=True))
    names = data.draw(st.none() | st.lists(TOKEN, min_size=n_states, max_size=n_states))
    m = dataclasses.replace(m, actions=tuple(actions),
                            state_names=None if names is None else tuple(names))
    assert parse_model(serialize_model(m)) == m


def test_model_file_names_are_checked():
    m = parse_model(SINGLETON)
    for bad in ("two words", "a#b", ""):
        with pytest.raises(ModelError, match="name"):
            serialize_model(dataclasses.replace(m, state_names=(bad,)))
        with pytest.raises(ModelError, match="name"):
            serialize_model(dataclasses.replace(m, actions=(bad,)))
    head = "states 2\ninitial 0\nmode nts\n"
    with pytest.raises(ParseError, match="undeclared action 'b'"):
        parse_model(head + "actions a\ntrans 0 a 1 1\ntrans 1 b 1 1")
    with pytest.raises(ParseError, match="before any transition"):
        parse_model(head + "trans 0 a 1 1\nactions a\ntrans 1 a 1 1")
    with pytest.raises(ParseError, match="duplicate action names"):
        parse_model(head + "actions a a\ntrans 0 a 1 1\ntrans 1 a 1 1")
    with pytest.raises(ModelError, match="name every state"):
        parse_model(head + "name 0 x\ntrans 0 a 1 1\ntrans 1 a 1 1")
    with pytest.raises(ParseError, match="duplicate name line"):
        parse_model(head + "name 0 x\nname 0 y\ntrans 0 a 1 1\ntrans 1 a 1 1")


@pytest.mark.parametrize("rows, mode, message", [
    ({(0, 0): ((1, 1.0),)}, MDP, "state 1 has no enabled actions"),
    ({(0, 0): ((0, 1.0),), (1, 5): ((1, 1.0),)}, MDP, "state 1: action id 5 out of range"),
    ({(0, 0): (), (1, 0): ((1, 1.0),)}, MDP, r"state 0, action 'a': no transitions"),
    ({(0, 0): ((2, 1.0),), (1, 0): ((1, 1.0),)}, MDP, r"dangling state id 2 in row \(0, 'a'\)"),
    ({(0, 0): ((0, 0.5), (0, 0.5)), (1, 0): ((1, 1.0),)}, MDP,
     r"successor 0 repeated or out of order in row \(0, 'a'\)"),
    ({(0, 0): ((0, 1.5),), (1, 0): ((1, 1.0),)}, MDP, r"weight 1.5 outside \(0, 1\]"),
    ({(0, 0): ((0, 0.5), (1, 0.4)), (1, 0): ((1, 1.0),)}, MDP,
     r"stochasticity violation at \(0, 'a'\): row sum 0.9"),
    ({(0, 0): ((0, 0.5),), (1, 0): ((1, 1.0),)}, NTS, "NTS weight 0.5 is not 1"),
])
def test_construction_checks_the_row_arrays(rows, mode, message):
    with pytest.raises(ModelError, match=message):
        LabeledModel.from_rows(rows, n_states=2, initial=0, actions=("a", "b"), mode=mode)


def test_construction_checks_the_array_layout():
    m = LabeledModel.from_rows({(0, 0): ((0, 1.0),), (0, 1): ((1, 1.0),), (1, 0): ((1, 1.0),)},
                               n_states=2, initial=0, actions=("a", "b"), mode=MDP)
    assert m.enabled == ((0, 1), (0,))
    with pytest.raises(ModelError, match="state 0: action 'a' repeated or out of order"):
        dataclasses.replace(m, row_action=[1, 0, 0])
    with pytest.raises(ModelError, match="initial state 2 out of range"):
        dataclasses.replace(m, initial=2)
    with pytest.raises(ModelError, match="do not fit together"):
        dataclasses.replace(m, row_ptr=[0, 1, 2])
    with pytest.raises(ValueError, match="read-only"):
        m.weight[0] = 0.5


def test_parse_dra_reachability_automaton():
    r = parse_dra(F_P_DRA)
    assert r.n_states == 2 and r.initial == 0
    assert r.pairs == ((frozenset(), frozenset({1})),)
    assert dra_step(r, 0, prop_mask(r, ["p"])) == 1
    assert dra_step(r, 0, 0) == 0
    assert dra_step(r, 1, 0) == 1


def test_parse_dra_totality_error():
    partial = """
states 2
initial 0
props p
edge 0 {p} 1
edge 1 else 1
pair L={} K={1}
"""
    with pytest.raises(ModelError, match="missing transition for state 0"):
        parse_dra(partial)


def test_parse_dra_unknown_prop_and_empty_pairs():
    with pytest.raises(ParseError, match="unknown proposition"):
        parse_dra("states 1\ninitial 0\nprops p\nedge 0 {q} 0\nedge 0 else 0\n"
                  "pair L={} K={0}")
    with pytest.raises(ModelError, match="no accepting pairs"):
        parse_dra("states 1\ninitial 0\nprops p\nedge 0 else 0")


def test_mission_automaton_has_17_states_and_is_total():
    with open("tasks/mission.dra") as f:
        r = parse_dra(f.read())
    assert r.n_states == 17
    assert len(r.pairs) == 1
    # Totality is exhaustively checkable for |S| x 2^|props|.
    for s in range(r.n_states):
        for letter in range(r.n_letters):
            assert 0 <= dra_step(r, s, letter) < r.n_states


def test_prop_cap_enforced():
    props = " ".join(f"p{i}" for i in range(17))
    with pytest.raises(ParseError, match="more than 16"):
        parse_dra(f"states 1\ninitial 0\nprops {props}\nedge 0 else 0\npair L={{}} K={{0}}")


def test_policy_validation_and_round_trip():
    # CHAIN_NTS plus a second action, enabled at state 3 only. Rows: go at
    # states 0-3, then stay at state 3.
    m = parse_model(CHAIN_NTS + "trans 3 stay 3 1\n")
    probs = np.array([1.0, 1.0, 1.0, 0.25, 0.75])
    buf = io.StringIO()
    save_policy(buf, probs, m)
    assert buf.getvalue().splitlines()[3:] == ["3\tgo\t0.25", "3\tstay\t0.75"]
    assert np.array_equal(parse_policy(buf.getvalue(), m), probs)
    # Unlisted states keep 0 on every row, and a later line overrides.
    assert parse_policy("# c\n0\tgo\t0.5\n0\tgo\t1.0\n", m).tolist() == [1, 0, 0, 0, 0]
    cases = [("0\tstay\t1.0", ModelError, "disabled action 'stay' at 0"),
             ("0\tgo\t0.9", ModelError, "at state 0 sums to 0.9"),
             ("3\tgo\tnan\n3\tstay\t1.0", ModelError, "at state 3 sums to nan"),
             ("3\tgo\t-0.5\n3\tstay\t1.5", ModelError, "negative probability at state 3"),
             ("4\tgo\t1.0", ModelError, "unknown state 4"),
             ("0\tfly\t1.0", ParseError, "line 1: unknown action 'fly'"),
             ("0\tgo", ParseError, "expected"),
             ("0\tgo\tmost", ParseError, "bad policy row")]
    for text, error, message in cases:
        with pytest.raises(error, match=message):
            parse_policy(text, m)


def two_action_model(n_rows):
    """A model with ``n_rows`` self-loop rows: every state enables actions
    a and b, but the last enables only a when ``n_rows`` is odd."""
    per_state = [2] * (n_rows // 2) + [1] * (n_rows % 2)
    n = len(per_state)
    return LabeledModel(n_states=n, initial=0, actions=("a", "b"), props=(),
                        labels=np.zeros(n, dtype=np.int64), mode=NTS,
                        state_ptr=_ptr(per_state),
                        row_action=np.concatenate([np.arange(k) for k in per_state]),
                        row_ptr=np.arange(n_rows + 1),
                        succ=np.repeat(np.arange(n), per_state), weight=np.ones(n_rows))


@pytest.mark.parametrize("n_rows", [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                    3 * BLOCK_ROWS + 2])
def test_block_writers_write_the_one_shot_bytes(n_rows):
    # The one-shot forms the writers had before they wrote in blocks. A
    # model has at least one row, so at 0 a one-row model gets no
    # probabilities, and both forms write nothing.
    rng = np.random.default_rng(n_rows)
    m = two_action_model(max(n_rows, 1))
    probs = rng.random(n_rows) ** 3
    buf = io.StringIO()
    save_policy(buf, probs, m)
    assert buf.getvalue() == "".join(f"{q}\t{m.actions[u]}\t{p!r}\n"
                                     for (q, u), p in zip(m.enabled_pairs(), probs.tolist()))
    buf = io.StringIO()
    write_value_csv(buf, probs)
    assert buf.getvalue() == "state,value\r\n" + "".join(
        f"{q},{val!r}\r\n" for q, val in enumerate(probs.tolist()))


def test_block_writers_hold_one_block_at_a_time():
    # The writers' traced peak does not grow with the row count: 20 times
    # the rows add at most 64 KiB to it, where holding every row's Python
    # objects at once would add megabytes.
    def traced_peak(write, *args):
        with open(os.devnull, "w") as f:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                write(f, *args)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

    rng = np.random.default_rng(3)
    peaks = []
    for n_rows in (2 * BLOCK_ROWS, 40 * BLOCK_ROWS):
        m = two_action_model(n_rows)
        m.row_state  # the cached index, built before tracing
        probs = rng.random(n_rows)
        peaks.append((traced_peak(save_policy, probs, m), traced_peak(write_value_csv, probs)))
    (policy_1, values_1), (policy_20, values_20) = peaks
    assert policy_20 <= policy_1 + 64 * 1024
    assert values_20 <= values_1 + 64 * 1024
