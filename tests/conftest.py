import importlib.util
import itertools
import math

import numpy as np
import pytest

from tlcontrol.exact import _one_hot
from tlcontrol.models import MDP, NTS, LabeledModel, ModelError, RabinAutomaton, parse_model
from tlcontrol.synthesis import ProductModel
from dict_reference import model_rows

PROP_NAMES = ("p", "q", "r", "s")
POLICY_LIMIT = 10 ** 6  # cap on the deterministic policies enumerate_policies lists


def lattice_map(k):
    """The benchmark's road-lattice map of size k (map seed 0)."""
    spec = importlib.util.spec_from_file_location("lattice", "perfbench/lattice.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lattice_map(k, 0)


def random_mdp(rng, n_states=5, n_actions=2, max_succ=3, n_props=1, seed_labels=True):
    """Random dense-ish MDP; every state gets a nonempty enabled set."""
    actions = tuple(f"a{i}" for i in range(n_actions))
    transitions = {}
    for q in range(n_states):
        k = int(rng.integers(1, n_actions + 1))
        acts = tuple(sorted(rng.choice(n_actions, size=k, replace=False).tolist()))
        for u in acts:
            m = int(rng.integers(1, min(max_succ, n_states) + 1))
            succs = sorted(rng.choice(n_states, size=m, replace=False).tolist())
            w = rng.random(len(succs)) + 0.1
            w = w / w.sum()
            transitions[(q, u)] = tuple((s, float(p)) for s, p in zip(succs, w))
    labels = tuple(int(rng.integers(0, 1 << n_props)) if seed_labels else 0
                   for _ in range(n_states))
    return LabeledModel.from_rows(
        transitions, n_states=n_states, initial=0, actions=actions,
        props=PROP_NAMES[:n_props], labels=labels, mode=MDP)


def random_nts(rng, n_states=6, n_actions=2, max_succ=3, n_props=1):
    actions = tuple(f"a{i}" for i in range(n_actions))
    transitions = {}
    for q in range(n_states):
        k = int(rng.integers(1, n_actions + 1))
        acts = tuple(sorted(rng.choice(n_actions, size=k, replace=False).tolist()))
        for u in acts:
            m = int(rng.integers(1, min(max_succ, n_states) + 1))
            succs = sorted(rng.choice(n_states, size=m, replace=False).tolist())
            transitions[(q, u)] = tuple((s, 1.0) for s in succs)
    return LabeledModel.from_rows(
        transitions, n_states=n_states, initial=0, actions=actions,
        props=PROP_NAMES[:n_props],
        labels=tuple(int(rng.integers(0, 1 << n_props)) for _ in range(n_states)),
        mode=NTS)


def retained(m, rows):
    """The retained actions of an end component, as state -> action ids
    (ascending), from its retained rows of the model ``m``."""
    out = {}
    for r in rows.tolist():
        out.setdefault(int(m.row_state[r]), []).append(int(m.row_action[r]))
    return {q: tuple(actions) for q, actions in out.items()}


def own_product(m, pairs):
    """``m`` as its own product: product state q is model state q and
    automaton state q, and the automaton carries only ``pairs`` (its
    transitions are never read)."""
    n = m.n_states
    automaton = RabinAutomaton(n_states=n, initial=m.initial, props=m.props,
                               delta=np.zeros((n, 1 << len(m.props)), dtype=np.int64),
                               pairs=pairs)
    return ProductModel(base=m, projection=np.repeat(np.arange(n), 2).reshape(n, 2),
                        model=m, automaton=automaton)


def random_dra(rng, n_states, props, n_pairs=None, unreachable=0):
    """A total automaton over ``props`` (listed in a shuffled order) with
    ``n_pairs`` random accepting pairs (one or two by default), plus
    ``unreachable`` states that no edge enters and the run never starts in."""
    props = tuple(props[i] for i in rng.permutation(len(props)))
    total = n_states + unreachable
    delta = rng.integers(0, n_states, size=(total, 1 << len(props))).astype(np.int32)

    def subset():
        return frozenset(int(s) for s in np.flatnonzero(rng.random(total) < 0.4))

    n_pairs = int(rng.integers(1, 3)) if n_pairs is None else n_pairs
    pairs = tuple((subset(), subset()) for _ in range(n_pairs))
    return RabinAutomaton(n_states=total, initial=int(rng.integers(n_states)),
                          props=props, delta=delta, pairs=pairs)


def parse_ssp_text(text):
    """Split ``serialize_ssp`` output into the model (through
    ``parse_model``), the ``terminal`` header and the states of the
    ``cost q u 1`` lines."""
    body, terminal, bad = [], None, set()
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["terminal"]:
            assert len(tokens) == 2 and terminal is None
            terminal = int(tokens[1])
        elif tokens[:1] == ["cost"]:
            assert len(tokens) == 4 and tokens[3] == "1"
            bad.add(int(tokens[1]))
        else:
            body.append(line)
    assert terminal is not None
    return parse_model("\n".join(body)), terminal, frozenset(bad)


def support_zeros(m, targets):
    """States with no possibilistic path into ``targets`` (reverse closure)."""
    reverse = {q: set() for q in range(m.n_states)}
    for (q, _u), row in model_rows(m).items():
        for succ, _ in row:
            reverse[succ].add(q)
    closed = set(targets)
    stack = list(targets)
    while stack:
        q = stack.pop()
        for prev in reverse[q]:
            if prev not in closed:
                closed.add(prev)
                stack.append(prev)
    return frozenset(range(m.n_states)) - closed


def enumerate_policies(m):
    """Every deterministic stationary policy of ``m``, exactly once, as
    one-hot row probabilities; the last state's choice varies fastest.
    More than ``POLICY_LIMIT`` policies raise ``ModelError``."""
    ptr = m.state_ptr.tolist()
    count = math.prod(hi - lo for lo, hi in zip(ptr, ptr[1:]))
    if count > POLICY_LIMIT:
        raise ModelError(f"{count} deterministic policies exceed the cap of {POLICY_LIMIT}")
    for choice in itertools.product(*map(range, ptr, ptr[1:])):
        yield _one_hot(m, list(choice))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


F_P_DRA = """
states 2
initial 0
props p
edge 0 {p} 1
edge 0 else 0
edge 1 else 1
pair L={} K={1}
"""


def make_random_ssp(rng, n_states=6, n_actions=2, want_mdp=False):
    """A genuine SSP built through the pipeline from a random model; with
    ``want_mdp`` also returns the probabilistic twin and its product."""
    from tlcontrol.models import nts_from_mdp, parse_dra
    from tlcontrol.synthesis import (
        amecs, build_product, goal_and_bad_sets, mrp_to_ssp, with_probabilities)

    dra = parse_dra(F_P_DRA)
    for _ in range(300):
        m = random_mdp(rng, n_states=n_states, n_actions=n_actions, n_props=1)
        product = build_product(nts_from_mdp(m), dra)
        found = amecs(product)
        if not found:
            continue
        goal, bad = goal_and_bad_sets(product, found)
        if product.base.initial in goal:
            continue
        ssp = mrp_to_ssp(product, goal, bad)
        if not want_mdp:
            return ssp
        product_mdp = with_probabilities(product, m)
        ssp_mdp = mrp_to_ssp(product_mdp, goal, bad)
        return m, dra, product, product_mdp, goal, bad, ssp, ssp_mdp
    raise AssertionError("could not construct a random SSP")
