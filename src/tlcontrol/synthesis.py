"""Automaton products, end-component analysis, and the reachability-to-SSP conversion.

The pipeline implemented here turns "maximize the probability that runs of a
labeled model satisfy a Rabin condition" into a stochastic shortest path
problem: build the synchronized product, find its accepting maximal end
components, take their union as the goal set, mark the states that cannot
possibly reach it, and redirect goal mass to a fresh absorbing terminal while
zero-probability states restart at the initial state with unit cost.

Every step works on the models' CSR arrays (see ``models``). The product is
built forward from its initial state, as frontier joins of the model's rows
with the automaton's ``delta`` table, so it holds only reachable states. It
keeps its two factors and no copies derived from them: the accepting pairs
become masks where the end-component search reads them, and the entry
weights an MDP gives the product are gathers through the product's row
layout (stated once, in ``ProductModel``). The SSP conversion is masks and
remaps; the end-component search holds its live rows, its live
states and its removal cascade as masks over the arrays, with one SCC pass
per round over all pending states. The backward closure of the goal is a
numpy frontier loop, ``_layers``, which also gives the policy evaluator its
unknowns, the optimum's greedy extraction its attractor layers, the
lookahead its goal distances, the expected-cost solve its closures and a
large end-component round the component it peels before Tarjan; the other
strongly connected components come from one Tarjan routine over flat
successor arrays, ``_strongly_connected``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .models import (
    MDP,
    NTS,
    LabeledModel,
    ModelError,
    RabinAutomaton,
    _ptr,
    serialize_model,
)

TransitionSource = Callable[[int, int], Sequence[tuple[int, float]]]

# Most pending states of an end-component round that go to Tarjan whole;
# a larger round peels its pivot's component first (``_round_components``).
# It sits near the measured crossover of the two on a 2-CPU machine.
PEEL_ABOVE = 6000


@dataclass(frozen=True)
class ProductModel:
    """Synchronized product of the labeled model ``model`` and the Rabin
    automaton ``automaton``, over its states reachable from the initial one.

    ``projection`` is an (n, 2) array holding each product state's (model
    state, automaton state) pair, sorted; ``base`` carries no state names,
    and ``product_state_names`` formats them for a model file.

    The layout that ``build_product`` writes, and that ``entry_weights``
    and ``SspTransitionSource`` read: a product state i over model state q
    has q's rows in q's order, so its row r is model row
    ``model.state_ptr[q] + (r - base.state_ptr[i])``, and each row has one
    entry per entry of that model row, in order, the k-th stepping to a
    product state over the model row's k-th successor.
    """

    base: LabeledModel
    projection: np.ndarray
    model: LabeledModel
    automaton: RabinAutomaton

    def __post_init__(self):
        projection = np.asarray(self.projection, dtype=np.int64).reshape(-1, 2).view()
        projection.flags.writeable = False
        object.__setattr__(self, "projection", projection)

    @property
    def unpruned_states(self) -> int:
        """The size of the full product, |model states| x |automaton states|."""
        return self.model.n_states * self.automaton.n_states


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending. A stable sort plus a mask:
    ``np.unique`` and the set routines run a hash table and numpy's default
    sort, whose code alone adds about 0.6 MiB of resident memory to a desk
    run that needs neither."""
    x = np.sort(x, kind="stable")
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _expand(ptr: np.ndarray, segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items of ``segments`` (in that order) under the CSR pointer
    array ``ptr``: (position in ``segments`` of each item, item index)."""
    lo = ptr[segments]
    count = ptr[segments + 1] - lo
    owner = np.repeat(np.arange(len(segments)), count)
    return owner, lo[owner] + np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


LABEL_RULES = ("next", "current")


def build_product(m: LabeledModel, r: RabinAutomaton, label_rule: str = "next") -> ProductModel:
    """The product of ``m`` and ``r`` over the states reachable from its
    initial state.

    With ``label_rule="next"`` the automaton reads the label of the successor
    model state on every transition (and consumes the initial state's label
    once, before the first transition); with ``"current"`` it reads the label
    of the source state and starts in its own initial state.

    The product is explored forward from the initial pair, one frontier of
    codes q * |S| + s at a time, each a join of the frontier's model rows
    with ``delta``. The reached codes, sorted, are the product's states, so
    a state's number is its rank among the reached codes. The rows follow
    ``ProductModel``'s layout; an entry to q' lands on the state of code
    q' * |S| + delta(s, letter), so a row's successors stay ascending.
    """
    if label_rule not in LABEL_RULES:
        raise ModelError(f"unknown label rule {label_rule!r}")
    if set(m.props) != set(r.props):
        raise ModelError(
            f"proposition mismatch: model has {sorted(m.props)}, automaton has {sorted(r.props)}")

    # Each state's label re-encoded over the automaton's bit order.
    letters = np.zeros(m.n_states, dtype=np.int64)
    for i, name in enumerate(m.props):
        letters |= ((m.labels >> i) & 1) << r.props.index(name)
    delta = np.asarray(r.delta, dtype=np.int64)
    ns = r.n_states

    def successors(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the states of ``codes``: their model rows, those rows'
        entries, and each entry's successor code."""
        q, s = codes // ns, codes % ns
        at, rows = _expand(m.state_ptr, q)
        at2, entries = _expand(m.row_ptr, rows)
        src = at[at2]
        read = m.succ[entries] if label_rule == "next" else q[src]
        return rows, entries, m.succ[entries] * ns + delta[s[src], letters[read]]

    s_init = int(delta[r.initial, letters[m.initial]]) if label_rule == "next" else r.initial
    initial = m.initial * ns + s_init
    reached = np.zeros(m.n_states * ns, dtype=bool)
    reached[initial] = True
    frontier = np.array([initial], dtype=np.int64)
    while frontier.size:
        nxt = successors(frontier)[2]
        frontier = _distinct(nxt[~reached[nxt]])
        reached[frontier] = True

    codes = np.flatnonzero(reached)
    new_id = np.full(len(reached), -1, dtype=np.int64)
    new_id[codes] = np.arange(len(codes))
    model_state, dra_state = codes // ns, codes % ns
    rows, entries, succ = successors(codes)
    base = LabeledModel(
        n_states=len(codes),
        initial=new_id[initial],
        actions=m.actions,
        props=m.props,
        labels=m.labels[model_state],
        mode=m.mode,
        state_ptr=_ptr(np.diff(m.state_ptr)[model_state]),
        row_action=m.row_action[rows],
        row_ptr=_ptr(np.diff(m.row_ptr)[rows]),
        succ=new_id[succ],
        weight=m.weight[entries],
    )
    return ProductModel(base=base, projection=np.stack((model_state, dra_state), axis=1),
                        model=m, automaton=r)


def product_state_names(p: ProductModel) -> tuple[str, ...]:
    """Each product state's name, ``<model state name>|<automaton state>``,
    through ``projection``; a model without names names its states by
    number."""
    name = p.model.state_names.__getitem__ if p.model.state_names else str
    return tuple(f"{name(q)}|{s}" for q, s in zip(*p.projection.T.tolist()))


def _layers(src: np.ndarray, dst: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Every state's fewest edges (src -> dst) on a path into the ``seeds``
    mask: 0 on seeds, -1 where no path leads there. Backward frontier
    propagation, one frontier per layer."""
    order = np.argsort(dst, kind="stable")
    pred = src[order]
    ptr = np.searchsorted(dst[order], np.arange(len(seeds) + 1))
    layer = np.where(seeds, 0, -1)
    frontier = np.flatnonzero(seeds)
    depth = 0
    while frontier.size:
        depth += 1
        lo = ptr[frontier]
        n = ptr[frontier + 1] - lo
        prev = pred[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
        frontier = _distinct(prev[layer[prev] < 0])
        layer[frontier] = depth
    return layer


def _closure(src: np.ndarray, dst: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Mask of the states with an edge path (src -> dst) into the ``seeds``
    mask, seeds included."""
    return _layers(src, dst, seeds) >= 0


def _rows_into(m: LabeledModel) -> tuple[np.ndarray, np.ndarray]:
    """For each state, the rows that step into it, one per entry and in
    entry order, as CSR arrays."""
    return (_ptr(np.bincount(m.succ, minlength=m.n_states)),
            m.entry_row[np.argsort(m.succ, kind="stable")])


def _members(states: Iterable[int], n: int) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[np.fromiter(states, dtype=np.int64)] = True
    return out


def entry_weights(p: ProductModel, m_mdp: LabeledModel) -> np.ndarray:
    """The probability of every entry of a possibilistic product under the
    MDP ``m_mdp``: the weight of the entry's model step, 0.0 where
    ``m_mdp`` drops the skeleton edge.

    ``m_mdp`` must have the rows of ``p.model``, as the MDP twin of an NTS
    (``gridenv.build_mdp``, ``nts_from_mdp``) does, and share its support:
    an edge of ``m_mdp`` that the model does not carry, in a row the
    product uses, is an error. Each product entry's model entry is read off
    the layout of ``ProductModel``.
    """
    if m_mdp.mode != MDP:
        raise ModelError("entry weights need an MDP-mode base model")
    m, sk = p.model, p.base
    if not (np.array_equal(m_mdp.state_ptr, m.state_ptr)
            and np.array_equal(m_mdp.row_action, m.row_action)):
        have, want = m_mdp.enabled, m.enabled
        q = next(q for q in range(max(len(have), len(want))) if have[q:q + 1] != want[q:q + 1])
        raise ModelError(f"probabilistic rows differ from the model's at state {q}")
    # The model entry of each MDP entry; entries are sorted by (row, successor).
    keys = m.entry_row * m.n_states + m.succ
    want = m_mdp.entry_row * m.n_states + m_mdp.succ
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    outside = keys[at] != want
    weight = np.zeros(len(keys))
    weight[at[~outside]] = m_mdp.weight[~outside]
    # The model row of each product row.
    row = (np.arange(len(sk.row_action))
           + (m.state_ptr[p.projection[:, 0]] - sk.state_ptr[:-1])[sk.row_state])
    if outside.any():
        leaves = np.zeros(len(m.row_action), dtype=bool)
        leaves[m_mdp.entry_row[outside]] = True
        short = np.flatnonzero(leaves[row])
        if short.size:
            r = int(row[short[0]])
            q, u = int(m.row_state[r]), int(m.row_action[r])
            missing = sorted(set(m_mdp.support(q, u)) - set(m.support(q, u)))
            raise ModelError(
                f"support mismatch at ({q}, {m_mdp.actions[u]!r}): "
                f"probabilistic successors {missing} missing from the skeleton")
    entry = np.arange(len(sk.succ)) + (m.row_ptr[row] - sk.row_ptr[:-1])[sk.entry_row]
    return weight[entry]


def with_probabilities(p: ProductModel, m_mdp: LabeledModel) -> ProductModel:
    """Refit a possibilistic product with MDP weights (``entry_weights``):
    skeleton edges of probability zero are dropped."""
    sk = p.base
    weights = entry_weights(p, m_mdp)
    found = weights > 0
    return dataclasses.replace(p, base=dataclasses.replace(
        sk, mode=MDP,
        row_ptr=_ptr(np.bincount(sk.entry_row[found], minlength=len(sk.row_action))),
        succ=sk.succ[found], weight=weights[found]))


# ---------------------------------------------------------------------------
# End components


def max_end_components(
    n: LabeledModel, within: Iterable[int] | None = None
) -> list[tuple[frozenset[int], np.ndarray]]:
    """All maximal end components of a possibilistic model.

    Worklist decomposition (Baier & Katoen, *Principles of Model Checking*,
    Alg. 47, with attractor-style removals), held as masks over the
    model's arrays: the states still alive, the rows still live, each
    state's count of live rows, and one index of the rows into each state.
    Removal is one frontier loop: killing rows may leave states without a
    live row, those states die, and the live rows into them are the next
    frontier. Rows whose support leaves the candidate set die first. Each
    round then splits the pending states (alive, not yet settled) into
    strongly connected components under their live rows, in one
    ``_strongly_connected`` pass over all of them (a round of more than
    ``PEEL_ABOVE`` states peels one component first, ``_round_components``),
    and kills the rows that cross a border. A component of the round that
    lost no row is settled as final; the states of the others stay pending.

    Cost: building the index and all cascades together are linear in the
    rows and their supports; each round adds one linear SCC pass over the
    pending states and a linear mask pass over the model, so the total is
    O(states x edges) in the worst case and a few linear passes when the
    components nest shallowly.

    Returns (state set, retained rows) entries sorted by smallest state; the
    retained rows are the model's rows, ascending, that the component keeps
    enabled. The sets are pairwise disjoint, closed under their retained
    rows, and strongly connected.
    """
    cand = np.ones(n.n_states, dtype=bool) if within is None else _members(within, n.n_states)
    return [(frozenset(states.tolist()), rows) for states, rows in _end_components(n, cand)]


def _end_components(n: LabeledModel, cand: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """``max_end_components`` within the states of the mask ``cand``, each
    component's states an ascending index array."""
    if n.mode != NTS:
        raise ModelError("end components are computed on NTS-mode models")
    row_state, entry_row, succ = n.row_state, n.entry_row, n.succ
    alive = cand.copy()
    live = cand[row_state]
    n_live = np.where(cand, np.diff(n.state_ptr), 0)
    pred_ptr, pred_rows = _rows_into(n)

    def disable(rows: np.ndarray) -> np.ndarray:
        """Kill the live ``rows`` and cascade: a state left without a live
        row leaves ``alive``, which kills the live rows into it. Returns
        the states that lost a row."""
        lost = [rows[:0]]
        while rows.size:
            live[rows] = False
            q = row_state[rows]
            np.subtract.at(n_live, q, 1)
            lost.append(q)
            gone = _distinct(q[n_live[q] == 0])
            alive[gone] = False
            into = pred_rows[_expand(pred_ptr, gone)[1]]
            rows = _distinct(into[live[into]])
        return np.concatenate(lost)

    disable(np.flatnonzero(live & ~np.logical_and.reduceat(cand[succ], n.row_ptr[:-1])))
    # A settled state's label is the smallest state of its component. A
    # live row never leaves its state's SCC of the last round: rows that
    # cross a border are killed, and so are rows into removed states.
    label = np.full(n.n_states, -1, dtype=np.int64)
    pos = np.full(n.n_states, -1, dtype=np.int64)
    pending = alive.copy()
    while pending.any():
        members = np.flatnonzero(pending)
        k = len(members)
        pos[members] = np.arange(k)
        entries = np.flatnonzero((live & pending[row_state])[entry_row])
        src, dst = pos[row_state[entry_row[entries]]], pos[succ[entries]]
        count, scc = _round_components(src, dst, k)
        lost = disable(_distinct(entry_row[entries[scc[src] != scc[dst]]]))
        touched = np.zeros(count, dtype=bool)
        touched[scc[pos[lost]]] = True
        first = np.full(count, n.n_states)
        np.minimum.at(first, scc, members)
        settled = ~touched[scc]
        label[members[settled]] = first[scc[settled]]
        pending &= alive & (label < 0)
    # The components and their live rows, both grouped by label.
    in_mec = np.flatnonzero(label >= 0)
    if not in_mec.size:
        return []
    kept = np.flatnonzero(live)
    return list(zip(_groups(in_mec, label[in_mec]), _groups(kept, label[row_state[kept]])))


def _groups(items: np.ndarray, keys: np.ndarray) -> list[np.ndarray]:
    """``items`` split into runs of equal key, by ascending key; each run
    keeps the items' order."""
    order = np.argsort(keys, kind="stable")
    return np.split(items[order], np.flatnonzero(np.diff(keys[order])) + 1)


def _round_components(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """The strongly connected components of one end-component round, as
    ``_strongly_connected`` takes and returns them, but numbered in no
    set order.

    Above ``PEEL_ABOVE`` nodes the round peels one component first: the
    pivot is the node of largest in-degree x out-degree, and one backward
    and one forward ``_layers`` pass give the nodes that reach it and the
    nodes it reaches, whose intersection is its component (Fleischer,
    Hendrickson & Pinar's forward-backward step, with Multistep's pivot).
    Tarjan then runs on the other nodes only, so the one giant component
    of a large round never enters its per-node Python lists.
    """
    if n <= PEEL_ABOVE:
        return _strongly_connected(src, dst, n)
    pivot = np.zeros(n, dtype=bool)
    pivot[np.argmax(np.bincount(src, minlength=n) * np.bincount(dst, minlength=n))] = True
    rest = (_layers(src, dst, pivot) < 0) | (_layers(dst, src, pivot) < 0)
    at = np.cumsum(rest) - 1
    inner = rest[src] & rest[dst]
    count, comp = _strongly_connected(at[src[inner]], at[dst[inner]], int(at[-1]) + 1)
    out = np.full(n, count, dtype=np.int64)
    out[rest] = comp
    return count + 1, out


def _strongly_connected(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Tarjan's algorithm, iterative, over the nodes 0..n-1 of the graph
    with the edges ``src[e] -> dst[e]`` (int64 arrays; a repeated edge
    counts once). Each node's successors are visited in ascending order,
    and roots are taken in ascending order.

    Returns the number of components and each node's component (int64),
    numbered sinks first: an edge that leaves a component enters one of a
    smaller number.
    """
    code = _distinct(src * n + dst)
    ptr = _ptr(np.bincount(code // n, minlength=n)).tolist()
    adj = (code % n).tolist()
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # a visited node without a component is on the stack
    stack: list[int] = []
    call: list[tuple[int, int]] = []  # (node, its next edge) of suspended visits
    count = counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        node, e = root, ptr[root]
        while True:
            end = ptr[node + 1]
            while e < end:
                nxt = adj[e]
                e += 1
                if index[nxt] < 0:
                    call.append((node, e))
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    node, e, end = nxt, ptr[nxt], ptr[nxt + 1]
                elif comp[nxt] < 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    comp[w] = count
                    if w == node:
                        break
                count += 1
            if not call:
                break
            child = node
            node, e = call.pop()
            if low[child] < low[node]:
                low[node] = low[child]
    return count, np.array(comp, dtype=np.int64)


@dataclass(frozen=True)
class Amec:
    """Accepting maximal end component: closed, strongly connected, and
    containing a K-state but no L-state of its Rabin pair. ``rows`` are
    the product-model rows it retains, ascending: the rows of its states
    whose support stays inside it."""

    states: frozenset[int]
    rows: np.ndarray
    pair_index: int


def amecs(p: ProductModel) -> list[Amec]:
    """Accepting maximal end components of a possibilistic product.

    For each pair (L, K) of the automaton, lifted to masks through the
    product states' automaton states: the maximal end components of the
    product with L removed that still intersect K. An empty result means no
    policy satisfies the objective from anywhere.
    """
    r = p.automaton
    if not r.pairs:
        raise ModelError("product has no accepting pairs")
    dra_state = p.projection[:, 1]
    out = []
    for i, (left, right) in enumerate(r.pairs):
        in_right = _members(right, r.n_states)[dra_state]
        for states, rows in _end_components(p.base, ~_members(left, r.n_states)[dra_state]):
            if in_right[states].any():
                out.append(Amec(states=frozenset(states.tolist()), rows=rows, pair_index=i))
    return out


def goal_and_bad_sets(
    p: ProductModel, amec_list: Sequence[Amec]
) -> tuple[frozenset[int], frozenset[int]]:
    """The goal set (union of accepting components) and the states that
    cannot possibly reach it."""
    goal = frozenset().union(*(a.states for a in amec_list)) if amec_list else frozenset()
    m = p.base
    closed = _closure(m.row_state[m.entry_row], m.succ, _members(goal, m.n_states))
    return goal, frozenset(np.flatnonzero(~closed).tolist())


# ---------------------------------------------------------------------------
# SSP conversion


@dataclass(frozen=True)
class SspModel:
    """Goal-reachability recast as a shortest path problem.

    Goal states are collapsed into the absorbing, cost-free ``terminal``;
    states in ``bad`` restart at the initial state under every action and
    are the only states with one-step cost 1. ``origin`` is a read-only
    int64 array holding each state's product index (-1 for the terminal),
    the one map from SSP states to product states; a non-terminal state
    has its product state's rows, in order. Like the product, ``base``
    carries no state names; ``ssp_state_names`` formats them.
    """

    base: LabeledModel
    terminal: int
    bad: frozenset[int]
    origin: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.int64).view()
        origin.flags.writeable = False
        object.__setattr__(self, "origin", origin)

    @property
    def initial(self) -> int:
        return self.base.initial

    def cost(self, state: int, action: int | None = None) -> float:
        return 1.0 if state in self.bad else 0.0


def mrp_to_ssp(p: ProductModel, goal: frozenset[int], bad: frozenset[int],
               weights: np.ndarray | None = None) -> SspModel:
    """Convert a product with goal/zero sets into a restart SSP.

    Works in both modes: goal mass is redirected onto the terminal by
    summation in entry order (MDP) or by an any-successor flag (NTS).
    ``weights``, one per entry of a possibilistic product
    (``entry_weights``), make the SSP an MDP with those weights: entries
    of weight 0 are dropped, so the SSP is the one that ``with_probabilities``
    followed by this conversion gives, bit for bit.
    """
    m = p.base
    mode, weight = (m.mode, m.weight) if weights is None else (MDP, weights)
    if m.initial in goal:
        raise ModelError("initial state is already in the goal set (trivial instance)")
    is_goal, is_bad = _members(goal, m.n_states), _members(bad, m.n_states)
    keep = np.flatnonzero(~is_goal)
    new_id = np.full(m.n_states, -1, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    terminal = len(keep)
    new_initial = int(new_id[m.initial])
    n_act = len(m.actions)

    # Kept states keep their rows; the terminal gets one row per action.
    rows = ~is_goal[m.row_state]
    n_rows = int(rows.sum())
    new_row = np.cumsum(rows) - 1
    restart = is_bad[m.row_state[rows]]
    # Entries of the kept rows of states that do not restart, split into
    # plain entries (remapped) and goal entries (merged onto the terminal).
    live = (rows & ~is_bad[m.row_state])[m.entry_row]
    if weights is not None:
        live &= weights > 0
    into_goal = is_goal[m.succ]
    plain = np.flatnonzero(live & ~into_goal)
    to_goal = np.flatnonzero(live & into_goal)
    goal_row = new_row[m.entry_row[to_goal]]
    if mode == MDP:
        # np.bincount adds each row's weights in entry order, as a running sum would.
        mass = np.bincount(goal_row, weights=weight[to_goal], minlength=n_rows)
    else:
        mass = (np.bincount(goal_row, minlength=n_rows) > 0).astype(float)
    merged = np.flatnonzero(mass > 0)
    restarts = np.flatnonzero(restart)

    # A row's plain entries come first, then its terminal entry; a
    # restarting row has the single entry to the initial state.
    entry_row = np.concatenate((new_row[m.entry_row[plain]], merged, restarts,
                                n_rows + np.arange(n_act)))
    order = np.argsort(entry_row, kind="stable")
    succ = np.concatenate((new_id[m.succ[plain]], np.full(len(merged), terminal),
                           np.full(len(restarts), new_initial), np.full(n_act, terminal)))
    weight = np.concatenate((weight[plain], mass[merged], np.ones(len(restarts) + n_act)))

    base = LabeledModel(
        n_states=terminal + 1,
        initial=new_initial,
        actions=m.actions,
        props=m.props,
        labels=np.append(m.labels[keep], 0),
        mode=mode,
        state_ptr=_ptr(np.append(np.diff(m.state_ptr)[keep], n_act)),
        row_action=np.concatenate((m.row_action[rows], np.arange(n_act))),
        row_ptr=_ptr(np.bincount(entry_row, minlength=n_rows + n_act)),
        succ=succ[order],
        weight=weight[order],
    )
    return SspModel(
        base=base,
        terminal=terminal,
        bad=frozenset(new_id[is_bad & ~is_goal].tolist()),
        origin=np.append(keep, -1),
    )


def ssp_state_names(ssp: SspModel, product_names: Sequence[str]) -> tuple[str, ...]:
    """Each SSP state's name: its product state's, through ``origin``, and
    ``terminal`` for the terminal."""
    return tuple(product_names[old] if old >= 0 else "terminal" for old in ssp.origin.tolist())


def serialize_ssp(ssp: SspModel) -> str:
    """Model format plus ``terminal q`` header and ``cost q u 1`` rows."""
    out = serialize_model(ssp.base)
    lines = [f"terminal {ssp.terminal}"]
    for q in sorted(ssp.bad):
        for u in ssp.base.enabled[q]:
            lines.append(f"cost {q} {ssp.base.actions[u]} 1")
    return out + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transition-probability sources


class SspTransitionSource:
    """Lazily lifts base-model transition rows onto SSP states, and holds the
    run's only memo of transition rows.

    ``base_row(q, u)`` gives the row of model state q under action u. Only
    non-terminal, non-restart states need it, and it is asked for each
    (model state, action) at most once: the first query over q lifts the
    row onto every non-restart SSP state over q. ``pairs_computed`` counts
    those calls, so it counts exactly the model rows ever needed.

    The rows are read off the product, which took every automaton step:
    its states over q are consecutive (``projection`` is sorted), and their
    rows follow the layout of ``ProductModel``.
    """

    def __init__(self, ssp: SspModel, product: ProductModel, base_row: TransitionSource):
        self._ssp = ssp
        self._base_row = base_row
        self._product = product.base
        self._model_state = product.projection[:, 0]
        self._rows: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        self.pairs_computed = 0
        # SSP state of each product state; goal states, which the SSP
        # drops, go to the terminal.
        of_product = np.full(product.base.n_states, ssp.terminal, dtype=np.int64)
        of_product[ssp.origin[:-1]] = np.arange(ssp.terminal)
        self._of_product = of_product

    def __call__(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        row = self._rows.get((state, action))
        if row is None:
            row = self._miss(state, action)
        return row

    def _miss(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        ssp = self._ssp
        if state == ssp.terminal or state in ssp.bad:
            row = ((ssp.terminal if state == ssp.terminal else ssp.initial, 1.0),)
            self._rows[state, action] = row
            return row
        q = int(self._model_state[ssp.origin[state]])
        base = self._base_row(q, action)
        self.pairs_computed += 1
        self._lift(q, action, base)
        return self._rows[state, action]

    def _lift(self, q: int, action: int, base: Sequence[tuple[int, float]]) -> None:
        """Memo row ``base`` of (q, action) at every non-restart SSP state
        over q: an entry (q', w) goes to the SSP state of the product
        successor over q', and goal mass merges onto the terminal."""
        ssp, m, model_state = self._ssp, self._product, self._model_state
        lo, hi = np.searchsorted(model_state, (q, q + 1)).tolist()
        rows = m.state_ptr[lo:hi] + (m.row(lo, action) - m.state_ptr[lo])
        start = m.row_ptr[rows]
        succ = m.succ[start[:, None] + np.arange(m.row_ptr[rows[0] + 1] - start[0])]
        column = {q2: i for i, q2 in enumerate(model_state[succ[0]].tolist())}
        try:
            entries = [(column[q2], w) for q2, w in base]
        except KeyError as err:
            raise ModelError(
                f"probability source has successor {err.args[0]} outside the "
                f"possibilistic support of ({q}, action {action})") from None
        for x, targets in zip(self._of_product[lo:hi].tolist(),
                              self._of_product[succ].tolist()):
            if x != ssp.terminal and x not in ssp.bad:
                out: dict[int, float] = {}
                for i, w in entries:
                    out[targets[i]] = out.get(targets[i], 0.0) + w
                self._rows[x, action] = tuple(sorted(out.items()))
