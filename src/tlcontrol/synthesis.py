"""Automaton products, end-component analysis, and the reachability-to-SSP conversion.

The pipeline implemented here turns "maximize the probability that runs of a
labeled model satisfy a Rabin condition" into a stochastic shortest path
problem: build the synchronized product, find its accepting maximal end
components, take their union as the goal set, mark the states that cannot
possibly reach it, and redirect goal mass to a fresh absorbing terminal while
zero-probability states restart at the initial state with unit cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .models import (
    MDP,
    NTS,
    LabeledModel,
    ModelError,
    RabinAutomaton,
    StationaryPolicy,
    parse_model,
    serialize_model,
    validate_model,
)

TransitionSource = Callable[[int, int], Sequence[tuple[int, float]]]


@dataclass(frozen=True)
class ProductModel:
    """Synchronized product of a labeled model and a Rabin automaton.

    ``projection`` maps each product state to its (model state, automaton
    state) pair; ``pairs`` are the lifted accepting pairs as product-state
    sets. ``unpruned_states`` records the state count before any
    reachability pruning.
    """

    base: LabeledModel
    projection: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]
    unpruned_states: int
    label_rule: str = "next"


def build_product(m: LabeledModel, r: RabinAutomaton, label_rule: str = "next") -> ProductModel:
    """Build the full (unpruned) product of ``m`` and ``r``.

    With ``label_rule="next"`` the automaton reads the label of the successor
    model state on every transition (and consumes the initial state's label
    once, before the first transition); with ``"current"`` it reads the label
    of the source state and starts in its own initial state.
    """
    if label_rule not in ("next", "current"):
        raise ModelError(f"unknown label rule {label_rule!r}")
    if set(m.props) != set(r.props):
        raise ModelError(
            f"proposition mismatch: model has {sorted(m.props)}, automaton has {sorted(r.props)}")

    # Model labels re-encoded over the automaton's proposition order.
    letters = [r.prop_mask(p for i, p in enumerate(m.props) if m.labels[q] >> i & 1)
               for q in range(m.n_states)]

    ns = r.n_states
    index = lambda q, s: q * ns + s
    n_prod = m.n_states * ns
    names = m.state_names or tuple(str(q) for q in range(m.n_states))

    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    for (q, u), row in m.transitions.items():
        for s in range(ns):
            if label_rule == "next":
                lifted = [(index(q2, int(r.delta[s, letters[q2]])), w) for q2, w in row]
            else:
                s2 = int(r.delta[s, letters[q]])
                lifted = [(index(q2, s2), w) for q2, w in row]
            transitions[(index(q, s), u)] = tuple(sorted(lifted))

    if label_rule == "next":
        s_init = int(r.delta[r.initial, letters[m.initial]])
    else:
        s_init = r.initial

    base = LabeledModel(
        n_states=n_prod,
        initial=index(m.initial, s_init),
        actions=m.actions,
        enabled=tuple(m.enabled[p // ns] for p in range(n_prod)),
        transitions=transitions,
        props=m.props,
        labels=tuple(m.labels[p // ns] for p in range(n_prod)),
        mode=m.mode,
        state_names=tuple(f"{names[p // ns]}|{p % ns}" for p in range(n_prod)),
    )
    pairs = tuple(
        (frozenset(index(q, s) for q in range(m.n_states) for s in left),
         frozenset(index(q, s) for q in range(m.n_states) for s in right))
        for left, right in r.pairs)
    return ProductModel(
        base=base,
        projection=tuple((p // ns, p % ns) for p in range(n_prod)),
        pairs=pairs,
        unpruned_states=n_prod,
        label_rule=label_rule,
    )


def prune_unreachable(p: ProductModel) -> ProductModel:
    """Drop product states unreachable from the initial state."""
    m = p.base
    reach = {m.initial}
    stack = [m.initial]
    while stack:
        q = stack.pop()
        for u in m.enabled[q]:
            for succ, _ in m.transitions[(q, u)]:
                if succ not in reach:
                    reach.add(succ)
                    stack.append(succ)
    keep = sorted(reach)
    if len(keep) == m.n_states:
        return p
    remap = {old: new for new, old in enumerate(keep)}
    transitions = {
        (remap[q], u): tuple((remap[s], w) for s, w in m.transitions[(q, u)])
        for q in keep for u in m.enabled[q]
    }
    base = LabeledModel(
        n_states=len(keep),
        initial=remap[m.initial],
        actions=m.actions,
        enabled=tuple(m.enabled[q] for q in keep),
        transitions=transitions,
        props=m.props,
        labels=tuple(m.labels[q] for q in keep),
        mode=m.mode,
        state_names=tuple(m.state_names[q] for q in keep) if m.state_names else None,
    )
    pairs = tuple(
        (frozenset(remap[s] for s in left if s in reach),
         frozenset(remap[s] for s in right if s in reach))
        for left, right in p.pairs)
    return ProductModel(
        base=base,
        projection=tuple(p.projection[q] for q in keep),
        pairs=pairs,
        unpruned_states=p.unpruned_states,
        label_rule=p.label_rule,
    )


def with_probabilities(p: ProductModel, m_mdp: LabeledModel) -> ProductModel:
    """Refit a (possibly pruned) possibilistic product with MDP weights.

    The probabilistic model must share the possibilistic support: an edge of
    ``m_mdp`` that the product skeleton does not carry is an error, while
    skeleton edges of probability zero are dropped.
    """
    if m_mdp.mode != MDP:
        raise ModelError("with_probabilities needs an MDP-mode base model")
    weights = {
        (q, u): {succ: w for succ, w in row}
        for (q, u), row in m_mdp.transitions.items()
    }
    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    for (sp, u), row in p.base.transitions.items():
        q = p.projection[sp][0]
        base_row = dict(weights[(q, u)])
        lifted = []
        for succ, _ in row:
            q2 = p.projection[succ][0]
            w = base_row.pop(q2, 0.0)
            if w > 0:
                lifted.append((succ, w))
        if base_row:
            raise ModelError(
                f"support mismatch at ({q}, {m_mdp.actions[u]!r}): "
                f"probabilistic successors {sorted(base_row)} missing from the skeleton")
        transitions[(sp, u)] = tuple(lifted)
    base = LabeledModel(
        n_states=p.base.n_states,
        initial=p.base.initial,
        actions=p.base.actions,
        enabled=p.base.enabled,
        transitions=transitions,
        props=p.base.props,
        labels=p.base.labels,
        mode=MDP,
        state_names=p.base.state_names,
    )
    validate_model(base)
    return ProductModel(
        base=base,
        projection=p.projection,
        pairs=p.pairs,
        unpruned_states=p.unpruned_states,
        label_rule=p.label_rule,
    )


# ---------------------------------------------------------------------------
# End components


def max_end_components(
    n: LabeledModel, within: Iterable[int] | None = None
) -> list[tuple[frozenset[int], dict[int, tuple[int, ...]]]]:
    """All maximal end components of a possibilistic model.

    Worklist decomposition (Baier & Katoen, *Principles of Model Checking*,
    Alg. 47, with attractor-style removals). The successor supports of the
    candidate states' (state, action) rows, and a predecessor index over
    the rows whose support stays in the candidate set, are built once. Rows whose support leaves the candidate
    set start disabled; a state left without an enabled row is removed,
    which disables exactly the rows that can reach it, and the removals
    cascade. Each component on the worklist is split into strongly connected
    components under its enabled rows; if there is more than one, only the
    rows that cross a border are disabled, removals cascade from the states
    left empty, and every part that lost a row goes back on the worklist.
    A single component, or a part that lost no row, is final.

    Cost: building the index and all cascades together are linear in the
    rows and their supports; each worklist round adds one linear SCC pass
    over its component, so the total is O(states x edges) in the worst case
    and a few linear passes when the components nest shallowly.

    Returns (state set, retained actions in enabled order) entries sorted
    by smallest state; the sets are pairwise disjoint, closed under their
    retained actions, and strongly connected.
    """
    if n.mode != NTS:
        raise ModelError("end components are computed on NTS-mode models")
    states = sorted(set(range(n.n_states) if within is None else within))
    part = [-1] * n.n_states  # component label; -1: outside or removed
    for q in states:
        part[q] = 0
    row_state: list[int] = []
    row_action: list[int] = []
    row_succ: list[tuple[int, ...]] = []
    live: list[bool] = []
    rows_of: dict[int, range] = {}
    preds: dict[int, list[int]] = {q: [] for q in states}
    n_live = [0] * n.n_states
    empty: list[int] = []
    for q in states:
        first = len(row_succ)
        for u in n.enabled[q]:
            succ = n.support(q, u)
            inside = all(part[s] == 0 for s in succ)
            if inside:
                for s in succ:
                    preds[s].append(len(row_succ))
                n_live[q] += 1
            row_state.append(q)
            row_action.append(u)
            row_succ.append(succ)
            live.append(inside)
        rows_of[q] = range(first, len(row_succ))
        if not n_live[q]:
            empty.append(q)

    touched: set[int] = set()  # labels of components that lost a row

    def disable(r: int) -> None:
        live[r] = False
        q = row_state[r]
        touched.add(part[q])
        n_live[q] -= 1
        if not n_live[q]:
            empty.append(q)

    def cascade() -> None:
        while empty:
            q = empty.pop()
            part[q] = -1
            for r in preds[q]:
                if live[r]:
                    disable(r)

    def successors(q: int) -> set[int]:
        return {s for r in rows_of[q] if live[r] for s in row_succ[r]}

    cascade()
    survivors = [q for q in states if part[q] == 0]
    work = [survivors] if survivors else []
    final: list[list[int]] = []
    label = 0
    while work:
        comp = work.pop()
        sccs = _strongly_connected(set(comp), successors)
        if len(sccs) == 1:
            final.append(comp)
            continue
        parts = []
        for scc in sccs:
            label += 1
            parts.append((label, scc))
            for q in scc:
                part[q] = label
        touched.clear()
        for q in comp:
            for r in rows_of[q]:
                if live[r] and any(part[s] != part[q] for s in row_succ[r]):
                    disable(r)
        cascade()
        for lab, scc in parts:
            rest = sorted(q for q in scc if part[q] != -1)
            if rest:
                (work if lab in touched else final).append(rest)
    out = [(frozenset(comp),
            {q: tuple(row_action[r] for r in rows_of[q] if live[r]) for q in comp})
           for comp in final]
    out.sort(key=lambda item: min(item[0]))
    return out


def _strongly_connected(states: set[int], succ_of) -> list[set[int]]:
    """Tarjan's algorithm, iterative, restricted to ``states``."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = 0
    for root in sorted(states):
        if root in index:
            continue
        call = [(root, iter(sorted(s for s in succ_of(root) if s in states)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while call:
            node, it = call[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    call.append((nxt, iter(sorted(s for s in succ_of(nxt) if s in states))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


@dataclass(frozen=True)
class Amec:
    """Accepting maximal end component: closed, strongly connected, and
    containing a K-state but no L-state of its Rabin pair."""

    states: frozenset[int]
    retained: Mapping[int, tuple[int, ...]]
    pair_index: int


def amecs(p: ProductModel) -> list[Amec]:
    """Accepting maximal end components of a possibilistic product.

    For each pair (L, K): the maximal end components of the product with L
    removed that still intersect K. An empty result means no policy satisfies
    the objective from anywhere.
    """
    if not p.pairs:
        raise ModelError("product has no accepting pairs")
    out = []
    everything = frozenset(range(p.base.n_states))
    for i, (left, right) in enumerate(p.pairs):
        for states, retained in max_end_components(p.base, within=everything - left):
            if states & right:
                out.append(Amec(states=states, retained=retained, pair_index=i))
    return out


def goal_and_bad_sets(
    p: ProductModel, amec_list: Sequence[Amec]
) -> tuple[frozenset[int], frozenset[int]]:
    """The goal set (union of accepting components) and the states that
    cannot possibly reach it."""
    goal = frozenset().union(*(a.states for a in amec_list)) if amec_list else frozenset()
    m = p.base
    reverse: dict[int, list[int]] = {q: [] for q in range(m.n_states)}
    for (q, _u), row in m.transitions.items():
        for succ, _ in row:
            reverse[succ].append(q)
    closed = set(goal)
    stack = list(goal)
    while stack:
        q = stack.pop()
        for prev in reverse[q]:
            if prev not in closed:
                closed.add(prev)
                stack.append(prev)
    bad = frozenset(range(m.n_states)) - closed
    return goal, bad


def inside_amec_policy(a: Amec) -> StationaryPolicy:
    """Uniform choice over retained actions; satisfies the acceptance
    condition almost surely from anywhere inside the component."""
    table = {
        q: {u: 1.0 / len(actions) for u in actions}
        for q, actions in a.retained.items()
    }
    return StationaryPolicy(kind="randomized", table=table)


# ---------------------------------------------------------------------------
# SSP conversion


@dataclass(frozen=True)
class SspModel:
    """Goal-reachability recast as a shortest path problem.

    Goal states are collapsed into the absorbing, cost-free ``terminal``;
    states in ``bad`` restart at the initial state under every action and
    are the only states with one-step cost 1. ``origin`` maps each state
    back to its product index (-1 for the terminal).
    """

    base: LabeledModel
    terminal: int
    bad: frozenset[int]
    origin: tuple[int, ...]

    @property
    def initial(self) -> int:
        return self.base.initial

    def cost(self, state: int, action: int | None = None) -> float:
        return 1.0 if state in self.bad else 0.0


def mrp_to_ssp(p: ProductModel, goal: frozenset[int], bad: frozenset[int]) -> SspModel:
    """Convert a product with goal/zero sets into a restart SSP.

    Works in both modes: goal mass is redirected onto the terminal by
    summation (MDP) or by an any-successor flag (NTS).
    """
    m = p.base
    if m.initial in goal:
        raise ModelError("initial state is already in the goal set (trivial instance)")
    keep = [q for q in range(m.n_states) if q not in goal]
    remap = {old: new for new, old in enumerate(keep)}
    terminal = len(keep)
    new_initial = remap[m.initial]
    all_actions = tuple(range(len(m.actions)))

    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    enabled: list[tuple[int, ...]] = []
    for old in keep:
        new = remap[old]
        enabled.append(m.enabled[old])
        for u in m.enabled[old]:
            if old in bad:
                transitions[(new, u)] = ((new_initial, 1.0),)
                continue
            goal_mass = 0.0
            row = []
            for succ, w in m.transitions[(old, u)]:
                if succ in goal:
                    goal_mass = goal_mass + w if m.mode == MDP else max(goal_mass, w)
                else:
                    row.append((remap[succ], w))
            if goal_mass > 0:
                row.append((terminal, goal_mass))
            transitions[(new, u)] = tuple(sorted(row))
    enabled.append(all_actions)
    for u in all_actions:
        transitions[(terminal, u)] = ((terminal, 1.0),)

    names = None
    if m.state_names:
        names = tuple(m.state_names[old] for old in keep) + ("terminal",)
    base = LabeledModel(
        n_states=terminal + 1,
        initial=new_initial,
        actions=m.actions,
        enabled=tuple(enabled),
        transitions=transitions,
        props=m.props,
        labels=tuple(m.labels[old] for old in keep) + (0,),
        mode=m.mode,
        state_names=names,
    )
    validate_model(base)
    return SspModel(
        base=base,
        terminal=terminal,
        bad=frozenset(remap[q] for q in bad),
        origin=tuple(keep) + (-1,),
    )


def serialize_ssp(ssp: SspModel) -> str:
    """Model format plus ``terminal q`` header and ``cost q u 1`` rows."""
    out = serialize_model(ssp.base)
    lines = [f"terminal {ssp.terminal}"]
    for q in sorted(ssp.bad):
        for u in ssp.base.enabled[q]:
            lines.append(f"cost {q} {ssp.base.actions[u]} 1")
    return out + "\n".join(lines) + "\n"


def parse_ssp(text: str) -> SspModel:
    terminal = None
    cost_lines = []
    body = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("terminal"):
            terminal = int(stripped.split()[1])
        elif stripped.startswith("cost"):
            cost_lines.append(stripped.split())
        else:
            body.append(raw)
    if terminal is None:
        raise ModelError("missing 'terminal' header")
    base = parse_model("\n".join(body))
    bad = set()
    for tokens in cost_lines:
        if len(tokens) != 4 or tokens[3] != "1":
            raise ModelError(f"bad cost line {' '.join(tokens)!r}")
        bad.add(int(tokens[1]))
    return SspModel(
        base=base,
        terminal=terminal,
        bad=frozenset(bad),
        origin=tuple(range(terminal)) + (-1,),
    )


# ---------------------------------------------------------------------------
# Transition-probability sources


class ModelTransitionSource:
    """Serves transition rows of a probabilistic model, counting distinct
    (state, action) queries."""

    def __init__(self, model: LabeledModel):
        if model.mode != MDP:
            raise ModelError("transition source needs an MDP-mode model")
        self._model = model
        self._seen: set[tuple[int, int]] = set()

    def __call__(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        key = (state, action)
        self._seen.add(key)
        return self._model.transitions[key]

    @property
    def pairs_computed(self) -> int:
        return len(self._seen)


class SspTransitionSource:
    """Lazily lifts base-model transition probabilities onto SSP states.

    Only non-terminal, non-restart states touch the underlying base source,
    so the base source's query counter reflects exactly the (model state,
    action) pairs whose probabilities were ever needed.
    """

    def __init__(self, ssp: SspModel, product: ProductModel, dra: RabinAutomaton,
                 base_model: LabeledModel, base_source: TransitionSource):
        self._ssp = ssp
        self._dra = dra
        self._base = base_source
        self._rule = product.label_rule
        # Product (model state, automaton state) pair -> SSP state; goal
        # states (dropped from the SSP) map to the terminal.
        kept = {old: new for new, old in enumerate(ssp.origin) if old >= 0}
        self._to_ssp = {pair: kept.get(old, ssp.terminal)
                        for old, pair in enumerate(product.projection)}
        self._pair_of = {new: product.projection[old]
                         for new, old in enumerate(ssp.origin) if old >= 0}
        self._letters = tuple(
            dra.prop_mask(p for i, p in enumerate(base_model.props)
                          if base_model.labels[q] >> i & 1)
            for q in range(base_model.n_states))

    def __call__(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        ssp = self._ssp
        if state == ssp.terminal:
            return ((ssp.terminal, 1.0),)
        if state in ssp.bad:
            return ((ssp.initial, 1.0),)
        q, s = self._pair_of[state]
        out: dict[int, float] = {}
        for q2, w in self._base(q, action):
            letter = self._letters[q if self._rule == "current" else q2]
            s2 = int(self._dra.delta[s, letter])
            try:
                target = self._to_ssp[(q2, s2)]
            except KeyError:
                raise ModelError(
                    f"probability source has successor {q2} outside the "
                    f"possibilistic support of ({q}, action {action})") from None
            out[target] = out.get(target, 0.0) + w
        return tuple(sorted(out.items()))

    @property
    def pairs_computed(self) -> int:
        return getattr(self._base, "pairs_computed", 0)
