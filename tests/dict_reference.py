"""Dict-of-rows and per-state references for the array builds.

The model functions are the per-row dict implementations that the array
code in ``tlcontrol.synthesis`` replaced, working on ``DictModel``s: a
model as a dict (state, action) -> ((successor, weight), ...). ``of``,
``of_product`` and ``of_ssp`` turn array results into the same form (a
product's pairs lifted to state sets by ``lifted_pairs``), the
product's and the SSP's state names formatted by the functions that
format them for model files, so a test can compare the two builds
exactly, weights bit for bit and names character for character.

``min_distances`` is the queue-based breadth-first search that the
frontier layers of ``synthesis._layers`` replaced. ``neighborhood`` and
``action_sequences`` are the one-state-at-a-time definitions that
``LookaheadPolicy``'s all-state tables replaced, and
``safe``, ``sequence_table`` and ``action_probability`` read one state's
entry of a policy's tables and distribution.

``parse_map`` is the per-cell map partition (sets and dicts) that the
region-id grid of ``gridenv.parse_map`` replaced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from tlcontrol.gridenv import _DIRS, MapError, _read_map
from tlcontrol.lookahead import SequenceCapExceeded
from tlcontrol.models import MDP, ModelError
from tlcontrol.synthesis import product_state_names, ssp_state_names


@dataclass(frozen=True)
class DictModel:
    n_states: int
    initial: int
    mode: str
    enabled: tuple[tuple[int, ...], ...]
    rows: dict
    labels: tuple[int, ...]
    names: tuple[str, ...] | None


@dataclass(frozen=True)
class DictProduct:
    base: DictModel
    projection: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]
    unpruned_states: int


@dataclass(frozen=True)
class DictSsp:
    base: DictModel
    terminal: int
    bad: frozenset[int]
    origin: tuple[int, ...]


def prop_mask(r, names) -> int:
    """The letter of the automaton ``r`` that holds exactly the
    propositions ``names``."""
    return sum(1 << r.props.index(name) for name in set(names))


def model_rows(m) -> dict:
    """A model's rows as a dict (state, action) -> ((successor, weight),
    ...), in row order."""
    return {key: m.successors(*key) for key in m.enabled_pairs()}


def of(m, names=None) -> DictModel:
    """``m`` as a DictModel, named by ``names`` or else by ``m.state_names``."""
    return DictModel(m.n_states, m.initial, m.mode, m.enabled, model_rows(m),
                     tuple(int(x) for x in m.labels),
                     m.state_names if names is None else names)


def lifted_pairs(p) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """The accepting pairs of the array product ``p``'s automaton as
    product-state sets, through each state's automaton state."""
    dra_state = p.projection[:, 1].tolist()
    return tuple((frozenset(i for i, s in enumerate(dra_state) if s in left),
                  frozenset(i for i, s in enumerate(dra_state) if s in right))
                 for left, right in p.automaton.pairs)


def of_product(p) -> DictProduct:
    """The array product ``p`` as a DictProduct, its states named on demand
    (``product_state_names``) and its pairs lifted (``lifted_pairs``)."""
    return DictProduct(of(p.base, product_state_names(p)),
                       tuple(map(tuple, p.projection.tolist())), lifted_pairs(p),
                       p.unpruned_states)


def of_ssp(s, product_names) -> DictSsp:
    """The array SSP ``s`` as a DictSsp, its states named on demand
    (``ssp_state_names``) from its product's ``product_names``."""
    return DictSsp(of(s.base, ssp_state_names(s, product_names)), s.terminal, s.bad,
                   tuple(s.origin.tolist()))


def build_product(m, r, label_rule="next") -> DictProduct:
    letters = [prop_mask(r, [p for i, p in enumerate(m.props) if int(m.labels[q]) >> i & 1])
               for q in range(m.n_states)]
    ns = r.n_states

    def index(q, s):
        return q * ns + s

    n_prod = m.n_states * ns
    names = m.state_names or tuple(str(q) for q in range(m.n_states))
    rows = {}
    for (q, u), row in model_rows(m).items():
        for s in range(ns):
            if label_rule == "next":
                lifted = [(index(q2, int(r.delta[s, letters[q2]])), w) for q2, w in row]
            else:
                s2 = int(r.delta[s, letters[q]])
                lifted = [(index(q2, s2), w) for q2, w in row]
            rows[(index(q, s), u)] = tuple(sorted(lifted))
    if label_rule == "next":
        s_init = int(r.delta[r.initial, letters[m.initial]])
    else:
        s_init = r.initial
    base = DictModel(
        n_states=n_prod, initial=index(m.initial, s_init), mode=m.mode,
        enabled=tuple(m.enabled[p // ns] for p in range(n_prod)),
        rows=dict(sorted(rows.items())),
        labels=tuple(int(m.labels[p // ns]) for p in range(n_prod)),
        names=tuple(f"{names[p // ns]}|{p % ns}" for p in range(n_prod)))
    pairs = tuple(
        (frozenset(index(q, s) for q in range(m.n_states) for s in left),
         frozenset(index(q, s) for q in range(m.n_states) for s in right))
        for left, right in r.pairs)
    return DictProduct(base, tuple((p // ns, p % ns) for p in range(n_prod)), pairs, n_prod)


def prune_unreachable(p: DictProduct) -> DictProduct:
    m = p.base
    reach = {m.initial}
    stack = [m.initial]
    while stack:
        q = stack.pop()
        for u in m.enabled[q]:
            for succ, _ in m.rows[(q, u)]:
                if succ not in reach:
                    reach.add(succ)
                    stack.append(succ)
    keep = sorted(reach)
    if len(keep) == m.n_states:
        return p
    remap = {old: new for new, old in enumerate(keep)}
    rows = {(remap[q], u): tuple((remap[s], w) for s, w in m.rows[(q, u)])
            for q in keep for u in m.enabled[q]}
    base = DictModel(
        n_states=len(keep), initial=remap[m.initial], mode=m.mode,
        enabled=tuple(m.enabled[q] for q in keep), rows=rows,
        labels=tuple(m.labels[q] for q in keep),
        names=tuple(m.names[q] for q in keep) if m.names else None)
    pairs = tuple(
        (frozenset(remap[s] for s in left if s in reach),
         frozenset(remap[s] for s in right if s in reach))
        for left, right in p.pairs)
    return DictProduct(base, tuple(p.projection[q] for q in keep), pairs, p.unpruned_states)


def with_probabilities(p: DictProduct, m_mdp) -> DictProduct:
    weights = {key: dict(row) for key, row in model_rows(m_mdp).items()}
    rows = {}
    for (sp, u), row in p.base.rows.items():
        q = p.projection[sp][0]
        base_row = dict(weights[(q, u)])
        lifted = []
        for succ, _ in row:
            w = base_row.pop(p.projection[succ][0], 0.0)
            if w > 0:
                lifted.append((succ, w))
        if base_row:
            raise ModelError(
                f"support mismatch at ({q}, {m_mdp.actions[u]!r}): "
                f"probabilistic successors {sorted(base_row)} missing from the skeleton")
        rows[(sp, u)] = tuple(lifted)
    base = DictModel(p.base.n_states, p.base.initial, MDP, p.base.enabled, rows,
                     p.base.labels, p.base.names)
    return DictProduct(base, p.projection, p.pairs, p.unpruned_states)


def bad_states(p: DictProduct, goal: frozenset[int]) -> frozenset[int]:
    """The states with no path into ``goal``."""
    m = p.base
    reverse = {q: [] for q in range(m.n_states)}
    for (q, _u), row in m.rows.items():
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
    return frozenset(range(m.n_states)) - closed


def mrp_to_ssp(p: DictProduct, goal: frozenset[int], bad: frozenset[int],
               n_actions: int) -> DictSsp:
    m = p.base
    keep = [q for q in range(m.n_states) if q not in goal]
    remap = {old: new for new, old in enumerate(keep)}
    terminal = len(keep)
    new_initial = remap[m.initial]
    all_actions = tuple(range(n_actions))
    rows = {}
    enabled = []
    for old in keep:
        new = remap[old]
        enabled.append(m.enabled[old])
        for u in m.enabled[old]:
            if old in bad:
                rows[(new, u)] = ((new_initial, 1.0),)
                continue
            goal_mass = 0.0
            row = []
            for succ, w in m.rows[(old, u)]:
                if succ in goal:
                    goal_mass = goal_mass + w if m.mode == MDP else max(goal_mass, w)
                else:
                    row.append((remap[succ], w))
            if goal_mass > 0:
                row.append((terminal, goal_mass))
            rows[(new, u)] = tuple(sorted(row))
    enabled.append(all_actions)
    for u in all_actions:
        rows[(terminal, u)] = ((terminal, 1.0),)
    names = tuple(m.names[old] for old in keep) + ("terminal",) if m.names else None
    base = DictModel(terminal + 1, new_initial, m.mode, tuple(enabled), rows,
                     tuple(m.labels[old] for old in keep) + (0,), names)
    return DictSsp(base, terminal, frozenset(remap[q] for q in bad), tuple(keep) + (-1,))


def min_distances(m, targets, blocked_sources: frozenset[int] = frozenset()) -> list[float]:
    """Minimum possibilistic step count from every state to ``targets``:
    multi-source BFS on the reversed edge relation (any enabled action),
    ignoring edges that leave ``blocked_sources``; unreachable states map
    to inf."""
    targets = set(targets)
    if not targets:
        raise ModelError("min_distances needs a nonempty target set")
    pred: list[list[int]] = [[] for _ in range(m.n_states)]
    for (q, _u), row in model_rows(m).items():
        if q not in blocked_sources:
            for succ, _w in row:
                pred[succ].append(q)
    inf = float("inf")
    dist = [inf] * m.n_states
    queue = deque(targets)
    for t in targets:
        dist[t] = 0.0
    while queue:
        q = queue.popleft()
        for prev in pred[q]:
            if dist[prev] == inf:
                dist[prev] = dist[q] + 1.0
                queue.append(prev)
    return dist


def neighborhood(m, state: int, radius: int) -> frozenset[int]:
    """States within forward possibilistic distance ``radius`` of ``state``."""
    if radius < 1:
        raise ModelError("neighborhood radius must be >= 1")
    seen = {state}
    frontier = [state]
    for _ in range(radius):
        nxt = []
        for q in frontier:
            for u in m.enabled[q]:
                for succ in m.support(q, u):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def action_sequences(
    m, state: int, horizon: int, cap: int = 10_000
) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """All depth-``horizon`` action sequences from ``state`` with their exact
    possibilistic reach sets.

    A sequence u1..ut is admissible when each u_k is enabled at some state
    reachable from ``state`` via u1..u_{k-1}; the reach set is propagated
    forward, skipping branch states where the next action is disabled.
    Sequences come out in lexicographic action-id order.
    """
    if horizon < 1:
        raise ModelError("lookahead horizon must be >= 1")
    out: list[tuple[tuple[int, ...], frozenset[int]]] = []

    def expand(prefix: tuple[int, ...], reach: frozenset[int]) -> None:
        if len(prefix) == horizon:
            out.append((prefix, reach))
            if len(out) > cap:
                raise SequenceCapExceeded(
                    f"more than {cap} action sequences from state {state}")
            return
        options = sorted({u for q in reach for u in m.enabled[q]})
        for u in options:
            nxt: set[int] = set()
            for q in reach:
                if u in m.enabled[q]:
                    nxt.update(m.support(q, u))
            expand(prefix + (u,), frozenset(nxt))

    expand((), frozenset([state]))
    return out


def safe(pol, state: int) -> float:
    """The fraction of the state's neighborhood outside the restart set, as
    the policy's table holds it."""
    return float(pol._safe[state])


def sequence_table(pol, state: int) -> tuple[np.ndarray, np.ndarray]:
    """The first action and the feature pair of each of the sequences from
    ``state``, in lexicographic action-id order: each sequence's first
    action is its row's, and the features are a view of the policy's
    table (the terminal's are one zero-feature sequence per row)."""
    lo, hi = pol._row_seq[pol._state_ptr[state]], pol._row_seq[pol._state_ptr[state + 1]]
    return pol.model.row_action[pol._seq_row[lo:hi]], pol._feats[lo:hi]


def action_probability(pol, state: int, action: int) -> float:
    """mu_theta(state, action): the action's probability in
    ``action_distribution``, 0 for an action the state does not offer."""
    acts, probs = pol.action_distribution(state)
    acts = acts.tolist()
    return float(probs[acts.index(action)]) if action in acts else 0.0


# ---------------------------------------------------------------------------
# Map partition


@dataclass(frozen=True)
class DictRegion:
    ident: int
    kind: str  # "corridor" | "intersection"
    cells: tuple[tuple[int, int], ...]
    name: str


@dataclass(frozen=True)
class DictMap:
    regions: tuple[DictRegion, ...]
    cell_region: dict  # open cell -> region ident
    # intersection ident -> {direction: adjacent region}, directions in _DIRS order
    arms: dict
    adjacency: dict  # region ident -> its adjacent regions, ascending
    pairs: list  # the sorted (previous, current) motion states
    region_obs: dict  # region ident -> frozenset of observation names
    props: tuple[str, ...]
    start: tuple[int, int] | None


def parse_map(text: str) -> DictMap:
    """The per-cell partition of a map file that ``gridenv.parse_map``'s
    arrays replaced: open cells as a set, regions as cell lists, adjacency,
    arms and observations as dicts. It reads the file through the same
    ``gridenv._read_map`` and raises the same ``MapError`` messages in the
    same order."""
    grid, marker_obs, cell_obs, start_cells = _read_map(text)
    open_cells = set()
    for r, row in enumerate(grid):
        for c, ch in enumerate(row):
            if ch == "#":
                continue
            open_cells.add((r, c))
            if ch != "." and ch not in marker_obs:
                raise MapError(f"unknown legend symbol {ch!r} at {(r, c)}")
    for cell in cell_obs:
        if cell not in open_cells:
            raise MapError(f"legend key @{cell[0]},{cell[1]} is not an open cell")

    def open_neighbors(cell):
        r, c = cell
        return [(r + dr, c + dc) for dr, dc in _DIRS if (r + dr, c + dc) in open_cells]

    crossings = {cell for cell in open_cells if len(open_neighbors(cell)) >= 3}
    for cell in sorted(crossings):
        for nb in open_neighbors(cell):
            if nb in crossings:
                raise MapError(
                    f"corridor-free intersection adjacency between {cell} and {nb}")

    corridor_cells = open_cells - crossings
    width = len(grid[0])
    taken: set[tuple[int, int]] = set()
    runs: list[list[tuple[int, int]]] = []
    for r in range(len(grid)):
        run: list[tuple[int, int]] = []
        for c in range(width + 1):
            if (r, c) in corridor_cells:
                run.append((r, c))
            else:
                if len(run) >= 2:
                    runs.append(run)
                    taken.update(run)
                run = []
    vertical: list[list[tuple[int, int]]] = []
    for c in range(width):
        run = []
        for r in range(len(grid) + 1):
            if (r, c) in corridor_cells and (r, c) not in taken:
                run.append((r, c))
            else:
                if run:
                    vertical.append(run)
                run = []
    corridor_groups = sorted(runs + vertical, key=lambda cells: min(cells))

    regions: list[DictRegion] = []
    for i, cell in enumerate(sorted(crossings)):
        regions.append(DictRegion(ident=len(regions), kind="intersection",
                                  cells=(cell,), name=f"I{i + 1}"))
    for i, cells in enumerate(corridor_groups):
        regions.append(DictRegion(ident=len(regions), kind="corridor",
                                  cells=tuple(sorted(cells)), name=f"C{i + 1}"))

    where = {cell: region.ident for region in regions for cell in region.cells}
    adjacency: dict[int, set[int]] = {region.ident: set() for region in regions}
    for cell in open_cells:
        for nb in open_neighbors(cell):
            a, b = where[cell], where[nb]
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)

    arms = {}
    for region in regions:
        if region.kind == "intersection":
            (r, c) = region.cells[0]
            arms[region.ident] = {d: where[(r + d[0], c + d[1])] for d in _DIRS
                                  if (r + d[0], c + d[1]) in where}

    region_obs: dict[int, set[str]] = {region.ident: set() for region in regions}
    for region in regions:
        for (r, c) in region.cells:
            ch = grid[r][c]
            if ch not in (".", "#"):
                region_obs[region.ident].update(marker_obs[ch])
            if (r, c) in cell_obs:
                region_obs[region.ident].update(cell_obs[(r, c)])
    props = tuple(sorted(set().union(*region_obs.values()) if region_obs else set()))

    start = None
    if start_cells is not None:
        prev_cell, cur_cell = start_cells
        if prev_cell not in where or cur_cell not in where:
            raise MapError(f"start cells {start_cells} are not both open")
        prev_region, cur_region = where[prev_cell], where[cur_cell]
        if prev_region == cur_region:
            raise MapError("start cells lie in the same region")
        if cur_region not in adjacency[prev_region]:
            raise MapError("start regions are not adjacent")
        start = (prev_region, cur_region)

    return DictMap(
        regions=tuple(regions),
        cell_region=where,
        arms=arms,
        adjacency={k: tuple(sorted(v)) for k, v in adjacency.items()},
        pairs=sorted((p, c) for p in adjacency for c in adjacency[p]),
        region_obs={k: frozenset(v) for k, v in region_obs.items()},
        props=props,
        start=start,
    )
