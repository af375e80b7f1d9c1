"""Corridor/intersection maps and their pair-state motion models.

Map file format: an ASCII grid (``#`` wall, ``.`` open, any other character
an open cell carrying a legend marker), then a ``legend`` section binding
markers or ``@row,col`` coordinates to observation names, then a start line
naming one cell in the previous region and one in the current region:

    ##########
    #........#
    ####.#####
    legend
    a: upload
    @1,1: unsafe
    start 1,1 1,2

The legend is read first. Before it, a line is a comment when it starts
with ``#``, holds a character other than ``#``, ``.`` and the legend's
markers, and does not end with ``#``; after it, when it starts with ``#``.
Blank lines are skipped.

Cells with at least three open neighbors are intersections (always
single-cell regions); the remaining open cells form corridor regions as
maximal straight runs, horizontal runs first, so an L-bend splits into two
adjacent corridor regions. A motion state is an ordered pair of adjacent
regions (previous, current): road following is the only control available
in corridors, while intersections offer turn controls named relative to the
direction of travel. The noise model sends each control to its intended
adjacent region with probability eta and spreads the rest uniformly over
the other feasible forward outcomes.

``parse_map`` indexes every open cell by its region, every intersection's
arms and the sorted motion states once (``EnvMap.cell_region``,
``EnvMap.arms``, ``EnvMap.pairs``). The control rule is one array,
``_aim_table``: the region each control aims for at each motion state.
``build_nts`` is the map's one outcome table, joins over that array
written as the possibilistic model's CSR rows. The noise model is defined
once, as weights over a set of those rows (``_row_weights``, which reads
each row's intended region off the aim table): ``build_mdp`` weighs every
row, and ``transition_rows``, the lazy provider of a run that builds no
MDP, weighs one row per query, so the two give the same rows bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .models import LabeledModel, NTS, MDP, _ptr
from .synthesis import _expand

ACTIONS = ("FollowRoad", "GoLeft", "GoRight", "GoStraight")

_DIRS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # N, E, S, W


class MapError(ValueError):
    """Malformed map file or infeasible query against it."""


@dataclass(frozen=True)
class Region:
    ident: int
    kind: str  # "corridor" | "intersection"
    cells: tuple[tuple[int, int], ...]
    name: str


@dataclass(frozen=True)
class EnvMap:
    grid: tuple[str, ...]
    regions: tuple[Region, ...]
    cell_region: Mapping[tuple[int, int], int]  # open cell -> region ident
    # intersection ident -> {direction: adjacent region}, directions in _DIRS order
    arms: Mapping[int, Mapping[tuple[int, int], int]]
    adjacency: Mapping[int, tuple[int, ...]]
    pairs: np.ndarray  # (n, 2): the sorted (previous, current) motion states
    region_obs: Mapping[int, frozenset[str]]
    props: tuple[str, ...]
    start: tuple[int, int] | None  # (previous region, current region)


def _is_comment(line: str, grid_chars: set[str]) -> bool:
    """Whether a line before the legend is a comment: it starts with '#',
    holds a character that is neither wall, open floor nor a marker, and
    does not end in a wall. A walled row with a mistyped marker therefore
    stays a grid row, and fails as one."""
    body = line.rstrip()
    return body.startswith("#") and not body.endswith("#") and not set(body) <= grid_chars


def parse_map(text: str) -> EnvMap:
    lines = text.splitlines()
    try:
        split = next(i for i, ln in enumerate(lines) if ln.strip() == "legend")
    except StopIteration:
        raise MapError("missing 'legend' section") from None
    marker_obs: dict[str, frozenset[str]] = {}
    cell_obs: dict[tuple[int, int], frozenset[str]] = {}
    start_cells = None
    for raw in lines[split + 1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start"):
            parts = line.split()
            if len(parts) != 3:
                raise MapError("expected 'start r1,c1 r2,c2'")
            start_cells = (_parse_cell(parts[1]), _parse_cell(parts[2]))
            continue
        if ":" not in line:
            raise MapError(f"bad legend line {line!r}")
        head, rest = line.split(":", 1)
        obs = frozenset(rest.split())
        head = head.strip()
        if head.startswith("@"):
            cell_obs[_parse_cell(head[1:])] = obs
        elif len(head) == 1:
            marker_obs[head] = obs
        else:
            raise MapError(f"bad legend key {head!r}")

    grid = [ln for ln in lines[:split]
            if ln.strip() and not _is_comment(ln, {"#", "."} | marker_obs.keys())]
    if not grid:
        raise MapError("empty grid")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise MapError("grid is not rectangular")

    open_cells = set()
    for r, row in enumerate(grid):
        for c, ch in enumerate(row):
            if ch == "#":
                continue
            open_cells.add((r, c))
            if ch != "." and ch not in marker_obs:
                raise MapError(f"unknown legend symbol {ch!r} at {(r, c)}")

    def open_neighbors(cell):
        r, c = cell
        return [(r + dr, c + dc) for dr, dc in _DIRS if (r + dr, c + dc) in open_cells]

    crossings = {cell for cell in open_cells if len(open_neighbors(cell)) >= 3}
    for cell in crossings:
        for nb in open_neighbors(cell):
            if nb in crossings:
                raise MapError(
                    f"corridor-free intersection adjacency between {cell} and {nb}")

    corridor_cells = open_cells - crossings
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

    regions: list[Region] = []
    for i, cell in enumerate(sorted(crossings)):
        regions.append(Region(ident=len(regions), kind="intersection",
                              cells=(cell,), name=f"I{i + 1}"))
    for i, cells in enumerate(corridor_groups):
        regions.append(Region(ident=len(regions), kind="corridor",
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

    pairs = np.array(sorted((p, c) for p in adjacency for c in adjacency[p]),
                     dtype=np.int64).reshape(-1, 2)
    pairs.flags.writeable = False
    return EnvMap(
        grid=tuple(grid),
        regions=tuple(regions),
        cell_region=where,
        arms=arms,
        adjacency={k: tuple(sorted(v)) for k, v in adjacency.items()},
        pairs=pairs,
        region_obs={k: frozenset(v) for k, v in region_obs.items()},
        props=props,
        start=start,
    )


def _parse_cell(token: str) -> tuple[int, int]:
    try:
        r, c = token.split(",")
        return (int(r), int(c))
    except ValueError:
        raise MapError(f"bad cell coordinate {token!r}") from None


# ---------------------------------------------------------------------------
# Pair states


CONFUSION_MODES = ("uniform", "undershoot")


def _aim_table(env: EnvMap) -> np.ndarray:
    """The map's control rule: an (n_pairs, len(ACTIONS)) array holding the
    region each control aims for at each pair state ``env.pairs[i]``, or -1
    where the control is disabled.

    FollowRoad is the one control in a corridor and aims for its far end; a
    dead end turns the robot around. At an intersection the turns are
    relative to the heading: with the directions N, E, S, W numbered 0..3,
    the heading is the arm the robot came from plus 2, left is heading + 3
    and right is heading + 1 (mod 4); a turn into a wall is disabled.
    """
    prev, cur = env.pairs[:, 0], env.pairs[:, 1]
    n_regions = len(env.regions)
    arm = np.full((n_regions, len(_DIRS)), -1, dtype=np.int64)
    for reg, by_dir in env.arms.items():
        arm[reg, [_DIRS.index(d) for d in by_dir]] = list(by_dir.values())
    corridor = np.array([region.kind == "corridor" for region in env.regions], dtype=bool)
    # The pairs are sorted, so region r's neighbors are the current
    # regions of the pairs ptr[r]:ptr[r + 1].
    ptr = np.searchsorted(prev, np.arange(n_regions + 1))
    ambiguous = np.flatnonzero(corridor & (np.diff(ptr) > 2))
    if ambiguous.size:
        raise MapError(f"corridor {env.regions[ambiguous[0]].name} has an ambiguous far end")
    table = np.full((len(cur), len(ACTIONS)), -1, dtype=np.int64)
    # A corridor has one or two neighbors, so its far end is first + last -
    # prev: prev itself at a dead end.
    road = corridor[cur]
    table[road, 0] = (cur[ptr[cur]] + cur[ptr[cur + 1] - 1] - prev)[road]
    # An intersection pair and the arm it came from; left, right, straight.
    crossing, came = np.nonzero(arm[cur] == prev[:, None])
    table[crossing, 1:] = arm[cur[crossing, None], (came[:, None] + 2 + (3, 1, 0)) % 4]
    return table


def build_nts(env: EnvMap, confusion: str = "uniform") -> LabeledModel:
    """Possibilistic pair-state model of the environment (support matches
    the noise model run with the same confusion mode).

    This is the map's outcome table: state i is the pair state
    ``env.pairs[i]``, its rows are its enabled controls in ``ACTIONS``
    order (``_aim_table``), and row (pair, control) holds the regions the
    control can end up in, ascending. ``uniform`` lets a failed control end
    up in any other forward arm, so every row of a state holds all its
    aims; ``undershoot`` lets a failed turn carry straight through the
    junction while straight motion stays reliable (wrong-outcome supports
    then distinguish the controls at every junction geometry). The noise
    model's rows are weights over these rows."""
    if env.start is None:
        raise MapError("map has no 'start' line")
    if confusion not in CONFUSION_MODES:
        raise MapError(f"unknown confusion model {confusion!r}")
    n_regions = len(env.regions)
    cur = env.pairs[:, 1]
    # Successor pair (cur, out) by its code; the pairs are sorted.
    codes = env.pairs[:, 0] * n_regions + cur
    start = env.start[0] * n_regions + env.start[1]
    initial = int(np.searchsorted(codes, start))
    if codes[initial:initial + 1].tolist() != [start]:
        raise MapError("start pair is not a reachable motion state")
    aims = _aim_table(env)
    enabled = aims >= 0
    state, action = np.nonzero(enabled)
    if confusion == "uniform":
        ends = aims[state]
    else:  # a turn (GoLeft, GoRight) may also end up straight ahead (GoStraight)
        turn = (action == 1) | (action == 2)
        ends = np.stack((aims[state, action], np.where(turn, aims[state, 3], -1)), axis=1)
    ends = np.sort(np.where(ends >= 0, ends, n_regions), axis=1, kind="stable")
    kept = ends < n_regions
    row_size = kept.sum(axis=1)
    outs = ends[kept]
    region_label = np.array([sum(1 << env.props.index(obs) for obs in env.region_obs[reg])
                             for reg in range(n_regions)], dtype=np.int64)
    names = [region.name for region in env.regions]
    return LabeledModel(
        n_states=len(codes),
        initial=initial,
        actions=ACTIONS,
        props=env.props,
        labels=region_label[cur],
        mode=NTS,
        state_ptr=_ptr(enabled.sum(axis=1)),
        row_action=action,
        row_ptr=_ptr(row_size),
        succ=np.searchsorted(codes, np.repeat(cur[state], row_size) * n_regions + outs),
        weight=np.ones(len(outs)),
        state_names=tuple(f"{names[p]}-{names[c]}" for p, c in zip(*env.pairs.T.tolist())),
    )


# ---------------------------------------------------------------------------
# Noise model


@dataclass(frozen=True)
class NoiseModel:
    """Closed-form control noise: the intended outcome with probability eta,
    the rest split uniformly over the other feasible outcomes. ``mc_runs``
    switches to Monte-Carlo frequency estimates from that distribution,
    seeded per (state, action) so repeated queries agree."""

    eta: float | Mapping[str, float] = 0.9
    confusion: str = "uniform"
    mc_runs: int | None = None
    seed: int = 0

    def success_probability(self, action: str) -> float:
        eta = self.eta[action] if isinstance(self.eta, Mapping) else self.eta
        if not (0.0 < eta <= 1.0):
            raise MapError(f"success probability {eta} for {action} outside (0, 1]")
        return float(eta)


def _row_weights(env: EnvMap, noise: NoiseModel, nts: LabeledModel, aims: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noise model over the NTS rows ``rows`` (ascending row ids): the
    entries it gives positive probability, in order, and their
    probabilities.

    ``nts`` is the map's ``build_nts`` model under ``noise.confusion`` and
    ``aims`` its ``_aim_table``. A row with one outcome keeps probability 1
    on it; in a row with more, the intended outcome (the region its
    control aims for) gets the success probability and the wrong ones
    equal shares of the rest. With ``mc_runs`` a row with more outcomes
    holds the frequencies of that many draws over its (intended, wrong...)
    outcomes of positive probability, from a generator seeded with
    (``noise.seed``, pair state, action id).
    """
    cur = env.pairs[:, 1]
    size = nts.row_ptr[rows + 1] - nts.row_ptr[rows]
    owner, entry = _expand(nts.row_ptr, rows)
    states, actions = nts.row_state[rows], nts.row_action[rows]
    multi = size > 1
    # The success probability of each action that has a row with more
    # outcomes, asked for in row order; a row with one outcome succeeds surely.
    eta = np.ones(len(ACTIONS))
    for u in dict.fromkeys(actions[multi].tolist()):
        eta[u] = noise.success_probability(ACTIONS[u])
    row_eta = np.where(multi, eta[actions], 1.0)
    slip = (1.0 - row_eta) / np.maximum(size - 1, 1)
    hit = cur[nts.succ[entry]] == aims[states, actions][owner]
    weight = np.where(hit, row_eta[owner], slip[owner])
    if noise.mc_runs:
        ptr = _ptr(size)
        for k in np.flatnonzero(multi).tolist():
            own = np.arange(ptr[k], ptr[k + 1])
            order = np.concatenate((own[hit[own]], own[~hit[own]]))
            order = order[weight[order] > 0]
            rng = np.random.default_rng(
                [noise.seed, *env.pairs[states[k]].tolist(), int(actions[k])])
            draws = rng.choice(len(order), size=noise.mc_runs, p=weight[order].tolist())
            weight[own] = 0.0
            weight[order] = np.bincount(draws, minlength=len(order)) / noise.mc_runs
    keep = weight > 0
    return entry[keep], weight[keep]


def transition_rows(env: EnvMap, noise: NoiseModel, nts: LabeledModel
                    ) -> Callable[[int, int], tuple[tuple[int, float], ...]]:
    """The noise model's rows one at a time, for a run that builds no MDP:
    ``row(state, action)`` is row (state, action) of ``build_mdp(env,
    noise, nts)``, as ``LabeledModel.successors`` gives it. A (state,
    action) that ``nts`` does not enable raises ``MapError``."""
    aims = _aim_table(env)

    def row(state: int, action: int) -> tuple[tuple[int, float], ...]:
        try:
            lo, _hi = nts._entries(state, action)
        except KeyError:
            raise MapError(f"action {action} is not enabled at pair state {state}") from None
        entry, weight = _row_weights(env, noise, nts, aims, nts.entry_row[lo:lo + 1])
        return tuple(zip(nts.succ[entry].tolist(), weight.tolist()))

    return row


def build_mdp(env: EnvMap, noise: NoiseModel, nts: LabeledModel) -> LabeledModel:
    """Materialize the full probabilistic model (for the exact oracles; a
    run without them reads single rows through ``transition_rows``): the
    states, enabled actions and labels of ``nts``, the map's ``build_nts``
    model under ``noise.confusion``, with the rows ``_row_weights`` gives."""
    entry, weight = _row_weights(env, noise, nts, _aim_table(env),
                                 np.arange(nts.n_enabled_pairs()))
    return dataclasses.replace(
        nts, mode=MDP, succ=nts.succ[entry], weight=weight,
        row_ptr=_ptr(np.bincount(nts.entry_row[entry], minlength=nts.n_enabled_pairs())))
