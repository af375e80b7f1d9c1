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
``EnvMap.arms``, ``EnvMap.pairs``), so a model build costs a constant per
motion state and control. ``build_nts`` is the map's one outcome table: it
works out the outcomes of every enabled (pair state, control) once and
writes them as the possibilistic model's CSR rows. The noise model is
defined once, as weights over a set of those rows (``_row_weights``):
``build_mdp`` weighs every row, and ``transition_rows``, the lazy provider
of a run that builds no MDP, weighs one row per query, so the two give the
same rows bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .models import LabeledModel, NTS, MDP, _ptr
from .synthesis import _expand

ACTIONS = ("FollowRoad", "GoLeft", "GoRight", "GoStraight")

_N, _E, _S, _W = (-1, 0), (0, 1), (1, 0), (0, -1)
_DIRS = (_N, _E, _S, _W)
_OPPOSITE = {_N: _S, _S: _N, _E: _W, _W: _E}
_ROT_LEFT = {_N: _W, _W: _S, _S: _E, _E: _N}
_ROT_RIGHT = {_N: _E, _E: _S, _S: _W, _W: _N}


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


def _aims(env: EnvMap, pair: tuple[int, int]) -> dict[str, int]:
    """The controls enabled at a pair state, in ``ACTIONS`` order, each with
    the region it aims for."""
    prev, cur = pair
    region = env.regions[cur]
    if region.kind == "corridor":
        ends = [reg for reg in env.adjacency[cur] if reg != prev]
        if len(ends) > 1:
            raise MapError(f"corridor {region.name} has an ambiguous far end")
        # Dead ends turn the robot around.
        return {"FollowRoad": ends[0] if ends else prev}
    arms = env.arms[cur]
    heading = _OPPOSITE[next(d for d, reg in arms.items() if reg == prev)]
    return {name: arms[d] for name, d in (("GoLeft", _ROT_LEFT[heading]),
                                          ("GoRight", _ROT_RIGHT[heading]),
                                          ("GoStraight", heading))
            if d in arms}


def _outcomes(env: EnvMap, pair: tuple[int, int], confusion: str
              ) -> dict[str, tuple[int, tuple[int, ...]]]:
    """(intended region, wrong-but-feasible regions) of every control
    enabled at a pair state, in ``ACTIONS`` order.

    ``uniform`` lets a failed control end up in any other forward arm;
    ``undershoot`` lets a failed turn carry straight through the junction
    while straight motion stays reliable (wrong-outcome supports then
    distinguish the controls at every junction geometry).
    """
    aims = _aims(env, pair)
    if confusion == "uniform":
        ends = sorted(aims.values())  # distinct: each arm is its own region
        return {name: (aim, tuple(end for end in ends if end != aim))
                for name, aim in aims.items()}
    straight = aims.get("GoStraight")
    return {name: (aim, () if name == "GoStraight" or straight is None else (straight,))
            for name, aim in aims.items()}


def build_nts(env: EnvMap, confusion: str = "uniform") -> LabeledModel:
    """Possibilistic pair-state model of the environment (support matches
    the noise model run with the same confusion mode).

    This is the map's outcome table: state i is the pair state
    ``env.pairs[i]``, the outcomes of every enabled (pair state, control)
    are worked out once (``_outcomes``, per pair state), and row (pair,
    control) holds the intended and the wrong ones, ascending. The noise
    model's rows are weights over these rows."""
    if env.start is None:
        raise MapError("map has no 'start' line")
    if confusion not in CONFUSION_MODES:
        raise MapError(f"unknown confusion model {confusion!r}")
    pairs = list(map(tuple, env.pairs.tolist()))
    if env.start not in pairs:
        raise MapError("start pair is not a reachable motion state")
    n_regions = len(env.regions)
    n_actions, row_action, row_size, succ = [], [], [], []
    for pair in pairs:
        cur = pair[1]
        outcomes = _outcomes(env, pair, confusion)
        n_actions.append(len(outcomes))
        for name, (intended, wrong) in outcomes.items():
            ends = sorted({intended, *wrong})
            row_action.append(ACTIONS.index(name))
            row_size.append(len(ends))
            succ.extend(cur * n_regions + out for out in ends)
    # Successor pair (cur, out) by its code; the pairs are sorted.
    codes = env.pairs[:, 0] * n_regions + env.pairs[:, 1]
    return LabeledModel(
        n_states=len(pairs),
        initial=pairs.index(env.start),
        actions=ACTIONS,
        props=env.props,
        labels=[sum(1 << env.props.index(obs) for obs in env.region_obs[cur])
                for _prev, cur in pairs],
        mode=NTS,
        state_ptr=_ptr(n_actions),
        row_action=row_action,
        row_ptr=_ptr(row_size),
        succ=np.searchsorted(codes, np.array(succ, dtype=np.int64)),
        weight=np.ones(len(succ)),
        state_names=tuple(f"{env.regions[p].name}-{env.regions[c].name}" for p, c in pairs),
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


def _row_weights(env: EnvMap, noise: NoiseModel, nts: LabeledModel,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noise model over the NTS rows ``rows`` (ascending row ids): the
    entries it gives positive probability, in order, and their
    probabilities.

    ``nts`` is the map's ``build_nts`` model under ``noise.confusion``. A
    row with one outcome keeps probability 1 on it; in a row with more, the
    intended outcome (the region its control aims for) gets the success
    probability and the wrong ones equal shares of the rest. With
    ``mc_runs`` a row with more outcomes holds the frequencies of that many
    draws over its (intended, wrong...) outcomes of positive probability,
    from a generator seeded with (``noise.seed``, pair state, action id).
    """
    cur = env.pairs[:, 1]
    size = nts.row_ptr[rows + 1] - nts.row_ptr[rows]
    owner, entry = _expand(nts.row_ptr, rows)
    # Each row's intended region and success probability; a row with one
    # outcome aims for it and succeeds surely.
    aim = cur[nts.succ[nts.row_ptr[rows]]]
    row_eta = np.ones(len(rows))
    multi = np.flatnonzero(size > 1).tolist()
    states, actions = nts.row_state[rows].tolist(), nts.row_action[rows].tolist()
    eta: dict[str, float] = {}
    last = aims = None
    for k in multi:
        q, name = states[k], ACTIONS[actions[k]]
        if q != last:
            last, aims = q, _aims(env, env.pairs[q].tolist())
        if name not in eta:
            eta[name] = noise.success_probability(name)
        aim[k], row_eta[k] = aims[name], eta[name]
    slip = (1.0 - row_eta) / np.maximum(size - 1, 1)
    hit = cur[nts.succ[entry]] == aim[owner]
    weight = np.where(hit, row_eta[owner], slip[owner])
    if noise.mc_runs:
        ptr = _ptr(size)
        for k in multi:
            own = np.arange(ptr[k], ptr[k + 1])
            order = np.concatenate((own[hit[own]], own[~hit[own]]))
            order = order[weight[order] > 0]
            rng = np.random.default_rng([noise.seed, *env.pairs[states[k]].tolist(), actions[k]])
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

    def row(state: int, action: int) -> tuple[tuple[int, float], ...]:
        try:
            lo, _hi = nts._entries(state, action)
        except KeyError:
            raise MapError(f"action {action} is not enabled at pair state {state}") from None
        entry, weight = _row_weights(env, noise, nts, nts.entry_row[lo:lo + 1])
        return tuple(zip(nts.succ[entry].tolist(), weight.tolist()))

    return row


def build_mdp(env: EnvMap, noise: NoiseModel, nts: LabeledModel) -> LabeledModel:
    """Materialize the full probabilistic model (for the exact oracles; a
    run without them reads single rows through ``transition_rows``): the
    states, enabled actions and labels of ``nts``, the map's ``build_nts``
    model under ``noise.confusion``, with the rows ``_row_weights`` gives."""
    entry, weight = _row_weights(env, noise, nts, np.arange(nts.n_enabled_pairs()))
    return dataclasses.replace(
        nts, mode=MDP, succ=nts.succ[entry], weight=weight,
        row_ptr=_ptr(np.bincount(nts.entry_row[entry], minlength=nts.n_enabled_pairs())))
