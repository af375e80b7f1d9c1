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

``parse_map`` indexes every open cell by its region once
(``EnvMap.cell_region``) and every intersection's arms once
(``EnvMap.arms``); the model builds and the lazy per-step queries read
those indexes, so a model build costs a constant per motion state and
control. The builds share one outcome table: ``build_nts`` works out the
outcomes of every enabled (pair state, control) once and writes them as the
possibilistic model's CSR rows, and ``build_mdp`` takes its supports from
those rows, looking up only which outcome each control intends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .models import LabeledModel, NTS, MDP, _ptr

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

    return EnvMap(
        grid=tuple(grid),
        regions=tuple(regions),
        cell_region=where,
        arms=arms,
        adjacency={k: tuple(sorted(v)) for k, v in adjacency.items()},
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


def pair_states(env: EnvMap) -> list[tuple[int, int]]:
    """All ordered (previous, current) adjacent region pairs, sorted."""
    return sorted((p, c) for p in env.adjacency for c in env.adjacency[p])


def _targets(env: EnvMap, pair: tuple[int, int]) -> dict[str, int]:
    """The turn controls enabled at an intersection pair state, in
    ``ACTIONS`` order, each with the region it aims for."""
    prev, cur = pair
    arms = env.arms[cur]
    back = next(d for d, reg in arms.items() if reg == prev)
    heading = _OPPOSITE[back]
    return {name: arms[d] for name, d in (("GoLeft", _ROT_LEFT[heading]),
                                          ("GoRight", _ROT_RIGHT[heading]),
                                          ("GoStraight", heading))
            if d in arms}


def enabled_actions(env: EnvMap, pair: tuple[int, int]) -> list[str]:
    if env.regions[pair[1]].kind == "corridor":
        return ["FollowRoad"]
    return list(_targets(env, pair))


CONFUSION_MODES = ("uniform", "undershoot")


def _outcomes(env: EnvMap, pair: tuple[int, int], confusion: str
              ) -> dict[str, tuple[int, tuple[int, ...]]]:
    """``outcome_support`` of every control enabled at a pair state, in
    ``ACTIONS`` order."""
    prev, cur = pair
    region = env.regions[cur]
    if region.kind == "corridor":
        ends = [reg for reg in env.adjacency[cur] if reg != prev]
        if len(ends) > 1:
            raise MapError(f"corridor {region.name} has an ambiguous far end")
        # Dead ends turn the robot around.
        return {"FollowRoad": (ends[0] if ends else prev, ())}
    targets = _targets(env, pair)
    if confusion == "uniform":
        return {name: (aim, tuple(sorted(other for key, other in targets.items()
                                         if key != name)))
                for name, aim in targets.items()}
    straight = targets.get("GoStraight")
    return {name: (aim, () if name == "GoStraight" or straight is None else (straight,))
            for name, aim in targets.items()}


def outcome_support(env: EnvMap, pair: tuple[int, int], action: str,
                    confusion: str = "uniform") -> tuple[int, tuple[int, ...]]:
    """(intended region, wrong-but-feasible regions) for one control.

    ``uniform`` lets a failed control end up in any other forward arm;
    ``undershoot`` lets a failed turn carry straight through the junction
    while straight motion stays reliable (wrong-outcome supports then
    distinguish the controls at every junction geometry).
    """
    if confusion not in CONFUSION_MODES:
        raise MapError(f"unknown confusion model {confusion!r}")
    outcomes = _outcomes(env, pair, confusion)
    if action not in outcomes:
        prev, cur = pair
        where = env.regions[cur].name
        if env.regions[cur].kind == "corridor":
            raise MapError(f"{action} is not enabled in corridor {where}")
        raise MapError(f"{action} is not enabled at {where} entered from "
                       f"{env.regions[prev].name}")
    return outcomes[action]


def build_nts(env: EnvMap, confusion: str = "uniform") -> LabeledModel:
    """Possibilistic pair-state model of the environment (support matches
    the noise model run with the same confusion mode).

    This is the map's outcome table: the outcomes of every enabled (pair
    state, control) are worked out once (``_outcomes``, per pair state),
    and row (pair, control) holds the intended and the wrong ones,
    ascending. ``build_mdp`` takes its supports from here."""
    pairs = pair_states(env)
    if env.start is None:
        raise MapError("map has no 'start' line")
    if env.start not in pairs:
        raise MapError("start pair is not a reachable motion state")
    if confusion not in CONFUSION_MODES:
        raise MapError(f"unknown confusion model {confusion!r}")
    n_actions, row_action, row_size, succ = [], [], [], []
    n_regions = len(env.regions)
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
    codes = np.array([p * n_regions + c for p, c in pairs], dtype=np.int64)
    succ = np.searchsorted(codes, np.array(succ, dtype=np.int64))
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
        succ=succ,
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


def transition_probs(env: EnvMap, noise: NoiseModel, pair: tuple[int, int],
                     action: str) -> tuple[tuple[tuple[int, int], float], ...]:
    """Outcome distribution over successor pair states for one control."""
    prev, cur = pair
    intended, wrong = outcome_support(env, pair, action, noise.confusion)
    if not wrong:
        dist = [((cur, intended), 1.0)]
    else:
        eta = noise.success_probability(action)
        slip = (1.0 - eta) / len(wrong)
        dist = [((cur, intended), eta)] + [((cur, out), slip) for out in wrong]
        dist = [(succ, p) for succ, p in dist if p > 0]
    if noise.mc_runs:
        rng = np.random.default_rng([noise.seed, prev, cur, ACTIONS.index(action)])
        outcomes = rng.choice(len(dist), size=noise.mc_runs,
                              p=[p for _, p in dist])
        counts = np.bincount(outcomes, minlength=len(dist))
        dist = [(succ, count / noise.mc_runs)
                for (succ, _), count in zip(dist, counts) if count]
    return tuple(sorted(dist))


def transition_rows(env: EnvMap, noise: NoiseModel
                    ) -> Callable[[int, int], tuple[tuple[int, float], ...]]:
    """The noise model's rows over pair-state indices: ``row(state, action)``
    is ``transition_probs`` of that pair state and action id, with each
    successor pair replaced by its index (ascending, as the pairs are)."""
    pairs = pair_states(env)
    index = {pair: i for i, pair in enumerate(pairs)}

    def row(state: int, action: int) -> tuple[tuple[int, float], ...]:
        return tuple([(index[succ], p) for succ, p in
                      transition_probs(env, noise, pairs[state], ACTIONS[action])])

    return row


def build_mdp(env: EnvMap, noise: NoiseModel, nts: LabeledModel) -> LabeledModel:
    """Materialize the full probabilistic model (for the exact oracles; the
    lazy path never needs it); row by row it equals ``transition_rows``.

    ``nts`` is the map's ``build_nts`` model under ``noise.confusion``: its
    states, enabled actions and labels are kept, and its rows are the
    outcome table. A row with one outcome keeps probability 1 on it; in a
    row with more, the intended outcome (the region its control aims for)
    gets the success probability and the wrong ones equal shares of the
    rest, shares of 0 dropped.
    """
    pairs = pair_states(env)
    pair_cur = np.array([cur for _prev, cur in pairs], dtype=np.int64)
    size = np.diff(nts.row_ptr)
    multi = np.flatnonzero(size > 1).tolist()
    row_state, row_action = nts.row_state.tolist(), nts.row_action.tolist()
    # Each row's intended region and success probability; a row with one
    # outcome aims for it and succeeds surely.
    aim = pair_cur[nts.succ[nts.row_ptr[:-1]]]
    row_eta = np.ones(len(size))
    eta: dict[int, float] = {}
    last = targets = None
    for r in multi:
        q, u = row_state[r], row_action[r]
        if u not in eta:
            eta[u] = noise.success_probability(ACTIONS[u])
        if q != last:
            last, targets = q, _targets(env, pairs[q])
        aim[r], row_eta[r] = targets[ACTIONS[u]], eta[u]
    slip = (1.0 - row_eta) / np.maximum(size - 1, 1)
    entry_row = nts.entry_row
    hit = pair_cur[nts.succ] == aim[entry_row]
    weight = np.where(hit, row_eta[entry_row], slip[entry_row])
    if noise.mc_runs:
        # Monte-Carlo frequencies over (intended, wrong...) with positive
        # probability, drawn per row as transition_probs does.
        for r in multi:
            own = np.arange(nts.row_ptr[r], nts.row_ptr[r + 1])
            order = np.concatenate((own[hit[own]], own[~hit[own]]))
            order = order[weight[order] > 0]
            prev, cur = pairs[row_state[r]]
            rng = np.random.default_rng([noise.seed, prev, cur, row_action[r]])
            outcomes = rng.choice(len(order), size=noise.mc_runs, p=weight[order].tolist())
            weight[own] = 0.0
            weight[order] = np.bincount(outcomes, minlength=len(order)) / noise.mc_runs
    keep = weight > 0
    return LabeledModel(
        n_states=nts.n_states,
        initial=nts.initial,
        actions=nts.actions,
        props=nts.props,
        labels=nts.labels,
        mode=MDP,
        state_ptr=nts.state_ptr,
        row_action=nts.row_action,
        row_ptr=_ptr(np.bincount(entry_row[keep], minlength=len(size))),
        succ=nts.succ[keep],
        weight=weight[keep],
        state_names=nts.state_names,
    )
