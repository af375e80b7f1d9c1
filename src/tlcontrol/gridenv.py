"""Corridor/intersection maps and their pair-state motion models.

Map file format: a grid (``#`` wall, ``.`` open, any other character an
open cell carrying a legend marker), then a ``legend`` section binding
markers or the ``@row,col`` coordinates of open cells to observation names,
then a start line naming one cell in the previous region and one in the
current region:

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

``parse_map`` reads the grid as one array of code points and builds the
partition as arrays, from shifted copies of the grid's masks and region
ids: the region-id grid (``EnvMap.cell_region``), each intersection's arms
(``EnvMap.arms``), each region's observation bitmask (``EnvMap.labels``)
and the sorted motion states (``EnvMap.pairs``). The control rule is one
array, ``_aim_table``: the region each control aims for at each motion
state. ``build_nts`` is the map's one outcome table, joins over that array
written as the possibilistic model's CSR rows. The noise model is defined
once, as weights over a set of those rows (``_row_weights``, which reads
each row's intended region off the aim table): ``build_mdp`` weighs every
row, and ``transition_rows``, the lazy provider of a run that builds no
MDP, weighs one row per query, so the two give the same rows bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import LabeledModel, NTS, MDP, _ptr
from .synthesis import _distinct, _expand

ACTIONS = ("FollowRoad", "GoLeft", "GoRight", "GoStraight")

_DIRS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # N, E, S, W


class MapError(ValueError):
    """Malformed map file or infeasible query against it."""


@dataclass(frozen=True)
class EnvMap:
    """A parsed map. Regions are numbered intersections first: regions
    0..n_cross-1 are the intersections I1, I2, ..., the rest the corridors
    C1, C2, ..."""

    grid: tuple[str, ...]
    n_cross: int
    cell_region: np.ndarray  # (rows, cols): each cell's region ident, -1 on a wall
    # (n_regions, 4): the region beyond each side of an intersection, sides
    # in _DIRS order; -1 on a wall side and on every corridor row
    arms: np.ndarray
    labels: np.ndarray  # (n_regions,): each region's observations, a bitmask over props
    pairs: np.ndarray  # (n, 2): the sorted (previous, current) motion states
    props: tuple[str, ...]
    start: tuple[int, int] | None  # (previous region, current region)


def _is_comment(line: str, grid_chars: set[str]) -> bool:
    """Whether a line before the legend is a comment: it starts with '#',
    holds a character that is neither wall, open floor nor a marker, and
    does not end in a wall. A walled row with a mistyped marker therefore
    stays a grid row, and fails as one."""
    body = line.rstrip()
    return body.startswith("#") and not body.endswith("#") and not set(body) <= grid_chars


def _read_map(text: str) -> tuple[list[str], dict, dict, tuple | None]:
    """The grid rows of a map file, its legend's marker and ``@row,col``
    bindings (marker or cell -> observations) and its start cells; no cell
    is checked against the grid yet."""
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
    return grid, marker_obs, cell_obs, start_cells


def parse_map(text: str) -> EnvMap:
    grid, marker_obs, cell_obs, start_cells = _read_map(text)
    h, w = len(grid), len(grid[0])
    # Code points, not bytes: a marker may be any character.
    code = np.frombuffer("".join(grid).encode("utf-32-le", "surrogatepass"),
                         dtype="<u4").reshape(h, w)
    is_open = code != ord("#")
    marked = {marker: code == ord(marker) for marker in marker_obs}
    unknown = is_open & (code != ord("."))
    for at in marked.values():
        unknown &= ~at
    if unknown.any():
        r, c = divmod(int(np.flatnonzero(unknown)[0]), w)
        raise MapError(f"unknown legend symbol {grid[r][c]!r} at {(r, c)}")

    def open_at(r: int, c: int) -> bool:  # a negative index must not wrap around
        return 0 <= r < h and 0 <= c < w and bool(is_open[r, c])

    for r, c in cell_obs:
        if not open_at(r, c):
            raise MapError(f"legend key @{r},{c} is not an open cell")

    def sides(a: np.ndarray, wall) -> list[np.ndarray]:
        """Each cell's neighbour in ``a`` on every side, in _DIRS order;
        ``wall`` beyond the border."""
        pad = np.full((h + 2, w + 2), wall, dtype=a.dtype)
        pad[1:-1, 1:-1] = a
        return [pad[1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc] for dr, dc in _DIRS]

    crossing = is_open & (sum(sides(is_open, False)) >= 3)
    near = sides(crossing, False)
    touching = crossing & (near[0] | near[1] | near[2] | near[3])
    if touching.any():
        r, c = divmod(int(np.flatnonzero(touching)[0]), w)
        dr, dc = next(d for d, at in zip(_DIRS, near) if at[r, c])
        raise MapError(f"corridor-free intersection adjacency between {(r, c)} "
                       f"and {(r + dr, c + dc)}")

    # Corridor groups: horizontal runs of two or more cells, then vertical
    # runs of the cells left over. A run's head is its first cell; the
    # groups are numbered after the crossings, in row-major order of heads.
    corridor = is_open & ~crossing
    _n, east, _s, west = sides(corridor, False)
    across = corridor & (east | west)
    down = corridor & ~across
    head_across, head_down = across & ~sides(across, False)[3], down & ~sides(down, False)[0]
    n_cross = int(np.count_nonzero(crossing))
    number = n_cross - 1 + np.cumsum(head_across | head_down).reshape(h, w)
    cell_region = np.full((h, w), -1, dtype=np.int64)
    cell_region[crossing] = np.arange(n_cross)
    # A run's cells follow its head in row-major order (column-major for a
    # vertical run, read through the transposes).
    for region, head, cells, at_head in ((cell_region, head_across, across, number),
                                         (cell_region.T, head_down.T, down.T, number.T)):
        region[cells] = at_head[head][np.cumsum(head)[cells.ravel()] - 1]
    n_regions = n_cross + int(np.count_nonzero(head_across | head_down))

    # Motion states: every ordered pair of regions that share a side.
    around = sides(cell_region, -1)
    codes = _distinct(np.concatenate([(cell_region * n_regions + side)[
        (cell_region >= 0) & (side >= 0) & (side != cell_region)] for side in around]))
    arms = np.full((n_regions, len(_DIRS)), -1, dtype=np.int64)
    arms[:n_cross] = np.stack([side[crossing] for side in around], axis=1)

    # Observations bound to regions; a marker on no cell adds no proposition.
    bound = [(cell_region[at], marker_obs[m]) for m, at in marked.items() if at.any()]
    bound += [(cell_region[cell], obs) for cell, obs in cell_obs.items()]
    props = tuple(sorted(set().union(*(obs for _where, obs in bound))))
    labels = np.zeros(n_regions, dtype=np.int64)
    for where, obs in bound:
        labels[where] |= sum(1 << props.index(name) for name in obs)

    start = None
    if start_cells is not None:
        if not all(open_at(*cell) for cell in start_cells):
            raise MapError(f"start cells {start_cells} are not both open")
        start = tuple(int(cell_region[cell]) for cell in start_cells)
        if start[0] == start[1]:
            raise MapError("start cells lie in the same region")
        if start[0] * n_regions + start[1] not in codes:
            raise MapError("start regions are not adjacent")

    pairs = np.stack(np.divmod(codes, max(n_regions, 1)), axis=1)
    for array in (cell_region, arms, labels, pairs):
        array.flags.writeable = False
    return EnvMap(grid=tuple(grid), n_cross=n_cross, cell_region=cell_region, arms=arms,
                  labels=labels, pairs=pairs, props=props, start=start)


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
    n_regions = len(env.labels)
    corridor = np.arange(n_regions) >= env.n_cross
    # The pairs are sorted, so region r's neighbors are the current
    # regions of the pairs ptr[r]:ptr[r + 1].
    ptr = np.searchsorted(prev, np.arange(n_regions + 1))
    ambiguous = np.flatnonzero(corridor & (np.diff(ptr) > 2))
    if ambiguous.size:
        raise MapError(f"corridor C{ambiguous[0] - env.n_cross + 1} has an ambiguous far end")
    table = np.full((len(cur), len(ACTIONS)), -1, dtype=np.int64)
    # A corridor has one or two neighbors, so its far end is first + last -
    # prev: prev itself at a dead end.
    road = corridor[cur]
    table[road, 0] = (cur[ptr[cur]] + cur[ptr[cur + 1] - 1] - prev)[road]
    # An intersection pair and the arm it came from; left, right, straight.
    crossing, came = np.nonzero(env.arms[cur] == prev[:, None])
    table[crossing, 1:] = env.arms[cur[crossing, None], (came[:, None] + 2 + (3, 1, 0)) % 4]
    return table


def build_nts(env: EnvMap, confusion: str = "uniform") -> LabeledModel:
    """Possibilistic pair-state model of the environment under the
    ``confusion`` mode.

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
    n_regions = len(env.labels)
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
    names = ([f"I{i}" for i in range(1, env.n_cross + 1)]
             + [f"C{i}" for i in range(1, n_regions - env.n_cross + 1)])
    return LabeledModel(
        n_states=len(codes),
        initial=initial,
        actions=ACTIONS,
        props=env.props,
        labels=env.labels[cur],
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
    seeded per (state, action) so repeated queries agree; it must be at
    least 1, and None keeps the closed form."""

    eta: float = 0.9
    mc_runs: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise MapError(f"success probability {self.eta} outside (0, 1]")
        if self.mc_runs is not None and self.mc_runs < 1:
            raise MapError(f"Monte-Carlo run count {self.mc_runs} is below 1")


def _row_weights(env: EnvMap, noise: NoiseModel, nts: LabeledModel, aims: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noise model over the NTS rows ``rows`` (ascending row ids): the
    entries it gives positive probability, in order, and their
    probabilities.

    ``nts`` is a ``build_nts`` model of the map, under either confusion
    mode, and ``aims`` its ``_aim_table``; each row's outcomes are its
    entries in ``nts``. A row with one outcome keeps probability 1
    on it; in a row with more, the intended outcome (the region its
    control aims for) gets ``noise.eta`` and the wrong ones equal shares
    of the rest. With ``mc_runs`` a row with more outcomes
    holds the frequencies of that many draws over its (intended, wrong...)
    outcomes of positive probability, from a generator seeded with
    (``noise.seed``, pair state, action id).
    """
    cur = env.pairs[:, 1]
    size = nts.row_ptr[rows + 1] - nts.row_ptr[rows]
    owner, entry = _expand(nts.row_ptr, rows)
    states, actions = nts.row_state[rows], nts.row_action[rows]
    multi = size > 1
    row_eta = np.where(multi, noise.eta, 1.0)  # one outcome succeeds surely
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
            r = nts.row(state, action)
        except KeyError:
            raise MapError(f"action {action} is not enabled at pair state {state}") from None
        entry, weight = _row_weights(env, noise, nts, aims, np.array([r]))
        return tuple(zip(nts.succ[entry].tolist(), weight.tolist()))

    return row


def build_mdp(env: EnvMap, noise: NoiseModel, nts: LabeledModel) -> LabeledModel:
    """Materialize the full probabilistic model (for the exact oracles; a
    run without them reads single rows through ``transition_rows``): the
    states, enabled actions and labels of ``nts``, a ``build_nts`` model of
    the map under either confusion mode, with the rows ``_row_weights``
    gives over its outcomes."""
    entry, weight = _row_weights(env, noise, nts, _aim_table(env),
                                 np.arange(nts.n_enabled_pairs()))
    return dataclasses.replace(
        nts, mode=MDP, succ=nts.succ[entry], weight=weight,
        row_ptr=_ptr(np.bincount(nts.entry_row[entry], minlength=nts.n_enabled_pairs())))
