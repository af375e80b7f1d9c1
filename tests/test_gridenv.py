import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dict_reference as ref
from tlcontrol.gridenv import (
    _DIRS,
    ACTIONS,
    MapError,
    NoiseModel,
    build_mdp,
    build_nts,
    parse_map,
    transition_rows,
)
from tlcontrol.models import MDP, NTS, LabeledModel
from dict_reference import model_rows
from conftest import lattice_map

STRIP = """
#####
#...#
#####
legend
a: up
"""

PLUS = """
#####
##.##
#...#
##.##
#####
legend
a: up
"""

TEE = """
#####
#...#
##.##
#####
legend
a: up
start 1,2 2,2
"""

FOURWAY = """
#######
###.###
###.###
#.....#
###.###
###.###
#######
legend
a: up
"""


def region_names(env, kind=None):
    """The regions' names by id: intersections ``I<n>`` first, then
    corridors ``C<n>``."""
    names = {"intersection": [f"I{i + 1}" for i in range(env.n_cross)],
             "corridor": [f"C{i + 1}" for i in range(len(env.labels) - env.n_cross)]}
    return names[kind] if kind else names["intersection"] + names["corridor"]


def pair_list(env):
    return [tuple(pair) for pair in env.pairs.tolist()]


def production_rows(env, noise, confusion="uniform"):
    """The map's NTS under ``confusion`` and its noise rows as the pipeline
    obtains them: ``row(pair, action name)`` is the lazy row over
    (previous, current) pairs, checked against the same row of
    ``build_mdp``."""
    nts = build_nts(env, confusion)
    mdp = build_mdp(env, noise, nts)
    lazy = transition_rows(env, noise, nts)
    pairs = pair_list(env)

    def row(pair, action):
        q, u = pairs.index(pair), ACTIONS.index(action)
        got = lazy(q, u)
        assert got == mdp.successors(q, u)
        return tuple((pairs[succ], p) for succ, p in got)

    return nts, row


def test_strip_is_single_corridor():
    env = parse_map(STRIP)
    assert region_names(env, "intersection") == []
    assert region_names(env, "corridor") == ["C1"]
    assert env.cell_region.tolist() == [[-1] * 5, [-1, 0, 0, 0, -1], [-1] * 5]


def test_plus_is_one_intersection_with_four_arms():
    env = parse_map(PLUS)
    assert region_names(env, "intersection") == ["I1"]
    assert len(region_names(env, "corridor")) == 4
    center = 0  # intersections are numbered first
    assert (env.arms[center] >= 0).sum() == 4
    assert (env.pairs[:, 0] == center).sum() == 4


def map_error(text):
    """The message of the MapError that parsing ``text`` raises."""
    with pytest.raises(MapError) as err:
        parse_map(text)
    return str(err.value)


def test_map_errors():
    with pytest.raises(MapError, match="rectangular"):
        parse_map("####\n#.#\nlegend\nstart 1,1 1,2")
    with pytest.raises(MapError, match="unknown legend symbol"):
        parse_map("#####\n#.z.#\n#####\nlegend\na: up\nstart 1,1 1,2")
    # Two directly adjacent intersections (no corridor between them).
    grid = """
#######
##..###
#.....#
##..###
#######
legend
a: up
start 2,1 2,2
"""
    assert map_error(grid) == "corridor-free intersection adjacency between (2, 2) and (2, 3)"
    with pytest.raises(MapError, match="missing 'legend'"):
        parse_map("#####\n#...#\n#####")
    # The open cell (2, 2) lies on the last row, so a row index of -1 would
    # wrap around to it; (2, 2) and (1, 2) are adjacent regions.
    tee = "#####\n#...#\n##.##\nlegend\n"
    assert parse_map(tee + "start 2,2 1,2").start == (3, 0)
    for text, message in [
            ("legend\nstart 1,1 1,2", "empty grid"),
            (STRIP + "upload\n", "bad legend line 'upload'"),
            (STRIP + "ab: up\n", "bad legend key 'ab'"),
            (STRIP + "start 1,1\n", "expected 'start r1,c1 r2,c2'"),
            (STRIP + "start 1;1 1,2\n", "bad cell coordinate '1;1'"),
            (STRIP + "start 0,1 1,1\n", "start cells ((0, 1), (1, 1)) are not both open"),
            (STRIP + "start 1,1 1,5\n", "start cells ((1, 1), (1, 5)) are not both open"),
            (tee + "start -1,2 1,2", "start cells ((-1, 2), (1, 2)) are not both open"),
            (STRIP + "start 1,1 1,3\n", "start cells lie in the same region"),
            (STRIP + "@0,1: up\n", "legend key @0,1 is not an open cell"),
            (STRIP + "@1,9: up\n", "legend key @1,9 is not an open cell"),
            (tee + "@-1,2: up", "legend key @-1,2 is not an open cell")]:
        assert map_error(text) == message, text
    # A corridor region with more than two neighbors has no far end: with
    # no intersections counted, the four-way crossing is corridor C1.
    env = parse_map(FOURWAY.replace("legend", "legend\nstart 4,3 3,3"))
    with pytest.raises(MapError, match="corridor C1 has an ambiguous far end"):
        build_nts(dataclasses.replace(env, n_cross=0))


def test_spaceless_comment_line_is_skipped():
    env = parse_map("#note\n" + STRIP.lstrip() + "#also:a-note\n")
    assert env.grid == parse_map(STRIP).grid
    assert region_names(env, "corridor") == ["C1"]


def test_marker_row_starting_with_a_wall_is_grid():
    # "#v..n" holds only walls, open floor and legend markers.
    env = parse_map("######\n#v..n#\n######\nlegend\nv: vd\nn: un\n")
    assert env.grid[1] == "#v..n#"
    env = parse_map("#v..n\n#####\nlegend\nv: vd\nn: un\n")
    assert env.grid == ("#v..n", "#####")


def test_dead_end_follow_road_turns_around():
    env = parse_map(TEE)
    node = 0  # the one intersection: intersections are numbered first
    stub = int(env.cell_region[2, 2])
    nts, row = production_rows(env, NoiseModel(eta=1.0))
    state = pair_list(env).index((node, stub))
    assert nts.enabled[state] == (ACTIONS.index("FollowRoad"),)
    assert row((node, stub), "FollowRoad") == (((stub, node), 1.0),)


def test_four_way_enabled_and_uniform_confusion():
    env = parse_map(FOURWAY.replace("legend", "legend\nstart 4,3 3,3"))
    node = 0  # the one intersection: intersections are numbered first
    south = int(env.cell_region[4, 3])   # arm the robot came from
    pair = (south, node)
    # Uniform mode: intended 0.9, uniform slip over the 2 wrong arms.
    nts, row = production_rows(env, NoiseModel(eta=0.9), "uniform")
    assert [ACTIONS[u] for u in nts.enabled[pair_list(env).index(pair)]] == [
        "GoLeft", "GoRight", "GoStraight"]
    dist = dict(row(pair, "GoLeft"))
    west = int(env.cell_region[3, 1])
    east = int(env.cell_region[3, 5])
    north = int(env.cell_region[1, 3])
    assert dist[(node, west)] == pytest.approx(0.9)
    assert dist[(node, east)] == pytest.approx(0.05)
    assert dist[(node, north)] == pytest.approx(0.05)


def test_undershoot_confusion_distinguishes_controls():
    env = parse_map(FOURWAY.replace("legend", "legend\nstart 4,3 3,3"))
    node = 0  # the one intersection: intersections are numbered first
    south = int(env.cell_region[4, 3])
    pair = (south, node)
    west = int(env.cell_region[3, 1])
    north = int(env.cell_region[1, 3])
    _nts, row = production_rows(env, NoiseModel(eta=0.9), "undershoot")
    left = dict(row(pair, "GoLeft"))
    assert left == {(node, west): 0.9, (node, north): pytest.approx(0.1)}
    straight = dict(row(pair, "GoStraight"))
    assert straight == {(node, north): 1.0}


def test_disabled_action_rejected():
    env = parse_map(FOURWAY.replace("legend", "legend\nstart 4,3 3,3"))
    node = 0  # the one intersection: intersections are numbered first
    south = int(env.cell_region[4, 3])
    nts = build_nts(env)
    row = transition_rows(env, NoiseModel(), nts)
    state = pair_list(env).index((south, node))
    # A lazy row for an action the state does not enable, or for a state
    # out of range, is a map error.
    with pytest.raises(MapError, match="not enabled"):
        row(state, ACTIONS.index("FollowRoad"))
    with pytest.raises(MapError, match="not enabled"):
        row(nts.n_states, 0)


def test_desk_map_golden_counts():
    env = parse_map(open("tasks/desk.map").read())
    assert len(region_names(env, "intersection")) == 20
    assert len(region_names(env, "corridor")) == 38
    nts = build_nts(env, "undershoot")
    assert nts.n_states == 144
    assert nts.n_enabled_pairs() == 244
    assert sorted(env.props) == ["rd", "ri", "un", "up", "vd"]
    # The region-id grid covers every open cell and marks walls -1; every
    # region holds at least one cell, an intersection exactly one.
    is_open = np.array([[ch != "#" for ch in row] for row in env.grid])
    assert np.array_equal(env.cell_region >= 0, is_open)
    assert (env.cell_region[~is_open] == -1).all()
    size = np.bincount(env.cell_region[is_open], minlength=len(env.labels))
    # No intersection pair is adjacent to another intersection.
    for r in range(len(env.labels)):
        adjacent = env.pairs[env.pairs[:, 0] == r, 1].tolist()
        if r < env.n_cross:
            assert size[r] == 1
            assert 3 <= len(adjacent) <= 4
            for other in adjacent:
                assert other >= env.n_cross
            # Its arms are its neighbour cells' regions, one per direction,
            # in the order north, east, south, west; -1 on a wall side.
            (row, col), = np.argwhere(env.cell_region == r).tolist()
            assert env.arms[r].tolist() == [
                int(env.cell_region[row + d[0], col + d[1]])
                for d in ((-1, 0), (0, 1), (1, 0), (0, -1))]
            assert sorted(a for a in env.arms[r].tolist() if a >= 0) == adjacent
        else:
            assert size[r] >= 1
            assert env.arms[r].tolist() == [-1] * 4
            assert 1 <= len(adjacent) <= 2


@pytest.mark.parametrize("confusion", ["uniform", "undershoot"])
def test_support_consistency_on_desk_map(confusion):
    env = parse_map(open("tasks/desk.map").read())
    nts, row = production_rows(env, NoiseModel(eta=0.9), confusion)
    pairs = pair_list(env)
    for i, pair in enumerate(pairs):
        for u in nts.enabled[i]:
            dist = row(pair, ACTIONS[u])
            got = tuple(sorted(pairs.index(succ) for succ, p in dist if p > 0))
            assert got == nts.support(i, u)


def test_markov_pair_encoding():
    env = parse_map(open("tasks/desk.map").read())
    pairs = pair_list(env)
    # Every ordered pair of distinct regions with side-sharing cells.
    grid = env.cell_region.tolist()
    touching = {(grid[r][c], grid[r + dr][c + dc]) for r in range(len(grid))
                for c in range(len(grid[0])) for dr, dc in ((0, 1), (1, 0))
                if r + dr < len(grid) and c + dc < len(grid[0])}
    assert pairs == sorted({(a, b) for a, b in touching | {(b, a) for a, b in touching}
                            if a != b and min(a, b) >= 0})
    assert not env.pairs.flags.writeable
    nts = build_nts(env)
    for i, (prev, cur) in enumerate(pairs):
        for u in nts.enabled[i]:
            for succ in nts.support(i, u):
                succ_prev, _succ_cur = pairs[succ]
                assert succ_prev == cur


def test_build_mdp_rows_sum_to_one():
    env = parse_map(open("tasks/desk.map").read())
    for mc in (None, 500):
        m = build_mdp(env, NoiseModel(eta=0.9, mc_runs=mc),
                      build_nts(env, "undershoot"))
        for key, row in model_rows(m).items():
            assert abs(sum(w for _, w in row) - 1.0) <= 1e-9


def test_monte_carlo_mode_is_deterministic_and_consistent():
    env = parse_map(open("tasks/desk.map").read())
    noise = NoiseModel(eta=0.8, mc_runs=2000, seed=4)
    nts, row = production_rows(env, noise)
    _nts, again = production_rows(env, noise)
    _nts, exact = production_rows(env, NoiseModel(eta=0.8))
    checked = 0
    for i, pair in enumerate(pair_list(env)):
        for u in nts.enabled[i]:
            d1 = row(pair, ACTIONS[u])
            assert d1 == again(pair, ACTIONS[u])
            ref = dict(exact(pair, ACTIONS[u]))
            for succ, p in d1:
                assert succ in ref
                assert abs(p - ref[succ]) <= 5 * np.sqrt(0.25 / 2000)
            checked += 1
    assert checked > 100


def test_start_validation():
    env_text = open("tasks/desk.map").read()
    bad = env_text.replace("start 10,1 9,1", "start 10,1 3,3")
    with pytest.raises(MapError, match="not adjacent"):
        parse_map(bad)
    nostart = "\n".join(ln for ln in env_text.splitlines() if not ln.startswith("start"))
    env = parse_map(nostart)
    assert env.start is None
    with pytest.raises(MapError, match="no 'start' line"):
        build_nts(env)


# The per-control noise model the outcome table replaced, worked out from
# the cells of the per-cell reference parse (``dict_reference.parse_map``,
# a ``DictMap``) alone: the independent row-by-row oracle of the builds.

def _turns(ref_map, pair):
    """The turn controls at an intersection pair state, in ``ACTIONS``
    order, each with the region it aims for."""
    prev, cur = pair
    (row, col), = ref_map.regions[cur].cells
    (dr, dc), = [(r - row, c - col) for reg in [ref_map.regions[prev]] for r, c in reg.cells
                 if abs(r - row) + abs(c - col) == 1]
    heading = (-dr, -dc)
    aims = {"GoLeft": (-heading[1], heading[0]), "GoRight": (heading[1], -heading[0]),
            "GoStraight": heading}
    return {name: ref_map.cell_region[(row + d[0], col + d[1])] for name, d in aims.items()
            if (row + d[0], col + d[1]) in ref_map.cell_region}


def enabled_actions(ref_map, pair):
    if ref_map.regions[pair[1]].kind == "corridor":
        return ["FollowRoad"]
    return list(_turns(ref_map, pair))


def outcome_support(ref_map, pair, action, confusion="uniform"):
    """(intended region, wrong-but-feasible regions) for one control."""
    prev, cur = pair
    if action not in enabled_actions(ref_map, pair):
        raise MapError(f"{action} is not enabled at {ref_map.regions[cur].name}")
    if ref_map.regions[cur].kind == "corridor":
        ends = [reg for reg in ref_map.adjacency[cur] if reg != prev]
        # Dead ends turn the robot around.
        return (ends[0] if ends else prev), ()
    turns = _turns(ref_map, pair)
    if confusion == "uniform":
        return turns[action], tuple(sorted(aim for name, aim in turns.items()
                                           if name != action))
    straight = turns.get("GoStraight")
    return turns[action], (() if action == "GoStraight" or straight is None else (straight,))


def transition_probs(ref_map, noise, confusion, pair, action):
    """Outcome distribution over successor pair states for one control."""
    prev, cur = pair
    intended, wrong = outcome_support(ref_map, pair, action, confusion)
    if not wrong:
        dist = [((cur, intended), 1.0)]
    else:
        slip = (1.0 - noise.eta) / len(wrong)
        dist = [((cur, intended), noise.eta)] + [((cur, out), slip) for out in wrong]
        dist = [(succ, p) for succ, p in dist if p > 0]
    if noise.mc_runs:
        rng = np.random.default_rng([noise.seed, prev, cur, ACTIONS.index(action)])
        outcomes = rng.choice(len(dist), size=noise.mc_runs, p=[p for _, p in dist])
        counts = np.bincount(outcomes, minlength=len(dist))
        dist = [(succ, count / noise.mc_runs)
                for (succ, _), count in zip(dist, counts) if count]
    return tuple(sorted(dist))


def reference_models(ref_map, noise, confusion):
    """The NTS and MDP of a map built row by row through ``LabeledModel.from_rows``
    from its reference parse ``ref_map``: each row's support from
    ``outcome_support``, its probabilities from ``transition_probs``, its
    labels from the reference's region observations."""
    pairs = ref_map.pairs
    index = {pair: i for i, pair in enumerate(pairs)}
    nts_rows, mdp_rows = {}, {}
    for i, pair in enumerate(pairs):
        for name in enabled_actions(ref_map, pair):
            key = (i, ACTIONS.index(name))
            intended, wrong = outcome_support(ref_map, pair, name, confusion)
            nts_rows[key] = [(index[(pair[1], out)], 1.0) for out in {intended, *wrong}]
            mdp_rows[key] = [(index[succ], p) for succ, p in
                             transition_probs(ref_map, noise, confusion, pair, name)]
    common = dict(
        n_states=len(pairs), initial=index[ref_map.start], actions=ACTIONS,
        props=ref_map.props,
        labels=[sum(1 << ref_map.props.index(obs) for obs in ref_map.region_obs[cur])
                for _prev, cur in pairs],
        state_names=tuple(f"{ref_map.regions[p].name}-{ref_map.regions[c].name}" for p, c in pairs))
    return (LabeledModel.from_rows(nts_rows, mode=NTS, **common),
            LabeledModel.from_rows(mdp_rows, mode=MDP, **common))


NOISES = {
    "eta": dict(eta=0.9),
    "sure": dict(eta=1.0),  # slips of probability 0 are dropped
    "per-action": dict(eta=0.7),  # a second slip value; the id keeps the suite's test ids
    "mc-runs": dict(eta=0.8, mc_runs=300, seed=5),
}


@pytest.mark.parametrize("k", [0, 4, 8, 12])
@pytest.mark.parametrize("confusion", ["uniform", "undershoot"])
@pytest.mark.parametrize("noise", sorted(NOISES))
def test_outcome_table_builds_match_row_by_row_reference(k, confusion, noise):
    text = lattice_map(k) if k else open("tasks/desk.map").read()
    env = parse_map(text)
    noise = NoiseModel(**NOISES[noise])
    want_nts, want_mdp = reference_models(ref.parse_map(text), noise, confusion)
    nts = build_nts(env, confusion)
    mdp = build_mdp(env, noise, nts)
    assert nts == want_nts
    assert mdp == want_mdp
    # The lazy rows are the materialized ones.
    row = transition_rows(env, noise, nts)
    assert all(row(q, u) == mdp.successors(q, u) for q, u in mdp.enabled_pairs())


def test_build_mdp_checks_the_success_probability():
    env = parse_map(FOURWAY.replace("legend", "legend\nstart 4,3 3,3"))
    nts = build_nts(env)
    with pytest.raises(MapError, match="outside"):
        build_mdp(env, NoiseModel(eta=0.0), nts)
    with pytest.raises(MapError, match="outside"):
        build_mdp(env, NoiseModel(eta=1.5), nts)


# The array partition against the per-cell reference parse.

LEGEND = ("a: up", "é: un vd", "q: ri")  # "é" is not ASCII; "q" marks no cell


@st.composite
def map_texts(draw):
    """A random grid of walls, floor and the legend's markers, now and then
    with an unknown symbol, plus 0-2 ``@`` keys and mostly a start line.
    Their cells are mostly open, sometimes on a wall or off the grid (by
    one, negative included); a start often begins at a cell with three open
    neighbours and steps to an open neighbour."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    symbols = st.sampled_from("######....aé" + ("" if draw(st.integers(0, 9)) else "z"))
    rows = ["".join(draw(st.lists(symbols, min_size=w, max_size=w))) for _ in range(h)]
    open_cells = [(r, c) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch != "#"]
    crossings = [(r, c) for r, c in open_cells
                 if sum((r + dr, c + dc) in open_cells for dr, dc in _DIRS) >= 3]

    def cell():
        if open_cells and draw(st.integers(0, 5)):
            return draw(st.sampled_from(open_cells))
        return draw(st.integers(-1, h)), draw(st.integers(-1, w))

    lines = ["legend", *LEGEND]
    lines += [f"@{r},{c}: rd" for r, c in (cell() for _ in range(draw(st.integers(0, 2))))]
    if draw(st.integers(0, 4)):
        r1, c1 = draw(st.sampled_from(crossings)) if crossings and draw(st.booleans()) else cell()
        step = [(r1 + dr, c1 + dc) for dr, dc in _DIRS if (r1 + dr, c1 + dc) in open_cells]
        r2, c2 = draw(st.sampled_from(step)) if step and draw(st.integers(0, 3)) else cell()
        lines.append(f"start {r1},{c1} {r2},{c2}")
    return "\n".join(rows + lines)


def parsed(parse, text):
    """``parse(text)``, or the message of the MapError it raises."""
    try:
        return parse(text)
    except MapError as err:
        return f"MapError: {err}"


def assert_same_partition(env, want):
    """The array map ``env`` holds the reference parse ``want``."""
    n_cross = sum(r.kind == "intersection" for r in want.regions)
    assert env.n_cross == n_cross and len(env.labels) == len(want.regions)
    assert [(r.ident, r.kind, r.name) for r in want.regions] == [
        (i, "intersection" if i < n_cross else "corridor", name)
        for i, name in enumerate(region_names(env))]
    assert {cell: int(reg) for cell, reg in np.ndenumerate(env.cell_region)
            if reg >= 0} == want.cell_region
    assert set(env.cell_region[env.cell_region < 0].tolist()) <= {-1}
    assert pair_list(env) == want.pairs
    arms = [[-1] * len(_DIRS) for _ in want.regions]
    for reg, by_dir in want.arms.items():
        for d, other in by_dir.items():
            arms[reg][_DIRS.index(d)] = other
    assert env.arms.tolist() == arms
    assert env.props == want.props
    assert env.labels.tolist() == [sum(1 << want.props.index(obs) for obs in want.region_obs[reg])
                                   for reg in range(len(want.regions))]
    assert env.start == want.start


@settings(max_examples=400, deadline=None)
@given(text=map_texts())
@example(text="#####\n#aéq#\n#####\nlegend\n" + "\n".join(LEGEND) + "\nstart 1,1 1,3")
@example(text="###\n#..\n#.#\nlegend\n" + "\n".join(LEGEND))  # an L-bend: horizontal run first
@example(text="#######\n###.###\n#é..a.#\n###.###\nlegend\n" + "\n".join(LEGEND)
         + "\n@1,3: rd\n@2,3: vd\nstart 1,3 2,3")
def test_array_partition_matches_the_per_cell_reference(text):
    env, want = parsed(parse_map, text), parsed(ref.parse_map, text)
    if isinstance(want, str):
        assert env == want
    else:
        assert_same_partition(env, want)


@pytest.mark.parametrize("k", [0, 3, 4, 8, 20])
def test_array_partition_matches_the_reference_on_shipped_maps(k):
    text = lattice_map(k) if k else open("tasks/desk.map").read()
    assert_same_partition(parse_map(text), ref.parse_map(text))
