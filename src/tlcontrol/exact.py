"""Exact dynamic programming used as ground truth.

Every model is flattened once into CSR arrays (``flat_rows``): its
(state, action) rows grouped by state in ascending action order, and each
row's (successor, probability) entries. A policy is one probability per
row, so the policy-averaged kernel is a set of COO arrays built without a
per-state loop; a ``StationaryPolicy`` is converted to that form.

Maximal reachability is solved by value iteration from zero (monotone,
after removing the zero-probability set) followed by a policy-iteration
polish: the greedy policy is extracted, evaluated exactly by a linear
solve, and re-extracted until stable, so the returned value is exact to
solver precision rather than to the sweep residual. Greedy extraction
breaks ties toward actions that make progress to the target set (within
ties, lowest action id), which keeps the policy proper. Both loops raise
``ModelError`` when they reach their caps.

Policy evaluation first drops the states whose policy support cannot
reach the targets, which keeps (I - P) x = b nonsingular on the rest. Up
to ``DENSE_LIMIT`` unknowns the system is solved densely; above it by the
fixed-point iteration x <- b + P x, stopped once no component moves by
more than ``VALUE_TOL``.
"""

from __future__ import annotations

import csv
import itertools
import math
import weakref
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .models import LabeledModel, MDP, ModelError, StationaryPolicy
from .synthesis import SspModel

VALUE_TOL = 1e-12
DENSE_LIMIT = 5000
MAX_SWEEPS = 10 ** 6
POLISH_ROUNDS = 100


class PolicyDivergence(RuntimeError):
    """Expected total cost diverges: the policy never reaches the terminal."""


class FlatRows(NamedTuple):
    """A model's enabled (state, action) rows in CSR form.

    Rows are grouped by state in ascending action order, so the first row
    of a state carries its lowest action id.
    """

    entry_row: np.ndarray  # row of each (successor, probability) entry
    row_state: np.ndarray
    row_action: np.ndarray
    row_ptr: np.ndarray  # entries of row r: row_ptr[r]:row_ptr[r + 1]
    state_ptr: np.ndarray  # rows of state q: state_ptr[q]:state_ptr[q + 1]
    cols: np.ndarray  # successor of each entry
    vals: np.ndarray  # weight of each entry


# Models are immutable and unhashable, so their flattened rows are memoized
# by identity; the entry is dropped when the model is collected, before its
# id can be reused.
_FLAT: dict[int, FlatRows] = {}


def flat_rows(m: LabeledModel) -> FlatRows:
    """The model's CSR rows, built once per model instance."""
    flat = _FLAT.get(id(m))
    if flat is None:
        flat = _FLAT[id(m)] = _flatten(m)
        weakref.finalize(m, _FLAT.pop, id(m), None)
    return flat


def _flatten(m: LabeledModel) -> FlatRows:
    row_state, row_action, row_len, cols, vals = [], [], [], [], []
    for q in range(m.n_states):
        for u in sorted(m.enabled[q]):
            edges = m.transitions[(q, u)]
            row_state.append(q)
            row_action.append(u)
            row_len.append(len(edges))
            for succ, w in edges:
                cols.append(succ)
                vals.append(w)
    row_len = np.array(row_len, dtype=np.int64)
    state_ptr = np.zeros(m.n_states + 1, dtype=np.int64)
    np.cumsum([len(acts) for acts in m.enabled], out=state_ptr[1:])
    return FlatRows(
        entry_row=np.repeat(np.arange(len(row_len)), row_len),
        row_state=np.array(row_state, dtype=np.int64),
        row_action=np.array(row_action, dtype=np.int64),
        row_ptr=np.concatenate(([0], np.cumsum(row_len))),
        state_ptr=state_ptr,
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(vals, dtype=float))


def _mask(n: int, states: Iterable[int]) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[np.fromiter(states, dtype=np.int64)] = True
    return out


def row_probabilities(m: LabeledModel,
                      policy: StationaryPolicy | np.ndarray) -> np.ndarray:
    """``policy`` as one probability per row of ``flat_rows(m)``; an array
    is taken to be in that form already. Entries of probability 0 are
    ignored, positive mass on a disabled action is an error."""
    flat = flat_rows(m)
    n_rows = len(flat.row_state)
    if isinstance(policy, np.ndarray):
        if policy.shape != (n_rows,):
            raise ModelError(f"row policy has shape {policy.shape}, the model has {n_rows} rows")
        return policy
    probs = np.zeros(n_rows)
    entries = [(q, u, p) for q, dist in policy.table.items()
               for u, p in dist.items() if p > 0]
    if not entries:
        return probs
    q, u, p = (np.array(col) for col in zip(*entries))
    n_actions = len(m.actions)
    keys = flat.row_state * n_actions + flat.row_action
    want = q * n_actions + u
    pos = np.minimum(np.searchsorted(keys, want), n_rows - 1)
    disabled = (keys[pos] != want) | (u < 0) | (u >= n_actions)
    if disabled.any():
        k = int(np.argmax(disabled))
        raise ModelError(f"policy uses disabled action {u[k]} at state {q[k]}")
    probs[pos] = p
    return probs


def _require_defined(flat: FlatRows, probs: np.ndarray, needed: np.ndarray) -> None:
    """Raise unless the policy puts mass on some row of every ``needed`` state."""
    mass = np.add.reduceat(probs, flat.state_ptr[:-1])
    missing = np.flatnonzero(needed & ~(mass > 0))
    if missing.size:
        raise ModelError(f"policy undefined at states {missing[:5].tolist()}")


def _kernel(flat: FlatRows, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Policy-averaged kernel as COO arrays (source, successor, weight) with
    zero-weight entries dropped; entries of one (source, successor) pair are
    not merged."""
    w = probs[flat.entry_row] * flat.vals
    keep = w > 0
    return flat.row_state[flat.entry_row[keep]], flat.cols[keep], w[keep]


def _closure(src: np.ndarray, dst: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Mask of the states with an edge path (src -> dst) into the ``seeds``
    mask, seeds included; backward frontier propagation."""
    order = np.argsort(dst, kind="stable")
    pred = src[order]
    ptr = np.searchsorted(dst[order], np.arange(len(seeds) + 1))
    reach = seeds.copy()
    frontier = np.flatnonzero(reach)
    while frontier.size:
        lo = ptr[frontier]
        n = ptr[frontier + 1] - lo
        prev = pred[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
        frontier = np.unique(prev[~reach[prev]])
        reach[frontier] = True
    return reach


def _solve(unknown: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray,
           rhs: np.ndarray, n_states: int, dense_limit: int) -> np.ndarray:
    """Solve (I - P) x = rhs restricted to the ``unknown`` states."""
    n = len(unknown)
    pos = np.full(n_states, -1)
    pos[unknown] = np.arange(n)
    i, j = pos[src], pos[dst]
    inner = (i >= 0) & (j >= 0)
    i, j, w = i[inner], j[inner], w[inner]
    if n <= dense_limit:
        a = np.eye(n)
        np.add.at(a, (i, j), -w)
        return np.linalg.solve(a, rhs)
    x = np.zeros(n)
    for _ in range(MAX_SWEEPS):
        nxt = rhs + np.bincount(i, weights=w * x[j], minlength=n)
        delta = np.abs(nxt - x).max()
        x = nxt
        if delta <= VALUE_TOL:
            return x
    raise ModelError(f"fixed-point iteration did not converge within {MAX_SWEEPS} sweeps")


def _reach_values(m: LabeledModel, probs: np.ndarray, is_target: np.ndarray,
                  is_zero: np.ndarray, dense_limit: int) -> np.ndarray:
    src, dst, w = _kernel(flat_rows(m), probs)
    v = is_target.astype(float)
    unknown = np.flatnonzero(_closure(src, dst, is_target) & ~is_target & ~is_zero)
    if not unknown.size:
        return v
    into = is_target[dst]
    rhs = np.bincount(src[into], weights=w[into], minlength=m.n_states)[unknown]
    v[unknown] = _solve(unknown, src, dst, w, rhs, m.n_states, dense_limit)
    return np.clip(v, 0.0, 1.0)


def max_reach(m: LabeledModel, targets: frozenset[int], zeros: frozenset[int],
              *, tol: float = VALUE_TOL, max_sweeps: int = MAX_SWEEPS,
              dense_limit: int = DENSE_LIMIT) -> tuple[np.ndarray, StationaryPolicy]:
    """Maximal probability of reaching ``targets`` and an optimal
    deterministic policy; value is 1 on targets and 0 on ``zeros``."""
    if m.mode != MDP:
        raise ModelError("max_reach needs an MDP-mode model")
    if targets & zeros:
        raise ModelError("target and zero sets intersect")
    flat = flat_rows(m)
    is_target = _mask(m.n_states, targets)
    is_zero = _mask(m.n_states, zeros)
    free = ~(is_target | is_zero)

    v = is_target.astype(float)
    for _ in range(max_sweeps):
        q_vals = np.add.reduceat(flat.vals * v[flat.cols], flat.row_ptr[:-1])
        best = np.maximum.reduceat(q_vals, flat.state_ptr[:-1])
        nxt = np.where(free, best, v)
        delta = np.abs(nxt - v).max()
        v = nxt
        if delta <= tol:
            break
    else:
        raise ModelError(f"value iteration did not converge within {max_sweeps} sweeps")

    # Policy-iteration polish: greedy extraction + exact evaluation until
    # the policy repeats.
    def evaluate(choice: np.ndarray) -> np.ndarray:
        probs = np.zeros(len(flat.row_state))
        probs[choice] = 1.0
        return _reach_values(m, probs, is_target, is_zero, dense_limit)

    prev = None
    choice = _attractor_greedy(flat, v, free, is_target)
    for _ in range(POLISH_ROUNDS):
        v = evaluate(choice)
        refreshed = _attractor_greedy(flat, v, free, is_target)
        if np.array_equal(refreshed, choice):
            break
        if prev is not None and np.array_equal(refreshed, prev):
            choice = refreshed
            v = evaluate(choice)
            break
        prev, choice = choice, refreshed
    else:
        raise ModelError(f"policy-iteration polish did not settle within {POLISH_ROUNDS} rounds")
    table = {q: {u: 1.0} for q, u in enumerate(flat.row_action[choice].tolist())}
    return v, StationaryPolicy(kind="deterministic", table=table)


def _attractor_greedy(flat: FlatRows, v: np.ndarray, free: np.ndarray,
                      is_target: np.ndarray) -> np.ndarray:
    """The greedy row of every state. Fixed and value-0 states take their
    lowest action; the others take, in attractor layers from the targets,
    their lowest optimal action with a possible successor in an earlier
    layer."""
    starts = flat.state_ptr[:-1]
    q_vals = np.add.reduceat(flat.vals * v[flat.cols], flat.row_ptr[:-1])
    best = np.maximum.reduceat(q_vals, starts)
    choice = starts.copy()
    pending = free & (v > 0.0)
    optimal = (q_vals >= best[flat.row_state] - 1e-12) & pending[flat.row_state]
    rows = np.arange(len(q_vals))
    none = len(q_vals)
    layered = is_target.copy()
    while pending.any():
        progress = optimal & np.logical_or.reduceat(layered[flat.cols], flat.row_ptr[:-1])
        first = np.minimum.reduceat(np.where(progress, rows, none), starts)
        assigned = first < none
        if not assigned.any():
            # Remaining optimal-value states cannot progress (value must be
            # 0 there up to solver noise); pin them down deterministically.
            first = np.minimum.reduceat(np.where(optimal, rows, none), starts)
            choice[pending] = first[pending]
            break
        choice[assigned] = first[assigned]
        layered |= assigned
        pending &= ~assigned
        optimal &= pending[flat.row_state]
    return choice


def policy_reach_vector(m: LabeledModel, policy: StationaryPolicy | np.ndarray,
                        targets: frozenset[int], zeros: frozenset[int],
                        *, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """Exact reachability value of a fixed policy, all states.

    ``policy`` is a ``StationaryPolicy`` or one probability per row of
    ``flat_rows(m)``. Boundary: 1 on targets, 0 on ``zeros``; states whose
    policy support cannot reach the targets are 0 as well (that
    preprocessing is what keeps the linear system nonsingular).
    """
    if m.mode != MDP:
        raise ModelError("policy evaluation needs an MDP-mode model")
    probs = row_probabilities(m, policy)
    is_target = _mask(m.n_states, targets)
    is_zero = _mask(m.n_states, zeros)
    _require_defined(flat_rows(m), probs, ~(is_target | is_zero))
    return _reach_values(m, probs, is_target, is_zero, dense_limit)


def eval_policy_reach(m: LabeledModel, policy: StationaryPolicy | np.ndarray,
                      targets: frozenset[int], zeros: frozenset[int]) -> float:
    """Probability that ``policy`` reaches ``targets`` from the initial state."""
    return float(policy_reach_vector(m, policy, targets, zeros)[m.initial])


def expected_total_cost(ssp: SspModel, policy: StationaryPolicy | np.ndarray,
                        *, dense_limit: int = DENSE_LIMIT) -> float:
    """Expected total cost of a proper policy on an MDP-mode SSP.

    Raises PolicyDivergence when some state reachable under the policy
    cannot reach the terminal (the cost then diverges, which corresponds
    to reachability probability 0 for the restart construction).
    """
    m = ssp.base
    if m.mode != MDP:
        raise ModelError("expected cost needs an MDP-mode model")
    flat = flat_rows(m)
    probs = row_probabilities(m, policy)
    src, dst, w = _kernel(flat, probs)
    live = src != ssp.terminal
    reachable = _closure(dst[live], src[live], _mask(m.n_states, [m.initial]))
    reachable[ssp.terminal] = False
    _require_defined(flat, probs, reachable)
    proper = _closure(src, dst, _mask(m.n_states, [ssp.terminal]))
    trapped = np.flatnonzero(reachable & ~proper)
    if trapped.size:
        raise PolicyDivergence(
            f"expected total cost diverges: states {trapped[:5].tolist()} never reach the terminal")
    unknown = np.flatnonzero(reachable)
    if not unknown.size:
        return 0.0
    rhs = np.array([ssp.cost(q) for q in unknown.tolist()])
    sol = _solve(unknown, src, dst, w, rhs, m.n_states, dense_limit)
    return float(sol[np.searchsorted(unknown, m.initial)])


def enumerate_policies(m: LabeledModel, limit: int = 10 ** 6) -> Iterator[StationaryPolicy]:
    """Every deterministic stationary policy, exactly once."""
    count = math.prod(len(acts) for acts in m.enabled)
    if count > limit:
        raise ModelError(f"{count} deterministic policies exceed the cap of {limit}")
    for choice in itertools.product(*m.enabled):
        yield StationaryPolicy(
            kind="deterministic",
            table={q: {u: 1.0} for q, u in enumerate(choice)})


def write_value_csv(f, values: np.ndarray) -> None:
    writer = csv.writer(f)
    writer.writerow(["state", "value"])
    for q, val in enumerate(values):
        writer.writerow([q, repr(float(val))])
