"""Exact dynamic programming used as ground truth.

The solvers read a model's own CSR arrays: its (state, action) rows
grouped by state in ascending action order, and each row's (successor,
probability) entries. A policy is one probability per row, in that order,
so the policy-averaged kernel is a set of COO arrays built without a
per-state loop; a deterministic policy is one-hot.

Maximal reachability is solved on the free states only, those neither in
the target nor in the zero set: only their values are unknown (Baier &
Katoen, *Principles of Model Checking*, 10.6). ``_FreeBellman`` builds that
sub-system once per call: the free states' rows, each row's constant mass
into the fixed states, and the entries between free states re-indexed to
free positions. Its one Bellman kernel serves value iteration from zero
(monotone), the greedy extraction and the final certificate. A
policy-iteration polish follows the value iteration: the greedy policy is
extracted, evaluated exactly by a linear solve, and re-extracted until
stable, so the returned value is exact to solver precision rather than to
the sweep residual. Greedy extraction breaks ties toward actions that make
progress to the target set (within ties, lowest action id), and gives every
free state that can reach the targets an action that makes progress,
optimal or not when no optimal one does (progress is measured in the
attractor layers of two backward searches, ``synthesis._layers``). The
policy is then proper even where a coarse value iteration left value 0,
and the polish ends at the optimum whatever tolerance (``VALUE_TOL``) the
warm start stopped at. The result is certified: its Bellman residual over
the free states must be at most ``RESIDUAL_TOL``. Both loops and the
certificate raise ``ModelError`` when they fail.

Policy evaluation first drops the states whose policy support cannot
reach the targets, which keeps (I - P) x = b nonsingular on the rest. The
work that depends only on the policy's support (the entries of positive
weight) is a plan: the unknown states, and how to solve for them. A
``ReachEvaluator`` keeps the plan of the last support it saw and reuses it
only when the next policy's support is equal to it, checked on every call;
the lookahead policy's support does not move with theta, so a run of
periodic evaluations builds one plan.

Up to ``DENSE_LIMIT`` unknowns the plan is sparse Gaussian elimination
on [I - P | b], the state elimination of probabilistic model checking
(Daws, ICTAC 2004). It takes its pivots in waves of independent sets:
low-cost states first, where the cost is the Markowitz count (in-degree
times out-degree among the states left, self-loops excluded) and ties go
to the lower position. It stops at ``CORE_LIMIT`` unknowns, or at a rest
above ``DENSE_REST`` that is a quarter dense, and that core takes one
dense solve. Every entry, fill-in included, owns a slot of one flat
array, so a solve is one ``bincount`` that writes (I - P), a few
vectorized operations per wave, the core's LU and a back substitution.
No pivoting is needed: (I - P) on the unknowns is a nonsingular M-matrix,
as every unknown reaches the targets, so every Schur complement keeps
positive pivots. A core of at most ``CORE_LIMIT`` unknowns is factored on
one thread (OpenBLAS threads an LU from 10,000 entries), but a
``DENSE_REST`` stop leaves larger cores, whose last bits then depend on
the BLAS thread count: the k=16 road lattice's (map seed 0) theta0
lookahead plan has a 130-state core, and one against two OpenBLAS threads
changed 2,012 of the 49,101 values at thetas (5, -0.5), (0, 0) and (0, -5)
(16,367 product states each) by at most 4.4e-16. Above ``DENSE_LIMIT`` the
fixed-point iteration x <- b + P x runs until no component moves by more
than ``VALUE_TOL``. Expected total costs use the same plans, built per
call.

The solvers take no tolerance, sweep or size keywords: each call reads the
module constants below (``VALUE_TOL``, ``MAX_SWEEPS``, ``DENSE_LIMIT``,
``CORE_LIMIT``, ``DENSE_REST``), which is also how tests force a path or
a cap.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .models import BLOCK_ROWS, LabeledModel, MDP, ModelError, _ptr
from .synthesis import SspModel, _closure, _distinct, _expand, _layers, _members

VALUE_TOL = 1e-12
DENSE_LIMIT = 5000  # most unknowns of an elimination plan; above it, the fixed point
CORE_LIMIT = 64  # most unknowns left to the dense core by the elimination
DENSE_REST = 128  # a rest larger than this goes to the core once a quarter dense
MAX_SWEEPS = 10 ** 6
POLISH_ROUNDS = 100
RESIDUAL_TOL = 1e-9  # bound on max |max_u Q(v) - v| over the free states


class PolicyDivergence(RuntimeError):
    """Expected total cost diverges: the policy never reaches the terminal."""


def _sweep(step, n: int, what: str) -> np.ndarray:
    """x <- step(x) from x = 0 in R^n until no entry moves by more than
    ``VALUE_TOL``; ``what`` names the iteration in the error raised after
    ``MAX_SWEEPS`` sweeps."""
    x = np.zeros(n)
    for _ in range(MAX_SWEEPS):
        nxt = step(x)
        delta = np.abs(nxt - x).max(initial=0.0)
        x = nxt
        if delta <= VALUE_TOL:
            return x
    raise ModelError(f"{what} did not converge within {MAX_SWEEPS} sweeps")


def _weights(m: LabeledModel, probs: np.ndarray) -> np.ndarray:
    """The policy kernel's weight on every entry of ``m``, for ``probs``
    one probability per row of ``m``."""
    if probs.shape != m.row_action.shape:
        raise ModelError(f"row policy has shape {probs.shape}, "
                         f"the model has {len(m.row_action)} rows")
    return probs[m.entry_row] * m.weight


def require_defined(m: LabeledModel, probs: np.ndarray, needed: np.ndarray) -> None:
    """Raise unless the policy puts mass on some row of every ``needed`` state."""
    mass = np.add.reduceat(probs, m.state_ptr[:-1])
    missing = np.flatnonzero(needed & ~(mass > 0))
    if missing.size:
        raise ModelError(f"policy undefined at states {missing[:5].tolist()}")


def _edges(m: LabeledModel, support: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, sources and successors of the entries in the ``support`` mask,
    in entry order; entries of one (source, successor) pair are not merged."""
    ids = np.flatnonzero(support)
    return ids, m.row_state[m.entry_row[ids]], m.succ[ids]


# One wave of an elimination plan, as slots of the plan's flat array
# (``_Plan._wave`` says what each field holds).
_Wave = namedtuple("_Wave", "col col_diag upd_col upd_row tgt upd_tgt piv diag rhs row_k row row_v")


class _Plan:
    """How to solve (I - P) x = b on ``unknown`` (ascending, the order of
    ``solve``'s result) for every policy with one support, given as the
    positive kernel entries ``ids`` with their sources ``src`` and
    successors ``dst``. Entries from an unknown into ``is_target`` make up
    ``target_rhs``. The elimination's ``waves`` are None above
    ``DENSE_LIMIT`` unknowns, where ``solve`` iterates x <- b + P x instead.
    """

    def __init__(self, unknown: np.ndarray, ids: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, is_target: np.ndarray):
        n = len(unknown)
        pos = np.full(len(is_target), -1)
        pos[unknown] = np.arange(n)
        i, j = pos[src], pos[dst]
        into = (i >= 0) & is_target[dst]
        self.into_pos, self.into_ids = i[into], ids[into]
        inner = (i >= 0) & (j >= 0)
        i, j, ids = i[inner], j[inner], ids[inner]
        self.unknown, self.waves = unknown, None
        if n > DENSE_LIMIT:
            self.i, self.j, self.ids = i, j, ids
            return
        # Entry (u, v) has the key u * m + v, where column n is b; ``key``
        # and ``slot`` hold the entries of the rows not yet eliminated,
        # ascending by key.
        m = n + 1
        diag, rhs = np.arange(n) * (m + 1), np.arange(n) * m + n
        key = _distinct(np.concatenate((i * m + j, diag, rhs)))
        slot = np.arange(len(key))
        self.entry_ids, self.entry_slot = ids, np.searchsorted(key, i * m + j)
        self.rhs_slot = np.searchsorted(key, rhs)
        diag_slot = np.searchsorted(key, diag)
        self.n_slots, self.waves = len(key), []
        alive, left = np.arange(m) < n, n
        # A rest above DENSE_REST unknowns that holds a quarter of a dense
        # block's entries goes to the dense solve as well: its waves would
        # be single pivots, each rewriting a block's worth of fill.
        while left > CORE_LIMIT and (left <= DENSE_REST or 4 * (len(key) - left) < left * left):
            key, slot = self._wave(n, key, slot, alive)
            left = int(alive.sum())
        self.ident = np.zeros(self.n_slots)
        self.ident[diag_slot] = 1.0
        self.core = np.flatnonzero(alive)
        at = np.full(m, -1)
        at[self.core] = np.arange(len(self.core))
        block = key % m < n
        self.core_slot = slot[block]
        self.core_at = at[key[block] // m] * len(self.core) + at[key[block] % m]

    def _wave(self, n: int, key: np.ndarray, slot: np.ndarray, alive: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Plan one wave over the pattern ``key``/``slot`` of the rows still
        ``alive``, clear its pivots from ``alive`` and return the pattern
        left.

        A state's priority is (cost, position). The pivots ``piv`` share no
        edge, so their eliminations touch disjoint rows and columns, and
        their updates only add up. Their columns (u, s) sit in the slots
        ``col``, with the pivots' diagonals in ``col_diag``; the Schur
        update subtracts column ``upd_col`` (a position in ``col``) times
        the row slot ``upd_row`` from the slot ``tgt[upd_tgt]``. The back
        substitution reads each pivot's diagonal ``diag`` and right-hand
        side ``rhs`` and its rows (s, v): the slots ``row`` at the columns
        ``row_v``, of the pivots ``piv[row_k]``."""
        m = n + 1
        u, v = key // m, key % m
        off = u != v
        edge = off & (v < n)
        src, dst = u[edge], v[edge]
        prio = np.bincount(src, minlength=m) * np.bincount(dst, minlength=m) * m + np.arange(m)
        # Two rounds, each taking the free states whose priority is below
        # every free neighbour's; a state next to one taken is not free.
        # Rounds until no state is free saved no wave on desk and made its
        # solves slower.
        big = np.iinfo(np.int64).max
        chosen, free = np.zeros(m, dtype=bool), alive.copy()
        for _ in range(2):
            p = np.where(free, prio, big)
            low = np.full(m, big)
            np.minimum.at(low, src, p[dst])
            np.minimum.at(low, dst, p[src])
            new = free & (p < low)
            chosen |= new
            free &= ~new
            free[dst[new[src]]] = False
            free[src[new[dst]]] = False
        piv = np.flatnonzero(chosen)
        # Columns (u, s) grouped by pivot s, rows (s, v) b included; each
        # pair of them updates (u, v), which may be new fill.
        col = np.flatnonzero(edge & chosen[v])
        col = col[np.argsort(v[col], kind="stable")]
        row = np.flatnonzero(off & chosen[u])
        col_s, row_v = v[col], v[row]
        upd_col, upd_row = _expand(_ptr(np.bincount(u[row], minlength=m)), col_s)
        tkey = u[col][upd_col] * m + row_v[upd_row]
        at = np.minimum(np.searchsorted(key, tkey), len(key) - 1)
        found = key[at] == tkey
        fresh = _distinct(tkey[~found])
        tslot = np.where(found, slot[at], self.n_slots + np.searchsorted(fresh, tkey))
        fresh_slot = self.n_slots + np.arange(len(fresh))
        self.n_slots += len(fresh)
        tgt = _distinct(tslot)
        diag = slot[np.searchsorted(key, piv * (m + 1))]
        back = row[row_v < n]
        self.waves.append(_Wave(
            slot[col], np.repeat(diag, np.bincount(col_s, minlength=m)[piv]),
            upd_col, slot[row][upd_row], tgt, np.searchsorted(tgt, tslot),
            piv, diag, self.rhs_slot[piv], np.searchsorted(piv, u[back]), slot[back], v[back]))
        alive[piv] = False
        keep = ~(chosen[u] | chosen[v])
        key = np.concatenate((key[keep], fresh))
        slot = np.concatenate((slot[keep], fresh_slot))
        order = np.argsort(key, kind="stable")
        return key[order], slot[order]

    def target_rhs(self, w: np.ndarray) -> np.ndarray:
        """Probability of stepping into a target, per unknown."""
        return np.bincount(self.into_pos, weights=w[self.into_ids], minlength=len(self.unknown))

    def solve(self, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x with (I - P) x = rhs, where P has weight ``w[e]`` on entry e."""
        n = len(self.unknown)
        if self.waves is None:
            i, j, w = self.i, self.j, w[self.ids]
            return _sweep(lambda x: rhs + np.bincount(i, weights=w * x[j], minlength=n), n,
                          "fixed-point iteration")
        a = self.ident - np.bincount(self.entry_slot, weights=w[self.entry_ids],
                                     minlength=self.n_slots)
        a[self.rhs_slot] = rhs
        for wave in self.waves:
            lc = a[wave.col] / a[wave.col_diag]
            a[wave.tgt] -= np.bincount(wave.upd_tgt, weights=lc[wave.upd_col] * a[wave.upd_row],
                                       minlength=len(wave.tgt))
        k = len(self.core)
        block = np.zeros(k * k)
        block[self.core_at] = a[self.core_slot]
        x = np.empty(n)
        x[self.core] = np.linalg.solve(block.reshape(k, k), a[self.rhs_slot[self.core]])
        for wave in reversed(self.waves):
            known = np.bincount(wave.row_k, weights=a[wave.row] * x[wave.row_v],
                                minlength=len(wave.piv))
            x[wave.piv] = (a[wave.rhs] - known) / a[wave.diag]
        return x


class ReachEvaluator:
    """Exact reachability values of fixed policies on one MDP-mode model
    for one (targets, zeros) pair.

    The plan of the last policy support is kept, and reused for the next
    policy only when that policy's support is the same.
    """

    def __init__(self, m: LabeledModel, targets: frozenset[int], zeros: frozenset[int]):
        if m.mode != MDP:
            raise ModelError("policy evaluation needs an MDP-mode model")
        self.model = m
        self.is_target = _members(targets, m.n_states)
        is_zero = _members(zeros, m.n_states)
        self.free = ~(self.is_target | is_zero)
        self._support: np.ndarray | None = None
        self._plan: _Plan | None = None

    def values(self, probs: np.ndarray) -> np.ndarray:
        """Exact reachability value at every state of the policy ``probs``,
        one probability per row of the model.

        Boundary: 1 on targets, 0 on zeros; states whose policy support
        cannot reach the targets are 0 as well (that preprocessing is what
        keeps the linear system nonsingular).
        """
        w = _weights(self.model, probs)
        require_defined(self.model, probs, self.free)
        support = w > 0
        if self._support is None or not np.array_equal(support, self._support):
            ids, src, dst = _edges(self.model, support)
            unknown = np.flatnonzero(_closure(src, dst, self.is_target) & self.free)
            self._plan = _Plan(unknown, ids, src, dst, self.is_target)
            self._support = support
        plan = self._plan
        v = self.is_target.astype(float)
        if not plan.unknown.size:
            return v
        v[plan.unknown] = plan.solve(w, plan.target_rhs(w))
        return np.clip(v, 0.0, 1.0)


class _FreeBellman:
    """The maximal-reachability Bellman operator restricted to the ``free``
    states, whose values are the unknowns; every other state keeps its
    value in ``boundary`` (1 on targets, 0 on zeros).

    ``states`` are the free states, ascending, and ``rows`` their rows,
    grouped by state; the rows of ``states[k]`` start at ``rows[starts[k]]``.
    A row's entries into fixed states fold into one constant, ``fixed``;
    its entries between free states are kept as (row position ``i``, free
    position ``j``, weight ``w``). ``ranks`` holds, for each r >= 1, the
    free positions k of the states with more than r rows and the
    positions ``starts[k] + r`` of their rows number r (counting from 0).
    """

    def __init__(self, m: LabeledModel, free: np.ndarray, boundary: np.ndarray):
        self.states = np.flatnonzero(free)
        counts = m.state_ptr[self.states + 1] - m.state_ptr[self.states]
        self.starts = np.cumsum(counts) - counts
        self.rows = _expand(m.state_ptr, self.states)[1]
        self.ranks = []
        for r in range(1, int(counts.max(initial=0))):
            k = np.flatnonzero(counts > r)
            self.ranks.append((k, self.starts[k] + r))
        i, ents = _expand(m.row_ptr, self.rows)
        cols = m.succ[ents]
        pos = np.full(len(free), -1)
        pos[self.states] = np.arange(len(self.states))
        j = pos[cols]
        inner = j >= 0
        out = ~inner
        self.fixed = np.bincount(i[out], weights=m.weight[ents[out]] * boundary[cols[out]],
                                 minlength=len(self.rows))
        self.i, self.j, self.w = i[inner], j[inner], m.weight[ents[inner]]

    def q(self, x: np.ndarray) -> np.ndarray:
        """Q value of every free row, given the free states' values ``x``."""
        return self.fixed + np.bincount(self.i, weights=self.w * x[self.j],
                                        minlength=len(self.rows))

    def state_max(self, q: np.ndarray) -> np.ndarray:
        """The largest of each free state's row values ``q``: one
        elementwise maximum per row rank, which costs less than
        ``np.maximum.reduceat``'s per-segment loop when states have few
        rows."""
        best = q[self.starts]
        for k, rows in self.ranks:
            best[k] = np.maximum(best[k], q[rows])
        return best

    def best(self, x: np.ndarray) -> np.ndarray:
        """One Bellman sweep: max_u Q at every free state."""
        return self.state_max(self.q(x))

    def residual(self, v: np.ndarray) -> float:
        """max |max_u Q(v) - v| over the free states."""
        x = v[self.states]
        return float(np.abs(self.best(x) - x).max(initial=0.0))


def max_reach(m: LabeledModel, targets: frozenset[int], zeros: frozenset[int]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Maximal probability of reaching ``targets`` and an optimal
    deterministic policy as one-hot row probabilities; value is 1 on
    targets and 0 on ``zeros``. The warm start sweeps until no value moves
    by more than ``VALUE_TOL``, for at most ``MAX_SWEEPS`` sweeps."""
    if m.mode != MDP:
        raise ModelError("max_reach needs an MDP-mode model")
    if targets & zeros:
        raise ModelError("target and zero sets intersect")
    reach = ReachEvaluator(m, targets, zeros)
    is_target = reach.is_target
    bellman = _FreeBellman(m, reach.free, is_target.astype(float))

    v = is_target.astype(float)
    v[bellman.states] = _sweep(bellman.best, len(bellman.states), "value iteration")

    # Policy-iteration polish: greedy extraction + exact evaluation until
    # the policy repeats.
    def evaluate(choice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = _one_hot(m, choice)
        return rows, reach.values(rows)

    prev = None
    choice = _attractor_greedy(m, bellman, v, is_target)
    for _ in range(POLISH_ROUNDS):
        rows, v = evaluate(choice)
        refreshed = _attractor_greedy(m, bellman, v, is_target)
        if np.array_equal(refreshed, choice):
            break
        if prev is not None and np.array_equal(refreshed, prev):
            choice = refreshed
            rows, v = evaluate(choice)
            break
        prev, choice = choice, refreshed
    else:
        raise ModelError(f"policy-iteration polish did not settle within {POLISH_ROUNDS} rounds")
    residual = bellman.residual(v)
    if residual > RESIDUAL_TOL:
        raise ModelError(f"the polished values miss the Bellman equation by {residual:.3g} "
                         f"(bound {RESIDUAL_TOL:g})")
    return v, rows


def _one_hot(m: LabeledModel, rows) -> np.ndarray:
    """The deterministic policy that takes ``rows`` (one per state), as
    one probability per row of ``m``."""
    probs = np.zeros(len(m.row_action))
    probs[rows] = 1.0
    return probs


def _attractor_greedy(m: LabeledModel, bellman: _FreeBellman, v: np.ndarray,
                      is_target: np.ndarray) -> np.ndarray:
    """The greedy row of every state under the values ``v``, whose Q
    values come from ``bellman``. Fixed states take their lowest action.

    Free states are placed in attractor layers from the targets by two
    backward searches (``synthesis._layers``). Pass 1 follows the optimal
    rows of the states of positive value; pass 2, seeded at the targets and
    the states pass 1 placed, follows every row of the free states left.
    A row progresses when its successors' smallest layer is below its
    state's layer, both from the state's own pass (unplaced counts as
    +inf). A placed state takes its lowest optimal progressing row, and in
    pass 2, when it has none, its lowest progressing row. Only free states
    that cannot reach the targets keep their lowest action, so the policy
    never holds a free state in a component that avoids the targets (value
    iteration stopped early leaves value 0 on states that can reach them).
    """
    rows = bellman.rows
    q_vals = bellman.q(v[bellman.states])
    best_of_row = np.repeat(bellman.state_max(q_vals), np.diff(bellman.starts, append=len(rows)))
    optimal = q_vals >= best_of_row - 1e-12
    owner = m.row_state[rows]
    at, ents = _expand(m.row_ptr, rows)
    src, dst = owner[at], m.succ[ents]
    row_start = np.flatnonzero(np.diff(at, prepend=-1))
    choice = m.state_ptr[:-1].copy()

    def take(ok: np.ndarray) -> None:
        """Each state's lowest row in ``ok`` becomes its choice."""
        hit = np.flatnonzero(ok)
        hit = hit[np.diff(owner[hit], prepend=-1) != 0]
        choice[owner[hit]] = rows[hit]

    def place(edges: np.ndarray, seeds: np.ndarray, fallback: bool) -> np.ndarray:
        """Layer the free states over the rows in ``edges`` from ``seeds``,
        choose the placed states' rows, and return the placed mask."""
        keep = edges[at]
        layer = _layers(src[keep], dst[keep], seeds)
        placed = layer > 0
        layer[layer < 0] = m.n_states
        progress = placed[owner] & (np.minimum.reduceat(layer[dst], row_start) < layer[owner])
        if fallback:
            take(progress)
        take(progress & optimal)
        return placed

    first = place(optimal & (v[owner] > 0.0), is_target, False)
    place(~first[owner], is_target | first, True)
    return choice


def eval_policy_reach(evaluator: ReachEvaluator, probs: np.ndarray) -> float:
    """Probability that the policy ``probs`` (one probability per row of
    the evaluator's model) reaches the evaluator's targets from the
    model's initial state. Repeated calls on one evaluator keep its plan
    while the support repeats."""
    return float(evaluator.values(probs)[evaluator.model.initial])


def expected_total_cost(ssp: SspModel, probs: np.ndarray) -> float:
    """Expected total cost of a proper policy ``probs`` (one probability
    per row of the SSP's model) on an MDP-mode SSP.

    Raises PolicyDivergence when some state reachable under the policy
    cannot reach the terminal (the cost then diverges, which corresponds
    to reachability probability 0 for the restart construction).
    """
    m = ssp.base
    if m.mode != MDP:
        raise ModelError("expected cost needs an MDP-mode model")
    w = _weights(m, probs)
    ids, src, dst = _edges(m, w > 0)
    live = src != ssp.terminal
    reachable = _closure(dst[live], src[live], _members([m.initial], m.n_states))
    reachable[ssp.terminal] = False
    require_defined(m, probs, reachable)
    proper = _closure(src, dst, _members([ssp.terminal], m.n_states))
    trapped = np.flatnonzero(reachable & ~proper)
    if trapped.size:
        raise PolicyDivergence(
            f"expected total cost diverges: states {trapped[:5].tolist()} never reach the terminal")
    unknown = np.flatnonzero(reachable)
    if not unknown.size:
        return 0.0
    # No targets: the terminal's value is 0 and each state pays its own cost.
    plan = _Plan(unknown, ids, src, dst, np.zeros(m.n_states, dtype=bool))
    cost = _members(ssp.bad, m.n_states).astype(float)  # 1 at restart states
    sol = plan.solve(w, cost[plan.unknown])
    return float(sol[np.flatnonzero(plan.unknown == m.initial)[0]])


def write_value_csv(f, values: np.ndarray) -> None:
    """``state,value`` lines in the csv module's dialect (``\\r\\n`` line
    ends), each value as its float ``repr``, ``BLOCK_ROWS`` states at a
    time."""
    f.write("state,value\r\n")
    for lo in range(0, len(values), BLOCK_ROWS):
        f.writelines(f"{q},{val!r}\r\n"
                     for q, val in enumerate(values[lo:lo + BLOCK_ROWS].tolist(), lo))
