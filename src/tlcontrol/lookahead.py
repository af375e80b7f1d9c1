"""Multi-step lookahead softmax policy over a possibilistic SSP.

The policy scores every length-t action sequence from the current state by
two features computed from possibilistic reachability alone: the summed
safety score of reachable neighborhood states, and the summed change in
goal distance over the same states. Sequence scores exp(theta . f) are
normalized into a distribution and marginalized onto first actions; the
log-policy gradient has the closed form

    psi(i, u) = E[f | first action = u] - E[f]

with expectations under the sequence softmax. Features do not depend on
theta, so per-state tables are built once (lazily) and reused as theta
moves. Sequences are listed lexicographically, so each first action's
sequences are one contiguous slice of its state's table; a static
per-state index maps an action to that slice.

A state's softmax weights at one theta form a record that
``action_distribution``, ``sample_action`` and ``log_policy_gradient`` all
read: the actor-critic asks for the same state two or three times at one
theta. Records are keyed on theta's bytes, so in-place edits of ``theta``
are seen, and only the current theta's last two states are held, so a
sweep over every state leaves nothing behind. The overall feature mean and
the action probabilities are computed on first request. Every number is
formed by the same floating-point operations, in the same order, as a
fresh computation would use.

A whole-policy request (``policy_rows``) concatenates the tables of every
non-terminal state into flat arrays once; each later request is then one
matmul and a segment softmax over them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

import numpy as np

from .models import LabeledModel, ModelError
from .synthesis import SspModel


class SequenceCapExceeded(RuntimeError):
    """Lookahead expansion produced more sequences than the configured cap."""


def min_distances(
    m: LabeledModel, targets: Iterable[int], blocked_sources: frozenset[int] = frozenset()
) -> np.ndarray:
    """Minimum possibilistic step count from every state to ``targets``.

    Multi-source BFS on the reversed edge relation (any enabled action);
    unreachable states map to inf. Edges leaving ``blocked_sources`` are
    ignored.
    """
    targets = set(targets)
    if not targets:
        raise ModelError("min_distances needs a nonempty target set")
    reverse: dict[int, list[int]] = {q: [] for q in range(m.n_states)}
    for (q, _u), row in m.transitions.items():
        if q in blocked_sources:
            continue
        for succ, _ in row:
            reverse[succ].append(q)
    dist = np.full(m.n_states, np.inf)
    queue = deque()
    for t in targets:
        dist[t] = 0.0
        queue.append(t)
    while queue:
        q = queue.popleft()
        for prev in reverse[q]:
            if not np.isfinite(dist[prev]):
                dist[prev] = dist[q] + 1.0
                queue.append(prev)
    return dist


def neighborhood(m: LabeledModel, state: int, radius: int) -> frozenset[int]:
    """States within forward possibilistic distance ``radius`` of ``state``."""
    if radius < 1:
        raise ModelError("neighborhood radius must be >= 1")
    seen = {state}
    frontier = [state]
    for _ in range(radius):
        nxt = []
        for q in frontier:
            for u in m.enabled[q]:
                for succ, _ in m.transitions[(q, u)]:
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def action_sequences(
    m: LabeledModel, state: int, horizon: int, cap: int = 10_000
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


class _Sweep(NamedTuple):
    """Every non-terminal state's sequence table as flat arrays."""

    seq_start: np.ndarray  # first sequence of each state
    seq_count: np.ndarray
    group_start: np.ndarray  # first sequence of each (state, first action) group
    state_group_start: np.ndarray  # first group of each state
    state_group_count: np.ndarray
    feats: np.ndarray  # feature pair of each sequence


class _Groups(NamedTuple):
    """A state's sequence table split by first action: the k-th action of
    ``acts`` (ascending) owns the contiguous rows bounds[k]:bounds[k + 1]."""

    acts: np.ndarray  # read-only, as ``action_distribution`` returns it
    lookup: tuple[int, ...]  # the same actions, for membership and position
    bounds: tuple[int, ...]


class _Softmax:
    """One state's sequence softmax at one theta."""

    __slots__ = ("feats", "groups", "w", "mean_all", "probs")

    def __init__(self, feats: np.ndarray, groups: _Groups, w: np.ndarray):
        self.feats = feats
        self.groups = groups
        self.w = w  # exp(logits - max logit), one weight per sequence
        self.mean_all: np.ndarray | None = None  # E[f], on first gradient
        self.probs: np.ndarray | None = None  # per action, on first distribution


# The kernels of ndarray.sum and ndarray.max, without their Python wrappers.
_sum, _max = np.add.reduce, np.maximum.reduce

# A step of the actor-critic reads two states at each theta.
_RECORDS_HELD = 2


class LookaheadPolicy:
    """Randomized stationary policy parameterized by theta = [theta1, theta2].

    Built over an NTS-mode SSP. ``progress`` is the minimum step count to
    the terminal computed without the restart edges, so zero-probability
    states sit at infinity and are clamped to ``progress_penalty`` when
    features are formed.
    """

    def __init__(self, ssp: SspModel, horizon: int = 2, radius: int | None = None,
                 theta: Iterable[float] = (5.0, -0.5), progress_penalty: float | None = None,
                 sequence_cap: int = 10_000):
        if horizon < 1:
            raise ModelError("lookahead horizon must be >= 1")
        self.ssp = ssp
        self.model = ssp.base
        self.horizon = horizon
        self.radius = horizon if radius is None else radius
        if self.radius < 1:
            raise ModelError("neighborhood radius must be >= 1")
        self.theta = np.asarray(tuple(theta), dtype=float)
        if self.theta.shape != (2,):
            raise ModelError("theta must have exactly two components")
        self.sequence_cap = sequence_cap
        self.progress = min_distances(self.model, [ssp.terminal], blocked_sources=ssp.bad)
        self.progress_penalty = (
            float(self.model.n_states) if progress_penalty is None else float(progress_penalty))
        self._safe: dict[int, float] = {}
        self._nbhd: dict[int, frozenset[int]] = {}  # until the state's table is built
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._groups: dict[int, _Groups] = {}
        self._records: dict[int, _Softmax] = {}  # at theta bytes _records_theta
        self._records_theta = b""
        self._sweep: _Sweep | None = None

    # -- score tables -------------------------------------------------------

    def _neighborhood(self, state: int) -> frozenset[int]:
        """The state's neighborhood, computed once: its safety score is
        taken at the same time, and the set is dropped once the state's
        table is built."""
        nb = self._nbhd.get(state)
        if nb is None:
            nb = self._nbhd[state] = neighborhood(self.model, state, self.radius)
            self._safe[state] = sum(1 for j in nb if j not in self.ssp.bad) / len(nb)
        return nb

    def safe(self, state: int) -> float:
        val = self._safe.get(state)
        if val is None:
            self._neighborhood(state)
            val = self._safe[state]
        return val

    def _clamped_progress(self, state: int) -> float:
        d = self.progress[state]
        return self.progress_penalty if not np.isfinite(d) else float(d)

    def sequence_table(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """The first action and the feature pair of each of the sequences
        from ``state``, listed as ``action_sequences`` lists them."""
        cached = self._tables.get(state)
        if cached is not None:
            return cached
        seqs = action_sequences(self.model, state, self.horizon, self.sequence_cap)
        nb = self._neighborhood(state)
        here = self._clamped_progress(state)
        first = np.fromiter((e[0] for e, _ in seqs), dtype=np.int64, count=len(seqs))
        feats = np.zeros((len(seqs), 2))
        for k, (_e, reach) in enumerate(seqs):
            inside = reach & nb
            feats[k, 0] = sum(self.safe(j) for j in inside)
            feats[k, 1] = sum(self._clamped_progress(j) - here for j in inside)
        del self._nbhd[state]
        table = self._tables[state] = (first, feats)
        return table

    def _groups_of(self, state: int, first: np.ndarray) -> _Groups:
        """The groups of the state's sequence table, whose first-action
        column is ``first`` (listed lexicographically, so each first
        action's sequences are contiguous)."""
        groups = self._groups.get(state)
        if groups is None:
            starts = np.flatnonzero(np.diff(first, prepend=-1))
            acts = first[starts]
            acts.flags.writeable = False
            groups = self._groups[state] = _Groups(
                acts, tuple(acts.tolist()), tuple(starts.tolist()) + (len(first),))
        return groups

    def _softmax(self, state: int) -> _Softmax:
        """The state's record at the current theta, built on first use."""
        key = self.theta.tobytes()
        records = self._records
        if key != self._records_theta:
            records.clear()
            self._records_theta = key
        rec = records.get(state)
        if rec is None:
            first, feats = self.sequence_table(state)
            logits = feats @ self.theta
            rec = _Softmax(feats, self._groups_of(state, first), np.exp(logits - _max(logits)))
            if len(records) >= _RECORDS_HELD:
                del records[next(iter(records))]
            records[state] = rec
        return rec

    # -- distributions ------------------------------------------------------

    def action_distribution(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """(action ids, probabilities), actions sorted ascending. A
        non-terminal state's arrays are read-only: calls at one theta share
        them."""
        if state == self.ssp.terminal:
            acts = np.arange(len(self.model.actions))
            return acts, np.full(len(acts), 1.0 / len(acts))
        rec = self._softmax(state)
        if rec.probs is None:
            w, bounds = rec.w, rec.groups.bounds
            probs = np.array([_sum(w[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
            probs /= _sum(probs)
            probs.flags.writeable = False
            rec.probs = probs
        return rec.groups.acts, rec.probs

    def policy_rows(self) -> np.ndarray:
        """The whole policy at the current theta: one probability per
        (state, first action) group, non-terminal states in order and
        actions ascending, which is the order of those states' rows in the
        model. Matches ``action_distribution`` state by state."""
        sweep = self._sweep
        if sweep is None:
            sweep = self._sweep = self._build_sweep()
        logits = sweep.feats @ self.theta
        top = np.maximum.reduceat(logits, sweep.seq_start)
        w = np.exp(logits - np.repeat(top, sweep.seq_count))
        mass = np.add.reduceat(w, sweep.group_start)
        total = np.add.reduceat(mass, sweep.state_group_start)
        return mass / np.repeat(total, sweep.state_group_count)

    def _build_sweep(self) -> _Sweep:
        states = [s for s in range(self.model.n_states) if s != self.ssp.terminal]
        tables = [self.sequence_table(s) for s in states]
        seq_count = np.array([len(first) for first, _feats in tables])
        seq_start = np.cumsum(seq_count) - seq_count
        first = np.concatenate([first for first, _feats in tables])
        # A group starts at each state's first sequence and wherever the
        # first action changes within a state.
        new_group = np.empty(len(first), dtype=bool)
        new_group[1:] = first[1:] != first[:-1]
        new_group[seq_start] = True
        group_start = np.flatnonzero(new_group)
        state_group_start = np.searchsorted(group_start, seq_start)
        return _Sweep(
            seq_start=seq_start, seq_count=seq_count, group_start=group_start,
            state_group_start=state_group_start,
            state_group_count=np.diff(state_group_start, append=len(group_start)),
            feats=np.concatenate([feats for _first, feats in tables]))

    def action_probability(self, state: int, action: int) -> float:
        acts, probs = self.action_distribution(state)
        if state == self.ssp.terminal:
            return float(probs[action]) if 0 <= action < len(acts) else 0.0
        lookup = self._groups[state].lookup
        return float(probs[lookup.index(action)]) if action in lookup else 0.0

    def log_policy_gradient(self, state: int, action: int) -> np.ndarray:
        """Gradient of ln mu_theta(state, action) with respect to theta."""
        if state == self.ssp.terminal:
            return np.zeros(2)
        rec = self._softmax(state)
        _acts, lookup, bounds = rec.groups
        wu = 0.0
        if action in lookup:
            k = lookup.index(action)
            lo, hi = bounds[k], bounds[k + 1]
            wg = rec.w[lo:hi]
            wu = _sum(wg)
        if wu <= 0.0:
            raise ModelError(f"action {action} has zero probability at state {state}")
        if rec.mean_all is None:
            rec.mean_all = (rec.w @ rec.feats) / _sum(rec.w)
        return (wg @ rec.feats[lo:hi]) / wu - rec.mean_all

    def sample_action(self, state: int, rng: np.random.Generator) -> int:
        """Inverse-CDF draw: the first action whose running probability sum
        exceeds a uniform draw; the last action if none does."""
        acts, probs = self.action_distribution(state)
        if len(acts) == 1:
            return int(acts[0])
        x = rng.random()
        acc = 0.0
        for k, p in enumerate(probs.tolist()):
            acc += p
            # x < acc, except that a NaN sum sorts above x, as in np.searchsorted.
            if not acc <= x:
                return int(acts[k])
        return int(acts[-1])

    def as_policy_table(self):
        """Full per-state action distribution at the current theta."""
        from .models import StationaryPolicy

        table = {}
        for state in range(self.model.n_states):
            acts, probs = self.action_distribution(state)
            table[state] = {int(u): float(p) for u, p in zip(acts, probs)}
        return StationaryPolicy(kind="randomized", table=table)
