"""Multi-step lookahead softmax policy over a possibilistic SSP.

The policy scores every length-t action sequence from the current state by
two features computed from possibilistic reachability alone: the summed
safety score of reachable neighborhood states, and the summed change in
goal distance over the same states. Sequence scores exp(theta . f) are
normalized into a distribution and marginalized onto first actions; the
log-policy gradient has the closed form

    psi(i, u) = E[f | first action = u] - E[f]

with expectations under the sequence softmax. A sequence u1..ut is
admissible when each u_k is enabled at some state reachable from the root
via u1..u_{k-1}; its reach set is propagated forward, skipping branch
states where the next action is disabled. A state's neighborhood is the
set of states within forward possibilistic distance ``radius`` of it.

Features do not depend on theta, so the tables of every state are built
once, at construction, from the model's CSR rows: the horizon-t expansion
is t repeated joins of (sequence, reached state) pairs with the rows and
their entries, every state's neighborhood is ``radius`` joins with the
successor relation, and each feature is a segment sum over a sequence's
reached neighborhood states, added in ascending state order. The terminal
has no sequences to score: each of its rows gets one sequence with zero
features, so its actions are uniform and their psi is zero. The tables are
flat arrays indexed by the model's rows: each state's sequences are one
slice, listed lexicographically, so the sequences of each first action,
the state's row for that action, are one contiguous group of that slice.

At a state whose sequences all start with one action, mu_theta = 1 and
psi = 0 exactly at every theta, so ``sample_action`` returns that action
without a draw and ``log_policy_gradient`` returns zero without forming
the softmax. Elsewhere a visit reads the state's record, Python values
built on its first visit, and the softmax weights exp(logits - max logit)
are formed once per (state, theta): the policy holds the last state's
weights, keyed on the state and theta (a pair of Python floats), and the
gradient the actor-critic asks for right after sampling reads them. The
logits f1 * theta1 + f2 * theta2 and the gradient's weighted sums are
Python floats added left to right, so a step's one numpy call is ``np.exp``,
and none where all sequences share one feature pair (the terminal): finite
equal logits less their maximum are 0.0, and exp(0.0) == 1.0.

The action probabilities have one definition, whether one state asks
(``action_distribution`` and ``sample_action``, in Python floats) or the
whole policy does (``policy_rows``, elementwise logits and a segment
softmax over the flat tables, giving one probability per row of the SSP's
model): the same logit arithmetic and ``np.exp`` kernel, a first action's
mass is its sequences' weights added left to right from 0.0, the state's
total is its actions' masses added the same way, and each probability is
mass / total.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Protocol

import numpy as np

from .models import LabeledModel, ModelError, _ptr
from .synthesis import SspModel, _distinct, _expand, _layers, _members


class SequenceCapExceeded(ModelError):
    """Lookahead expansion produced more sequences than the configured cap
    (an input error: the horizon is too long for the cap)."""


def min_distances(
    m: LabeledModel, targets: Iterable[int], blocked_sources: frozenset[int] = frozenset()
) -> np.ndarray:
    """Minimum possibilistic step count from every state to ``targets``.

    The backward frontier layers of ``synthesis._layers`` over the edges of
    every enabled action; unreachable states map to inf. Edges leaving
    ``blocked_sources`` are ignored.
    """
    seeds = _members(targets, m.n_states)
    if not seeds.any():
        raise ModelError("min_distances needs a nonempty target set")
    src, dst = m.row_state[m.entry_row], m.succ
    if blocked_sources:
        keep = ~_members(blocked_sources, m.n_states)[src]
        src, dst = src[keep], dst[keep]
    layer = _layers(src, dst, seeds)
    return np.where(layer >= 0, layer, np.inf)


def _sequence_reach(m: LabeledModel, roots: np.ndarray, horizon: int, cap: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every root's depth-``horizon`` action sequences (roots in order, each
    root's sequences lexicographic) with their reach sets.

    Returns the root index and first action of each sequence and its
    reached states as (sequence, state) pairs sorted by sequence, then
    state. A sequence's reach set is never empty, so no root loses
    sequences as the depth grows, and a root over ``cap`` at any depth
    raises ``SequenceCapExceeded`` at once.
    """
    n, n_act = m.n_states, len(m.actions)
    owner = np.arange(len(roots))
    first = None
    pair_seq, pair_state = owner, roots
    for _ in range(horizon):
        # Join each pair with its state's rows, then with their entries.
        at, row = _expand(m.state_ptr, pair_state)
        at2, entry = _expand(m.row_ptr, row)
        key = pair_seq[at[at2]] * n_act + m.row_action[row[at2]]
        key, pair_state = np.divmod(_distinct(key * n + m.succ[entry]), n)
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        pair_seq = np.cumsum(new) - 1
        parent, action = np.divmod(key[new], n_act)
        owner = owner[parent]
        first = action if first is None else first[parent]
        over = np.flatnonzero(np.bincount(owner, minlength=len(roots)) > cap)
        if over.size:
            raise SequenceCapExceeded(
                f"more than {cap} action sequences from state {roots[over[0]]}")
    return owner, first, pair_seq, pair_state


def _neighborhoods(m: LabeledModel, radius: int) -> np.ndarray:
    """Every state's neighborhood as sorted codes state * n + member."""
    n = m.n_states
    adj_src, adj_dst = np.divmod(_distinct(m.row_state[m.entry_row] * n + m.succ), n)
    adj_ptr = _ptr(np.bincount(adj_src, minlength=n))
    ball = frontier = np.arange(n) * (n + 1)
    for _ in range(radius):
        state, member = np.divmod(frontier, n)
        at, k = _expand(adj_ptr, member)
        reached = _distinct(state[at] * n + adj_dst[k])
        frontier = reached[~_contains(ball, reached)]
        if not frontier.size:
            break
        ball = np.sort(np.concatenate((ball, frontier)), kind="stable")
    return ball


def _contains(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` occurs in the ascending array ``ordered``."""
    at = np.minimum(np.searchsorted(ordered, values), len(ordered) - 1)
    return ordered[at] == values


def _left_sums(values: np.ndarray, segment: np.ndarray, n: int) -> np.ndarray:
    """The sum of each segment's values, added left to right in array order
    (``np.bincount`` accumulates in that order)."""
    return np.bincount(segment, weights=values, minlength=n)


class Uniform(Protocol):
    """A source of uniform doubles in [0, 1): ``actor_critic.Pcg64`` in a
    run, or a numpy ``Generator``."""

    def random(self) -> float: ...


class _Visit(NamedTuple):
    """A state's sequence table split by first action: the k-th action of
    ``acts`` (ascending), the state's k-th row, owns the entries lo:hi of
    the feature columns ``f1`` and ``f2``, and ``groups`` maps it to (lo,
    hi). ``ones`` is 1.0 per sequence if all share one feature pair."""

    acts: np.ndarray  # read-only, as ``action_distribution`` returns it
    groups: dict[int, tuple[int, int]]  # in ``acts`` order
    f1: list[float]
    f2: list[float]
    ones: list[float] | None


def _weighted_sums(w: list[float], f1: list[float], f2: list[float]
                   ) -> tuple[float, float, float]:
    """sum(w), sum(w * f1) and sum(w * f2), each added left to right."""
    s = s1 = s2 = 0.0
    for wi, a, b in zip(w, f1, f2):
        s += wi
        s1 += wi * a
        s2 += wi * b
    return s, s1, s2


class LookaheadPolicy:
    """Randomized stationary policy parameterized by theta = [theta1, theta2].

    Built over an NTS-mode SSP. ``progress`` is the minimum step count to
    the terminal computed without the restart edges, so zero-probability
    states sit at infinity and are clamped to ``progress_penalty`` when
    features are formed. Construction builds every state's sequence table
    and raises ``SequenceCapExceeded`` when a non-terminal state has more
    than ``sequence_cap`` sequences (the terminal's one per row do not
    count).
    """

    def __init__(self, ssp: SspModel, horizon: int = 2, radius: int | None = None,
                 theta: Iterable[float] = (5.0, -0.5), progress_penalty: float | None = None,
                 sequence_cap: int = 10_000):
        if horizon < 1:
            raise ModelError("lookahead horizon must be >= 1")
        self.ssp = ssp
        self.model = m = ssp.base
        self.horizon = horizon
        self.radius = horizon if radius is None else radius
        if self.radius < 1:
            raise ModelError("neighborhood radius must be >= 1")
        self.theta = theta
        self.sequence_cap = sequence_cap
        self.progress = min_distances(m, [ssp.terminal], blocked_sources=ssp.bad)
        self.progress_penalty = (
            float(m.n_states) if progress_penalty is None else float(progress_penalty))

        n, n_act = m.n_states, len(m.actions)
        roots = np.flatnonzero(np.arange(n) != ssp.terminal)
        owner, first, pair_seq, pair_state = _sequence_reach(m, roots, horizon, sequence_cap)
        ball = _neighborhoods(m, self.radius)
        ball_state = ball // n
        self._safe = (np.bincount(ball_state, weights=~_members(ssp.bad, n)[ball % n],
                                  minlength=n)
                      / np.bincount(ball_state, minlength=n))
        # A sequence's features sum over its reached states that lie in its
        # root's neighborhood, in ascending state order.
        root = roots[owner[pair_seq]]
        inside = _contains(ball, root * n + pair_state)
        seq, state, root = pair_seq[inside], pair_state[inside], root[inside]
        clamped = np.where(np.isfinite(self.progress), self.progress, self.progress_penalty)
        feats = np.column_stack((
            _left_sums(self._safe[state], seq, len(first)),
            _left_sums(clamped[state] - clamped[root], seq, len(first))))

        # Each sequence belongs to the SSP row of its root and first action;
        # each of the terminal's rows gets one sequence with zero features.
        seq_row = np.searchsorted(m.row_state * n_act + m.row_action,
                                  roots[owner] * n_act + first)
        lo, hi = m.state_ptr[ssp.terminal:ssp.terminal + 2]
        at = np.searchsorted(seq_row, lo)
        self._seq_row = np.insert(seq_row, at, np.arange(lo, hi))
        self._feats = np.insert(feats, at, np.zeros((hi - lo, 2)), axis=0)
        self._row_seq = _ptr(np.bincount(self._seq_row, minlength=len(m.row_state)))
        self._seq_state = m.row_state[self._seq_row]
        self._state_ptr = m.state_ptr.tolist()
        self._visits: dict[int, _Visit] = {}
        # The last state's softmax weights, keyed on (state, theta).
        self._held_key: tuple[int, tuple[float, float]] | None = None
        self._held_w: list[float] = []

    @property
    def theta(self) -> tuple[float, float]:
        """The parameter vector, a pair of Python floats."""
        return self._theta

    @theta.setter
    def theta(self, value: Iterable[float]) -> None:
        try:
            t1, t2 = value
        except ValueError:
            raise ModelError("theta must have exactly two components") from None
        self._theta = float(t1), float(t2)

    # -- score tables -------------------------------------------------------

    def _visit(self, state: int) -> _Visit:
        """Build the state's record; read it as ``_visits.get(state) or _visit(state)``."""
        r0, r1 = self._state_ptr[state], self._state_ptr[state + 1]
        bounds = (self._row_seq[r0:r1 + 1] - self._row_seq[r0]).tolist()
        feats = self._feats[self._row_seq[r0]:self._row_seq[r1]]
        acts = self.model.row_action[r0:r1]
        f1, f2 = feats[:, 0].tolist(), feats[:, 1].tolist()
        visit = self._visits[state] = _Visit(
            acts, dict(zip(acts.tolist(), zip(bounds, bounds[1:]))), f1, f2,
            [1.0] * len(f1) if (feats == feats[0]).all() else None)
        return visit

    def _weights(self, state: int, visit: _Visit) -> list[float]:
        """exp(logits - max logit), one weight per sequence of ``state`` at
        the current theta; the last state's are held."""
        key = (state, self._theta)
        if key != self._held_key:
            t1, t2 = self._theta
            f1, f2 = visit.f1, visit.f2
            # Finite equal logits less their maximum are 0.0: exp(0.0) == 1.0.
            if visit.ones is not None and (top := f1[0] * t1 + f2[0] * t2) - top == 0.0:
                self._held_w = visit.ones
            else:
                logits = [a * t1 + b * t2 for a, b in zip(f1, f2)]
                top = max(logits)
                self._held_w = np.exp([x - top for x in logits]).tolist()
            self._held_key = key
        return self._held_w

    def _probabilities(self, state: int, visit: _Visit) -> list[float]:
        """A state's action probabilities at the current theta, as Python
        floats in ``acts`` order."""
        w = self._weights(state, visit)
        # Plain left-to-right sums from 0.0, as np.bincount adds (the
        # built-in sum compensates rounding from Python 3.12 on).
        masses = [reduce(add, w[lo:hi], 0.0) for lo, hi in visit.groups.values()]
        total = reduce(add, masses, 0.0)
        return [mass / total for mass in masses]

    # -- distributions ------------------------------------------------------

    def action_distribution(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """(action ids, probabilities), actions sorted ascending. The action
        ids are a read-only view of the model's rows: every call shares
        them."""
        visit = self._visits.get(state) or self._visit(state)
        return visit.acts, np.array(self._probabilities(state, visit))

    def policy_rows(self) -> np.ndarray:
        """The whole policy at the current theta: one probability per row
        of the SSP's model, the row space of ``save_policy``,
        ``parse_policy`` and ``exact.expected_total_cost``. Each row's
        sequences are its group, the terminal's one zero-feature sequence
        each, so the terminal's rows are uniform. Equal, bit for bit, to
        ``action_distribution`` state by state."""
        m = self.model
        t1, t2 = self._theta
        logits = self._feats[:, 0] * t1 + self._feats[:, 1] * t2
        top = np.maximum.reduceat(logits, self._row_seq[m.state_ptr[:-1]])
        w = np.exp(logits - top[self._seq_state])
        mass = _left_sums(w, self._seq_row, len(m.row_state))
        total = _left_sums(mass, m.row_state, m.n_states)
        return mass / total[m.row_state]

    def log_policy_gradient(self, state: int, action: int) -> tuple[float, float]:
        """Gradient of ln mu_theta(state, action) with respect to theta."""
        r0 = self._state_ptr[state]
        if self._state_ptr[state + 1] - r0 == 1 and action == self.model.row_action[r0]:
            return 0.0, 0.0  # the one first action: probability 1 and psi = 0 exactly
        visit = self._visits.get(state) or self._visit(state)
        group = visit.groups.get(action)
        wu = 0.0
        if group is not None:
            w = self._weights(state, visit)
            lo, hi = group
            f1, f2 = visit.f1, visit.f2
            wu, wu1, wu2 = _weighted_sums(w[lo:hi], f1[lo:hi], f2[lo:hi])
        if wu <= 0.0:
            raise ModelError(f"action {action} has zero probability at state {state}")
        ws, ws1, ws2 = _weighted_sums(w, f1, f2)
        return wu1 / wu - ws1 / ws, wu2 / wu - ws2 / ws

    def sample_action(self, state: int, rng: Uniform) -> int:
        """Inverse-CDF draw: the first action whose running probability sum
        exceeds ``rng.random()``; the last action if none does. A state with
        one action takes no draw. Any object with a ``random()`` method
        serves: a run passes its ``actor_critic.Pcg64``."""
        r0 = self._state_ptr[state]
        if self._state_ptr[state + 1] - r0 == 1:
            return int(self.model.row_action[r0])
        visit = self._visits.get(state) or self._visit(state)
        probs = self._probabilities(state, visit)
        x = rng.random()
        acc = 0.0
        for u, p in zip(visit.groups, probs):
            acc += p
            # x < acc, except that a NaN sum sorts above x, as in np.searchsorted.
            if not acc <= x:
                break
        return u
