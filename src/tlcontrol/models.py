"""Labeled MDP/NTS models, deterministic Rabin automata, and policy files.

A model stores its (state, action) rows once, as CSR arrays: the rows of
state q are ``state_ptr[q]:state_ptr[q + 1]``, in ascending action id, row
r takes action ``row_action[r]`` and owns the entries
``row_ptr[r]:row_ptr[r + 1]``, and entry e steps to ``succ[e]`` with weight
``weight[e]``; successors are strictly ascending within a row. A state's
enabled actions are the actions of its rows. ``LabeledModel.from_rows``
builds a model from per-row entry lists; the pipeline's own builds
(products, pruning, SSP conversion) compute the arrays directly. Every
construction checks the structural invariants once, as array checks
(``validate_model``).

Model file format (line oriented, ``#`` starts a comment):

    states N
    initial q0
    mode mdp|nts
    actions u1 u2 ...
    props p1 p2 ...
    name q NAME
    label q: p_i p_j
    trans q u q' w

States are integers ``0..N-1``. Action names are free strings without
whitespace or ``#``. An ``actions`` line, before any ``trans`` line, gives
them dense integer ids in its order, and every ``trans`` line must then
name a declared action; without it, actions are numbered in order of first
appearance. ``name`` lines are optional, but name every state when present
(a name holds no whitespace or ``#``). In ``mdp`` mode
``w`` is a probability and each (state, action) row must sum to 1 within
1e-9; in ``nts`` mode ``w`` must be exactly 0 or 1 and marks a possible
transition (zero-weight entries are dropped in both modes).

Rabin automaton file format:

    states N
    initial s0
    props p1 p2 ...
    edge s {p_i,p_j} s'
    edge s else s'
    pair L={...} K={...}

Letters are exact observation subsets (``{}`` is the empty letter) encoded
as bitmasks over the ``props`` line. A per-state ``else`` edge supplies the
target for every letter without an explicit edge; the transition function
must be total after that expansion.

Policy file format: one ``state<TAB>action<TAB>probability`` line per
(state, action) row, ``#`` starts a comment line. In the program a policy
is one probability per row of its model, in the model's row order
(``parse_policy``, ``save_policy``).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MDP = "mdp"
NTS = "nts"

ROW_SUM_TOL = 1e-9
DIST_TOL = 1e-12
MAX_PROPS = 16
BLOCK_ROWS = 4096  # lines the policy and value writers format at a time


class ModelError(ValueError):
    """Semantic violation in a model, automaton, or policy. ``row`` is the
    model row that a row-level rule of ``validate_model`` rejected, and None
    for every other error."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(ValueError):
    """Malformed input text, reported with its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# The array fields of a model and their dtypes.
_ARRAYS = (("labels", np.int64), ("state_ptr", np.int64), ("row_action", np.int64),
           ("row_ptr", np.int64), ("succ", np.int64), ("weight", np.float64))


@dataclass(frozen=True, eq=False)
class LabeledModel:
    """A finite state-transition model with observation labels, stored as
    CSR rows (see the module docstring).

    ``labels`` holds one observation bitmask per state over ``props``. The
    arrays are read-only and every invariant is checked on construction.
    ``row(q, u)`` finds the row of (q, u), ``successors(q, u)`` reads it
    back as ((successor, weight), ...), and ``enabled_pairs()`` lists the
    (state, action id) rows in row order. Two models are equal when their
    fields and arrays are.
    """

    n_states: int
    initial: int
    actions: tuple[str, ...]
    props: tuple[str, ...]
    labels: np.ndarray
    mode: str
    state_ptr: np.ndarray
    row_action: np.ndarray
    row_ptr: np.ndarray
    succ: np.ndarray
    weight: np.ndarray
    state_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "initial", int(self.initial))
        for name, dtype in _ARRAYS:
            arr = np.asarray(getattr(self, name), dtype=dtype).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        validate_model(self)

    @classmethod
    def from_rows(cls, rows: Mapping[tuple[int, int], Iterable[tuple[int, float]]], *,
                  n_states: int, initial: int, actions: tuple[str, ...], mode: str,
                  props: tuple[str, ...] = (), labels: Sequence[int] | None = None,
                  state_names: tuple[str, ...] | None = None) -> "LabeledModel":
        """The model whose row (q, u) holds the (successor, weight) entries
        ``rows[(q, u)]``, sorted by successor; unlabeled by default."""
        keys = sorted(rows)
        for q, _u in keys:
            if not 0 <= q < n_states:
                raise ModelError(f"dangling state id {q}")
        entries = [sorted(rows[key]) for key in keys]
        return cls(
            n_states=n_states, initial=initial, actions=tuple(actions), props=tuple(props),
            labels=np.zeros(n_states, dtype=np.int64) if labels is None else labels,
            mode=mode,
            state_ptr=_ptr(np.bincount(np.array([q for q, _u in keys], dtype=np.int64),
                                       minlength=n_states)),
            row_action=np.array([u for _q, u in keys], dtype=np.int64),
            row_ptr=_ptr([len(row) for row in entries]),
            succ=np.array([s for row in entries for s, _w in row], dtype=np.int64),
            weight=np.array([w for row in entries for _s, w in row], dtype=np.float64),
            state_names=state_names)

    def __eq__(self, other):
        if not isinstance(other, LabeledModel):
            return NotImplemented
        return ((self.n_states, self.initial, self.actions, self.props, self.mode,
                 self.state_names)
                == (other.n_states, other.initial, other.actions, other.props, other.mode,
                    other.state_names)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name, _dtype in _ARRAYS))

    __hash__ = None

    @cached_property
    def row_state(self) -> np.ndarray:
        """The state of each row."""
        out = np.repeat(np.arange(self.n_states), np.diff(self.state_ptr))
        out.flags.writeable = False
        return out

    @cached_property
    def entry_row(self) -> np.ndarray:
        """The row of each entry."""
        out = np.repeat(np.arange(len(self.row_action)), np.diff(self.row_ptr))
        out.flags.writeable = False
        return out

    @cached_property
    def enabled(self) -> tuple[tuple[int, ...], ...]:
        """Each state's enabled action ids, ascending."""
        acts, ptr = self.row_action.tolist(), self.state_ptr.tolist()
        return tuple(tuple(acts[lo:hi]) for lo, hi in zip(ptr, ptr[1:]))

    def row(self, state: int, action: int) -> int:
        """The row of (state, action); KeyError when the state is out of
        range or the action is not enabled there."""
        if 0 <= state < self.n_states:
            lo, hi = self.state_ptr[state:state + 2].tolist()
            actions = self.row_action[lo:hi].tolist()
            if action in actions:
                return lo + actions.index(action)
        raise KeyError((state, action))

    def successors(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        r = self.row(state, action)
        lo, hi = self.row_ptr[r:r + 2].tolist()
        return tuple(zip(self.succ[lo:hi].tolist(), self.weight[lo:hi].tolist()))

    def support(self, state: int, action: int) -> tuple[int, ...]:
        return tuple(s for s, _w in self.successors(state, action))

    def enabled_pairs(self) -> Iterator[tuple[int, int]]:
        return zip(self.row_state.tolist(), self.row_action.tolist())

    def n_enabled_pairs(self) -> int:
        return len(self.row_action)


def validate_model(m: LabeledModel) -> None:
    """Check every structural invariant of ``m``; raise ModelError otherwise,
    with the rejected row as ``row`` when a row or its entries break a rule."""
    if m.mode not in (MDP, NTS):
        raise ModelError(f"unknown mode {m.mode!r}")
    if not (0 <= m.initial < m.n_states):
        raise ModelError(f"initial state {m.initial} out of range")
    if len(m.props) > MAX_PROPS:
        raise ModelError(f"{len(m.props)} propositions exceed the cap of {MAX_PROPS}")
    if m.labels.shape != (m.n_states,) or m.state_ptr.shape != (m.n_states + 1,):
        raise ModelError("enabled/label tables do not cover all states")
    n_rows, n_entries = len(m.row_action), len(m.succ)
    if (m.state_ptr[0] != 0 or m.state_ptr[-1] != n_rows
            or m.row_ptr.shape != (n_rows + 1,) or m.row_ptr[0] != 0
            or m.row_ptr[-1] != n_entries or m.weight.shape != (n_entries,)
            or m.row_action.ndim != 1 or m.succ.ndim != 1):
        raise ModelError("row and entry arrays do not fit together")
    per_state = np.diff(m.state_ptr)
    if (per_state < 0).any():
        raise ModelError("row and entry arrays do not fit together")
    empty = np.flatnonzero(per_state == 0)
    if empty.size:
        raise ModelError(f"state {empty[0]} has no enabled actions")

    def where(r) -> tuple[int, object, int]:
        """Row r's state, action name (raw id when out of range) and r."""
        q, u = int(m.row_state[r]), int(m.row_action[r])
        return q, m.actions[u] if 0 <= u < len(m.actions) else u, int(r)

    bad = np.flatnonzero((m.row_action < 0) | (m.row_action >= len(m.actions)))
    if bad.size:
        q, u, r = where(bad[0])
        raise ModelError(f"state {q}: action id {u} out of range", r)
    # Consecutive rows of one state must raise the action id.
    bad = np.flatnonzero(_within(m.state_ptr, n_rows) & (np.diff(m.row_action) <= 0))
    if bad.size:
        q, u, r = where(bad[0] + 1)
        raise ModelError(f"state {q}: action {u!r} repeated or out of order", r)
    bad = np.flatnonzero(np.diff(m.row_ptr) <= 0)
    if bad.size:
        q, u, r = where(bad[0])
        raise ModelError(f"state {q}, action {u!r}: no transitions", r)
    bad = np.flatnonzero((m.succ < 0) | (m.succ >= m.n_states))
    if bad.size:
        q, u, r = where(m.entry_row[bad[0]])
        raise ModelError(f"dangling state id {m.succ[bad[0]]} in row ({q}, {u!r})", r)
    bad = np.flatnonzero(_within(m.row_ptr, n_entries) & (np.diff(m.succ) <= 0))
    if bad.size:
        q, u, r = where(m.entry_row[bad[0] + 1])
        raise ModelError(f"successor {m.succ[bad[0] + 1]} repeated or out of order "
                         f"in row ({q}, {u!r})", r)
    w = m.weight
    if m.mode == NTS:
        bad = np.flatnonzero(w != 1.0)
        if bad.size:
            q, u, r = where(m.entry_row[bad[0]])
            raise ModelError(f"state {q}, action {u!r}: NTS weight {w[bad[0]]} is not 1", r)
        return
    bad = np.flatnonzero(~((w > 0.0) & (w <= 1.0 + ROW_SUM_TOL)))
    if bad.size:
        q, u, r = where(m.entry_row[bad[0]])
        raise ModelError(f"state {q}, action {u!r}: weight {w[bad[0]]} outside (0, 1]", r)
    totals = np.add.reduceat(w, m.row_ptr[:-1]) if n_rows else w[:0]
    bad = np.flatnonzero(np.abs(totals - 1.0) > ROW_SUM_TOL)
    if bad.size:
        q, u, r = where(bad[0])
        raise ModelError(
            f"stochasticity violation at ({q}, {u!r}): row sum {float(totals[r])!r}", r)


def _ptr(counts) -> np.ndarray:
    """CSR pointer array of segments with the given sizes."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _within(ptr: np.ndarray, n: int) -> np.ndarray:
    """For each i < n - 1, whether items i and i + 1 lie in the same
    segment of the CSR pointer array ``ptr``."""
    same = np.ones(max(n - 1, 0), dtype=bool)
    starts = ptr[1:-1]
    same[starts[(starts > 0) & (starts < n)] - 1] = False
    return same


def parse_model(text: str) -> LabeledModel:
    """Parse the model file format; see the module docstring."""
    n_states = initial = None
    mode = None
    props: list[str] = []
    actions: list[str] = []
    action_ids: dict[str, int] = {}
    declared = False
    rows: dict[tuple[int, int], dict[int, float]] = {}
    row_line: dict[tuple[int, int], int] = {}
    labels: dict[int, int] = {}
    state_names: dict[int, str] = {}

    def intern_action(name: str, lineno: int) -> int:
        if name not in action_ids:
            if declared:
                raise ParseError(lineno, f"undeclared action {name!r}")
            action_ids[name] = len(actions)
            actions.append(name)
        return action_ids[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "states":
            n_states = _int_field(tokens, lineno, "states")
            if n_states < 0:
                raise ParseError(lineno, f"negative state count {n_states}")
        elif key == "initial":
            initial = _int_field(tokens, lineno, "initial")
        elif key == "mode":
            if len(tokens) != 2 or tokens[1] not in (MDP, NTS):
                raise ParseError(lineno, "mode must be 'mdp' or 'nts'")
            mode = tokens[1]
        elif key == "actions":
            if actions or declared:
                raise ParseError(lineno, "'actions' must come once, before any transition")
            if len(set(tokens[1:])) != len(tokens) - 1:
                raise ParseError(lineno, "duplicate action names")
            for name in tokens[1:]:
                intern_action(name, lineno)
            declared = True
        elif key == "props":
            props = tokens[1:]
            if len(set(props)) != len(props):
                raise ParseError(lineno, "duplicate proposition names")
        elif key == "name":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected 'name q NAME'")
            state = _int_field(tokens[:2], lineno, "name")
            if state in state_names:
                raise ParseError(lineno, f"duplicate name line for state {state}")
            state_names[state] = tokens[2]
        elif key == "label":
            state, names = _parse_label(line, lineno)
            if state in labels:
                raise ParseError(lineno, f"duplicate label line for state {state}")
            mask = 0
            for name in names:
                if name not in props:
                    raise ParseError(lineno, f"unknown proposition {name!r}")
                mask |= 1 << props.index(name)
            labels[state] = mask
        elif key == "trans":
            if len(tokens) != 5:
                raise ParseError(lineno, "expected 'trans q u q' w'")
            try:
                q, succ = int(tokens[1]), int(tokens[3])
                w = float(tokens[4])
            except ValueError:
                raise ParseError(lineno, f"bad transition line {line!r}") from None
            u = intern_action(tokens[2], lineno)
            rows.setdefault((q, u), {})
            row_line.setdefault((q, u), lineno)
            if succ in rows[(q, u)]:
                raise ParseError(lineno, f"duplicate transition ({q}, {tokens[2]}, {succ})")
            rows[(q, u)][succ] = w
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    if n_states is None:
        raise ModelError("missing 'states' header")
    if initial is None:
        raise ModelError("missing 'initial' header")
    if mode is None:
        raise ModelError("missing 'mode' header")

    for (q, _u), lineno in row_line.items():
        if not (0 <= q < n_states):
            raise ParseError(lineno, f"dangling state id {q}")
    for q in labels:
        if not (0 <= q < n_states):
            raise ModelError(f"dangling state id {q} in a label line")
    if state_names and sorted(state_names) != list(range(n_states)):
        raise ModelError("name lines must name every state exactly once")

    # validate_model checks the rows; a row it rejects is reported at the
    # row's first trans line. Row r is the r-th key in sorted order.
    keys = sorted(rows)
    try:
        return LabeledModel.from_rows(
            {key: [(s, w) for s, w in rows[key].items() if w != 0] for key in keys},
            n_states=n_states, initial=initial, actions=tuple(actions), mode=mode,
            props=tuple(props), labels=[labels.get(q, 0) for q in range(n_states)],
            state_names=tuple(map(state_names.get, range(n_states))) if state_names else None)
    except ModelError as err:
        if err.row is None:
            raise
        raise ParseError(row_line[keys[err.row]], str(err)) from None


def _int_field(tokens: list[str], lineno: int, name: str) -> int:
    if len(tokens) != 2:
        raise ParseError(lineno, f"expected '{name} <int>'")
    try:
        return int(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"expected '{name} <int>'") from None


def _parse_label(line: str, lineno: int) -> tuple[int, list[str]]:
    body = line[len("label"):]
    if ":" not in body:
        raise ParseError(lineno, "expected 'label q: p ...'")
    head, rest = body.split(":", 1)
    try:
        state = int(head.strip())
    except ValueError:
        raise ParseError(lineno, "expected 'label q: p ...'") from None
    return state, rest.split()


def serialize_model(m: LabeledModel) -> str:
    """Canonical text form; parse_model(serialize_model(m)) reproduces ``m``.
    Raises ModelError for an action or state name the format cannot hold."""
    for kind, names in (("action", m.actions), ("state", m.state_names or ())):
        text = " ".join(names)
        if "#" in text or len(text.split()) != len(names):
            raise ModelError(f"a {kind} name is empty or holds whitespace or '#'")
    out = [f"states {m.n_states}", f"initial {m.initial}", f"mode {m.mode}",
           "actions " + " ".join(m.actions)]
    if m.props:
        out.append("props " + " ".join(m.props))
    if m.state_names:
        out.extend(f"name {q} {name}" for q, name in enumerate(m.state_names))
    for q, label in enumerate(m.labels.tolist()):
        if label:
            names = [p for i, p in enumerate(m.props) if label >> i & 1]
            out.append(f"label {q}: " + " ".join(names))
    row_ptr, succ, weight = m.row_ptr.tolist(), m.succ.tolist(), m.weight.tolist()
    for r, (q, u) in enumerate(m.enabled_pairs()):
        head = f"trans {q} {m.actions[u]} "
        out.extend(f"{head}{succ[e]} {weight[e]!r}" for e in range(row_ptr[r], row_ptr[r + 1]))
    return "\n".join(out) + "\n"


def nts_from_mdp(m: LabeledModel) -> LabeledModel:
    """Possibilistic abstraction: each positive-probability edge becomes a flag."""
    if m.mode == NTS:
        return m
    return dataclasses.replace(m, mode=NTS, weight=np.ones(len(m.weight)))


# ---------------------------------------------------------------------------
# Rabin automata


@dataclass(frozen=True)
class RabinAutomaton:
    """Deterministic automaton over observation-set letters with accepting pairs.

    ``delta`` is a dense (n_states, 2^len(props)) array; acceptance pairs are
    (L, K) state sets: a run is accepting for pair i when it visits L(i)
    finitely often and K(i) infinitely often.
    """

    n_states: int
    initial: int
    props: tuple[str, ...]
    delta: np.ndarray
    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    @property
    def n_letters(self) -> int:
        return 1 << len(self.props)


def dra_step(r: RabinAutomaton, state: int, letter: int) -> int:
    """Apply the (total) transition function once."""
    return int(r.delta[state, letter])


_PAIR_RE = re.compile(r"^L=\{([^}]*)\}\s+K=\{([^}]*)\}$")


def parse_dra(text: str) -> RabinAutomaton:
    """Parse the Rabin automaton file format; see the module docstring."""
    n_states = initial = None
    props: list[str] = []
    explicit: dict[tuple[int, int], int] = {}
    defaults: dict[int, int] = {}
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "states":
            n_states = _int_field(tokens, lineno, "states")
        elif key == "initial":
            initial = _int_field(tokens, lineno, "initial")
        elif key == "props":
            props = tokens[1:]
            if len(props) > MAX_PROPS:
                raise ParseError(lineno, f"more than {MAX_PROPS} propositions")
            if len(set(props)) != len(props):
                raise ParseError(lineno, "duplicate proposition names")
        elif key == "edge":
            if len(tokens) != 4:
                raise ParseError(lineno, "expected 'edge s {letter}|else s''")
            try:
                src, dst = int(tokens[1]), int(tokens[3])
            except ValueError:
                raise ParseError(lineno, f"bad edge line {line!r}") from None
            if tokens[2] == "else":
                if src in defaults:
                    raise ParseError(lineno, f"duplicate default edge for state {src}")
                defaults[src] = dst
            else:
                letter = _parse_letter(tokens[2], props, lineno)
                if (src, letter) in explicit:
                    raise ParseError(lineno, f"duplicate edge for state {src}, letter {tokens[2]}")
                explicit[(src, letter)] = dst
        elif key == "pair":
            match = _PAIR_RE.match(line[len("pair"):].strip())
            if not match:
                raise ParseError(lineno, "expected 'pair L={...} K={...}'")
            pairs.append((_parse_state_set(match.group(1), lineno),
                          _parse_state_set(match.group(2), lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    if n_states is None:
        raise ModelError("missing 'states' header")
    if initial is None or not (0 <= initial < n_states):
        raise ModelError("missing or invalid 'initial' header")
    if not pairs:
        raise ModelError("automaton has no accepting pairs")

    n_letters = 1 << len(props)
    delta = np.full((n_states, n_letters), -1, dtype=np.int32)
    for (src, letter), dst in explicit.items():
        if not (0 <= src < n_states) or not (0 <= dst < n_states):
            raise ModelError(f"edge ({src} -> {dst}) references an unknown state")
        delta[src, letter] = dst
    for src, dst in defaults.items():
        if not (0 <= src < n_states) or not (0 <= dst < n_states):
            raise ModelError(f"default edge ({src} -> {dst}) references an unknown state")
        row = delta[src]
        row[row < 0] = dst
    if (delta < 0).any():
        src, letter = map(int, np.argwhere(delta < 0)[0])
        raise ModelError(
            f"missing transition for state {src} on letter "
            f"{_letter_names(letter, props)} and no default")
    for left, right in pairs:
        for s in left | right:
            if not (0 <= s < n_states):
                raise ModelError(f"accepting pair references unknown state {s}")

    return RabinAutomaton(
        n_states=n_states,
        initial=initial,
        props=tuple(props),
        delta=delta,
        pairs=tuple(pairs),
    )


def _parse_letter(token: str, props: list[str], lineno: int) -> int:
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(lineno, f"letter {token!r} must be a {{...}} subset")
    mask = 0
    body = token[1:-1]
    for name in filter(None, (part.strip() for part in body.split(","))):
        if name not in props:
            raise ParseError(lineno, f"unknown proposition {name!r}")
        mask |= 1 << props.index(name)
    return mask


def _parse_state_set(body: str, lineno: int) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in body.split(",") if part.strip())
    except ValueError:
        raise ParseError(lineno, f"bad state set {{{body}}}") from None


def _letter_names(letter: int, props: list[str]) -> str:
    return "{" + ",".join(p for i, p in enumerate(props) if letter >> i & 1) + "}"


# ---------------------------------------------------------------------------
# Policy files


def save_policy(f, probs: np.ndarray, m: LabeledModel) -> None:
    """Write a policy, one probability per row of ``m``, as tab-separated
    (state, action name, probability) lines in row order, ``BLOCK_ROWS``
    rows at a time."""
    for lo in range(0, len(m.row_action), BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        f.writelines(f"{q}\t{m.actions[u]}\t{p!r}\n" for q, u, p in zip(
            m.row_state[block].tolist(), m.row_action[block].tolist(), probs[block].tolist()))


def parse_policy(text: str, m: LabeledModel) -> np.ndarray:
    """A policy file as one probability per row of ``m``.

    A later line for the same (state, action) overrides an earlier one, and
    the rows of states without a line keep probability 0. Every listed
    state must put non-negative mass on enabled actions only, summing to 1
    within ``DIST_TOL``.
    """
    probs = np.zeros(len(m.row_action))
    listed = np.zeros(m.n_states, dtype=bool)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(lineno, "expected 'state<TAB>action<TAB>prob'")
        try:
            state, prob = int(parts[0]), float(parts[2])
        except ValueError:
            raise ParseError(lineno, f"bad policy row {line!r}") from None
        if parts[1] not in m.actions:
            raise ParseError(lineno, f"unknown action {parts[1]!r}")
        if not (0 <= state < m.n_states):
            raise ModelError(f"policy references unknown state {state}")
        try:
            row = m.row(state, m.actions.index(parts[1]))
        except KeyError:
            raise ModelError(
                f"policy puts mass on disabled action {parts[1]!r} at {state}") from None
        probs[row] = prob
        listed[state] = True
    negative = np.flatnonzero(probs < 0)
    if negative.size:
        raise ModelError(f"negative probability at state {m.row_state[negative[0]]}")
    totals = np.bincount(m.row_state, weights=probs, minlength=m.n_states)
    off = np.flatnonzero(listed & ~(np.abs(totals - 1.0) <= DIST_TOL))  # NaN is off too
    if off.size:
        raise ModelError(f"policy distribution at state {off[0]} "
                         f"sums to {float(totals[off[0]])!r}")
    return probs
