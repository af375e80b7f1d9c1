"""Least-squares temporal-difference actor-critic on a restart SSP.

One simulation step per iteration: query the transition probabilities of the
current (state, action) pair from the lazy source (``SspTransitionSource``,
which holds the only memo of rows, so each model row is obtained at most
once per run, and lifts it along the product's own rows), sample the
successor, restart at the terminal, and sample the next action from the
lookahead policy. The critic accumulates
eligibility-trace statistics

    z' = lam * z + psi(x_k, u_k)
    b' = b + gamma_k * (g(x_k, u_k) * z - b)
    A' = A + gamma_k * (z (psi(x_{k+1}, u_{k+1}) - psi(x_k, u_k))^T - A)

and refreshes its solution r = -A^{-1} b once the statistics are usable;
the actor then descends theta along (r . psi') psi'. The published update
uses the pre-update z, A, b and the pre-update r throughout; a flag switches
the solve to the post-update statistics. The stopping test reads an EMA of
the step direction's norm, with the fixed decay ``EMA_DECAY``.

The statistics are usable once the smallest singular value of the 2x2
solve target reaches ``gate_sigma``. ``gate_open`` takes it in closed form
and asks the SVD only when the closed form lies within a rounding band of
the threshold, so the decision is always the SVD's.

The recursion is one function of floats, ``learner_step``'s; ``run`` holds
z, b, A, r, theta and the gradient EMA as locals and passes them through it
once per iteration. Every number is a Python float: the dot products are
formed left to right, and r comes from ``solve_2x2``, an LU factorization
with partial pivoting written in floats, so no step depends on the BLAS or
LAPACK kernel. The random draws come from ``Pcg64``, numpy's ``default_rng``
stream drawn in Python, so a step asks numpy only for the policy's one
``np.exp`` call, and that kernel alone decides a sample path's bits.

The run's record, ``RunTrace``, is a set of typed columns (stdlib
``array``s of doubles and 64-bit ints), one row per iteration, so it grows
by 64 bytes an iteration; the row index is the iteration, and text is
formatted only when ``write_csv`` writes ``trace.csv``, once per run of
equal values in a float column.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .lookahead import LookaheadPolicy
from .synthesis import SspModel, SspTransitionSource


Pair = tuple[float, float]


# Decay of the gradient-norm EMA that the stopping test reads.
EMA_DECAY = 0.99

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Pcg64:
    """The doubles of numpy's ``default_rng(seed)``, bit for bit, drawn in
    Python: O'Neill's PCG64 (XSL-RR 128/64) seeded through numpy's
    ``SeedSequence``, so a run never loads numpy's generator module (nor
    the ``secrets`` and ``hashlib`` it imports)."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed & _MASK32]  # little-endian 32-bit words
        while seed := seed >> 32:
            entropy.append(seed & _MASK32)
        mult = 0x43B0D7E5

        def hashmix(x: int) -> int:
            nonlocal mult
            x ^= mult
            mult = mult * 0x931E8875 & _MASK32
            x = x * mult & _MASK32
            return x ^ x >> 16

        def mix(x: int, y: int) -> int:
            x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return x ^ x >> 16

        # SeedSequence: hash the words into a pool of four, mix every pool
        # word into every other, fold in the words past the fourth...
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # ...and emit eight words, paired little-endian into s0..s3.
        mult, words = 0x8B51F9DD, []
        for i in range(8):
            x = pool[i % 4] ^ mult
            mult = mult * 0x58F38DED & _MASK32
            x = x * mult & _MASK32
            words.append(x ^ x >> 16)
        s0, s1, s2, s3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        # PCG64 seeding from state 0: a step (state = inc), add s0:s1, a step.
        self.inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _MASK128

    def random(self) -> float:
        """The next double in [0, 1): a step, then the top 53 bits of the
        XSL-RR output, the 64-bit hi ^ lo rotated right by hi >> 58."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        hi = s >> 64
        x = (hi ^ s) & _MASK64
        return ((x << 64 | x) >> ((hi >> 58) + 11) & _MASK53) * 2.0 ** -53


@dataclass
class ActorCriticConfig:
    """The learner's step sizes, gates, and termination for a single run,
    declared once here (``pipeline.RunConfig`` extends them).

    gamma_k = (1 + k)^-gamma_exponent and beta_k = beta_scale *
    (1 + k)^-beta_exponent satisfy the two-timescale requirement
    beta_k / gamma_k -> 0 (the critic adapts faster than the actor).
    """

    lam: float = 0.9
    gamma_exponent: float = 0.6
    beta_scale: float = 0.05
    beta_exponent: float = 0.85
    clip: float = 10.0               # bound C in Gamma(r) = min(1, C / ||r||)
    epsilon: float = 1e-4            # stop once the gradient-norm EMA falls below
    max_iters: int = 5000
    min_iters: int = 100             # no stopping test before this many iterations
    gate_iters: int = 50             # no critic solve before this many iterations
    gate_sigma: float = 1e-8         # smallest singular value A must reach
    reset_trace_on_restart: bool = False
    solve_with_updated_stats: bool = False
    seed: int = 0

    def gamma(self, k: int) -> float:
        return (1.0 + k) ** -self.gamma_exponent

    def beta(self, k: int) -> float:
        return self.beta_scale * (1.0 + k) ** -self.beta_exponent


@dataclass
class RunTrace:
    """Per-iteration record of one actor-critic run, one typed column per
    field (stdlib ``array``s, 8 bytes a cell): row k is iteration k, so
    ``iterations`` is the column length.

    ``theta1``, ``theta2``, ``r1``, ``r2`` and ``costs`` are doubles: the
    theta the iteration acted with, the critic solution it read, and the
    one-step cost. ``episodes``, ``pairs`` (pairs computed so far) and
    ``states`` (the SSP state visited) are 64-bit ints. ``stale_solves``
    (the iterations past the gate whose critic solve did not refresh r) is
    sparse. The run records no exact values; ``write_csv`` takes them.
    """

    theta1: array = field(default_factory=lambda: array("d"))
    theta2: array = field(default_factory=lambda: array("d"))
    r1: array = field(default_factory=lambda: array("d"))
    r2: array = field(default_factory=lambda: array("d"))
    costs: array = field(default_factory=lambda: array("d"))
    episodes: array = field(default_factory=lambda: array("q"))
    pairs: array = field(default_factory=lambda: array("q"))
    states: array = field(default_factory=lambda: array("q"))
    stale_solves: list[int] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.costs)

    def write_csv(self, f, curve: dict[int, float]) -> None:
        """``trace.csv``, with ``curve[k]`` as row k's ``exact_prob``."""
        f.write("k,theta1,theta2,r1,r2,cost,episodes,pairs_computed,exact_prob\n")
        f.writelines(
            f"{k},{t1},{t2},{r1},{r2},{cost},{episodes},{pairs},"
            f"{'' if (ex := curve.get(k)) is None else repr(ex)}\n"
            for k, t1, t2, r1, r2, cost, episodes, pairs in zip(
                range(self.iterations), _reprs(self.theta1), _reprs(self.theta2),
                _reprs(self.r1), _reprs(self.r2), _reprs(self.costs), self.episodes,
                self.pairs))


def _reprs(column: array) -> Iterator[str]:
    """``repr`` of each float of ``column``, formatted once per run of equal
    values (0.0 and -0.0 compare equal but print apart; no NaN is equal)."""
    prev = text = None
    for x in column:
        if x != prev or (not x and math.copysign(1.0, x) != math.copysign(1.0, prev)):
            prev, text = x, repr(x)
        yield text


# Closed-form singular values of a 2x2 matrix are within a few ulps of
# sigma_max of the exact ones, and so is LAPACK's SVD (backward stable): a
# closed-form sigma_min farther than this from the threshold is on the same
# side of it as the SVD's. The absolute floor covers subnormal rounding.
_GATE_BAND_REL = 1e-13
_GATE_BAND_ABS = 1e-300


def gate_open(A: np.ndarray | tuple[Pair, Pair], gate_sigma: float) -> bool:
    """``np.linalg.svd(A, compute_uv=False)[-1] >= gate_sigma`` for a 2x2
    ``A`` (an array or two rows of floats), with the SVD run only near the
    threshold or on non-finite input."""
    (a, b), (c, d) = A
    q = math.hypot(a + d, c - b)
    r = math.hypot(a - d, c + b)
    sigma_min = 0.5 * abs(q - r)
    band = _GATE_BAND_REL * 0.5 * (q + r) + _GATE_BAND_ABS
    if abs(sigma_min - gate_sigma) > band:
        return sigma_min >= gate_sigma
    return bool(np.linalg.svd(A, compute_uv=False)[-1] >= gate_sigma)


def solve_2x2(A: tuple[Pair, Pair], b: Pair) -> Pair | None:
    """x with A x = b, by LU factorization with partial pivoting (rows swap
    when |a10| > |a00|, as LAPACK's ``getrf`` pivots); None when a pivot is
    exactly zero, where ``getrf`` reports A singular."""
    (a00, a01), (a10, a11) = A
    b0, b1 = b
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, b0, b1 = a10, a11, a00, a01, b1, b0
    if a00 == 0.0:
        return None
    l10 = a10 / a00
    u11 = a11 - l10 * a01
    if u11 == 0.0:
        return None
    x1 = (b1 - l10 * b0) / u11
    return (b0 - a01 * x1) / a00, x1


def learner_step(cfg: ActorCriticConfig) -> Callable[..., tuple]:
    """The recursion of the module docstring under ``cfg``, one iteration's
    critic and actor updates: ``step(z0, z1, b0, b1, a00, a01, a10, a11, r0,
    r1, t0, t1, ema, psi_now, psi_next, cost, k)`` takes the 13 floats (z,
    b, A by rows, r, theta, the gradient EMA), the iteration's psi pairs,
    cost and k, and returns the 13 new floats and whether r was refreshed.
    ``cfg`` and ``EMA_DECAY`` are read once, when the step is made.
    """
    lam, clip, gamma, beta = cfg.lam, cfg.clip, cfg.gamma, cfg.beta
    gate_iters, gate_sigma, updated = cfg.gate_iters, cfg.gate_sigma, cfg.solve_with_updated_stats
    decay, sqrt = EMA_DECAY, math.sqrt
    keep = 1.0 - decay

    def step(z0, z1, b0, b1, a00, a01, a10, a11, r0, r1, t0, t1, ema,
             psi_now, psi_next, cost, k):
        gamma_k = gamma(k)
        if gamma_k <= 0:
            raise ValueError("critic step size must be positive")
        beta_k = beta(k)
        if beta_k <= 0:
            raise ValueError("actor step size must be positive")
        # The actor, along (r . psi') psi' at the pre-update r, clipped by Gamma(r).
        n0, n1 = psi_next
        scale = r0 * n0 + r1 * n1
        d0, d1 = scale * n0, scale * n1
        r_norm = sqrt(r0 * r0 + r1 * r1)
        size = beta_k * (1.0 if r_norm <= clip else clip / r_norm)
        t0, t1 = t0 - size * d0, t1 - size * d1
        ema = decay * ema + keep * sqrt(d0 * d0 + d1 * d1)
        # The critic, from the pre-update z; r from the pre-update b, A unless flagged.
        p0, p1 = psi_now
        d0, d1 = n0 - p0, n1 - p1
        A, rhs = ((a00, a01), (a10, a11)), (b0, b1)
        b0, b1 = b0 + gamma_k * (cost * z0 - b0), b1 + gamma_k * (cost * z1 - b1)
        a00, a01 = a00 + gamma_k * (z0 * d0 - a00), a01 + gamma_k * (z0 * d1 - a01)
        a10, a11 = a10 + gamma_k * (z1 * d0 - a10), a11 + gamma_k * (z1 * d1 - a11)
        z0, z1 = lam * z0 + p0, lam * z1 + p1
        if updated:
            A, rhs = ((a00, a01), (a10, a11)), (b0, b1)
        solved = False
        if k >= gate_iters and gate_open(A, gate_sigma):
            x = solve_2x2(A, rhs)
            if x is not None:
                r0, r1, solved = -x[0], -x[1], True
        return z0, z1, b0, b1, a00, a01, a10, a11, r0, r1, t0, t1, ema, solved

    return step


def run(ssp: SspModel, prob_source: SspTransitionSource, policy: LookaheadPolicy,
        cfg: ActorCriticConfig) -> tuple[Pair, RunTrace]:
    """Run the actor-critic loop until the gradient-norm EMA drops below
    epsilon (after ``min_iters``) or ``max_iters`` is hit.

    ``prob_source`` is queried at every step from a non-terminal state (the
    restart rule replaces the terminal's sampled successor); it memoizes the
    rows itself, and its ``pairs_computed`` count lands in every trace row.
    The run learns from sample paths alone: the trace's theta columns hold
    what every iteration acted with, so a caller judges the run after it.
    """
    rng = Pcg64(cfg.seed)
    step = learner_step(cfg)
    z0 = z1 = b0 = b1 = a00 = a01 = a10 = a11 = r0 = r1 = ema = 0.0
    t0, t1 = policy.theta
    trace = RunTrace()
    add_t0, add_t1, add_r0, add_r1, add_cost, add_episodes, add_pairs, add_state, stale = (
        c.append for c in (trace.theta1, trace.theta2, trace.r1, trace.r2, trace.costs,
                           trace.episodes, trace.pairs, trace.states, trace.stale_solves))
    bad, draw, sample_action = ssp.bad, rng.random, policy.sample_action
    gradient = policy.log_policy_gradient
    max_iters, min_iters, epsilon = cfg.max_iters, cfg.min_iters, cfg.epsilon
    gate_iters, reset = cfg.gate_iters, cfg.reset_trace_on_restart
    episodes = 0
    solved_once = False
    terminal, initial = ssp.terminal, ssp.initial

    x = initial
    u = sample_action(x, rng)
    for k in range(max_iters):
        cost = 1.0 if x in bad else 0.0  # ``SspModel.cost``
        psi_now = gradient(x, u)
        if x == terminal:
            x_next = initial
            if reset:
                z0 = z1 = 0.0
        else:
            # The successor: the first whose running weight sum exceeds a
            # draw, else the last; a one-entry row takes no draw.
            row = prob_source(x, u)
            x_next = row[-1][0]
            if len(row) > 1:
                at, acc = draw(), 0.0
                for succ, w in row:
                    acc += w
                    if at < acc:
                        x_next = succ
                        break
        if x_next == terminal:
            episodes += 1
        u_next = sample_action(x_next, rng)
        psi_next = gradient(x_next, u_next)
        # Row k: the theta iteration k acted with and the r it reads.
        add_t0(t0)
        add_t1(t1)
        add_r0(r0)
        add_r1(r1)
        add_cost(cost)
        add_episodes(episodes)
        add_pairs(prob_source.pairs_computed)
        add_state(x)
        z0, z1, b0, b1, a00, a01, a10, a11, r0, r1, t0, t1, ema, solved = step(
            z0, z1, b0, b1, a00, a01, a10, a11, r0, r1, t0, t1, ema,
            psi_now, psi_next, cost, k)
        solved_once = solved_once or solved
        if k >= gate_iters and not solved:
            stale(k)
        policy.theta = t0, t1

        # The stopping test only arms once the critic has produced a
        # solution, or once it provably would return zero (b identically
        # zero means r = -A^{-1} b = 0 whenever it solves at all).
        if (ema <= epsilon and k + 1 >= min_iters
                and (solved_once or (k >= gate_iters and not (b0 or b1)))):
            trace.converged = True
            break
        x, u = x_next, u_next

    return (t0, t1), trace
