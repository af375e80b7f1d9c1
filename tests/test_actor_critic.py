import dataclasses
import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tlcontrol import actor_critic
from tlcontrol.actor_critic import (
    ActorCriticConfig,
    ActorState,
    CriticState,
    Pcg64,
    actor_update,
    critic_update,
    gate_open,
    run,
    solve_2x2,
)
from tlcontrol.lookahead import LookaheadPolicy
from tlcontrol.models import parse_model
from tlcontrol.synthesis import SspModel
from dict_reference import model_rows


def csv_text(trace):
    """The ``trace.csv`` text that ``trace.write_csv`` writes."""
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


def test_critic_decay_only():
    c = CriticState(z=np.zeros(2), b=np.array([1.0, 2.0]), A=np.zeros((2, 2)),
                    r=np.zeros(2), lam=0.0)
    out, _ = critic_update(c, np.zeros(2), np.zeros(2), 0.0, gamma_k=0.25, k=0)
    assert np.allclose(out.z, 0.0)
    assert np.allclose(out.b, 0.75 * np.array([1.0, 2.0]))


def test_critic_first_step_uses_pre_update_trace():
    c = CriticState.zeros(lam=0.9)
    psi_now = np.array([1.0, 0.0])
    psi_next = np.array([0.0, 1.0])
    out, solved = critic_update(c, psi_now, psi_next, cost=1.0, gamma_k=1.0, k=0)
    assert np.allclose(out.z, psi_now)
    # cost * z uses the pre-update (zero) trace, so b stays zero.
    assert np.allclose(out.b, 0.0)
    assert np.allclose(out.A, np.outer(np.zeros(2), psi_next - psi_now))
    assert not solved  # gate closed before 50 iterations


def test_critic_matches_straight_line_replay(rng):
    # Independent re-implementation of the recurrences, no shared code.
    lam, n = 0.62, 100
    psis = rng.normal(size=(n + 1, 2))
    costs = rng.random(n)
    gammas = 1.0 / (1.0 + np.arange(n)) ** 0.6
    z = np.zeros(2)
    b = np.zeros(2)
    A = np.zeros((2, 2))
    for k in range(n):
        z_new = lam * z + psis[k]
        b_new = b + gammas[k] * (costs[k] * z - b)
        A_new = A + gammas[k] * (np.outer(z, psis[k + 1] - psis[k]) - A)
        z, b, A = z_new, b_new, A_new
    c = CriticState.zeros(lam=lam)
    for k in range(n):
        c, _ = critic_update(c, psis[k], psis[k + 1], costs[k], gammas[k], k,
                             gate_iters=10 ** 9)
    assert np.allclose(c.z, z) and np.allclose(c.b, b) and np.allclose(c.A, A)


def test_critic_gate_and_indexing_flag():
    c = CriticState(z=np.array([1.0, 2.0]), b=np.array([0.5, -0.5]),
                    A=np.array([[2.0, 0.0], [0.0, 1.0]]), r=np.array([9.0, 9.0]),
                    lam=0.9)
    psi_now, psi_next = np.array([0.3, 0.1]), np.array([0.2, 0.4])
    # Literal indexing: r from the pre-update statistics.
    out, solved = critic_update(c, psi_now, psi_next, 1.0, 0.1, k=100)
    assert solved
    assert np.allclose(out.r, -np.linalg.solve(c.A, c.b))
    # Flagged: r from the post-update statistics.
    out2, solved2 = critic_update(c, psi_now, psi_next, 1.0, 0.1, k=100,
                                  solve_with_updated_stats=True)
    assert solved2
    assert np.allclose(out2.r, -np.linalg.solve(out2.A, out2.b))
    # Before the gate opens, r is carried over unchanged.
    out3, solved3 = critic_update(c, psi_now, psi_next, 1.0, 0.1, k=10)
    assert not solved3 and np.allclose(out3.r, c.r)
    # A singular solve target also carries r over.
    sing = CriticState(z=c.z, b=c.b, A=np.zeros((2, 2)), r=c.r, lam=0.9)
    out4, solved4 = critic_update(sing, psi_now, psi_next, 1.0, 0.1, k=100)
    assert not solved4 and np.allclose(out4.r, c.r)


@st.composite
def solve_cases(draw):
    """A nonsingular 2x2 system at unit, 1e-8 or 1e8 scale: random, with
    the rows ordered so that partial pivoting swaps them (|a10| > |a00|),
    or near-singular."""
    kind = draw(st.sampled_from(["random", "swap", "near_singular"]))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e8]))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    A = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    if kind == "swap":
        A[1, 0] = np.copysign(abs(A[0, 0]) + draw(st.floats(1e-3, 1.0)), A[1, 0])
    elif kind == "near_singular":
        A[1] = A[0] * draw(unit) + np.array([draw(unit), draw(unit)]) * 1e-9
    b = np.array([draw(unit), draw(unit)])
    return A * scale, b


@settings(max_examples=400, deadline=None)
@given(case=solve_cases())
# A solution whose norm overflows: the error is measured against want's scale.
@example(case=(np.array([[0.0, 1.79839118e-246], [1.79839118e-246, 0.0]]),
               np.array([0.0, 1.0])))
def test_float_solve_matches_lapack_within_the_condition_bound(case):
    A, b = case
    # Both are backward-stable LU solves with partial pivoting, so each is
    # within a few eps * cond(A) of the exact solution (relative). Past
    # 1 / (16 eps) no digit of x is determined, and either may find A
    # singular (LAPACK scales by the pivot's reciprocal, solve_2x2 divides).
    with np.errstate(all="ignore"):
        rel = 16 * np.finfo(float).eps * np.linalg.cond(A)
    if not rel < 1.0:
        return
    want = np.linalg.solve(A, b)
    got = solve_2x2(A.tolist(), b.tolist())
    assert got is not None and all(type(x) is float for x in got)
    # Both sides divided by want's largest entry, so that no norm overflows.
    scale = np.abs(want).max() or 1.0
    assert (np.linalg.norm((np.array(got) - want) / scale)
            <= rel * np.linalg.norm(want / scale) + 1e-300)


def test_exactly_singular_solve_leaves_r_stale():
    # A zero first column (a zero pivot) and an exactly zero u11.
    for A in (((0.0, 1.0), (0.0, 2.0)), ((2.0, 3.0), (4.0, 6.0)), ((4.0, 6.0), (2.0, 3.0))):
        assert solve_2x2(A, (1.0, 1.0)) is None
        c = CriticState(z=(0.0, 0.0), b=(1.0, -1.0), A=A, r=(9.0, 9.0), lam=0.9)
        out, solved = critic_update(c, (0.0, 0.0), (0.0, 0.0), 0.0, 0.1, k=100, gate_sigma=0.0)
        assert not solved and out.r == (9.0, 9.0)
    # In a run: every state has one action, so psi = 0, A stays zero and the
    # open gate finds it singular at every iteration past gate_iters.
    chain = parse_model("states 2\ninitial 0\nmode nts\ntrans 0 a 1 1\ntrans 1 a 1 1")
    ssp = SspModel(base=chain, terminal=1, bad=frozenset(), origin=(0, -1))
    cfg = ActorCriticConfig(max_iters=30, min_iters=10 ** 9, gate_iters=10, gate_sigma=0.0)
    _theta, trace = run(ssp, CountingSource(model_rows(chain)), LookaheadPolicy(ssp, horizon=1),
                        cfg)
    assert trace.stale_solves == list(range(10, 30))
    assert not any(trace.r1) and not any(trace.r2)


def test_desk_run_never_calls_the_lapack_solve(tmp_path, monkeypatch):
    # The step's 2x2 solve is solve_2x2's: a desk run whose np.linalg.solve
    # fails completes and refreshes r past the gate.
    from tlcontrol.pipeline import RunConfig, synthesize

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), outdir=str(tmp_path),
                              exact_reference=False, eval_every=0, max_iters=2000, seed=1)
    trace = synthesize(cfg).trace
    assert trace.iterations == 2000
    assert len(trace.stale_solves) < trace.iterations - cfg.gate_iters


def test_actor_update_trivial_cases():
    a = ActorState(theta=np.array([5.0, -0.5]), grad_ema=0.0)
    same = actor_update(a, np.array([1.0, 1.0]), np.zeros(2), 0.1)
    assert np.allclose(same.theta, a.theta)
    orth = actor_update(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1)
    assert np.allclose(orth.theta, a.theta)
    moved = actor_update(a, np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.1)
    # r . psi = 1 and ||r|| <= C, so theta decreases by 0.1 * (1, 1).
    assert np.allclose(moved.theta, a.theta - 0.1 * np.array([1.0, 1.0]))


def test_actor_clip_bounds_large_r():
    a = ActorState(theta=np.zeros(2), grad_ema=0.0)
    r = np.array([1000.0, 0.0])
    out = actor_update(a, r, np.array([1.0, 0.0]), beta_k=1.0, clip=10.0)
    # Gamma(r) = 10 / 1000 rescales the raw direction (1000, 0).
    assert np.allclose(out.theta, -np.array([10.0, 0.0]))


def _svd_gate(A, gate_sigma):
    return bool(np.linalg.svd(A, compute_uv=False)[-1] >= gate_sigma)


@st.composite
def gate_cases(draw):
    """A 2x2 matrix and a threshold: random, diagonal, rank-one or zero
    matrices at unit, 1e-8 and 1e8 scale, or a matrix whose smallest
    singular value lies within 1e-6 (relative) of the threshold."""
    kind = draw(st.sampled_from(["random", "diagonal", "rank_one", "zero", "near"]))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e8]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    if kind == "random":
        A = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    elif kind == "diagonal":
        A = np.diag([draw(unit), draw(unit)])
    elif kind == "rank_one":
        A = np.outer([draw(unit), draw(unit)], [draw(unit), draw(unit)])
    elif kind == "zero":
        A = np.zeros((2, 2))
    else:
        s_min = draw(st.floats(1e-9, 1.0))
        s_max = s_min * draw(st.floats(1.0, 1e6))
        a, b = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 2 * np.pi))
        rot = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        A = rot(a) @ np.diag([s_max, s_min]) @ rot(b)
        gate = s_min * scale * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        return A * scale, gate
    A = A * scale
    gate = draw(st.sampled_from(["default", "zero", "free", "at_svd", "above_svd", "below_svd"]))
    s_svd = float(np.linalg.svd(A, compute_uv=False)[-1])
    return A, {"default": 1e-8, "zero": 0.0,
               "free": draw(st.floats(0.0, 2.0)) * scale,
               "at_svd": s_svd,
               "above_svd": np.nextafter(s_svd, np.inf),
               "below_svd": np.nextafter(s_svd, -np.inf)}[gate]


@settings(max_examples=400, deadline=None)
@given(case=gate_cases())
def test_closed_form_gate_decides_like_the_svd(case):
    A, gate_sigma = case
    assert gate_open(A, gate_sigma) == _svd_gate(A, gate_sigma)


def test_gate_runs_the_svd_only_near_the_threshold(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called away from the threshold")

    monkeypatch.setattr(actor_critic.np.linalg, "svd", no_svd)
    A = np.array([[2.0, 0.5], [-0.3, 1.0]])
    assert gate_open(A, 1e-8)
    assert not gate_open(A, 10.0)
    assert not gate_open(np.zeros((2, 2)), 1e-8)
    assert not gate_open(np.outer([1.0, 2.0], [3.0, -1.0]), 1e-8)


def test_gate_falls_back_to_the_svd_on_non_finite_input():
    for bad in (np.nan, np.inf):
        A = np.array([[1.0, bad], [0.0, 1.0]])
        try:
            want = _svd_gate(A, 1e-8)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                gate_open(A, 1e-8)
        else:
            assert gate_open(A, 1e-8) == want


def _ema_after(magnitudes, decay=0.99):
    """The actor's gradient EMA after one step per magnitude: with r = (m, 0)
    and psi' = (1, 0), the update direction (r . psi') psi' has norm m."""
    a = ActorState(theta=np.zeros(2))
    for m in magnitudes:
        a = actor_update(a, np.array([m, 0.0]), np.array([1.0, 0.0]), 0.01,
                         clip=1e9, ema_decay=decay)
    return a.grad_ema


def test_gradient_norm_estimate():
    assert _ema_after([0.0] * 50) == 0.0
    m = 3.0
    est = _ema_after([m] * 5000)
    assert abs(est - m) <= 1e-15 * 5000 + m * 0.99 ** 5000 + 1e-9
    mags = [1.0, 2.0, 0.5, 4.0]
    for decay in (0.99, 0.5):
        ema = 0.0
        for x in mags:
            ema = decay * ema + (1.0 - decay) * x
        assert _ema_after(mags, decay) == pytest.approx(ema, rel=1e-12)


def _two_route_ssp():
    """Cost-free SSP: both actions at the start reach the terminal, one
    directly and one through a relay, so the policy gradient is nonzero
    but the expected cost is identically zero."""
    text = """
states 3
initial 0
mode nts
trans 0 a 2 1
trans 0 b 1 1
trans 1 a 2 1
trans 2 a 2 1
trans 2 b 2 1
"""
    base = parse_model(text)
    return SspModel(base=base, terminal=2, bad=frozenset(), origin=(0, 1, -1))


class CountingSource:
    def __init__(self, rows):
        self.rows = rows
        self.calls = []
        self.seen = set()

    def __call__(self, state, action):
        self.calls.append((state, action))
        self.seen.add((state, action))
        return self.rows[(state, action)]

    @property
    def pairs_computed(self):
        return len(self.seen)


def test_run_cost_free_instance_terminates_with_zero_estimate():
    ssp = _two_route_ssp()
    pol = LookaheadPolicy(ssp, horizon=1, theta=(0.5, -0.5))
    source = CountingSource(model_rows(ssp.base))
    cfg = ActorCriticConfig(max_iters=4000, min_iters=100, seed=3)
    theta, trace = run(ssp, source, pol, cfg)
    assert trace.converged
    assert all(c == 0.0 for c in trace.costs)
    # With zero cost, b stays zero, every solve returns r = 0, and theta
    # never moves.
    assert not any(trace.r1) and not any(trace.r2)
    assert np.allclose(theta, [0.5, -0.5])


def test_run_is_deterministic_and_queries_every_non_terminal_step():
    ssp = _two_route_ssp()
    cfg = ActorCriticConfig(max_iters=300, min_iters=10 ** 9, seed=7)
    outs = []
    for _ in range(2):
        pol = LookaheadPolicy(ssp, horizon=1, theta=(0.5, -0.5))
        source = CountingSource(model_rows(ssp.base))
        theta, trace = run(ssp, source, pol, cfg)
        outs.append((trace.theta1, trace.theta2, csv_text(trace), source.calls))
    assert outs[0] == outs[1]
    # The memo is the source's: run() asks at every step but the terminal's,
    # and each trace row carries the source's count.
    assert [x for x, _u in source.calls] == [x for x in trace.states if x != ssp.terminal]
    assert trace.pairs[-1] == len(set(source.calls))


def same_stream(seed, draws):
    ours, oracle = Pcg64(seed), np.random.default_rng(seed)
    return all(ours.random() == oracle.random() for _ in range(draws))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 127 + 5])
def test_pcg64_draws_numpys_stream_at_edge_seeds(seed):
    # One, two, three and four seed words, and the largest word values.
    assert same_stream(seed, 5000)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1))
def test_pcg64_draws_numpys_stream(seed):
    assert same_stream(seed, 1000)


def test_run_rejects_a_negative_seed_as_numpy_does():
    ssp = _two_route_ssp()
    pol = LookaheadPolicy(ssp, horizon=1, theta=(0.5, -0.5))
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        run(ssp, CountingSource(model_rows(ssp.base)), pol, ActorCriticConfig(seed=-1))


def test_run_restarts_at_initial_and_counts_episodes():
    ssp = _two_route_ssp()
    pol = LookaheadPolicy(ssp, horizon=1, theta=(0.0, 0.0))
    source = CountingSource(model_rows(ssp.base))
    cfg = ActorCriticConfig(max_iters=500, min_iters=10 ** 9, seed=1)
    _theta, trace = run(ssp, source, pol, cfg)
    states = trace.states
    arrivals = 0
    for i, s in enumerate(states[:-1]):
        if s == ssp.terminal:
            assert states[i + 1] == ssp.initial
        if states[i + 1] == ssp.terminal and s != ssp.terminal:
            arrivals += 1
        assert trace.episodes[i + 1] - trace.episodes[i] in (0, 1)
    assert trace.episodes[-1] in (arrivals, arrivals + 1)
    assert trace.episodes[-1] > 0


def test_run_theta_drift_bounded_without_cost():
    ssp = _two_route_ssp()
    pol = LookaheadPolicy(ssp, horizon=1, theta=(1.0, 1.0))
    source = CountingSource(model_rows(ssp.base))
    cfg = ActorCriticConfig(max_iters=2000, min_iters=10 ** 9, seed=5)
    theta, trace = run(ssp, source, pol, cfg)
    thetas = np.column_stack((trace.theta1, trace.theta2))
    steps = np.linalg.norm(np.diff(thetas, axis=0), axis=1)
    psi_bound = max(np.linalg.norm(pol.log_policy_gradient(s, u))
                    for s in range(ssp.base.n_states) if s != ssp.terminal
                    for u in ssp.base.enabled[s]) + 1e-12
    for k in range(len(steps)):
        beta = cfg.beta(k)
        assert steps[k] <= beta * cfg.clip * psi_bound ** 2 + 1e-12


def test_two_timescale_schedules():
    cfg = ActorCriticConfig()
    ratios = [cfg.beta(k) / cfg.gamma(k) for k in (0, 10, 100, 1000, 10 ** 5)]
    assert all(b > 0 and g > 0 for b, g in
               [(cfg.beta(k), cfg.gamma(k)) for k in (0, 1, 10, 100)])
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1 * ratios[0]
    # Step sizes are non-increasing in k.
    betas = [cfg.beta(k) for k in range(50)]
    gammas = [cfg.gamma(k) for k in range(50)]
    assert betas == sorted(betas, reverse=True)
    assert gammas == sorted(gammas, reverse=True)


def test_trace_reset_flag_changes_dynamics():
    ssp = _two_route_ssp()
    results = []
    for flag in (False, True):
        pol = LookaheadPolicy(ssp, horizon=1, theta=(0.5, -0.5))
        source = CountingSource(model_rows(ssp.base))
        cfg = ActorCriticConfig(max_iters=200, min_iters=10 ** 9, seed=2,
                                reset_trace_on_restart=flag, lam=0.9)
        _theta, trace = run(ssp, source, pol, cfg)
        results.append(csv_text(trace))
    # The sampled path is identical; only the critic columns may differ.
    first = [row.split(",")[:3] for row in results[0].splitlines()]
    second = [row.split(",")[:3] for row in results[1].splitlines()]
    assert first == second


def test_eval_callback_cadence():
    ssp = _two_route_ssp()
    pol = LookaheadPolicy(ssp, horizon=1, theta=(0.5, -0.5))
    source = CountingSource(model_rows(ssp.base))
    cfg = ActorCriticConfig(max_iters=100, min_iters=10 ** 9, seed=2, eval_every=25)
    seen = []

    def evaluator(theta):
        seen.append(tuple(theta))
        return 0.5

    _theta, trace = run(ssp, source, pol, cfg, evaluator=evaluator)
    assert sorted(trace.exact) == [0, 25, 50, 75]
    assert all(v == 0.5 for v in trace.exact.values())
    assert len(seen) == 4


def test_run_trace_keeps_at_most_80_bytes_per_iteration():
    # The record a run returns grows by one row of eight 8-byte cells per
    # iteration (plus the columns' over-allocation). Desk in lazy mode,
    # where the record is all the run keeps: the difference between 2,000
    # and 6,000 iterations, read by tracemalloc as the bytes that dropping
    # the result frees.
    from tlcontrol.pipeline import RunConfig, load_task
    from tlcontrol.synthesis import SspTransitionSource

    cfg = dataclasses.replace(RunConfig.from_file("tasks/desk.json"), exact_reference=False,
                              eval_every=0, seed=1)
    ctx = load_task(cfg)

    def retained(iterations):
        source = SspTransitionSource(ctx.ssp, ctx.product, ctx.base_row)
        policy = LookaheadPolicy(ctx.ssp, horizon=cfg.horizon, theta=cfg.theta0)
        tracemalloc.start()
        try:
            result = run(ctx.ssp, source, policy,
                         dataclasses.replace(cfg, max_iters=iterations))
            assert result[1].iterations == iterations
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del result
            gc.collect()
            return held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert (retained(6000) - retained(2000)) / 4000 <= 80
