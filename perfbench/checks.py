"""Output checks applied to every benchmark repetition, outside the timed region.

Each check returns a list of failure messages (empty when the output is
right), so one repetition can report several problems and a test can make
each check fire on forged input.
"""

from __future__ import annotations

RESIDUAL_TOL = 1e-9
PROBABILITY_TOL = 1e-12
# Exact optimum of the shipped desk task (tasks/desk.json with
# tasks/mission.dra); max_reach returns it to the last digit.
DESK_OPTIMUM = 0.89019
# Above this many unknowns the exact solver leaves its dense path; the
# capacity workload must stay above it.
DENSE_UNKNOWNS = 5000


def bellman_residual(model, values, targets, zeros) -> float:
    """Largest |v(q) - max_u sum_s P(q, u, s) v(s)| over the model, with
    v = 1 required on ``targets`` and v = 0 on ``zeros``."""
    worst = 0.0
    for q in range(model.n_states):
        if q in targets:
            expect = 1.0
        elif q in zeros:
            expect = 0.0
        else:
            expect = max(sum(w * values[s] for s, w in model.successors(q, u))
                         for u in model.enabled[q])
        worst = max(worst, abs(values[q] - expect))
    return worst


def read_values(path) -> list[float]:
    """The per-state values of a written ``values.csv``."""
    with open(path) as f:
        header = f.readline().strip()
        if header != "state,value":
            raise ValueError(f"unexpected values.csv header {header!r}")
        rows = [line.split(",") for line in f if line.strip()]
    if [int(q) for q, _ in rows] != list(range(len(rows))):
        raise ValueError("values.csv rows are not states 0..n-1 in order")
    return [float(v) for _, v in rows]


def check_exact(model, values, goal, bad, final, optimum) -> list[str]:
    """Exact values are Bellman-optimal and the learned policy stays below
    the optimum they give."""
    failures = []
    if len(values) != model.n_states:
        return [f"values.csv has {len(values)} states, the product has {model.n_states}"]
    residual = bellman_residual(model, values, goal, bad)
    if not residual <= RESIDUAL_TOL:
        failures.append(f"Bellman residual {residual:.3e} exceeds {RESIDUAL_TOL:g}")
    if optimum is None or not optimum > 0:
        failures.append(f"optimum {optimum!r} is not positive")
    elif abs(values[model.initial] - optimum) > PROBABILITY_TOL:
        failures.append(f"optimum {optimum!r} differs from the initial state's "
                        f"value {values[model.initial]!r}")
    if final is None or optimum is None or not final <= optimum + PROBABILITY_TOL:
        failures.append(f"final probability {final!r} exceeds optimum {optimum!r}")
    return failures


def check_desk_optimum(optimum) -> list[str]:
    if optimum is None or abs(optimum - DESK_OPTIMUM) > PROBABILITY_TOL:
        return [f"desk optimum {optimum!r} is not {DESK_OPTIMUM!r}"]
    return []


def needable_pairs(ssp, product) -> int:
    """Model (state, action) pairs whose probabilities some sample path could
    ask for: those of SSP states that are neither the terminal nor restart
    states (the lazy source answers those two without the model)."""
    needed = set()
    for state, old in enumerate(ssp.origin):
        if old < 0 or state in ssp.bad:
            continue
        q = product.projection[old][0]
        needed.update((q, u) for u in ssp.base.enabled[state])
    return len(needed)


def check_lazy(pairs_computed: int, needable: int, iterations: int) -> list[str]:
    """The lazy source computes each pair at most once, one per step at most,
    and never a pair no sample path can need."""
    failures = []
    if pairs_computed > iterations:
        failures.append(f"{pairs_computed} pairs computed in {iterations} iterations")
    if pairs_computed > needable:
        failures.append(f"{pairs_computed} pairs computed, but sample paths can "
                        f"need only {needable}")
    return failures


def check_instance(ctx, k: int) -> list[str]:
    """A generated lattice task is non-trivial, has a positive optimum (the
    initial state can possibly reach an accepting component), and at k >= 20
    keeps more unknowns than the dense solver takes."""
    failures = []
    if ctx.trivial:
        failures.append("initial state is already in the goal set")
    if ctx.zero_probability:
        failures.append("optimum is 0: no accepting component is reachable")
    unknowns = unknown_count(ctx)
    if k >= 20 and not unknowns > DENSE_UNKNOWNS:
        failures.append(f"{unknowns} unknowns, not above {DENSE_UNKNOWNS}")
    return failures


def unknown_count(ctx) -> int:
    """Product states whose optimal value is neither fixed at 1 (goal) nor at
    0 (cannot reach the goal): the exact solver's unknowns."""
    return ctx.product.base.n_states - len(ctx.goal) - len(ctx.bad)


def check_same_trace(first: str, digest: str) -> list[str]:
    """A repetition at the same seed wrote a byte-identical trace.csv
    (compared by digest)."""
    if digest != first:
        return [f"trace.csv digest {digest[:12]} differs from {first[:12]} at the same seed"]
    return []
