"""Temporal-logic control synthesis for Markov decision processes.

Pipeline: labeled model x Rabin automaton product, accepting maximal end
components, reachability-to-shortest-path conversion, and a two-parameter
lookahead policy optimized by an LSTD actor-critic that only ever asks for
transition probabilities along its sample path. Exact dynamic-programming
oracles (value iteration, policy evaluation) provide the reference values.
"""

from .models import (
    LabeledModel,
    ModelError,
    ParseError,
    RabinAutomaton,
    dra_step,
    nts_from_mdp,
    parse_dra,
    parse_model,
    serialize_model,
)
from .synthesis import (
    Amec,
    ProductModel,
    SspModel,
    amecs,
    build_product,
    goal_and_bad_sets,
    max_end_components,
    mrp_to_ssp,
)
from .lookahead import LookaheadPolicy, min_distances
from .actor_critic import ActorCriticConfig, RunTrace, run
from .exact import ReachEvaluator, eval_policy_reach, expected_total_cost, max_reach
from .pipeline import RunConfig, compare, synthesize

__version__ = "0.1.0"

__all__ = [
    "ActorCriticConfig", "Amec", "LabeledModel",
    "LookaheadPolicy", "ModelError", "ParseError", "ProductModel",
    "RabinAutomaton", "ReachEvaluator", "RunConfig", "RunTrace", "SspModel",
    "amecs", "build_product", "compare", "dra_step",
    "eval_policy_reach", "expected_total_cost",
    "goal_and_bad_sets", "max_end_components",
    "max_reach", "min_distances", "mrp_to_ssp",
    "nts_from_mdp", "parse_dra", "parse_model", "run",
    "serialize_model", "synthesize",
]
