"""Orchestration: one entry point dispatching over counting strategies.

Small or width-two inputs go straight to an exact oracle.  The remaining
strategies share a two-phase shape: explore the search tree until either
the exact count is in hand or at least ``ell`` models are certified, and
in the latter case estimate by sampling.  The two reduction-based
strategies first compute a variable-disjoint group set, falling back to a
width-(k-1) recursion when the groups look too loose to help.  A pilot
draw from the root universe (the full cube without groups, the group
product with them) estimates the model count; with it, the cut's
frontier walk decides how far to go, and the sampler then draws from the
frontier's nodes, which hold every model, not from the root universe.
A sample budget bounds the pilot's draws and the sampler's together; a
budget below twice the pilot's draws skips the pilot, and the walk is
then sized by the cut's certified count alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula
from .cut import BranchKind, CutKind, cut, frontier
from .exact import BRUTE_FORCE_MAX_VARS, brute_force_count, count_2sat_exact
from .mc import PILOT_WORDS, Estimate, mc_estimate, run_hits, run_pilot
from .params import Strategy, params_for
from .rng import derived_generator
from .structs import EMPTY_STRUCT_SET, red_clauses, red_structs

SMALL_N_DEFAULT = 18
SAMPLE_BUDGET_DEFAULT = 1 << 24


@dataclass(frozen=True)
class CounterConfig:
    """Knobs for the dispatcher; the defaults suit desk-scale runs."""

    small_n: int = SMALL_N_DEFAULT
    brute_force_guard: int = BRUTE_FORCE_MAX_VARS
    sample_budget: int | None = SAMPLE_BUDGET_DEFAULT

    def __post_init__(self):
        if self.sample_budget is not None and self.sample_budget < 1:
            raise ValueError("sample_budget must be at least 1")


DEFAULT_CONFIG = CounterConfig()


def _exact_estimate(value: int, eps: float, delta: float,
                    seed: int | None) -> Estimate:
    return Estimate(value=value, exact=True, epsilon=eps, delta=delta,
                    seed=seed, lower_bound=value)


def _with_cut_work(est: Estimate, cut_result) -> Estimate:
    return dataclasses.replace(
        est,
        decider_calls=est.decider_calls + cut_result.decider_calls,
        branch_nodes=est.branch_nodes + cut_result.branch_nodes)


def approx_count(phi: CnfFormula, eps: float, delta: float,
                 strategy: Strategy = Strategy.INDEP_STRUCTS,
                 seed: int | None = None,
                 config: CounterConfig = DEFAULT_CONFIG) -> Estimate:
    """Count models of ``phi`` within relative error ``eps``, failure ``delta``.

    Results flagged ``exact`` carry no sampling error at all; otherwise
    the value is eps-accurate with probability at least 1 - delta.  The
    same (seed, strategy, eps, delta) replays bit-identically.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    n = phi.num_vars

    if any(len(c) == 0 for c in phi.clauses):
        return _exact_estimate(0, eps, delta, seed)
    if not phi.clauses:
        return _exact_estimate(1 << n, eps, delta, seed)

    if strategy is Strategy.BRUTE_FORCE:
        got = brute_force_count(phi, max_vars=config.brute_force_guard)
        return _exact_estimate(got.value, eps, delta, seed)
    if phi.k <= 2:
        got = count_2sat_exact(phi)
        return _exact_estimate(got.value, eps, delta, seed)
    if n <= config.small_n:
        got = brute_force_count(phi, max_vars=config.brute_force_guard)
        return _exact_estimate(got.value, eps, delta, seed)

    params = params_for(phi.k, n, strategy)
    root = np.random.SeedSequence(seed)
    mc_rng = derived_generator(root, "mc", phi.k, n)

    if strategy is Strategy.THURLEY:
        branching = BranchKind.BINARY
        psi = EMPTY_STRUCT_SET
    elif strategy is Strategy.PRUNED_TREE:
        branching = BranchKind.PRUNED_CLAUSE
        psi = EMPTY_STRUCT_SET
    elif strategy in (Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS):
        branching = BranchKind.STRUCT_GUIDED
        psi = None
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if psi is None:
        counter_state = {"next": 0}

        def recursive_counter(sub: CnfFormula, sub_eps: float,
                              sub_delta: float) -> Estimate:
            child = derived_generator(root, "branch", counter_state["next"])
            counter_state["next"] += 1
            child_seed = int(child.integers(0, 2 ** 63))
            return approx_count(sub, sub_eps, sub_delta, strategy=strategy,
                                seed=child_seed, config=config)

        if strategy is Strategy.INDEP_STRUCTS:
            outcome = red_structs(phi, params, eps, delta, recursive_counter)
        else:
            outcome = red_clauses(phi, params.m_hat, eps, delta,
                                  recursive_counter)
        if outcome.estimate is not None:
            return dataclasses.replace(outcome.estimate, seed=seed)
        psi = outcome.struct_set

    ell = params.ell
    result = cut(phi, psi, ell, branching)
    if result.kind is CutKind.EXACT:
        est = _exact_estimate(result.count, eps, delta, seed)
        return _with_cut_work(est, result)
    # the pilot's draws count against the budget, so it runs only when it
    # takes at most half of it
    budget, first = config.sample_budget, None
    if budget is None or budget >= 2 * PILOT_WORDS:
        first = run_pilot(phi, psi, derived_generator(root, "pilot", phi.k, n))
        if budget is not None:
            budget -= PILOT_WORDS
    walk = frontier(result, run_hits(result.count, ell, eps, delta),
                    models=first.models if first else 0)
    est = mc_estimate(phi, psi, ell, eps, delta, mc_rng, seed=seed,
                      sample_budget=budget, nodes=walk.all_nodes, pilot=first)
    est = dataclasses.replace(est, frontier_nodes=walk.vetted)
    return _with_cut_work(est.with_lower_bound(result.count), result)
