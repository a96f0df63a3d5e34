"""Orchestration: one entry point dispatching over counting strategies.

Anything but a ``Strategy`` is refused up front; small or width-two
inputs go straight to an exact oracle.  The rest explore the search tree
until the exact count is in hand or ``ell`` models are certified, then
sample.  One choice sets the branching rule and the groups: thurley and
pruned cut without groups; the reduction strategies compute a
variable-disjoint group set or, if it looks too loose to help, return
the width-(k-1) recursion's total, each branch counted here under a seed
derived from its index.  A pilot draw from the root universe (the full
cube without groups, the group product with them) estimates the model
count, which sizes the cut's frontier walk; the sampler draws from the
frontier's nodes, which hold every model.  A sample budget bounds the
pilot's and the sampler's draws together; one below twice the pilot's
draws skips the pilot, and the cut's certified count alone sizes the walk.
"""

from __future__ import annotations

import dataclasses
import itertools
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
                    seed: int | None, **work: int) -> Estimate:
    return Estimate(value=value, exact=True, epsilon=eps, delta=delta,
                    seed=seed, lower_bound=value, **work)


def approx_count(phi: CnfFormula, eps: float, delta: float,
                 strategy: Strategy = Strategy.INDEP_STRUCTS,
                 seed: int | None = None,
                 config: CounterConfig = DEFAULT_CONFIG) -> Estimate:
    """Count models of ``phi`` within relative error ``eps``, failure ``delta``.

    Results flagged ``exact`` carry no sampling error at all; otherwise
    the value is eps-accurate with probability at least 1 - delta.  The
    same (seed, strategy, eps, delta) replays bit-identically.
    """
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    n = phi.num_vars

    if any(len(c) == 0 for c in phi.clauses):
        return _exact_estimate(0, eps, delta, seed)
    if not phi.clauses:
        return _exact_estimate(1 << n, eps, delta, seed)

    if strategy is not Strategy.BRUTE_FORCE and phi.k <= 2:
        return _exact_estimate(count_2sat_exact(phi).value, eps, delta, seed)
    if strategy is Strategy.BRUTE_FORCE or n <= config.small_n:
        got = brute_force_count(phi, max_vars=config.brute_force_guard)
        return _exact_estimate(got.value, eps, delta, seed)

    params = params_for(phi.k, n, strategy)
    root = np.random.SeedSequence(seed)

    if strategy in (Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS):
        branching = BranchKind.STRUCT_GUIDED
        seeds = (int(derived_generator(root, "branch", i).integers(0, 2 ** 63))
                 for i in itertools.count())

        def recursive_counter(sub: CnfFormula, sub_eps: float,
                              sub_delta: float) -> Estimate:
            return approx_count(sub, sub_eps, sub_delta, strategy,
                                next(seeds), config)

        if strategy is Strategy.INDEP_STRUCTS:
            outcome = red_structs(phi, params, eps, delta, recursive_counter)
        else:
            outcome = red_clauses(phi, params.m_hat, eps, delta,
                                  recursive_counter)
        if outcome.estimate is not None:
            return dataclasses.replace(outcome.estimate, seed=seed)
        psi = outcome.struct_set
    else:
        branching = (BranchKind.BINARY if strategy is Strategy.THURLEY
                     else BranchKind.PRUNED_CLAUSE)
        psi = EMPTY_STRUCT_SET

    ell = params.ell
    result = cut(phi, psi, ell, branching)
    work = dict(decider_calls=result.decider_calls,
                branch_nodes=result.branch_nodes)
    if result.kind is CutKind.EXACT:
        return _exact_estimate(result.count, eps, delta, seed, **work)
    # the pilot's draws count against the budget, so it runs only when it
    # takes at most half of it
    budget, first = config.sample_budget, None
    if budget is None or budget >= 2 * PILOT_WORDS:
        first = run_pilot(phi, psi, derived_generator(root, "pilot", phi.k, n))
        if budget is not None:
            budget -= PILOT_WORDS
    walk = frontier(result, run_hits(result.count, ell, eps, delta),
                    models=first.models if first else 0)
    est = mc_estimate(phi, psi, ell, eps, delta,
                      derived_generator(root, "mc", phi.k, n), seed=seed,
                      sample_budget=budget, nodes=walk.all_nodes, pilot=first)
    return dataclasses.replace(est.with_lower_bound(result.count),
                               frontier_nodes=walk.vetted, **work)
