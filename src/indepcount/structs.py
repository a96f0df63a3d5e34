"""Variable-disjoint subformula discovery and the reduction step.

The reduction grows a pool of pairwise variable-disjoint clause groups.
Each group designates some of its variables as *closed*: growth only
continues through clauses that avoid every closed variable, so a group
whose clauses each contain a closed variable never grows again.  Four
rules (``match_library``) close one or two variables of a group of one to
three clauses joined in a chain; anything else closes completely.

The invariant bought by the loop: on exit every clause of the input
contains a closed variable.  Fixing all closed variables therefore
shortens every surviving clause, which is what makes the width-(k-1)
recursion below sound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cnf import (CnfFormula, check_clause, clause_tables, restrict,
                  satisfying_indices, vars_of)
from .exact import BRUTE_FORCE_MAX_VARS, GuardError
from .mc import Estimate

STRUCT_CAP = 16
_INDEX_LIMIT = 1 << 21


# ---------------------------------------------------------------------------
# model scans over a fixed variable tuple

def _scan_models(clauses: Sequence[tuple[int, ...]], over_vars: Sequence[int]):
    """Count assignments of ``over_vars`` that falsify no clause.

    Clauses with variables outside ``over_vars`` can never be falsified by
    such a partial assignment and are ignored.  Returns (count, ascending
    compact indices with bit i = ``over_vars[i]``, or None once more than
    ``_INDEX_LIMIT`` are found).
    """
    t = len(over_vars)
    if t > BRUTE_FORCE_MAX_VARS:
        raise GuardError(f"refusing to enumerate 2^{t} assignments")
    varset = set(over_vars)
    inside = [c for c in clauses if all(abs(code) in varset for code in c)]
    tables = clause_tables(inside, {v: i for i, v in enumerate(over_vars)})
    count = 0
    collected: list[np.ndarray] | None = []
    for chunk in satisfying_indices(tables, t):
        count += len(chunk)
        if collected is not None:
            if count > _INDEX_LIMIT:
                collected = None
            else:
                collected.append(chunk)
    if collected is None:
        return count, None
    return count, (np.concatenate(collected) if collected
                   else np.empty(0, dtype=np.uint64))


def _kept(indices: np.ndarray | None) -> np.ndarray:
    """The stored compact indices of a group's models; GuardError if the
    scan found too many to keep."""
    if indices is None:
        raise GuardError(f"more than {_INDEX_LIMIT} models to materialise")
    return indices


def _touches(clause: tuple[int, ...], variables) -> bool:
    """Does the clause mention any of ``variables``?"""
    return any(abs(code) in variables for code in clause)


# ---------------------------------------------------------------------------

class Struct:
    """A variable-disjoint clause group with closed-variable bookkeeping.

    ``l_sigma`` counts models over the group's own variables; ``w_sigma``
    counts assignments of the closed variables alone that falsify no
    clause, and ``f_sigma`` is the number of closed variables.  A fully
    closed group has w = l and f = n.  Both listings are kept only as the
    scans' compact indices, which each caller decodes; a listing of more
    than ``_INDEX_LIMIT`` entries raises GuardError.
    """

    __slots__ = ("clauses", "vars", "closed_vars", "n_sigma", "l_sigma",
                 "w_sigma", "f_sigma", "_model_idx", "_closed_idx")

    def __init__(self, clauses: Sequence[tuple[int, ...]],
                 closed_vars: Sequence[int]):
        cls_tuple = tuple(map(check_clause, clauses))
        var_order = tuple(sorted(vars_of(cls_tuple)))
        closed = tuple(sorted(set(closed_vars)))
        if not set(closed) <= set(var_order):
            raise ValueError("closed variables must belong to the group")
        l_count, model_idx = _scan_models(cls_tuple, var_order)
        if closed == var_order:  # fully closed: the closed scan repeats this one
            w_count, closed_idx = l_count, model_idx
        else:
            w_count, closed_idx = _scan_models(cls_tuple, closed)
        object.__setattr__(self, "clauses", cls_tuple)
        object.__setattr__(self, "vars", var_order)
        object.__setattr__(self, "closed_vars", closed)
        object.__setattr__(self, "n_sigma", len(var_order))
        object.__setattr__(self, "l_sigma", l_count)
        object.__setattr__(self, "w_sigma", w_count)
        object.__setattr__(self, "f_sigma", len(closed))
        object.__setattr__(self, "_model_idx", model_idx)
        object.__setattr__(self, "_closed_idx", closed_idx)

    def __setattr__(self, name, value):
        raise AttributeError("Struct is immutable")

    @property
    def is_closed(self) -> bool:
        return self.f_sigma == self.n_sigma

    def model_indices(self) -> np.ndarray:
        """Models as the scan's compact indices (bit i = ``vars[i]``), in
        scan order."""
        return _kept(self._model_idx)

    def closed_indices(self) -> np.ndarray:
        """Assignments of the closed variables that falsify nothing, as
        compact indices (bit i = ``closed_vars[i]``), in scan order."""
        return _kept(self._closed_idx)

    def __eq__(self, other):
        if not isinstance(other, Struct):
            return NotImplemented
        return (self.clauses == other.clauses
                and self.closed_vars == other.closed_vars)

    def __hash__(self):
        return hash((self.clauses, self.closed_vars))

    def __repr__(self):
        return (f"Struct({len(self.clauses)} clauses, n={self.n_sigma}, "
                f"l={self.l_sigma}, closed={self.closed_vars})")


def struct_stats(sigma: Struct) -> tuple[int, int, int, int]:
    """Recompute (n, l, w, f) for a group by plain enumeration.

    A reference for the constructor's kernel scan, sharing no code with
    it; refuses groups of more than ``STRUCT_CAP`` variables.
    """
    if sigma.n_sigma > STRUCT_CAP:
        raise GuardError(f"group has {sigma.n_sigma} variables, "
                         f"cap is {STRUCT_CAP}")

    def count(over_vars) -> int:
        """Assignments of ``over_vars`` that falsify no clause."""
        total = 0
        for bits in itertools.product((False, True), repeat=len(over_vars)):
            values = dict(zip(over_vars, bits))
            total += not any(all(values.get(abs(code)) == (code < 0)
                                 for code in c) for c in sigma.clauses)
        return total

    return (sigma.n_sigma, count(sigma.vars), count(sigma.closed_vars),
            sigma.f_sigma)


@dataclass(frozen=True)
class StructSet:
    """Pairwise variable-disjoint groups, in discovery order."""

    structs: tuple[Struct, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for sigma in self.structs:
            for v in sigma.vars:
                if v in seen:
                    raise ValueError(f"x{v} appears in two groups")
                seen.add(v)

    def __len__(self) -> int:
        return len(self.structs)

    def __iter__(self):
        return iter(self.structs)

    @property
    def all_vars(self) -> frozenset[int]:
        return frozenset(v for s in self.structs for v in s.vars)

    def covers(self, phi: CnfFormula) -> bool:
        """Does every clause of ``phi`` contain a closed variable?"""
        closed = {v for s in self.structs for v in s.closed_vars}
        return all(_touches(c, closed) for c in phi.clauses)


EMPTY_STRUCT_SET = StructSet(())


# ---------------------------------------------------------------------------
# closed-variable rules

def _shared(c: tuple[int, ...], d: tuple[int, ...]) -> list[int] | None:
    """The variables clauses ``c`` and ``d`` share, in ``c``'s literal
    order; None if one of them has opposite signs in the two."""
    if any(-code in d for code in c):
        return None
    return [abs(code) for code in c if code in d]


def match_library(clauses: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Closed variables for a clause group, ascending.

    A group of one to three clauses, all of width 3 or all of width 4,
    closes by the first rule that fits it; any other group closes all of
    its variables.

    - One clause: the variable of its last literal.
    - Two clauses that share exactly one variable, with the same sign in
      both: that variable.
    - Two width-3 clauses that share exactly two variables, each with the
      same sign in both: the first of the two in the first clause's order.
    - Three clauses, one of which is joined as above to each of the other
      two, where those two share no variable: the two joining variables.
    """
    everything = tuple(sorted(vars_of(clauses)))
    widths = {len(c) for c in clauses}
    if len(clauses) > 3 or widths not in ({3}, {4}):
        return everything
    if len(clauses) == 1:
        return (abs(clauses[0][-1]),)
    if len(clauses) == 2:
        shared = _shared(*clauses)
        if shared and (len(shared) == 1 or len(shared) == 2 and widths == {3}):
            return (shared[0],)
        return everything
    for i, hub in enumerate(clauses):
        one, other = clauses[i - 1], clauses[i - 2]
        joins = _shared(hub, one), _shared(hub, other)
        if _shared(one, other) == [] and all(j and len(j) == 1 for j in joins):
            return tuple(sorted(joins[0] + joins[1]))
    return everything


# ---------------------------------------------------------------------------
# reduction

RecursiveCounter = Callable[[CnfFormula, float, float], Estimate]


@dataclass(frozen=True)
class RedOutcome:
    """Either a usable group set or an already-finished estimate."""

    struct_set: StructSet | None = None
    estimate: Estimate | None = None

    def __post_init__(self):
        if (self.struct_set is None) == (self.estimate is None):
            raise ValueError("exactly one of struct_set/estimate must be set")


def _branch_delta(delta: float, n: int) -> float:
    return max(delta * 2.0 ** (-n), 1e-300)


def _recurse_branches(phi: CnfFormula, structs: Sequence[Struct], eps: float,
                      delta: float, recursive_counter: RecursiveCounter) -> Estimate:
    """Sum recursive counts over all non-falsifying closed assignments."""
    sub_delta = _branch_delta(delta, phi.num_vars)
    total = lower = 0
    exact = True
    under = False
    samples = hits = wanted = decider_calls = branch_nodes = 0
    universe = vetted = 0
    # each group's closed assignments, decoded once; a branch merges one
    # of each, in group order
    parts = [[{v: bool(index >> i & 1) for i, v in enumerate(s.closed_vars)}
              for index in memoryview(s.closed_indices())] for s in structs]
    for combo in itertools.product(*parts):
        binding: dict[int, bool] = {}
        for part in combo:
            binding.update(part)
        sub = restrict(phi, binding)
        assert sub.k <= max(phi.k - 1, 0), "reduction must shorten every clause"
        est = recursive_counter(sub, eps, sub_delta)
        total = total + est.value
        lower += est.lower_bound
        exact = exact and est.exact
        under = under or est.under_sampled
        samples += est.samples
        hits += est.hits
        wanted += est.samples_wanted
        decider_calls += est.decider_calls
        branch_nodes += est.branch_nodes
        universe += est.universe_size
        vetted += est.frontier_nodes
    return Estimate(value=total, exact=exact, epsilon=eps, delta=delta,
                    samples=samples, hits=hits, under_sampled=under,
                    samples_wanted=wanted, decider_calls=decider_calls,
                    branch_nodes=branch_nodes, universe_size=universe,
                    frontier_nodes=vetted).with_lower_bound(lower)


def _grow_groups(clauses: Sequence[tuple[int, ...]]
                 ) -> list[tuple[list[tuple[int, ...]], tuple[int, ...]]]:
    """The reduction's group pool, as (clauses, closed variables) pairs in
    pool order; a later pick absorbs most groups, so only the final pool
    is scanned into Structs.

    Each step picks the first clause that touches no closed variable,
    merges it with every group it shares a variable with (their clauses in
    pool order, then the pick) and moves the merged group to the end of
    the pool, closed as ``match_library`` says.  A group's own clauses all
    touch its closed variables.  So a clause before the scan pointer can
    only become a candidate again when a closed variable it touches stops
    being closed; such clauses go on a heap and are re-checked before the
    pointer moves on.
    """
    occurrences: dict[int, list[int]] = {}
    for j, c in enumerate(clauses):
        for code in c:
            occurrences.setdefault(abs(code), []).append(j)
    # dicts keep insertion order, and a merged group is inserted last
    groups: dict[int, tuple[list[tuple[int, ...]], tuple[int, ...]]] = {}
    var_owner: dict[int, int] = {}
    all_closed: set[int] = set()
    recheck: list[int] = []
    scan = 0
    for new_id in itertools.count():
        pick = None
        while recheck:
            j = heapq.heappop(recheck)
            if not _touches(clauses[j], all_closed):
                pick = j
                break
        if pick is None:
            while scan < len(clauses) and _touches(clauses[scan], all_closed):
                scan += 1
            if scan == len(clauses):
                return list(groups.values())
            pick = scan
        absorbed = sorted({var_owner[abs(code)] for code in clauses[pick]
                           if abs(code) in var_owner})
        merged: list[tuple[int, ...]] = []
        was_closed: set[int] = set()
        for i in absorbed:
            cls, closed = groups.pop(i)
            merged.extend(cls)
            was_closed.update(closed)
        merged.append(clauses[pick])
        closed = match_library(merged)
        groups[new_id] = merged, closed
        for v in vars_of(merged):
            var_owner[v] = new_id
        all_closed -= was_closed
        all_closed.update(closed)
        for v in was_closed - all_closed:
            for j in occurrences[v]:
                if j < scan:
                    heapq.heappush(recheck, j)


def red_structs(phi: CnfFormula, params, eps: float, delta: float,
                recursive_counter: RecursiveCounter) -> RedOutcome:
    """Grow groups until every clause touches a closed variable, then either
    hand the group set onward or fall back to the width-(k-1) recursion.

    The comparison deciding between the two weighs the recursion's branch
    count (product of the w values, discounted per closed variable) against
    the cost profile of continuing at width k.
    """
    k = phi.k
    if k < 3:
        raise ValueError("reduction needs clause width at least 3")
    if any(len(c) == 0 for c in phi.clauses):
        # an empty clause can never gain a closed variable; the count is 0
        return RedOutcome(estimate=Estimate(
            value=0, exact=True, epsilon=eps, delta=delta))
    n = phi.num_vars

    pool = [Struct(cls, closed) for cls, closed in _grow_groups(phi.clauses)]

    if pool and all(s.w_sigma > 0 for s in pool):
        alpha_lo = params.alpha(k - 1)
        alpha_hi = params.alpha(k)
        log_lo = math.log(alpha_lo)
        score = n * log_lo + sum(
            math.log(s.w_sigma) - s.f_sigma * log_lo for s in pool)
        if score >= n * math.log(alpha_hi):
            return RedOutcome(struct_set=StructSet(tuple(pool)))
    elif not pool:
        # no clauses at all: nothing to cut, nothing to branch on
        return RedOutcome(struct_set=EMPTY_STRUCT_SET)

    estimate = _recurse_branches(phi, pool, eps, delta, recursive_counter)
    return RedOutcome(estimate=estimate)


def red_clauses(phi: CnfFormula, m_hat: int, eps: float, delta: float,
                recursive_counter: RecursiveCounter) -> RedOutcome:
    """Greedy variable-disjoint clause picking, all picks fully closed.

    With at least ``m_hat`` picks the set is worth cutting over; otherwise
    branch over every model of the picked clauses (at most (2^k - 1) each)
    and recurse on the shortened formulas.
    """
    if m_hat < 0:
        raise ValueError("m_hat must be non-negative")
    chosen: list[tuple[int, ...]] = []
    used: set[int] = set()
    for c in phi.clauses:
        if not _touches(c, used):
            chosen.append(c)
            used.update(abs(code) for code in c)
    pool = [Struct((c,), tuple(sorted(abs(code) for code in c)))
            for c in chosen]
    if len(pool) >= m_hat:
        return RedOutcome(struct_set=StructSet(tuple(pool)))
    estimate = _recurse_branches(phi, pool, eps, delta, recursive_counter)
    return RedOutcome(estimate=estimate)
