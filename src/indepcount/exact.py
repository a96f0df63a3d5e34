"""Exact model counts and satisfiability decisions.

Two independent counting routes: full enumeration of the assignment
space (the ground truth everything else is checked against) and a much
faster counter for width-two formulas based on component splitting, unit
propagation and branching on a busiest variable.  The same propagator
and branching rule drive a complete search (DPLL) that decides any
formula without error: ``find_model`` works on int clauses and is what
the explore phase calls at every node; ``decide`` wraps it for a
formula and returns a checked model.  The propagator strips clauses with
``cnf.assign``, the one routine that also builds the explore phase's
children and ``restrict``'s formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import (CnfFormula, assign, bit_positions, clause_tables,
                  evaluate, satisfying_indices, vars_of)

BRUTE_FORCE_MAX_VARS = 28


class GuardError(RuntimeError):
    """An operation refused to run above its size guard."""


@dataclass(frozen=True)
class ExactCount:
    value: int
    nodes_visited: int


def brute_force_count(phi: CnfFormula, *, max_vars: int = BRUTE_FORCE_MAX_VARS) -> ExactCount:
    """Count models by enumerating all 2^n assignments of the universe.

    One table-lookup scan over every index; refuses to run for more than
    ``max_vars`` free variables.
    """
    t = phi.num_vars
    if t > max_vars:
        raise GuardError(f"brute force over 2^{t} assignments exceeds guard "
                         f"of 2^{max_vars}")
    tables = clause_tables(phi.clauses, bit_positions(phi.variables))
    total = sum(len(chunk) for chunk in satisfying_indices(tables, t))
    return ExactCount(value=total, nodes_visited=1 << t)


# ---------------------------------------------------------------------------
# Width-2 exact counting

def _split(clauses) -> list[list]:
    """Union-find over shared variables.

    Returns the clauses grouped into variable-connected parts, in order of
    first appearance; clauses without variables share one part.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cl in clauses:
        vs = [abs(code) for code in cl]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int | None, list] = {}
    for cl in clauses:
        groups.setdefault(find(abs(cl[0])) if cl else None, []).append(cl)
    return list(groups.values())


def propagate(clauses, fixed: dict[int, bool]):
    """Apply ``fixed`` and run unit propagation to a fixpoint.

    ``clauses`` holds DIMACS-style int tuples.  Every strip is one
    ``cnf.assign`` pass: first of ``fixed`` (skipped when empty), then of
    all pending units at once.  An empty clause is a conflict (two units
    that disagree leave one after their pass).  Returns (residual clause
    set, all fixed vars) or None on conflict.
    """
    fixed = dict(fixed)
    residual = assign(clauses, fixed) if fixed else clauses
    while True:
        short = [c for c in residual if len(c) < 2]
        if not short:
            return frozenset(residual), fixed
        if () in short:
            return None
        units = {abs(code): code > 0 for code, in short}
        fixed.update(units)
        residual = assign(residual, units)


def busiest_var(clauses) -> int:
    """The variable occurring most often; ties go to the smallest index."""
    occur: dict[int, int] = {}
    for cl in clauses:
        for code in cl:
            occur[abs(code)] = occur.get(abs(code), 0) + 1
    return max(sorted(occur), key=occur.get)


def _count_width2(clauses: frozenset[tuple[int, ...]],
                  memo: dict, nodes: list[int]) -> int:
    """Models of ``clauses`` over exactly the variables they mention."""
    if any(len(cl) == 0 for cl in clauses):
        return 0
    if not clauses:
        return 1
    got = memo.get(clauses)
    if got is not None:
        return got
    nodes[0] += 1

    parts = _split(clauses)
    if len(parts) > 1:
        result = 1
        for part in parts:
            # freeze a set built clause by clause, not the list: the two can
            # lay colliding clauses out differently, and the order a part
            # iterates in decides where a zero sub-part stops the product,
            # which shows in nodes_visited
            result *= _count_width2(frozenset(set(part)), memo, nodes)
            if result == 0:
                break
        memo[clauses] = result
        return result

    branch_var = busiest_var(clauses)
    here = vars_of(clauses)
    result = 0
    for value in (False, True):
        propagated = propagate(clauses, {branch_var: value})
        if propagated is None:
            continue
        residual, fixed = propagated
        vanished = len(here) - len(fixed) - len(vars_of(residual))
        result += _count_width2(residual, memo, nodes) << vanished
    memo[clauses] = result
    return result


def count_2sat_exact(phi: CnfFormula) -> ExactCount:
    """Exact model count for formulas whose clauses have at most 2 literals."""
    for c in phi.clauses:
        if len(c) > 2:
            raise ValueError("count_2sat_exact requires clause width <= 2")
    canonical = frozenset(tuple(sorted(c, key=abs)) for c in phi.clauses)
    # distinct clauses over the same variable pair are all kept by frozenset;
    # duplicates across input order collapse, which preserves the count
    touched = vars_of(canonical)
    nodes = [0]
    base = _count_width2(canonical, {}, nodes)
    return ExactCount(value=base << (phi.num_vars - len(touched)),
                      nodes_visited=max(nodes[0], 1))


# ---------------------------------------------------------------------------
# Satisfiability

def find_model(clauses, fixed: dict[int, bool] | None = None
               ) -> dict[int, bool] | None:
    """A partial model of int ``clauses`` extending ``fixed`` (the
    variables the search had to set), or None if none exists."""
    propagated = propagate(clauses, fixed or {})
    if propagated is None:
        return None
    residual, fixed = propagated
    if not residual:
        return fixed
    v = busiest_var(residual)
    for value in (True, False):
        found = find_model(residual, {v: value})
        if found is not None:
            return {**fixed, **found}
    return None


@dataclass(frozen=True)
class DecisionOutcome:
    satisfiable: bool
    witness: dict[int, bool] | None


def decide(phi: CnfFormula) -> DecisionOutcome:
    """Decide satisfiability exactly; "satisfiable" comes with a checked
    model over the whole universe, "unsatisfiable" is never a missed one."""
    found = find_model(phi.clauses)
    if found is None:
        return DecisionOutcome(False, None)
    witness = {v: found.get(v, False) for v in phi.variables}
    assert evaluate(phi, witness)
    return DecisionOutcome(True, witness)
