"""Exact model-count references.

Two independent routes: full enumeration of the assignment space (the
ground truth everything else is checked against) and a much faster
counter for width-two formulas based on component splitting, unit
propagation and branching on a busiest variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import (Clause, CnfFormula, bit_positions, clause_bitmasks,
                  satisfying_indices)

BRUTE_FORCE_MAX_VARS = 28


class GuardError(RuntimeError):
    """An operation refused to run above its size guard."""


@dataclass(frozen=True)
class ExactCount:
    value: int
    nodes_visited: int


def brute_force_count(phi: CnfFormula, *, max_vars: int = BRUTE_FORCE_MAX_VARS) -> ExactCount:
    """Count models by enumerating all 2^n assignments of the universe.

    Vectorised in chunks; refuses to run for more than ``max_vars`` free
    variables.
    """
    t = phi.num_vars
    if t > max_vars:
        raise GuardError(f"brute force over 2^{t} assignments exceeds guard "
                         f"of 2^{max_vars}")
    pos, neg = clause_bitmasks(phi.clauses, bit_positions(phi.variables))
    total = sum(len(chunk) for chunk in satisfying_indices(pos, neg, t))
    return ExactCount(value=total, nodes_visited=1 << t)


# ---------------------------------------------------------------------------
# Width-2 exact counting

@dataclass(frozen=True)
class ComponentSplit:
    """Partition of a clause set into variable-connected parts."""

    parts: tuple[tuple[Clause, ...], ...]
    untouched_vars: int


def connected_components(phi: CnfFormula) -> ComponentSplit:
    """Group clauses that share variables (empty clauses form their own part)."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for c in phi.clauses:
        vs = list(c.vars)
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            union(vs[0], v)

    groups: dict[int | None, list[Clause]] = {}
    order: list[int | None] = []
    empties = 0
    for c in phi.clauses:
        vs = c.vars
        key = find(next(iter(vs))) if vs else None
        if key is None:
            empties += 1
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(c)
    parts = tuple(tuple(groups[key]) for key in order)
    touched = len(parent)
    return ComponentSplit(parts=parts, untouched_vars=phi.num_vars - touched)


def _propagate(clauses: frozenset[tuple[int, ...]], fixed: dict[int, bool]):
    """Apply ``fixed`` and run unit propagation to a fixpoint.

    Returns (residual clause set, all fixed vars) or None on conflict.
    """
    fixed = dict(fixed)
    work = set(clauses)
    while True:
        nxt: set[tuple[int, ...]] = set()
        units: dict[int, bool] = {}
        for cl in work:
            keep = []
            sat = False
            for code in cl:
                v = abs(code)
                want = code > 0
                if v in fixed:
                    if fixed[v] == want:
                        sat = True
                        break
                else:
                    keep.append(code)
            if sat:
                continue
            if not keep:
                return None
            if len(keep) == 1:
                code = keep[0]
                v, want = abs(code), code > 0
                if v in units and units[v] != want:
                    return None
                units[v] = want
            nxt.add(tuple(keep))
        if not units:
            return frozenset(nxt), fixed
        for v, want in units.items():
            if v in fixed and fixed[v] != want:
                return None
            fixed[v] = want
        work = nxt


def _vars_of(clauses) -> set[int]:
    return {abs(code) for cl in clauses for code in cl}


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

    # split into variable-connected components
    parent: dict[int, int] = {}

    def find(v):
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
    groups: dict[int, set[tuple[int, ...]]] = {}
    for cl in clauses:
        groups.setdefault(find(abs(cl[0])), set()).add(cl)

    if len(groups) > 1:
        result = 1
        for part in groups.values():
            result *= _count_width2(frozenset(part), memo, nodes)
            if result == 0:
                break
        memo[clauses] = result
        return result

    # branch on the variable occurring most often
    occur: dict[int, int] = {}
    for cl in clauses:
        for code in cl:
            occur[abs(code)] = occur.get(abs(code), 0) + 1
    branch_var = max(sorted(occur), key=occur.get)

    here = _vars_of(clauses)
    result = 0
    for value in (False, True):
        propagated = _propagate(clauses, {branch_var: value})
        if propagated is None:
            continue
        residual, fixed = propagated
        vanished = len(here) - len(fixed) - len(_vars_of(residual))
        result += _count_width2(residual, memo, nodes) << vanished
    memo[clauses] = result
    return result


def count_2sat_exact(phi: CnfFormula) -> ExactCount:
    """Exact model count for formulas whose clauses have at most 2 literals."""
    for c in phi.clauses:
        if len(c) > 2:
            raise ValueError("count_2sat_exact requires clause width <= 2")
    canonical = frozenset(
        tuple(sorted(c.to_ints(), key=abs)) for c in phi.clauses)
    # distinct clauses over the same variable pair are all kept by frozenset;
    # duplicates across input order collapse, which preserves the count
    touched = _vars_of(canonical)
    nodes = [0]
    base = _count_width2(canonical, {}, nodes)
    return ExactCount(value=base << (phi.num_vars - len(touched)),
                      nodes_visited=max(nodes[0], 1))
