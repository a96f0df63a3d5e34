"""Exact model counts used as the benchmark's reference answers.

Written apart from the library so that the check does not share code with
what it checks: DPLL with unit propagation, splitting into
variable-disjoint components and caching component counts.  Brute force
over 2^24 assignments costs seconds per instance; this counter answers
every benchmark instance (3-CNF up to 22 variables, 4-CNF at 17-19
variables, 2-CNF at 18) in milliseconds.
"""

from __future__ import annotations


def _simplify(clauses, lit):
    """Set ``lit`` true and propagate units.

    Returns (residual clauses, variables fixed), or None on a conflict.
    """
    fixed = {abs(lit)}
    true = {lit}
    work = clauses
    while True:
        out = []
        units = set()
        for cl in work:
            if any(l in true for l in cl):
                continue
            rest = tuple(l for l in cl if -l not in true)
            if not rest:
                return None
            if len(rest) == 1:
                units.add(rest[0])
            out.append(rest)
        if not units:
            return frozenset(out), fixed
        if any(-u in units for u in units):
            return None
        true |= units
        fixed |= {abs(u) for u in units}
        work = out


def _variables(clauses):
    return {abs(l) for cl in clauses for l in cl}


def _components(clauses):
    """Split into variable-disjoint parts (union-find over variables)."""
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cl in clauses:
        first = abs(cl[0])
        root = find(parent.setdefault(first, first))
        for l in cl[1:]:
            v = abs(l)
            other = find(parent.setdefault(v, v))
            if other != root:
                parent[other] = root
    groups = {}
    for cl in clauses:
        groups.setdefault(find(abs(cl[0])), []).append(cl)
    return [frozenset(g) for g in groups.values()]


def _count(clauses, memo):
    """Models of ``clauses`` over exactly the variables they mention."""
    if not clauses:
        return 1
    got = memo.get(clauses)
    if got is not None:
        return got
    parts = _components(clauses)
    if len(parts) > 1:
        result = 1
        for part in parts:
            result *= _count(part, memo)
            if result == 0:
                break
    else:
        occur = {}
        for cl in clauses:
            for l in cl:
                occur[abs(l)] = occur.get(abs(l), 0) + 1
        var = max(occur, key=lambda v: (occur[v], -v))
        here = len(occur)
        result = 0
        for lit in (var, -var):
            step = _simplify(clauses, lit)
            if step is None:
                continue
            rest, fixed = step
            free = here - len(fixed) - len(_variables(rest))
            result += _count(rest, memo) << free
    memo[clauses] = result
    return result


def count_models(int_clauses, num_vars: int) -> int:
    """Exact model count over variables 1..num_vars of signed-int clauses."""
    clauses = frozenset(tuple(sorted(set(cl), key=abs)) for cl in int_clauses)
    if any(not cl for cl in clauses):
        return 0
    if any(-l in cl for cl in clauses for l in cl):
        raise ValueError("tautological clause")
    touched = len(_variables(clauses))
    return _count(clauses, {}) << (num_vars - touched)
