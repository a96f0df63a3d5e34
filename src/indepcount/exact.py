"""Exact model counts and satisfiability decisions.

Two independent counting routes: full enumeration of the assignment
space (the ground truth everything else is checked against) and a much
faster counter for width-two formulas based on component splitting, unit
propagation (``propagate``, which strips clauses with ``cnf.assign``) and
branching on a busiest variable.  A complete search (DPLL) decides any
formula without error: ``ClauseIndex`` keeps a clause list's occurrence
bitmasks, its residuals are a few ints, and ``ClauseIndex.search`` runs
on them.  The explore phase walks those residuals and searches at its
nodes; ``find_model`` indexes int clauses and searches once; ``decide``
wraps it for a formula and returns a checked model.
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

class ClauseIndex:
    """Occurrence bitmasks of a clause list, for bit-sliced residuals.

    Bit j of every mask stands for clause j, in input order.  ``pos[v]``
    and ``neg[v]`` mark the clauses where x_v occurs positive and
    negative.  A residual is a pair ``(alive, planes)``: ``alive`` marks
    the clauses that no fixed literal satisfies yet, and bit j of
    ``planes[p]`` is bit p of clause j's count of unfixed literals (read
    on alive clauses only).  Fixing a literal clears the clauses it
    satisfies from ``alive`` and decrements, by a borrow chain over the
    planes, the alive clauses it falsifies, so it touches only the
    clauses its variable occurs in.  Residuals are immutable ints, so a
    parent's residual stays valid while its children are built from it.
    """

    __slots__ = ("clauses", "pos", "neg", "occurs", "root")

    def __init__(self, clauses, top: int = 0):
        self.clauses = clauses = tuple(clauses)
        top = max(top, max((abs(code) for c in clauses for code in c), default=0))
        pos, neg = [0] * (top + 1), [0] * (top + 1)
        counts = []
        for j, c in enumerate(clauses):
            literals = set(c)
            for code in literals:
                if code > 0:
                    pos[code] |= 1 << j
                else:
                    neg[-code] |= 1 << j
            counts.append(len(literals))
        depth = max(max(counts, default=0).bit_length(), 1)
        self.pos, self.neg = pos, neg
        self.occurs = [p | n for p, n in zip(pos, neg)]
        self.root = ((1 << len(clauses)) - 1,
                     tuple(sum(1 << j for j, w in enumerate(counts) if w >> p & 1)
                           for p in range(depth)))

    def assign(self, alive: int, planes: tuple[int, ...],
               model: dict[int, bool]):
        """The residual after fixing ``model``'s free variables, or None
        if that empties a clause."""
        pos, neg = self.pos, self.neg
        for v, value in model.items():
            alive &= ~(pos[v] if value else neg[v])
        counts = list(planes)
        for v, value in model.items():
            borrow = (neg[v] if value else pos[v]) & alive
            p = 0
            while borrow:
                plane = counts[p]
                counts[p] = plane ^ borrow
                borrow &= ~plane
                p += 1
        nonempty = 0
        for plane in counts:
            nonempty |= plane
        return None if alive & ~nonempty else (alive, tuple(counts))

    def shortest(self, alive: int, planes: tuple[int, ...]) -> int:
        """The first alive clause with the fewest unfixed literals; no
        alive clause may be empty."""
        width = 1
        while True:
            mask = alive
            for p, plane in enumerate(planes):
                mask &= plane if width >> p & 1 else ~plane
            if mask:
                return (mask & -mask).bit_length() - 1
            width += 1

    def search(self, alive: int, planes: tuple[int, ...],
               free) -> dict[int, bool] | None:
        """DPLL from a residual whose unfixed variables are among ``free``.

        Units are fixed one at a time to a fixpoint; then the busiest
        variable (most alive occurrences, ties to the smallest index) is
        tried True, then False.  The search is iterative: each stack entry
        is a residual, the trail length to undo to and the decision to
        fix in it.  Returns the variables it set, under which every alive
        clause holds, or None if no assignment of ``free`` satisfies them.
        """
        clauses, occurs = self.clauses, self.occurs
        model: dict[int, bool] = {}
        trail: list[int] = []
        stack = [(alive, planes, 0, {})]
        while stack:
            alive, planes, mark, decision = stack.pop()
            for v in trail[mark:]:
                del model[v]
            del trail[mark:]
            model.update(decision)
            trail.extend(decision)
            residual = self.assign(alive, planes, decision)
            # unit propagation: fix the first unit's one unfixed literal
            while residual is not None and residual[0]:
                alive, planes = residual
                units = alive & planes[0]
                for plane in planes[1:]:
                    units &= ~plane
                if not units:
                    break
                for code in clauses[(units & -units).bit_length() - 1]:
                    v = abs(code)
                    if v in free and v not in model:
                        break
                model[v] = code > 0
                trail.append(v)
                residual = self.assign(alive, planes, {v: code > 0})
            if residual is None:
                continue
            alive, planes = residual
            if not alive:
                return model
            best, most = 0, 0
            for v in free:
                if v not in model:
                    n = (occurs[v] & alive).bit_count()
                    if n > most or (n == most and v < best):
                        best, most = v, n
            stack.append((alive, planes, len(trail), {best: False}))
            stack.append((alive, planes, len(trail), {best: True}))
        return None


def find_model(clauses, fixed: dict[int, bool] | None = None
               ) -> dict[int, bool] | None:
    """A partial model of int ``clauses`` extending ``fixed`` (every
    clause has a literal it makes true), or None if none exists."""
    fixed = fixed or {}
    index = ClauseIndex(clauses, max(fixed, default=0))
    residual = index.assign(*index.root, fixed)
    if residual is None:
        return None
    found = index.search(*residual, vars_of(index.clauses) - fixed.keys())
    return None if found is None else {**fixed, **found}


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
