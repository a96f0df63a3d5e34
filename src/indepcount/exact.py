"""Exact model counts and satisfiability decisions.

``ClauseIndex`` keeps a clause list's occurrence bitmasks; its residuals
are a few ints.  One unit step (``ClauseIndex.fix``) and one branching
rule (``ClauseIndex.busiest``) serve both engines that run on them:

* ``ClauseIndex.search``, a complete DPLL search.  The explore phase
  walks residuals and searches at its nodes; ``find_model`` indexes int
  clauses and searches once; ``decide`` wraps it for a formula and
  returns a checked model.
* ``ClauseIndex.count``, a component-caching DPLL counter.  Its public
  entry is ``count_2sat_exact``, for width-two formulas.

``brute_force_count`` lists the satisfying indices of the whole
assignment space instead, by the half-index join of
``cnf.satisfying_indices``; it is the ground truth everything else is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import (CnfFormula, bit_positions, clause_tables, evaluate,
                  satisfying_indices, vars_of)

BRUTE_FORCE_MAX_VARS = 28


class GuardError(RuntimeError):
    """An operation refused to run above its size guard."""


@dataclass(frozen=True)
class ExactCount:
    """An exact model count and the work behind it.

    ``nodes_visited`` is the number of assignments scanned when the count
    comes from ``brute_force_count``, and the number of components
    branched on when it comes from the counter (``count_2sat_exact``).
    """

    value: int
    nodes_visited: int


def brute_force_count(phi: CnfFormula, *, max_vars: int = BRUTE_FORCE_MAX_VARS) -> ExactCount:
    """Count models over all 2^n assignments of the universe.

    The satisfying indices come from the half-index join of
    ``satisfying_indices``, which tests the low and high halves of an
    index apart and pairs only their survivors; ``nodes_visited`` is still
    the 2^n assignments covered.  Refuses to run for more than
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
# Search and count on bit-sliced residuals

class ClauseIndex:
    """Occurrence bitmasks of a clause list, for bit-sliced residuals.

    Bit j of every mask stands for clause j, in input order.  ``pos[v]``
    and ``neg[v]`` mark the clauses where x_v occurs positive and
    negative, and bit v of ``spans[j]`` marks x_v in clause j.  A
    residual is a pair ``(alive, planes)``: ``alive`` marks the clauses
    that no fixed literal satisfies yet, and bit j of ``planes[p]`` is
    bit p of clause j's count of unfixed literals (read on alive clauses
    only).  Fixing a literal clears the clauses it satisfies from
    ``alive`` and decrements, by a borrow chain over the planes, the
    alive clauses it falsifies, so it touches only the clauses its
    variable occurs in.  Residuals are immutable ints, so a parent's
    residual stays valid while its children are built from it.  Which
    variables are still unfixed is a bitmask too (bit v for x_v), and an
    alive clause's unfixed literals are exactly its literals on them.
    """

    __slots__ = ("clauses", "pos", "neg", "occurs", "spans", "root")

    def __init__(self, clauses, top: int = 0):
        self.clauses = clauses = tuple(clauses)
        top = max(top, max((abs(code) for c in clauses for code in c), default=0))
        pos, neg = [0] * (top + 1), [0] * (top + 1)
        counts, spans = [], []
        for j, c in enumerate(clauses):
            literals = set(c)
            span = 0
            for code in literals:
                if code > 0:
                    pos[code] |= 1 << j
                else:
                    neg[-code] |= 1 << j
                span |= 1 << abs(code)
            counts.append(len(literals))
            spans.append(span)
        depth = max(max(counts, default=0).bit_length(), 1)
        self.pos, self.neg, self.spans = pos, neg, spans
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
        counts = self.lower(alive, planes, model)
        nonempty = 0
        for plane in counts:
            nonempty |= plane
        return None if alive & ~nonempty else (alive, counts)

    def lower(self, alive: int, planes: tuple[int, ...],
              model: dict[int, bool]) -> tuple[int, ...]:
        """The planes after fixing ``model``'s free variables, where
        ``alive`` already omits the clauses the model satisfies: each
        alive clause loses the literals the model falsifies.  No clause
        may empty; ``assign`` is this with that test."""
        pos, neg = self.pos, self.neg
        counts = list(planes)
        for v, value in model.items():
            borrow = (neg[v] if value else pos[v]) & alive
            p = 0
            while borrow:
                plane = counts[p]
                counts[p] = plane ^ borrow
                borrow &= ~plane
                p += 1
        return tuple(counts)

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

    def fix(self, alive: int, planes: tuple[int, ...], unfixed: int,
            code: int, trail: list[int]):
        """Set literal ``code`` (0 sets none), then run units to a fixpoint.

        A unit step sets the one unfixed literal of the first alive clause
        that has exactly one.  Every literal set is appended to ``trail``.
        Returns the residual with its unfixed mask, ``(alive, planes,
        unfixed)``, or None if a clause empties.
        """
        clauses = self.clauses
        while True:
            if not code:
                units = alive & planes[0]
                for plane in planes[1:]:
                    units &= ~plane
                if not units:
                    return alive, planes, unfixed
                for code in clauses[(units & -units).bit_length() - 1]:
                    if unfixed >> abs(code) & 1:
                        break
            v = abs(code)
            trail.append(code)
            unfixed &= ~(1 << v)
            residual = self.assign(alive, planes, {v: code > 0})
            if residual is None:
                return None
            alive, planes = residual
            code = 0

    def busiest(self, alive: int, unfixed: int) -> int:
        """The unfixed variable with the most alive occurrences; ties go
        to the smallest index."""
        occurs = self.occurs
        best, most = 0, 0
        while unfixed:
            low = unfixed & -unfixed
            v = low.bit_length() - 1
            n = (occurs[v] & alive).bit_count()
            if n > most:
                best, most = v, n
            unfixed ^= low
        return best

    def search(self, alive: int, planes: tuple[int, ...],
               unfixed: int) -> dict[int, bool] | None:
        """DPLL from a residual whose unfixed variables are the bits of
        ``unfixed``.

        Units are fixed to a fixpoint (``fix``); then the busiest variable
        is tried True, then False.  The search is iterative: each stack
        entry is a residual, its unfixed mask, the trail length to undo to
        and the decision literal to set in it.  Returns the variables it
        set, under which every alive clause holds, or None if no
        assignment of the unfixed variables satisfies them.
        """
        trail: list[int] = []
        stack = [(alive, planes, unfixed, 0, 0)]
        while stack:
            alive, planes, unfixed, mark, code = stack.pop()
            del trail[mark:]
            residual = self.fix(alive, planes, unfixed, code, trail)
            if residual is None:
                continue
            alive, planes, unfixed = residual
            if not alive:
                return {abs(code): code > 0 for code in trail}
            best = self.busiest(alive, unfixed)
            stack.append((alive, planes, unfixed, len(trail), -best))
            stack.append((alive, planes, unfixed, len(trail), best))
        return None

    def count(self, alive: int, planes: tuple[int, ...], unfixed: int,
              memo: dict[tuple[int, int], int]) -> int:
        """Models over the ``unfixed`` variables of a residual with no
        empty clause, such as ``fix`` returns.

        The alive clauses split into components, each found by a walk
        from its first clause through the clauses' unfixed variables and
        their occurrences.  A component is the pair (clause mask, mask of
        its unfixed variables); that pair fixes its residual, so it is
        the key of its count in ``memo``.  An uncounted component
        branches on its busiest variable, False then True, runs the units
        of each branch and counts what is left.  Counts multiply across
        components, and each unfixed variable in no alive clause doubles
        the total.

        The count is iterative: the stack holds one ``_count_steps``
        generator per residual being counted, which yields each branch
        residual it needs and is sent back that residual's count.
        """
        stack = [self._count_steps(alive, planes, unfixed, memo)]
        got = None
        while stack:
            try:
                branch = stack[-1].send(got)
            except StopIteration as done:
                stack.pop()
                got = done.value
            else:
                stack.append(self._count_steps(*branch, memo))
                got = None
        return got

    def _count_steps(self, alive: int, planes: tuple[int, ...],
                     unfixed: int, memo: dict[tuple[int, int], int]):
        """``count``'s work on one residual, as a generator: it yields the
        residual of each branch it counts and is sent that count, and it
        returns the residual's count."""
        occurs, spans = self.occurs, self.spans
        total, covered = 1, 0
        while alive:
            part = new = alive & -alive
            here = 0
            while new:
                found = 0
                while new:
                    low = new & -new
                    found |= spans[low.bit_length() - 1]
                    new ^= low
                found &= unfixed & ~here
                here |= found
                while found:
                    low = found & -found
                    new |= occurs[low.bit_length() - 1]
                    found ^= low
                new &= alive & ~part
                part |= new
            alive &= ~part
            covered |= here
            got = memo.get((part, here))
            if got is None:
                v = self.busiest(part, here)
                got = 0
                for code in (-v, v):
                    residual = self.fix(part, planes, here, code, [])
                    if residual is not None:
                        got += yield residual
                memo[part, here] = got
            total *= got
            if not total:
                return 0
        return total << (unfixed & ~covered).bit_count()


def _count(clauses, variables) -> ExactCount:
    """Models of int ``clauses`` over the universe ``variables``, which
    holds every variable they mention: ``ClauseIndex.count`` after the
    root's units.  ``nodes_visited`` is the number of components it
    branched on."""
    if any(not c for c in clauses):
        return ExactCount(value=0, nodes_visited=0)
    index = ClauseIndex(clauses, max(variables, default=0))
    memo: dict[tuple[int, int], int] = {}
    residual = index.fix(*index.root, sum(1 << v for v in variables), 0, [])
    value = 0 if residual is None else index.count(*residual, memo)
    return ExactCount(value=value, nodes_visited=len(memo))


def count_2sat_exact(phi: CnfFormula) -> ExactCount:
    """Exact model count for formulas whose clauses have at most 2 literals."""
    for c in phi.clauses:
        if len(c) > 2:
            raise ValueError("count_2sat_exact requires clause width <= 2")
    return _count(phi.clauses, phi.variables)


def find_model(clauses, fixed: dict[int, bool] | None = None
               ) -> dict[int, bool] | None:
    """A partial model of int ``clauses`` extending ``fixed`` (every
    clause has a literal it makes true), or None if none exists."""
    fixed = fixed or {}
    index = ClauseIndex(clauses, max(fixed, default=0))
    residual = index.assign(*index.root, fixed)
    if residual is None:
        return None
    unfixed = sum(1 << v for v in vars_of(index.clauses) - fixed.keys())
    found = index.search(*residual, unfixed)
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
