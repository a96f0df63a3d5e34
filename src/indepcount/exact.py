"""Exact model counts and satisfiability decisions.

``ClauseIndex`` keeps a clause list's occurrence bitmasks; its residuals
are a few ints.  One unit step (``ClauseIndex.fix``) and one branching
rule (``ClauseIndex.busiest``) serve both engines that run on them:

* ``ClauseIndex.search``, a complete DPLL search.  The explore phase
  walks residuals and searches at its nodes; ``decide`` indexes a
  formula's clauses, searches once from the root and returns a checked
  model.
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

    def lower(self, alive: int, planes: tuple[int, ...],
              block: tuple[int, ...], bits: int) -> tuple[int, ...]:
        """The planes after fixing ``block`` to ``bits``, where ``alive``
        already omits the clauses those values satisfy: each alive clause
        loses the literals they falsify.  ``block`` must be unfixed, so a
        count falls at most to 0, a clause emptied; the caller either
        knows none empties (the cut's closed-clause test) or tests the
        planes for one (``cut.frontier``'s group children)."""
        pos, neg = self.pos, self.neg
        counts = list(planes)
        for b, v in enumerate(block):
            borrow = (neg[v] if bits >> b & 1 else pos[v]) & alive
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

        The residual must hold no empty clause.  A unit step sets the one
        unfixed literal of the first alive clause that has exactly one.
        Each literal is set in place on a copy of the planes, so a clause
        empties exactly when a literal falsifies a unit.  Every literal
        set is appended to ``trail``.
        Returns the residual with its unfixed mask, ``(alive, planes,
        unfixed)``, or None if a clause empties.
        """
        pos, neg, spans = self.pos, self.neg, self.spans
        counts = list(planes)
        while True:
            units = alive & counts[0]
            for plane in counts[1:]:
                units &= ~plane
            if not code:
                if not units:
                    return alive, tuple(counts), unfixed
                # the unit's one unfixed variable, with its sign there
                j = (units & -units).bit_length() - 1
                v = (spans[j] & unfixed).bit_length() - 1
                code = v if pos[v] >> j & 1 else -v
            trail.append(code)
            v = abs(code)
            made, broken = (pos[v], neg[v]) if code > 0 else (neg[v], pos[v])
            alive &= ~made
            borrow = broken & alive
            if borrow & units:
                return None
            unfixed &= ~(1 << v)
            p = code = 0
            while borrow:
                plane = counts[p]
                counts[p] = plane ^ borrow
                borrow &= ~plane
                p += 1

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
               unfixed: int) -> tuple[int, int] | None:
        """DPLL from a residual with no empty clause, whose unfixed
        variables are the bits of ``unfixed``.

        Units are fixed to a fixpoint (``fix``); then the busiest variable
        is tried True, then False.  The search is iterative: each stack
        entry is a residual, its unfixed mask, the trail length to undo to
        and the decision literal to set in it.  Returns the variables it
        set as two ints, ``(mask, bits)``: bit v of ``mask`` marks x_v as
        set and bit v of ``bits`` is its value.  Every alive clause holds
        under them.  Returns None if no assignment of the unfixed
        variables satisfies the alive clauses.
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
                # a trail sets each variable once, so a sum is an OR
                return (sum(1 << abs(code) for code in trail),
                        sum(1 << code for code in trail if code > 0))
            best = self.busiest(alive, unfixed)
            if not best:
                # an alive clause with no unfixed literal is empty
                continue
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


@dataclass(frozen=True)
class DecisionOutcome:
    satisfiable: bool
    witness: dict[int, bool] | None


def decide(phi: CnfFormula) -> DecisionOutcome:
    """Decide satisfiability exactly; "satisfiable" comes with a checked
    model over the whole universe, "unsatisfiable" is never a missed one."""
    index = ClauseIndex(phi.clauses)
    # the search must not be given an empty clause
    found = all(index.clauses) and index.search(
        *index.root, sum(1 << v for v in vars_of(index.clauses)))
    if not found:
        return DecisionOutcome(False, None)
    witness = {v: bool(found[1] >> v & 1) for v in phi.variables}
    assert evaluate(phi, witness)
    return DecisionOutcome(True, witness)
