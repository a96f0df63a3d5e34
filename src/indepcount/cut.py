"""Bounded search-tree exploration with a global leaf-count abort.

The tree fixes variables in blocks: whole subformula groups first (one
branch per model of the group), then clause-guided or single-variable
branching.  A node is a bit-sliced residual over the formula's clauses
(``exact.ClauseIndex``) plus the bitmask of variables still free; a child
fixes its model in the parent's residual.  A model is one compact int
over its block, bit b the value of ``block[b]``: 0 and 1 over a single
variable, the satisfying patterns of a residual clause, or a group's
scan indices (``Struct.model_indices``).  Every node is vetted so that
falsified branches never expand.  A child whose model empties a clause is
pruned by one mask test, before it is built: each model has the mask of
the clauses it satisfies, listed once per cut for each block, and the
node marks once the alive clauses whose unfixed literals all lie on its
block.  A child whose model agrees with the parent's witness keeps that
witness (every surviving clause keeps the literal it made true), and any
other node runs the exact DPLL search on its residual.  A global counter
accumulates, at each clause-free node, the number of models below it;
the run either finishes (the counter is then the exact model count) or
aborts once the counter reaches the threshold, certifying "at least that
many models".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cnf import CnfFormula
from .exact import ClauseIndex
from .structs import StructSet


class CutKind(enum.Enum):
    EXACT = "exact"
    AT_LEAST_ELL = "at-least-ell"


@dataclass(frozen=True)
class CutResult:
    kind: CutKind
    count: int
    branch_nodes: int
    decider_calls: int
    leaves: int
    pruned: int

    @property
    def completed(self) -> bool:
        return self.kind is CutKind.EXACT


class BranchKind(enum.Enum):
    """How to pick the next block of variables to fix.

    ``BINARY`` walks a fixed variable order, most frequent first;
    ``PRUNED_CLAUSE`` branches over the models of a shortest residual
    clause; ``STRUCT_GUIDED`` consumes the provided groups first and then
    falls back to clause branching.
    """

    BINARY = "binary"
    PRUNED_CLAUSE = "pruned-clause"
    STRUCT_GUIDED = "struct-guided"


class _Abort(Exception):
    pass


def cut(phi: CnfFormula, psi: StructSet, ell: int,
        branching: BranchKind, *,
        trace: list[str] | None = None) -> CutResult:
    """Explore until done or until ``ell`` models have been accounted for.

    The decider is exact, so a completed run's count is the exact model
    count and an aborted run's count is a true lower bound.  A clause-free
    node contributes 2^(free variables) models.  ``decider_calls`` counts
    vetted nodes, not searches: a node pruned for an empty clause or
    carrying its parent's witness is vetted without one.  ``trace``, if
    given, receives one line per branch node.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if branching is BranchKind.STRUCT_GUIDED:
        own = set(phi.clauses)
        for sigma in psi:
            for c in sigma.clauses:
                if c not in own:
                    raise ValueError("group clause missing from the formula")
    structs = tuple(psi.structs) if branching is BranchKind.STRUCT_GUIDED else ()
    check_reduction = bool(structs)
    width_bound = phi.k - 1
    index = ClauseIndex(phi.clauses, phi.variables[-1] if phi.variables else 0)
    pos, neg, occurs, spans = index.pos, index.neg, index.occurs, index.spans
    # BINARY's order: most frequent variable first, ties by index (a clause
    # holds each variable once, so its clause count is its occurrence count)
    order = sorted(phi.variables, key=lambda v: (-occurs[v].bit_count(), v))

    # Each branch node marks ``closed``: the alive clauses whose unfixed
    # literals all lie on its block, the variables that every one of its
    # models fixes.  A model empties a clause exactly when it leaves a
    # closed clause unsatisfied, so no child is built only to be pruned.
    # At group i's depth the fixed variables are those of the groups
    # before it, so the closed clauses are the alive ones with every
    # variable in groups 0..i (an alive clause inside groups 0..i-1 would
    # be empty, and no explored node has one).
    group_closed = []
    seen = 0
    for sigma in structs:
        for v in sigma.vars:
            seen |= 1 << v
        group_closed.append(sum(1 << j for j, span in enumerate(spans)
                                if not span & ~seen))

    def spanning(alive: int, planes: tuple[int, ...],
                 block: tuple[int, ...]) -> int:
        """The alive clauses whose unfixed variables are exactly ``block``.

        These are the closed clauses when no alive clause is narrower
        than the block: a single variable, or a shortest clause's."""
        for v in block:
            alive &= occurs[v]
        width = len(block)
        for p, plane in enumerate(planes):
            alive &= plane if width >> p & 1 else ~plane
        return alive

    # each group's (under its place) or residual clause's (under its
    # literals) variables, its models' indices and the masks of the
    # clauses those models satisfy, kept for the cut
    blocks: dict = {}

    def grow(block: tuple[int, ...], indices, sats: list[int]):
        """The masks of the clauses that the models ``indices`` over
        ``block`` satisfy, in order: ``sats``, then the ones it lacks,
        computed and appended as the walk first needs them (a cut that
        stops mid-block computes no further).  One node per depth is open
        at a time and no block repeats along a path, so only this walk
        extends ``sats``."""
        yield from sats
        for bits in indices[len(sats):]:
            sat = 0
            for b, v in enumerate(block):
                sat |= pos[v] if bits >> b & 1 else neg[v]
            sats.append(sat)
            yield sat

    state = {"count": 0, "branch_nodes": 0, "decider_calls": 0,
             "leaves": 0, "pruned": 0}

    def explore(alive: int, planes: tuple[int, ...], free: int,
                witness: dict[int, bool] | None, depth: int,
                next_struct: int) -> None:
        state["decider_calls"] += 1
        if alive and witness is None:
            witness = index.search(alive, planes, free)
            if witness is None:
                state["pruned"] += 1
                return
        if not alive:
            state["leaves"] += 1
            state["count"] += 1 << free.bit_count()
            if state["count"] >= ell:
                raise _Abort
            return

        # every model fixes all of ``block`` and nothing else; bit b of a
        # model's index is the value of block[b]
        if branching is BranchKind.BINARY:
            var = next(v for v in order if free >> v & 1)
            block, indices, sats = (var,), (0, 1), [neg[var], pos[var]]
            closed = spanning(alive, planes, block)
        elif branching is BranchKind.STRUCT_GUIDED and next_struct < len(structs):
            key = next_struct
            if key not in blocks:
                # read through a memoryview, an index is a plain int
                sigma = structs[key]
                blocks[key] = sigma.vars, memoryview(sigma.model_indices()), []
            block, indices, sats = blocks[key]
            closed = alive & group_closed[next_struct]
            next_struct += 1
        else:
            key = tuple([code for code in phi.clauses[index.shortest(alive, planes)]
                         if free >> abs(code) & 1])
            if check_reduction and next_struct >= len(structs):
                assert len(key) <= width_bound, \
                    "residual clause wider than expected after the groups"
            if key not in blocks:
                # literal b is true in model p (p = 1 .. 2^len - 1), so
                # the flip of the negative literals gives its index
                flip = sum(1 << b for b, code in enumerate(key) if code < 0)
                blocks[key] = (tuple([abs(code) for code in key]),
                               [p ^ flip for p in range(1, 1 << len(key))], [])
            block, indices, sats = blocks[key]
            closed = spanning(alive, planes, block)
        state["branch_nodes"] += 1
        if trace is not None:
            label = (f"x{var}" if branching is BranchKind.BINARY
                     else f"group{key}" if isinstance(key, int)
                     else " ".join(map(str, key)))
            trace.append(f"{depth}\t{label}\t{len(indices)}")
        rest = free
        for v in block:
            rest &= ~(1 << v)
        if len(sats) < len(indices):
            sats = grow(block, indices, sats)
        for place, sat in enumerate(sats):
            if closed & ~sat:
                # a clause emptied: vetted and pruned without building it
                state["decider_calls"] += 1
                state["pruned"] += 1
                continue
            bits = indices[place]
            # the witness still satisfies the child if the model agrees with it
            keep = witness
            for b, v in enumerate(block):
                value = bits >> b & 1
                if witness.get(v, value) != value:
                    keep = None
                    break
            child = alive & ~sat
            explore(child, index.lower(child, planes, block, bits), rest, keep,
                    depth + 1, next_struct)

    try:
        explore(*index.root, sum(1 << v for v in phi.variables), None, 0, 0)
        kind = CutKind.EXACT
    except _Abort:
        kind = CutKind.AT_LEAST_ELL
    return CutResult(kind=kind, **state)
