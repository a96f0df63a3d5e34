"""Bounded search-tree exploration with a global leaf-count abort.

The tree fixes variables in blocks: whole subformula groups first (one
branch per model of the group), then clause-guided or single-variable
branching.  A node is a bit-sliced residual over the formula's clauses
(``exact.ClauseIndex``) plus the bitmask of variables still free; a child
fixes its model in the parent's residual.  Every node is vetted so that
falsified branches never expand: a child whose model empties a clause is
pruned, a child whose model agrees with the parent's witness keeps that
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


def _default_order(phi: CnfFormula) -> tuple[int, ...]:
    """Most frequent variable first; ties by index."""
    occur = {v: 0 for v in phi.variables}
    for c in phi.clauses:
        for code in c:
            occur[abs(code)] += 1
    return tuple(sorted(occur, key=lambda v: (-occur[v], v)))


def _clause_models(clause: tuple[int, ...]) -> list[dict[int, bool]]:
    """All assignments of the clause's variables that satisfy it."""
    out = []
    for pattern in range(1 << len(clause)):
        # bit i set = literal i true; skip the all-false pattern
        if pattern == 0:
            continue
        out.append({abs(code): (code > 0) == bool((pattern >> i) & 1)
                    for i, code in enumerate(clause)})
    return out


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
    order = _default_order(phi)
    structs = tuple(psi.structs) if branching is BranchKind.STRUCT_GUIDED else ()
    check_reduction = bool(structs)
    width_bound = phi.k - 1
    index = ClauseIndex(phi.clauses, phi.variables[-1] if phi.variables else 0)

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

        if branching is BranchKind.BINARY:
            var = next(v for v in order if free >> v & 1)
            label, factor = f"x{var}", 2
            models = ({var: False}, {var: True})
        elif branching is BranchKind.STRUCT_GUIDED and next_struct < len(structs):
            sigma = structs[next_struct]
            label, factor = f"group{next_struct}", sigma.l_sigma
            models = sigma.iter_satisfying_assignments()
            next_struct += 1
        else:
            clause = tuple([code for code in phi.clauses[index.shortest(alive, planes)]
                            if free >> abs(code) & 1])
            if check_reduction and next_struct >= len(structs):
                assert len(clause) <= width_bound, \
                    "residual clause wider than expected after the groups"
            label, factor = " ".join(map(str, clause)), (1 << len(clause)) - 1
            models = _clause_models(clause)
        state["branch_nodes"] += 1
        if trace is not None:
            trace.append(f"{depth}\t{label}\t{factor}")
        for model in models:
            child = index.assign(alive, planes, model)
            if child is None:
                # a clause emptied: vetted and pruned without a search
                state["decider_calls"] += 1
                state["pruned"] += 1
                continue
            # the witness still satisfies the child if the model agrees with it
            keep, rest = witness, free
            for v, value in model.items():
                rest &= ~(1 << v)
                if witness.get(v, value) != value:
                    keep = None
            explore(*child, rest, keep, depth + 1, next_struct)

    try:
        explore(*index.root, sum(1 << v for v in phi.variables), None, 0, 0)
        kind = CutKind.EXACT
    except _Abort:
        kind = CutKind.AT_LEAST_ELL
    return CutResult(kind=kind, **state)
