"""Bounded search-tree exploration with a global leaf-count abort.

The tree fixes variables in blocks: whole subformula groups first (one
branch per model of the group), then clause-guided or single-variable
branching.  A node is a bit-sliced residual over the formula's clauses
(``exact.ClauseIndex``) plus the bitmask of variables still free; a child
fixes its model in the parent's residual.  Every node is vetted so that
falsified branches never expand.  A child whose model empties a clause is
pruned by one mask test, before it is built: each model carries the mask
of the clauses it satisfies, and the node marks once the alive clauses
whose unfixed literals all lie on the block it branches over.  A child
whose model agrees with the parent's witness keeps that witness (every
surviving clause keeps the literal it made true), and any other node
runs the exact DPLL search on its residual.  A residual clause's models
are listed with their masks once per cut; a group keeps only its models'
masks, computed once per cut, and decodes a model only for a child that
passes the test.  A global counter accumulates, at each clause-free node, the number of models
below it; the run either finishes (the counter is then the exact model
count) or aborts once the counter reaches the threshold, certifying "at
least that many models".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .cnf import CnfFormula
from .exact import ClauseIndex
from .structs import Struct, StructSet


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
    pos, neg, occurs, spans = index.pos, index.neg, index.occurs, index.spans

    # Each branch node marks ``closed``: the alive clauses whose unfixed
    # literals all lie on its block, the variables that every one of its
    # models fixes.  A model empties a clause exactly when it leaves a
    # closed clause unsatisfied, so no child is built only to be pruned.
    # At group i's depth the fixed variables are those of the groups
    # before it, so the closed clauses are the alive ones among those
    # that touch group i and have every variable in groups 0..i.
    group_closed = []
    seen = 0
    for sigma in structs:
        touched = 0
        for v in sigma.vars:
            seen |= 1 << v
            touched |= occurs[v]
        inside = 0
        while touched:
            low = touched & -touched
            if not spans[low.bit_length() - 1] & ~seen:
                inside |= low
            touched ^= low
        group_closed.append(inside)

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

    def with_masks(model: dict[int, bool]) -> tuple[dict[int, bool], int]:
        """The model and the mask of the clauses it satisfies."""
        sat = 0
        for v, value in model.items():
            sat |= pos[v] if value else neg[v]
        return model, sat

    # each group's model masks, computed as the walk first needs them (a
    # cut that stops mid-group computes no further) and kept for the later
    # nodes of the group's depth; a model is decoded, from its place in
    # the group's scan, only if its child survives the mask test
    group_sats: list[list[int]] = [[] for _ in structs]

    def group_models(i: int) -> Iterator[tuple[int, int]]:
        """Group i's models as (place, mask), in scan order."""
        sats = group_sats[i]
        # one node per depth is open at a time, so only this walk extends
        # the kept list
        yield from enumerate(sats)
        variables = structs[i].vars
        for index in map(int, structs[i].model_indices()[len(sats):]):
            sat = 0
            for b, v in enumerate(variables):
                sat |= pos[v] if index >> b & 1 else neg[v]
            sats.append(sat)
            yield len(sats) - 1, sat

    def group_decoder(sigma: Struct):
        """Decodes one of the group's models from its place in the scan."""
        indices, variables = sigma.model_indices(), sigma.vars

        def decode(place: int) -> dict[int, bool]:
            index = indices.item(place)
            return {v: bool(index >> b & 1) for b, v in enumerate(variables)}
        return decode

    # each residual clause's variables and its models with their masks,
    # kept for the cut (a clause has at most 2^k - 1 models)
    clause_models: dict[tuple[int, ...], tuple[tuple[int, ...], list]] = {}

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

        # every model fixes all of ``block`` and nothing else
        if branching is BranchKind.BINARY:
            var = next(v for v in order if free >> v & 1)
            label, factor = f"x{var}", 2
            block = (var,)
            closed = spanning(alive, planes, block)
            models = (({var: False}, neg[var]), ({var: True}, pos[var]))
            decode = None
        elif branching is BranchKind.STRUCT_GUIDED and next_struct < len(structs):
            sigma = structs[next_struct]
            label, factor = f"group{next_struct}", sigma.l_sigma
            block = sigma.vars
            closed = alive & group_closed[next_struct]
            models = group_models(next_struct)
            decode = group_decoder(sigma)
            next_struct += 1
        else:
            clause = tuple([code for code in phi.clauses[index.shortest(alive, planes)]
                            if free >> abs(code) & 1])
            if check_reduction and next_struct >= len(structs):
                assert len(clause) <= width_bound, \
                    "residual clause wider than expected after the groups"
            label, factor = " ".join(map(str, clause)), (1 << len(clause)) - 1
            if clause not in clause_models:
                clause_models[clause] = (
                    tuple([abs(code) for code in clause]),
                    [with_masks(model) for model in _clause_models(clause)])
            block, models = clause_models[clause]
            closed = spanning(alive, planes, block)
            decode = None
        state["branch_nodes"] += 1
        if trace is not None:
            trace.append(f"{depth}\t{label}\t{factor}")
        rest = free
        for v in block:
            rest &= ~(1 << v)
        for key, sat in models:
            if closed & ~sat:
                # a clause emptied: vetted and pruned without building it
                state["decider_calls"] += 1
                state["pruned"] += 1
                continue
            model = key if decode is None else decode(key)
            # the witness still satisfies the child if the model agrees with it
            keep = witness
            for v, value in model.items():
                if witness.get(v, value) != value:
                    keep = None
                    break
            child = alive & ~sat
            explore(child, index.lower(child, planes, model), rest, keep,
                    depth + 1, next_struct)

    try:
        explore(*index.root, sum(1 << v for v in phi.variables), None, 0, 0)
        kind = CutKind.EXACT
    except _Abort:
        kind = CutKind.AT_LEAST_ELL
    return CutResult(kind=kind, **state)
