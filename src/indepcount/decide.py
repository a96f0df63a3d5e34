"""Exact satisfiability decisions.

A complete backtracking search (DPLL: unit propagation, then branching on
a busiest variable) decides every formula without error: "satisfiable"
comes with a checked model, and "unsatisfiable" is never a missed model.
It shares its propagator and branching rule with the width-2 counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula, evaluate
from .exact import busiest_var, propagate


@dataclass(frozen=True)
class DecisionOutcome:
    satisfiable: bool
    witness: dict[int, bool] | None


def _search_complete(phi: CnfFormula) -> dict[int, bool] | None:
    """A partial model of ``phi`` (variables it needs), or None if none exists."""

    def solve(clauses, fixed: dict[int, bool]) -> dict[int, bool] | None:
        propagated = propagate(clauses, fixed)
        if propagated is None:
            return None
        residual, fixed = propagated
        if not residual:
            return fixed
        v = busiest_var(residual)
        for value in (True, False):
            found = solve(residual, {**fixed, v: value})
            if found is not None:
                return found
        return None

    return solve(phi.clauses, {})


def decide(phi: CnfFormula) -> DecisionOutcome:
    """Decide satisfiability exactly; "satisfiable" comes with a checked model."""
    found = _search_complete(phi)
    if found is None:
        return DecisionOutcome(False, None)
    witness = {v: found.get(v, False) for v in phi.variables}
    assert evaluate(phi, witness)
    return DecisionOutcome(True, witness)
