import pytest

from indepcount import (BranchKind, CnfFormula, CutKind, Estimate,
                        Struct, StructSet, brute_force_count, cut,
                        red_clauses)
from indepcount.gen import GeneratorSpec, generate

BIG = 10 ** 9


def _exact_counter(sub, eps, delta):
    return Estimate(value=brute_force_count(sub).value, exact=True,
                    epsilon=eps, delta=delta)


def _clause_psi(phi) -> StructSet:
    out = red_clauses(phi, 1, 0.2, 0.1, _exact_counter)
    assert out.struct_set is not None
    return out.struct_set


EMPTY = StructSet(())


def test_chain3_binary_trace(chain3):
    trace: list[str] = []
    res = cut(chain3, EMPTY, BIG, BranchKind.BINARY, trace=trace)
    assert res.kind is CutKind.EXACT and res.count == 4
    assert res.leaves == 3 and res.pruned == 3 and res.branch_nodes == 5
    # x2 is the busiest variable, so the default order starts there
    assert trace == ["0\tx2\t2", "1\tx1\t2", "1\tx1\t2",
                     "2\tx3\t2", "2\tx3\t2"]


def test_chain4_clause_branching_is_narrow(chain4):
    trace: list[str] = []
    res = cut(chain4, EMPTY, BIG, BranchKind.PRUNED_CLAUSE,
              trace=trace)
    assert res.completed and res.count == 2
    assert res.leaves + res.pruned <= 6
    label, factor = trace[0].split("\t")[1:]
    assert label == "1 2" and factor == "3"


def test_all_strategies_agree_with_brute_force():
    for seed in range(30):
        n = 8 + seed % 5
        m = 6 + (seed * 3) % 20
        phi = generate(GeneratorSpec(n=n, m=m, k=3, seed=seed))
        want = brute_force_count(phi).value
        for strat, psi in [(BranchKind.BINARY, EMPTY),
                           (BranchKind.PRUNED_CLAUSE, EMPTY),
                           (BranchKind.STRUCT_GUIDED, _clause_psi(phi))]:
            res = cut(phi, psi, BIG, strat)
            assert res.completed and res.count == want


def test_abort_reports_at_least_ell():
    for seed in range(20):
        phi = generate(GeneratorSpec(n=10, m=8, k=3, seed=100 + seed))
        want = brute_force_count(phi).value
        if want < 8:
            continue
        res = cut(phi, EMPTY, 8, BranchKind.PRUNED_CLAUSE)
        assert res.kind is CutKind.AT_LEAST_ELL
        assert 8 <= res.count <= want


def test_threshold_exactly_at_count_still_aborts(chain3):
    # counting stops the moment the running total reaches ell
    res = cut(chain3, EMPTY, 4, BranchKind.BINARY)
    assert res.kind is CutKind.AT_LEAST_ELL and res.count == 4
    res = cut(chain3, EMPTY, 5, BranchKind.BINARY)
    assert res.kind is CutKind.EXACT and res.count == 4


def test_unsat_formula_completes_with_zero():
    phi = CnfFormula([(1,), (-1,), (2, 3)], 3)
    res = cut(phi, EMPTY, 1, BranchKind.BINARY)
    assert res.completed and res.count == 0 and res.leaves == 0


def test_no_clause_formula_is_one_leaf():
    res = cut(CnfFormula([], 4), EMPTY, BIG, BranchKind.BINARY)
    assert res.completed and res.count == 16 and res.leaves == 1


def test_struct_guided_consumes_groups_first():
    phi = generate(GeneratorSpec(n=12, m=12, k=3, seed=42))
    psi = _clause_psi(phi)
    assert len(psi) >= 2
    trace: list[str] = []
    res = cut(phi, psi, BIG, BranchKind.STRUCT_GUIDED,
              trace=trace)
    assert res.completed and res.count == brute_force_count(phi).value
    roots = {line for line in trace if line.startswith("0\t")}
    assert roots == {"0\tgroup0\t7"}
    # group blocks occupy the first len(psi) depths; clauses come after
    group_depths = {int(line.split("\t")[0]) for line in trace
                    if "group" in line}
    assert group_depths == set(range(len(psi)))


def test_struct_guided_rejects_foreign_groups():
    foreign = Struct(((1, 2, 4),), (1, 2, 4))
    with pytest.raises(ValueError):
        cut(CnfFormula([(1, 2, 3), (4, 5, 6)], 6), StructSet((foreign,)),
            BIG, BranchKind.STRUCT_GUIDED)


def test_cut_validates_arguments(chain3):
    with pytest.raises(ValueError):
        cut(chain3, EMPTY, 0, BranchKind.BINARY)


def test_work_counters_are_consistent(chain3):
    res = cut(chain3, EMPTY, BIG, BranchKind.BINARY)
    # every node got one decider call: branches + leaves + pruned
    assert res.decider_calls == res.branch_nodes + res.leaves + res.pruned
