import hashlib

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


# Full results of one completed and one aborted run per branching rule,
# recorded before the search moved to int-clause residuals: the tree, and
# so every counter and the trace, must stay exactly as it was.
PIN_PHI = GeneratorSpec(n=18, m=36, k=3, seed=9)
PIN_GROUPS = (
    (((11, 13, 17), (-11, 1, 3)), (1, 3, 11, 13, 17)),
    (((-5, 9, 16),), (16,)),
    (((7, 15, 18), (-12, 6, 14), (2, 12, 15)), (2, 6, 7, 12, 14, 15, 18)),
)
CUT_PINS = [
    # (branching, ell, kind, count, branch_nodes, decider_calls, leaves,
    #  pruned, trace lines, sha256 prefix of the trace)
    (BranchKind.BINARY, BIG, CutKind.EXACT, 2472, 5825, 11651, 1654, 4172, 5825,
     "12c9ecb0b48f22ff"),
    (BranchKind.BINARY, 824, CutKind.AT_LEAST_ELL, 824, 1834, 3659, 563, 1262, 1834,
     "5bbc1d0fa170caed"),
    (BranchKind.PRUNED_CLAUSE, BIG, CutKind.EXACT, 2472, 1104, 2189, 971, 114, 1104,
     "26c20d4e8147423b"),
    (BranchKind.PRUNED_CLAUSE, 824, CutKind.AT_LEAST_ELL, 828, 335, 605, 250, 20, 335,
     "6826e0f90d5afac6"),
    (BranchKind.STRUCT_GUIDED, BIG, CutKind.EXACT, 2472, 3596, 11390, 1447, 6347, 3596,
     "96ea784bced71d19"),
    (BranchKind.STRUCT_GUIDED, 824, CutKind.AT_LEAST_ELL, 825, 1130, 3019, 460, 1429, 1130,
     "6b6ee38b16120f74"),
]


@pytest.mark.parametrize("pin", CUT_PINS, ids=lambda p: f"{p[0].name}-{p[2].name}")
def test_cut_results_are_pinned(pin):
    branching, ell, *want = pin
    phi = generate(PIN_PHI)
    psi = EMPTY
    if branching is BranchKind.STRUCT_GUIDED:
        psi = StructSet(tuple(Struct(cls, closed) for cls, closed in PIN_GROUPS))
    trace: list[str] = []
    res = cut(phi, psi, ell, branching, trace=trace)
    digest = hashlib.sha256("\n".join(trace).encode()).hexdigest()[:16]
    assert [res.kind, res.count, res.branch_nodes, res.decider_calls,
            res.leaves, res.pruned, len(trace), digest] == want
