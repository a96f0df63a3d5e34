import hashlib
import itertools
import random

import pytest

from indepcount import (BranchKind, CnfFormula, CutKind, Estimate, Strategy,
                        Struct, StructSet, brute_force_count, cut,
                        params_for, red_clauses, red_structs)
from indepcount.cnf import assign, vars_of
from indepcount.exact import ClauseIndex
from indepcount.gen import GeneratorSpec, generate

from conftest import deadline

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


# ---------------------------------------------------------------------------
# The cut against a reference walk: residuals as int-clause tuples stripped
# by ``cnf.assign``, and satisfiability by trying every assignment

def _reference_models(clause):
    return [{abs(code): (code > 0) == bool((pattern >> i) & 1)
             for i, code in enumerate(clause)}
            for pattern in range(1, 1 << len(clause))]


def _brute_sat(clauses, memo):
    key = frozenset(clauses)
    if key not in memo:
        vs = sorted(vars_of(clauses))
        memo[key] = any(
            all(any(a[abs(code)] == (code > 0) for code in c) for c in clauses)
            for a in (dict(zip(vs, bits))
                      for bits in itertools.product((False, True), repeat=len(vs))))
    return memo[key]


class _Reached(Exception):
    pass


def _reference_cut(phi, psi, ell, branching, memo):
    occur = {v: 0 for v in phi.variables}
    for c in phi.clauses:
        for code in c:
            occur[abs(code)] += 1
    order = sorted(occur, key=lambda v: (-occur[v], v))
    structs = tuple(psi) if branching is BranchKind.STRUCT_GUIDED else ()
    state = dict(count=0, branch_nodes=0, decider_calls=0, leaves=0, pruned=0)
    trace = []

    def walk(clauses, free, depth, nxt):
        state["decider_calls"] += 1
        if not _brute_sat(clauses, memo):
            state["pruned"] += 1
            return
        if not clauses:
            state["leaves"] += 1
            state["count"] += 1 << len(free)
            if state["count"] >= ell:
                raise _Reached
            return
        if branching is BranchKind.BINARY:
            var = next(v for v in order if v in free)
            label, factor = f"x{var}", 2
            models = [{var: False}, {var: True}]
        elif nxt < len(structs):
            label, factor = f"group{nxt}", structs[nxt].l_sigma
            models = list(structs[nxt].iter_satisfying_assignments())
            nxt += 1
        else:
            clause = min(clauses, key=len)
            label, factor = " ".join(map(str, clause)), (1 << len(clause)) - 1
            models = _reference_models(clause)
        state["branch_nodes"] += 1
        trace.append(f"{depth}\t{label}\t{factor}")
        for model in models:
            walk(assign(clauses, model), free - model.keys(), depth + 1, nxt)

    try:
        walk(phi.clauses, phi.varset, 0, 0)
        kind = CutKind.EXACT
    except _Reached:
        kind = CutKind.AT_LEAST_ELL
    return [kind, *state.values()], trace


def _struct_psi(phi) -> StructSet | None:
    params = params_for(phi.k, phi.num_vars, Strategy.INDEP_STRUCTS)
    return red_structs(phi, params, 0.2, 0.1, _exact_counter).struct_set


def test_cut_matches_reference_walk():
    kinds, seen, memo = set(), set(), {}
    for seed in range(60):
        rng = random.Random(seed)
        k = 2 + seed % 3
        n = rng.randint(k + 2, 12)
        m = rng.randint(1, {2: 3, 3: 5, 4: 9}[k] * n)
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=seed))
        strategies = [(BranchKind.BINARY, EMPTY),
                      (BranchKind.PRUNED_CLAUSE, EMPTY)]
        psi = _struct_psi(phi) if k >= 3 else None
        if psi is not None:
            strategies.append((BranchKind.STRUCT_GUIDED, psi))
        for branching, psi in strategies:
            for ell in (rng.randint(1, 6), rng.randint(8, 64), BIG):
                want, want_trace = _reference_cut(phi, psi, ell, branching, memo)
                trace: list[str] = []
                res = cut(phi, psi, ell, branching, trace=trace)
                assert [res.kind, res.count, res.branch_nodes, res.decider_calls,
                        res.leaves, res.pruned] == want, (seed, branching, ell)
                assert trace == want_trace, (seed, branching, ell)
                kinds.add(res.kind)
                seen.add(branching)
    assert kinds == set(CutKind) and seen == set(BranchKind)


def test_no_child_that_empties_a_clause_reaches_the_search(monkeypatch):
    # the mask test must prune every child whose model empties a clause;
    # one it missed would be built and handed to the search
    search = ClauseIndex.search
    searched = []

    def checked(self, alive, planes, unfixed):
        nonempty = 0
        for plane in planes:
            nonempty |= plane
        assert not alive & ~nonempty, "a child with an empty clause was built"
        searched.append(alive)
        return search(self, alive, planes, unfixed)

    monkeypatch.setattr(ClauseIndex, "search", checked)
    wide = 0
    for seed in range(40):
        rng = random.Random(seed)
        k = 3 + seed % 2
        n = rng.randint(8, 14)
        m = rng.randint(n, {3: 5, 4: 9}[k] * n)
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=300 + seed))
        psi = _struct_psi(phi) or _clause_psi(phi)
        wide += any(sigma.n_sigma > k for sigma in psi)
        for branching in BranchKind:
            cut(phi, psi, BIG, branching)
    assert searched and wide  # groups wider than one clause were branched on


# Benchmark-scale cuts, recorded before the walk moved to bit-sliced
# residuals.  k=3, n=28, m=84, generator seed 1 (802 models), completed:
BENCH_PHI = GeneratorSpec(n=28, m=84, k=3, seed=1)
BENCH_PINS = [
    # (strategy, kind, count, branch_nodes, decider_calls, leaves, pruned)
    (Strategy.THURLEY, CutKind.EXACT, 802, 4497, 8995, 627, 3871),
    (Strategy.PRUNED_TREE, CutKind.EXACT, 802, 1050, 1549, 383, 116),
    (Strategy.INDEP_CLAUSES, CutKind.EXACT, 802, 3484, 7375, 506, 3385),
    (Strategy.INDEP_STRUCTS, CutKind.EXACT, 802, 1572, 92539, 748, 90219),
]


def _strategy_cut(phi, strategy, trace=None):
    """The cut that ``approx_count`` makes for ``strategy``, at its ell,
    without the sampling that follows it."""
    params = params_for(phi.k, phi.num_vars, strategy)
    if strategy is Strategy.THURLEY:
        branching, psi = BranchKind.BINARY, EMPTY
    elif strategy is Strategy.PRUNED_TREE:
        branching, psi = BranchKind.PRUNED_CLAUSE, EMPTY
    else:
        branching = BranchKind.STRUCT_GUIDED
        if strategy is Strategy.INDEP_STRUCTS:
            out = red_structs(phi, params, 0.2, 0.1, _exact_counter)
        else:
            out = red_clauses(phi, params.m_hat, 0.2, 0.1, _exact_counter)
        assert out.struct_set is not None
        psi = out.struct_set
    return cut(phi, psi, params.ell, branching, trace=trace)


@pytest.mark.parametrize("pin", BENCH_PINS, ids=lambda p: p[0].value)
def test_benchmark_scale_cuts_are_pinned(pin):
    strategy, *want = pin
    res = _strategy_cut(generate(BENCH_PHI), strategy)
    assert [res.kind, res.count, res.branch_nodes, res.decider_calls,
            res.leaves, res.pruned] == want


def test_structs_cut_prunes_group_children_in_time():
    # k=4, n=30, m=180, generator seed 1: 567,622 of its 569,606 vetted
    # nodes are pruned, so a pruned child must cost far less than a build
    phi = generate(GeneratorSpec(n=30, m=180, k=4, seed=1))
    with deadline(2.0):
        res = _strategy_cut(phi, Strategy.INDEP_STRUCTS)
    assert [res.kind, res.count, res.branch_nodes, res.decider_calls,
            res.leaves, res.pruned] == [CutKind.AT_LEAST_ELL, 610, 1590,
                                        569606, 394, 567622]


def test_sparse_sample_cell_cuts_are_pinned():
    # 8 instances of the sampling benchmark's two cells, generator seeds
    # 1-4 each, under all four two-phase strategies: one digest over every
    # CutResult field and trace line of the 32 cuts
    digest = hashlib.sha256()
    for k, n, m in ((3, 23, 46), (4, 19, 114)):
        for seed in range(1, 5):
            phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=seed))
            for strategy in (Strategy.THURLEY, Strategy.PRUNED_TREE,
                             Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS):
                trace: list[str] = []
                res = _strategy_cut(phi, strategy, trace)
                digest.update(repr(res).encode())
                digest.update("\n".join(trace).encode())
    assert digest.hexdigest()[:16] == "6ef1a12ef087d824"
