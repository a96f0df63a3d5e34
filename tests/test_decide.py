from indepcount import (CnfFormula, DecisionOutcome, brute_force_count,
                        decide, evaluate)
from indepcount.gen import GeneratorSpec, generate


def test_empty_clause_is_unsat():
    out = decide(CnfFormula([()], 3))
    assert out == DecisionOutcome(False, None)


def test_no_clauses_is_sat_with_witness():
    out = decide(CnfFormula([], 4))
    assert out.satisfiable
    assert sorted(out.witness) == [1, 2, 3, 4]


def test_small_instances_match_brute_force():
    for seed in range(60):
        n = 3 + seed % 10
        m = 1 + (seed * 3) % 18
        phi = generate(GeneratorSpec(n=n, m=m, k=3, seed=seed))
        out = decide(phi)
        assert out.satisfiable == (brute_force_count(phi).value > 0)
        if out.satisfiable:
            assert evaluate(phi, out.witness)


def test_never_claims_sat_when_unsat():
    # pinned contradictions stay UNSAT
    tiny = CnfFormula([(1,), (-1,)], 2)
    assert not decide(tiny).satisfiable

    # all eight sign patterns over {1,2,3}, padded to 30 variables
    patterns = [tuple((v if not (s >> i) & 1 else -v)
                      for i, v in enumerate((1, 2, 3)))
                for s in range(8)]
    phi = CnfFormula(patterns, 30, k=3)
    out = decide(phi)
    assert not out.satisfiable


def test_dense_unsat_formula_on_24_variables():
    # 24 variables, 96 clauses, no models: the decider must say so quickly
    phi = generate(GeneratorSpec(n=24, m=96, k=3, seed=1))
    out = decide(phi)
    assert not out.satisfiable and out.witness is None


def test_finds_planted_models():
    # satisfiable by construction; the complete search never misses one
    hits = 0
    for seed in range(100):
        phi = generate(GeneratorSpec(n=30, m=60, k=3, seed=seed, planted=True))
        out = decide(phi)
        if out.satisfiable:
            assert evaluate(phi, out.witness)
            hits += 1
    assert hits == 100


def test_witness_covers_untouched_variables():
    phi = CnfFormula([(1, 2)], 5)
    out = decide(phi)
    assert out.satisfiable and sorted(out.witness) == [1, 2, 3, 4, 5]
    assert evaluate(phi, out.witness)


def test_long_decision_chains_are_not_recursive():
    # thousands of decisions deep: a search that recursed once per
    # decision hit the interpreter's recursion limit here
    phi = generate(GeneratorSpec(n=3000, m=3000, k=3, seed=1, planted=True))
    out = decide(phi)
    assert out.satisfiable and evaluate(phi, out.witness)
