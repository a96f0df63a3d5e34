import itertools
import random

import pytest

from indepcount import (CnfFormula, GuardError, brute_force_count,
                        count_2sat_exact, parse_dimacs)
from indepcount.cnf import vars_of
from indepcount.exact import _split, find_model, propagate
from indepcount.gen import GeneratorSpec, generate

from conftest import slow_count


def test_chain3_count(chain3):
    assert brute_force_count(chain3).value == 4


def test_chain4_count(chain4):
    assert brute_force_count(chain4).value == 2


def test_no_clauses_counts_full_cube():
    assert brute_force_count(CnfFormula([], 5)).value == 32


def test_empty_clause_counts_zero():
    assert brute_force_count(CnfFormula([()], 4)).value == 0


def test_all_false_model_is_counted():
    # every clause has a negative literal; the only model sets all false
    phi = CnfFormula([(-1, 2), (-2, 3), (-3,)], 3)
    assert brute_force_count(phi).value == slow_count(phi) == 1


def test_contradiction_counts_zero():
    phi = CnfFormula([(1,), (-1,)], 3)
    assert brute_force_count(phi).value == 0
    assert count_2sat_exact(phi).value == 0


def test_guard_rejects_large_universe():
    with pytest.raises(GuardError):
        brute_force_count(CnfFormula([], 40))
    with pytest.raises(GuardError):
        brute_force_count(CnfFormula([], 10), max_vars=5)


def test_brute_force_matches_slow_reference():
    for seed in range(40):
        n = 4 + seed % 9
        m = 2 + (seed * 7) % 20
        phi = generate(GeneratorSpec(n=n, m=m, k=3, seed=seed))
        assert brute_force_count(phi).value == slow_count(phi)


def test_2sat_matches_brute_force():
    for seed in range(60):
        n = 4 + seed % 12
        m = 2 + (seed * 5) % 25
        phi = generate(GeneratorSpec(n=n, m=m, k=2, seed=1000 + seed))
        assert count_2sat_exact(phi).value == brute_force_count(phi).value


# (n, m, generator seed, value, nodes_visited) from a reference run; the
# component split, the propagator and the branching rule fix nodes_visited.
# The fourth instance has no models; the last three are the size of the
# benchmark's 2-CNF cell.
TWOSAT_PINS = [
    (110, 121, 5230, 8413646287219458048, 536),
    (112, 123, 5384, 626834104074731520, 464),
    (119, 130, 5223, 2079857996867174400, 455),
    (71, 78, 5027, 0, 4),
    (18, 18, 5405, 1422, 16),
    (18, 18, 5411, 1504, 14),
    (18, 18, 5417, 192, 4),
]


def test_2sat_counts_and_nodes_replay_pinned_values():
    for n, m, seed, value, nodes in TWOSAT_PINS:
        got = count_2sat_exact(generate(GeneratorSpec(n=n, m=m, k=2, seed=seed)))
        assert (got.value, got.nodes_visited) == (value, nodes), seed


def test_2sat_handles_unit_clauses():
    phi = parse_dimacs("p cnf 3 2\n1 0\n-1 2 0\n")
    assert count_2sat_exact(phi).value == brute_force_count(phi).value == 2


def test_2sat_rejects_width_three():
    with pytest.raises(ValueError):
        count_2sat_exact(CnfFormula([(1, 2, 3)], 3))


def test_2sat_untouched_vars_multiply():
    # x5 appears in no clause: the count doubles relative to the 4-var core
    core = CnfFormula([(1, -2), (3, 4)], 4)
    padded = CnfFormula([(1, -2), (3, 4)], 5)
    assert count_2sat_exact(padded).value == 2 * count_2sat_exact(core).value


def _part_vars(part):
    return sorted({abs(code) for c in part for code in c})


def _component_product(phi, counter):
    parts = _split(phi.clauses)
    prod = 1 << (phi.num_vars - sum(len(_part_vars(p)) for p in parts))
    for part in parts:
        prod *= counter(CnfFormula(part, variables=_part_vars(part))).value
        if prod == 0:
            break
    return prod


def test_components_partition_touched_vars():
    phi = CnfFormula([(1, 2), (2, 3), (5, 6)], 7)
    groups = sorted(_part_vars(part) for part in _split(phi.clauses))
    assert groups == [[1, 2, 3], [5, 6]]
    assert phi.num_vars - sum(map(len, groups)) == 2


def test_component_counts_multiply():
    phi = CnfFormula([(1, 2), (2, 3), (5, 6)], 7)
    assert _component_product(phi, brute_force_count) == brute_force_count(phi).value


def test_component_multiplicativity_random():
    for seed in range(20):
        phi = generate(GeneratorSpec(n=12, m=7, k=2, seed=2000 + seed))
        assert _component_product(phi, count_2sat_exact) == count_2sat_exact(phi).value


# ---------------------------------------------------------------------------
# propagate's contract, checked against every assignment of a small universe

def _satisfies(clauses, assignment):
    return all(any(assignment[abs(code)] == (code > 0) for code in c)
               for c in clauses)


def _extends(assignment, partial):
    return all(assignment[v] == value for v, value in partial.items())


def _check_propagate(clauses, fixed, n):
    before = dict(fixed)
    got = propagate(clauses, fixed)
    assert fixed == before, "the caller's dict is left alone"
    cube = [dict(zip(range(1, n + 1), bits))
            for bits in itertools.product((False, True), repeat=n)]
    models = [a for a in cube if _extends(a, fixed) and _satisfies(clauses, a)]
    if got is None:
        assert not models
        return
    residual, implied = got
    assert implied.items() >= fixed.items()
    assert all(_extends(a, implied) for a in models)
    assert not vars_of(residual) & implied.keys()
    assert all(len(c) >= 2 for c in residual)
    for a in cube:
        if _extends(a, implied):
            assert _satisfies(clauses, a) == _satisfies(residual, a)


def test_propagate_keeps_exactly_the_models_extending_fixed():
    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(0, 10)):
            if clauses and rng.random() < 0.15:
                clauses.append(rng.choice(clauses))
                continue
            width = min(n, rng.choices((0, 1, 2, 3), weights=(1, 6, 10, 10))[0])
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), width)))
        fixed = {v: rng.random() < 0.5
                 for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2))}
        _check_propagate(clauses, fixed, n)
        outcomes.add(propagate(clauses, fixed) is None)
    assert outcomes == {False, True}


def test_propagate_empty_clause_is_a_conflict():
    assert propagate([(1, 2), ()], {}) is None


def test_propagate_opposite_units_conflict():
    assert propagate([(1,), (-1,)], {}) is None
    assert propagate([(1,), (-2, 3), (-1,)], {}) is None


def test_propagate_unit_against_fixed_is_a_conflict():
    assert propagate([(-1,), (2, 3)], {1: True}) is None


def test_propagate_collapses_duplicate_residual_clauses():
    residual, implied = propagate([(1, 2, 3), (1, 2, -4), (4,)], {3: False})
    assert residual == frozenset({(1, 2)})
    assert implied == {3: False, 4: True}
    _check_propagate([(1, 2, 3), (1, 2, -4), (4,)], {3: False}, 4)


# ---------------------------------------------------------------------------
# find_model's contract, checked against every assignment of a small universe

def _check_find_model(clauses, fixed, n):
    before = dict(fixed)
    got = find_model(clauses, fixed)
    assert fixed == before, "the caller's dict is left alone"
    extendable = any(
        _satisfies(clauses, a) for a in (
            dict(zip(range(1, n + 1), bits))
            for bits in itertools.product((False, True), repeat=n))
        if _extends(a, fixed))
    if not extendable:
        assert got is None
        return
    assert got is not None
    assert got.items() >= fixed.items()
    # a partial model: every clause already holds, whatever the rest is
    assert all(any(got.get(abs(code)) == (code > 0) for code in c)
               for c in clauses)


def test_find_model_answers_exactly_when_a_model_extends_fixed():
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(0, 14)):
            if clauses and rng.random() < 0.15:
                clauses.append(rng.choice(clauses))
                continue
            width = min(n, rng.choices((0, 1, 2, 3, 4), weights=(1, 5, 10, 10, 6))[0])
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), width)))
        fixed = {v: rng.random() < 0.5
                 for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2))}
        _check_find_model(clauses, fixed, n)
        outcomes.add(find_model(clauses, fixed) is None)
    assert outcomes == {False, True}


def test_find_model_named_cases():
    _check_find_model([], {}, 1)
    _check_find_model([()], {}, 1)
    _check_find_model([(1,), (-1,)], {}, 2)
    _check_find_model([(1, 2), (1, 2), (-1, 2)], {}, 2)
    _check_find_model([(-1,), (2, 3)], {1: True}, 3)
    _check_find_model([(1, 2, 3, 4), (-1,), (-2,), (-3,)], {4: False}, 4)
    assert find_model([(1,), (-1,)]) is None
    assert find_model([(-1,), (2, 3)], {1: True}) is None
    assert find_model([(1, 2)], {3: True}).items() >= {3: True}.items()
