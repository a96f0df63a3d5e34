import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indepcount import (CnfFormula, GuardError, approx_count,
                        brute_force_count, count_2sat_exact, parse_dimacs,
                        ras)
from indepcount.cnf import assign, vars_of
from indepcount.exact import ClauseIndex, _count
from indepcount.gen import GeneratorSpec, generate

from conftest import slow_count

ROOT = Path(__file__).resolve().parent.parent


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


def _exactref(monkeypatch):
    # perfbench's reference counter shares no code with the library
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import exactref
    return exactref


def test_brute_force_matches_exactref_across_index_widths(monkeypatch):
    # n runs over <= 8, 9-16 and > 16 index bits, so the join sees a low
    # half alone, a partial low half and high slices; m up to 150 fills
    # up to three 64-clause blocks.  k = 5 stops at 18 variables, where it
    # still reaches the high slices: exactref's own search is slow beyond
    exactref = _exactref(monkeypatch)
    rng = random.Random(18)
    for seed in range(500):
        k = rng.randint(1, 5)
        n = rng.randint(k, 18 if k == 5 else 22)
        # below the number of distinct clauses, so no duplicate is forced
        m = rng.randint(0, min(150, math.comb(n, k) * 2 ** k // 2))
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=7000 + seed))
        got = brute_force_count(phi)
        assert got.value == exactref.count_models(phi.int_clauses(), n), seed
        assert got.nodes_visited == 1 << n


def test_brute_force_hand_cases_match_exactref(monkeypatch):
    exactref = _exactref(monkeypatch)
    rng = random.Random(19)
    top_units = [(22,), (-21,)] + [
        tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, 23), 3))
        for _ in range(40)]
    cases = [
        CnfFormula([], 0),
        CnfFormula([()], 0),
        CnfFormula([], 19),
        CnfFormula([(1, -2), (), (3,)], 20),
        CnfFormula(top_units, 22),
        CnfFormula([(-18,), (17,), (1, 2, -17)], 18),
        CnfFormula([(-9,), (16, -8), (1, 9, 16)], 16),
    ]
    for phi in cases:
        got = brute_force_count(phi)
        assert got.value == exactref.count_models(phi.int_clauses(),
                                                  phi.num_vars), phi
        assert got.nodes_visited == 1 << phi.num_vars
    # gapped universe: bit i stands for the i-th smallest variable
    gapped = CnfFormula([(3, -40), (-3, 17), (41,), (-25, -41)],
                        variables=[3, 17, 25, 40, 41])
    rename = {v: i for i, v in enumerate(gapped.variables, start=1)}
    dense = [tuple(rename[abs(c)] * (1 if c > 0 else -1) for c in clause)
             for clause in gapped.clauses]
    got = brute_force_count(gapped)
    assert got.value == exactref.count_models(dense, 5) == slow_count(gapped)
    assert got.nodes_visited == 32


def test_2sat_matches_brute_force():
    for seed in range(60):
        n = 4 + seed % 12
        m = 2 + (seed * 5) % 25
        phi = generate(GeneratorSpec(n=n, m=m, k=2, seed=1000 + seed))
        assert count_2sat_exact(phi).value == brute_force_count(phi).value


# (n, m, generator seed, value, nodes_visited) from a reference run.
# nodes_visited is the number of distinct components the counter branched
# on (its memo entries after the root's units); the component walk, the
# unit step and the branching rule fix it.  The fourth instance has no
# models; the last three are the size of the benchmark's 2-CNF cell.
TWOSAT_PINS = [
    (110, 121, 5230, 8413646287219458048, 294),
    (112, 123, 5384, 626834104074731520, 261),
    (119, 130, 5223, 2079857996867174400, 247),
    (71, 78, 5027, 0, 2),
    (18, 18, 5405, 1422, 12),
    (18, 18, 5411, 1504, 13),
    (18, 18, 5417, 192, 3),
]


def test_2sat_counts_and_nodes_replay_pinned_values():
    for n, m, seed, value, nodes in TWOSAT_PINS:
        got = count_2sat_exact(generate(GeneratorSpec(n=n, m=m, k=2, seed=seed)))
        assert (got.value, got.nodes_visited) == (value, nodes), seed


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_2sat_counts_long_chains_without_recursing(monkeypatch):
    # (x_i or x_{i+1}) over n variables has F(n+2) models.  The counter
    # branches about n/3 levels deep, which at n = 3,000 passes Python's
    # recursion limit unless the count keeps its own stack.  approx_count
    # routes width 2 to count_2sat_exact; one count checks both.
    direct = []

    def spy(phi):
        direct.append(count_2sat_exact(phi))
        return direct[-1]
    monkeypatch.setattr(ras, "count_2sat_exact", spy)
    chain = CnfFormula([(i, i + 1) for i in range(1, 3000)], 3000)
    est = approx_count(chain, 0.2, 0.1, seed=1)
    assert [got.value for got in direct] == [_fibonacci(3002)]
    assert est.exact and est.value == _fibonacci(3002)


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


def _parts(clauses):
    """Clauses grouped by shared variables (a union-find over variables)."""
    parent: dict[int, int] = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for c in clauses:
        for code in c[1:]:
            parent[find(abs(code))] = find(abs(c[0]))
    groups: dict[int, list] = {}
    for c in clauses:
        groups.setdefault(find(abs(c[0])), []).append(c)
    return list(groups.values())


def _component_product(phi, counter):
    parts = _parts(phi.clauses)
    prod = 1 << (phi.num_vars - sum(len(_part_vars(p)) for p in parts))
    for part in parts:
        prod *= counter(CnfFormula(part, variables=_part_vars(part))).value
        if prod == 0:
            break
    return prod


def test_component_counts_multiply():
    phi = CnfFormula([(1, 2), (2, 3), (5, 6)], 7)
    assert _component_product(phi, brute_force_count) == brute_force_count(phi).value


def test_component_multiplicativity_random():
    for seed in range(20):
        phi = generate(GeneratorSpec(n=12, m=7, k=2, seed=2000 + seed))
        assert _component_product(phi, count_2sat_exact) == count_2sat_exact(phi).value


# ---------------------------------------------------------------------------
# The counter's contract, checked against every assignment of a small universe

def _satisfies(clauses, assignment):
    return all(any(assignment[abs(code)] == (code > 0) for code in c)
               for c in clauses)


def _extends(assignment, partial):
    return all(assignment[v] == value for v, value in partial.items())


def _random_clauses(rng, n, count, weights):
    """Random int clauses over x1..xn, some of them repeats of earlier ones."""
    clauses = []
    for _ in range(count):
        if clauses and rng.random() < 0.15:
            clauses.append(rng.choice(clauses))
            continue
        width = min(n, rng.choices(range(len(weights)), weights=weights)[0])
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), width)))
    return clauses


def test_counter_counts_every_width_against_enumeration():
    # the private entry point: count_2sat_exact refuses width 3 and above
    values = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        clauses = _random_clauses(rng, n, rng.randint(0, 12), (1, 6, 10, 10, 6))
        if rng.random() < 0.2:
            v = rng.randint(1, n)
            clauses += [(v,), (-v,)]
        # universe variables past n appear in no clause
        universe = range(1, n + rng.randint(0, 3) + 1)
        want = sum(_satisfies(clauses, dict(zip(universe, bits)))
                   for bits in itertools.product((False, True),
                                                 repeat=len(universe)))
        got = _count(clauses, universe)
        assert got.value == want, (seed, clauses)
        values.add(min(want, 2))
    assert values == {0, 1, 2}
    assert _count([], range(1, 4)).value == 8
    assert _count([(1, 2), ()], range(1, 3)).value == 0
    assert _count([(1,), (-1,)], range(1, 3)).value == 0
    assert _count([(1, 2, 3), (1, 2, 3), (-1,)], range(1, 5)).value == 6


# ---------------------------------------------------------------------------
# The unit step's contract: ``_assign`` of ``fixed``, then
# ClauseIndex.fix to a fixpoint, read back as int clauses

def _assign(index, residual, fixed):
    """``residual`` with each free variable of ``fixed`` set to its value
    (``ClauseIndex.lower`` strips the falsified literals), or None if that
    empties a clause."""
    alive, planes = residual
    block = tuple(fixed)
    for v in block:
        alive &= ~(index.pos[v] if fixed[v] else index.neg[v])
    planes = index.lower(alive, planes, block,
                         sum(fixed[v] << b for b, v in enumerate(block)))
    nonempty = 0
    for plane in planes:
        nonempty |= plane
    return None if alive & ~nonempty else (alive, planes)


def propagate(clauses, fixed):
    """(residual clause set, all fixed vars) after ``fixed`` and the units
    it leads to, or None if a clause empties."""
    index = ClauseIndex(clauses, max(fixed, default=0))
    residual = _assign(index, index.root, fixed)
    if residual is None:
        return None
    unfixed = sum(1 << v for v in vars_of(index.clauses) - fixed.keys())
    trail: list[int] = []
    residual = index.fix(*residual, unfixed, 0, trail)
    if residual is None:
        return None
    alive, _, unfixed = residual
    left = frozenset(tuple(code for code in c if unfixed >> abs(code) & 1)
                     for j, c in enumerate(index.clauses) if alive >> j & 1)
    return left, {**fixed, **{abs(code): code > 0 for code in trail}}


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
        clauses = _random_clauses(rng, n, rng.randint(0, 10), (1, 6, 10, 10))
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


def _reference_fix(clauses, fixed, code):
    """The trail and the stripped clauses (None where satisfied) of unit
    propagation by ``cnf.assign``: set ``code`` (0 sets none), then the one
    literal of the first clause with one left, until none has; or None
    once a clause empties."""
    fixed, trail = dict(fixed), []
    while True:
        left = [next(iter(assign([c], fixed)), None) for c in clauses]
        if () in left:
            return None
        if not code:
            units = [c for c in left if c is not None and len(set(c)) == 1]
            if not units:
                return trail, left
            code = units[0][0]
        trail.append(code)
        fixed[abs(code)] = code > 0
        code = 0


_literal = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_literal, min_size=1, max_size=4).map(tuple),
                max_size=10),
       st.dictionaries(st.integers(1, 6), st.booleans(), max_size=3),
       st.sampled_from((0, 0, 1, -1, 2, -2, 6)))
def test_fix_matches_unit_propagation_by_assign(clauses, fixed, code):
    # from a residual with no empty clause: the root, or one with a block
    # fixed by ``_assign``; the literal to set is on an unfixed variable
    assume(abs(code) not in fixed)
    index = ClauseIndex(clauses, 6)
    residual = _assign(index, index.root, fixed)
    assume(residual is not None)
    unfixed = sum(1 << v for v in range(1, 7) if v not in fixed)
    trail: list[int] = []
    got = index.fix(*residual, unfixed, code, trail)
    want = _reference_fix(clauses, fixed, code)
    if want is None:
        assert got is None
        return
    assert got is not None
    want_trail, left = want
    assert trail == want_trail
    alive, planes, unfixed_after = got
    assert unfixed_after == unfixed & ~sum(1 << abs(c) for c in trail)
    assert alive == sum(1 << j for j, c in enumerate(left) if c is not None)
    assert len(planes) == len(index.root[1])
    assert [plane & alive for plane in planes] == [
        sum(1 << j for j, c in enumerate(left)
            if c is not None and len(set(c)) >> p & 1)
        for p in range(len(planes))]


def test_propagate_collapses_duplicate_residual_clauses():
    residual, implied = propagate([(1, 2, 3), (1, 2, -4), (4,)], {3: False})
    assert residual == frozenset({(1, 2)})
    assert implied == {3: False, 4: True}
    _check_propagate([(1, 2, 3), (1, 2, -4), (4,)], {3: False}, 4)


# ---------------------------------------------------------------------------
# ``_assign`` of a block's values, by ClauseIndex.lower, against the
# tuple-level reference ``cnf.assign``

def _residual_clauses(index, alive, planes, unfixed):
    """The alive clauses with their unfixed literals, in clause order; each
    clause's count in ``planes`` must match its literals."""
    out = []
    for j, c in enumerate(index.clauses):
        if alive >> j & 1:
            left = tuple(code for code in c if unfixed >> abs(code) & 1)
            count = sum((plane >> j & 1) << p for p, plane in enumerate(planes))
            assert count == len(left)
            out.append(left)
    return tuple(out)


def test_assign_of_a_block_matches_the_tuple_reference():
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        clauses = _random_clauses(rng, n, rng.randint(0, 12), (0, 1, 1, 1, 1, 1))
        index = ClauseIndex(clauses, n)
        residual, unfixed, want = index.root, (1 << n + 1) - 2, tuple(clauses)
        free = rng.sample(range(1, n + 1), n)
        # fix disjoint blocks of 1-5 variables, each to random values, one
        # after another until a clause empties or every variable is fixed
        while free and residual is not None:
            block = tuple(free[:rng.randint(1, 5)])
            del free[:len(block)]
            bits = rng.getrandbits(len(block))
            fixed = {v: bool(bits >> b & 1) for b, v in enumerate(block)}
            want = assign(want, fixed)
            residual = _assign(index, residual, fixed)
            for v in block:
                unfixed &= ~(1 << v)
            assert (residual is None) == (() in want), (seed, block, bits)
            if residual is not None:
                assert _residual_clauses(index, *residual, unfixed) == want
        outcomes.add(residual is None)
    assert outcomes == {False, True}


def test_2sat_matches_exactref_above_brute_force_size(monkeypatch):
    exactref = _exactref(monkeypatch)
    for seed in range(40):
        n = 40 + (seed * 37) % 81
        phi = generate(GeneratorSpec(n=n, m=n + n // 10, k=2, seed=3000 + seed))
        assert (count_2sat_exact(phi).value
                == exactref.count_models(phi.int_clauses(), n)), seed


# ---------------------------------------------------------------------------
# the search's contract, checked against every assignment of a small
# universe: fix a block with ``_assign``, search the rest

def _search(clauses, fixed):
    """A partial model of int ``clauses`` extending ``fixed`` (every
    clause has a literal it makes true), or None if none exists."""
    index = ClauseIndex(clauses, max(fixed, default=0))
    residual = _assign(index, index.root, fixed)
    if residual is None:
        return None
    unfixed = sum(1 << v for v in vars_of(index.clauses) - fixed.keys())
    found = index.search(*residual, unfixed)
    if found is None:
        return None
    mask, bits = found
    return {**fixed, **{v: bool(bits >> v & 1)
                        for v in range(mask.bit_length()) if mask >> v & 1}}


def _check_search(clauses, fixed, n):
    before = dict(fixed)
    got = _search(clauses, fixed)
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


def test_search_answers_exactly_when_a_model_extends_fixed():
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        clauses = _random_clauses(rng, n, rng.randint(0, 14), (1, 5, 10, 10, 6))
        fixed = {v: rng.random() < 0.5
                 for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2))}
        _check_search(clauses, fixed, n)
        outcomes.add(_search(clauses, fixed) is None)
    assert outcomes == {False, True}


def test_search_named_cases():
    _check_search([], {}, 1)
    _check_search([()], {}, 1)
    _check_search([(1,), (-1,)], {}, 2)
    _check_search([(1, 2), (1, 2), (-1, 2)], {}, 2)
    _check_search([(-1,), (2, 3)], {1: True}, 3)
    _check_search([(1, 2, 3, 4), (-1,), (-2,), (-3,)], {4: False}, 4)
    assert _search([(1,), (-1,)], {}) is None
    assert _search([(-1,), (2, 3)], {1: True}) is None
    assert _search([(1, 2)], {3: True}).items() >= {3: True}.items()
