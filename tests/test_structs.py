import hashlib
import random

import numpy as np
import pytest

from indepcount import (CnfFormula, Estimate, GuardError, Strategy,
                        Struct, StructSet, approx_count, brute_force_count,
                        match_library, params_for, red_clauses, red_structs,
                        struct_stats)
from indepcount import cnf, structs
from indepcount.gen import GeneratorSpec, generate
from indepcount.structs import EMPTY_STRUCT_SET


def _clauses(*ints):
    return tuple(tuple(c) for c in ints)


def _exact_counter(sub, eps, delta) -> Estimate:
    return Estimate(value=brute_force_count(sub).value, exact=True,
                    epsilon=eps, delta=delta)


# --- group statistics, frozen from direct enumeration -----------------------

def test_single_width3_clause_stats():
    sigma = Struct(_clauses((1, 2, 3)), match_library(_clauses((1, 2, 3))))
    assert (sigma.n_sigma, sigma.l_sigma, sigma.w_sigma, sigma.f_sigma) == (3, 7, 2, 1)
    assert struct_stats(sigma) == (3, 7, 2, 1)


def test_hub_pair_width3_stats():
    cls = _clauses((1, 2, 3), (1, 4, 5))
    sigma = Struct(cls, match_library(cls))
    assert (sigma.n_sigma, sigma.l_sigma, sigma.w_sigma, sigma.f_sigma) == (5, 25, 2, 1)
    assert sigma.closed_vars == (1,)


def test_two_shared_vars_width3_stats():
    cls = _clauses((1, 2, 3), (1, 2, 4))
    sigma = Struct(cls, match_library(cls))
    assert (sigma.n_sigma, sigma.l_sigma, sigma.w_sigma, sigma.f_sigma) == (4, 13, 2, 1)


def test_chain_of_three_width3_stats():
    cls = _clauses((1, 2, 3), (1, 4, 5), (2, 6, 7))
    sigma = Struct(cls, match_library(cls))
    assert (sigma.n_sigma, sigma.l_sigma, sigma.w_sigma, sigma.f_sigma) == (7, 89, 4, 2)
    assert sigma.closed_vars == (1, 2)


def test_width4_shapes_stats():
    one = Struct(_clauses((1, 2, 3, 4)), match_library(_clauses((1, 2, 3, 4))))
    assert (one.n_sigma, one.l_sigma, one.w_sigma, one.f_sigma) == (4, 15, 2, 1)

    pair = _clauses((1, 2, 3, 4), (1, 5, 6, 7))
    two = Struct(pair, match_library(pair))
    assert (two.n_sigma, two.l_sigma, two.w_sigma, two.f_sigma) == (7, 113, 2, 1)

    chain = _clauses((1, 2, 3, 4), (1, 5, 6, 7), (2, 8, 9, 10))
    three = Struct(chain, match_library(chain))
    assert (three.n_sigma, three.l_sigma, three.w_sigma, three.f_sigma) == (10, 851, 4, 2)


def test_opposite_polarity_pair_closes_completely():
    # the hub appears with both signs, so no library shape applies
    cls = _clauses((1, 2, 3), (-1, 4, 5))
    closed = match_library(cls)
    assert closed == (1, 2, 3, 4, 5)
    sigma = Struct(cls, closed)
    assert sigma.l_sigma == sigma.w_sigma == 24
    assert sigma.is_closed


def test_struct_stats_agree_with_constructor_on_random_groups():
    for seed in range(30):
        phi = generate(GeneratorSpec(n=8, m=3, k=3, seed=3000 + seed))
        cls = phi.clauses
        sigma = Struct(cls, match_library(cls) if len(
            {abs(code) for c in cls for code in c}) <= 16 else ())
        assert struct_stats(sigma)[1:3] == (sigma.l_sigma, sigma.w_sigma)


def test_struct_stats_shares_no_code_with_the_kernel_scan(monkeypatch):
    # criterion 2's shapes as (clauses, n, l, w, f)
    shapes = [
        (_clauses((1, 2, 3)), 3, 7, 2, 1),
        (_clauses((1, 2, 3), (1, 4, 5)), 5, 25, 2, 1),
        (_clauses((1, 2, 3), (1, 2, 4)), 4, 13, 2, 1),
        (_clauses((1, 2, 3), (1, 4, 5), (2, 6, 7)), 7, 89, 4, 2),
        (_clauses((1, 2, 3, 4)), 4, 15, 2, 1),
        (_clauses((1, 2, 3, 4), (1, 5, 6, 7)), 7, 113, 2, 1),
        (_clauses((1, 2, 3, 4), (1, 5, 6, 7), (2, 8, 9, 10)), 10, 851, 4, 2),
    ]
    sigmas = [Struct(cls, match_library(cls)) for cls, *_ in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("struct_stats reached the kernel scan")
    monkeypatch.setattr(structs, "_scan_models", refuse)
    for module in (cnf, structs):
        monkeypatch.setattr(module, "satisfying_indices", refuse)
        monkeypatch.setattr(module, "clause_tables", refuse)
    for sigma, (_, *want) in zip(sigmas, shapes):
        assert struct_stats(sigma) == tuple(want)


def test_struct_stats_guard():
    big = Struct(_clauses(tuple(range(1, 18))), (1,))
    with pytest.raises(GuardError):
        struct_stats(big)


def test_model_scan_with_no_models_keeps_empty_indices():
    # the join yields no chunk when nothing survives
    count, indices = structs._scan_models([(1, 2), (-1,), (-2,)], (1, 2, 3))
    assert count == 0
    assert indices.dtype == np.uint64 and indices.size == 0
    count, indices = structs._scan_models([(1, 2), (-1, 3)], (1, 2, 3))
    assert count == 4 and indices.tolist() == [2, 5, 6, 7]


def _decode(indices, over_vars):
    """Compact indices (bit i = ``over_vars[i]``) -> assignment dicts."""
    return [{v: bool(index >> i & 1) for i, v in enumerate(over_vars)}
            for index in map(int, indices)]


def test_models_listing_matches_count():
    cls = _clauses((1, 2, 3), (1, 4, 5))
    sigma = Struct(cls, match_library(cls))
    models = _decode(sigma.model_indices(), sigma.vars)
    assert len(models) == sigma.l_sigma == 25
    assert len(set(map(int, sigma.model_indices()))) == 25
    for m in models:
        assert all(any(m[abs(code)] == (code > 0) for code in c) for c in cls)
    oks = _decode(sigma.closed_indices(), sigma.closed_vars)
    assert sorted(m[1] for m in oks) == [False, True]


def test_group_with_too_many_models_to_keep_refuses_every_view():
    # 2^22 - 1 models exceed the index limit: the counts stand, but no
    # listing of the models can be built
    codes = (-1, -2) + tuple(range(3, 23))
    sigma = Struct(_clauses(codes), (1,))
    assert sigma.l_sigma == (1 << 22) - 1 and sigma.w_sigma == 2
    with pytest.raises(GuardError):
        sigma.model_indices()
    assert sigma.closed_indices().tolist() == [0, 1]
    closed = Struct(_clauses(codes), range(1, 23))
    assert closed.w_sigma == (1 << 22) - 1
    with pytest.raises(GuardError):
        closed.closed_indices()


def test_struct_rejects_malformed_clauses():
    for bad in ((1, 1, 2), (1, -1, 2), (0, 1)):
        with pytest.raises(ValueError):
            Struct((bad,), (1,))


def test_struct_rejects_foreign_closed_var():
    with pytest.raises(ValueError):
        Struct(_clauses((1, 2, 3)), (9,))


# --- pattern matching --------------------------------------------------------

def test_single_clause_matches_any_polarity():
    # per-variable flips are free, so signs never block a single clause
    for ints in [(1, 2, 3), (-1, 2, 3), (-1, -2, -3)]:
        assert len(match_library(_clauses(ints))) == 1


def test_hub_pattern_requires_consistent_sign():
    same = match_library(_clauses((-1, 2, 3), (-1, 4, 5)))
    assert same == (1,)
    mixed = match_library(_clauses((1, 2, 3), (-1, 4, 5)))
    assert mixed == (1, 2, 3, 4, 5)


def test_match_is_deterministic():
    cls = _clauses((4, 7, 9), (4, 2, 8))
    assert match_library(cls) == match_library(tuple(reversed(cls))) == (4,)


def test_hub_found_when_no_clause_lists_it_first():
    # neither clause lists the shared variable first
    assert match_library(_clauses((2, 3, -1), (4, 5, -1))) == (1,)
    assert match_library(_clauses((2, 3, 4, 1), (5, 6, 7, 1))) == (1,)


def test_unmatched_group_closes_all_vars():
    # four pairwise-linked clauses fit no default shape
    cls = _clauses((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 7))
    assert match_library(cls) == (1, 2, 3, 4, 5, 6, 7)


# the seven designated shapes as (letter clauses, closed letters)
_SHAPES = (
    (("abc",), "c"),
    (("abc", "ade"), "a"),
    (("abc", "abd"), "a"),
    (("abc", "ade", "bfg"), "ab"),
    (("abcd",), "d"),
    (("abcd", "aefg"), "a"),
    (("abcd", "aefg", "bhij"), "ab"),
)

# letters a shape cannot tell apart: a match may close any one of them
_TWINS = {0: "abc", 2: "ab", 4: "abcd"}


def test_designation_survives_renaming():
    rng = random.Random(7)
    for index, (shape, closed_letters) in enumerate(_SHAPES):
        letters = sorted({l for clause in shape for l in clause})
        for _ in range(25):
            rename = dict(zip(letters, rng.sample(range(1, 41), len(letters))))
            sign = {l: rng.choice((1, -1)) for l in letters}
            group = [rng.sample([sign[l] * rename[l] for l in clause],
                                len(clause)) for clause in shape]
            rng.shuffle(group)
            got = match_library([tuple(c) for c in group])
            if index in _TWINS:
                assert len(got) == 1
                assert got[0] in {rename[l] for l in _TWINS[index]}
            else:
                assert got == tuple(sorted(rename[l]
                                           for l in closed_letters))


def test_group_of_seventeen_variables_closes_completely():
    # no rule fits a clause of width 17 or a group of more than three clauses
    wide = _clauses(tuple(range(1, 18)))
    chain = _clauses(*[(v, v + 1, v + 2) for v in range(1, 17, 2)])
    for cls in (wide, chain):
        assert match_library(cls) == tuple(range(1, 18))


def test_tie_break_between_interchangeable_variables():
    # a single clause closes its last literal's variable; two width-3
    # clauses sharing two variables close the first of them in the first
    # clause's order
    assert match_library([(5, -2, 7)]) == (7,)
    assert match_library([(-4, 9, 1, 6)]) == (6,)
    assert match_library([(3, 1, 2), (2, 3, 9)]) == (3,)
    assert match_library([(2, 3, 9), (3, 1, 2)]) == (2,)
    assert match_library([(1, 2, 3), (-1, 2, 4)]) == (1, 2, 3, 4)


# the benchmark's two sparse-sample cells (k, n, m), and the structs rows of
# RECURSION_PINS and BRANCH_DIGESTS in test_ras (k, n, m, generator seed)
_SAMPLE_CELLS = ((3, 23, 46), (4, 19, 114))
_RECURSION_ROWS = ((3, 24, 9, 8), (4, 22, 5, 7), (3, 40, 12, 2))

# sha256 over (group, match_library(group)) for every group of the corpus
# below, recorded with the backtracking shape matcher; any change to a
# designation, or to the groups the reduction grows, moves it
DESIGNATION_DIGEST = (
    "4077c69ffc858bffe2d1e5be7f32b90a9f2e0627bf6027ea06710fa1e0fca5f6")


def _designation_corpus(monkeypatch):
    """Every group the reduction designates on the 64 sparse-sample
    instances (generator seeds 0-63) and in the recursion-pin counts, then
    2,000 random groups and renamed, sign-flipped copies of the shapes,
    some with one literal's sign flipped."""
    groups = []
    designate = structs.match_library

    def recorded(clauses):
        groups.append(tuple(clauses))
        return designate(clauses)
    monkeypatch.setattr(structs, "match_library", recorded)
    for seed in range(64):
        k, n, m = _SAMPLE_CELLS[seed % 2]
        structs._grow_groups(
            generate(GeneratorSpec(n=n, m=m, k=k, seed=seed)).clauses)
    for k, n, m, seed in _RECURSION_ROWS:
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=seed))
        if k == 3:  # its branches are 2-CNF: only the top pool is grown
            structs._grow_groups(phi.clauses)
        else:
            approx_count(phi, 0.2, 0.1, Strategy.INDEP_STRUCTS, seed=7)
    monkeypatch.undo()
    rng = random.Random(25)
    for _ in range(2000):
        top = rng.randint(3, 12)
        groups.append(tuple(
            tuple(v * rng.choice((1, -1))
                  for v in rng.sample(range(1, top + 1),
                                      min(rng.randint(2, 5), top)))
            for _ in range(rng.randint(1, 4))))
    for shape, _ in _SHAPES:
        letters = sorted(set("".join(shape)))
        for _ in range(30):
            rename = dict(zip(letters, rng.sample(range(1, 41), len(letters))))
            sign = {l: rng.choice((1, -1)) for l in letters}
            group = [[sign[l] * rename[l]
                      for l in rng.sample(clause, len(clause))]
                     for clause in shape]
            if rng.random() < 0.3:
                clause = rng.choice(group)
                i = rng.randrange(len(clause))
                clause[i] = -clause[i]
            rng.shuffle(group)
            groups.append(tuple(map(tuple, group)))
    return groups


def test_designations_match_the_recorded_digest(monkeypatch):
    digest = hashlib.sha256()
    for group in _designation_corpus(monkeypatch):
        digest.update(repr((group, match_library(group))).encode())
    assert digest.hexdigest() == DESIGNATION_DIGEST


# --- struct sets -------------------------------------------------------------

def test_struct_set_rejects_overlap():
    a = Struct(_clauses((1, 2, 3)), (3,))
    b = Struct(_clauses((3, 4, 5)), (5,))
    with pytest.raises(ValueError):
        StructSet((a, b))


def test_struct_set_covers():
    phi = CnfFormula([(1, 2, 3), (3, 4, 5)], 5)
    sigma = Struct(_clauses((1, 2, 3)), (3,))
    assert StructSet((sigma,)).covers(phi)
    assert not StructSet((sigma,)).covers(CnfFormula([(4, 5, 6)], 6))
    assert EMPTY_STRUCT_SET.covers(CnfFormula([], 3))


# --- the reduction -----------------------------------------------------------

def _structs_params(k, n):
    return params_for(k, n, Strategy.INDEP_STRUCTS)


def test_red_structs_invariants_random():
    for seed in range(60):
        n = 10 + seed % 6
        m = 6 + (seed * 7) % 30
        phi = generate(GeneratorSpec(n=n, m=m, k=3, seed=4000 + seed))
        out = red_structs(phi, _structs_params(3, n), 0.2, 0.1, _exact_counter)
        if out.struct_set is None:
            continue
        psi = out.struct_set
        # disjointness is enforced by the constructor; coverage is the
        # loop's exit condition
        assert psi.covers(phi)
        phi_clause_set = set(phi.clauses)
        for sigma in psi:
            assert set(sigma.clauses) <= phi_clause_set
            assert sigma.w_sigma > 0


def test_red_structs_dense_instances_return_group_set():
    hits = 0
    for seed in range(10):
        phi = generate(GeneratorSpec(n=14, m=30, k=3, seed=5000 + seed))
        out = red_structs(phi, _structs_params(3, 14), 0.2, 0.1, _exact_counter)
        hits += out.struct_set is not None
    assert hits == 10


def test_red_structs_recursion_is_exact():
    recursed = 0
    for seed in range(40):
        phi = generate(GeneratorSpec(n=14, m=5 + seed % 4, k=3, seed=6000 + seed))
        out = red_structs(phi, _structs_params(3, 14), 0.2, 0.1, _exact_counter)
        if out.estimate is None:
            continue
        recursed += 1
        assert out.estimate.exact
        assert out.estimate.value == brute_force_count(phi).value
    assert recursed >= 5  # sparse instances must exercise the fallback


def test_red_structs_builds_structs_only_for_the_final_pool(monkeypatch):
    # intermediate groups stay (clauses, closed) pairs until the loop ends
    built = []
    original = Struct.__init__

    def counting_init(self, clauses, closed_vars):
        built.append(len(clauses))
        original(self, clauses, closed_vars)

    monkeypatch.setattr(Struct, "__init__", counting_init)
    merged = 0
    for seed in range(500, 508):
        phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=seed))
        built.clear()
        out = red_structs(phi, _structs_params(3, 23), 0.2, 0.1,
                          _exact_counter)
        assert out.struct_set is not None
        assert len(built) == len(out.struct_set)
        merged += sum(len(sigma.clauses) > 1 for sigma in out.struct_set)
    assert merged > 0  # groups were absorbed on the way


def _rescanning_growth(clauses):
    """Group growth as it ran before the scan pointer: every pick rescans
    the clause list from the start and rebuilds the owner map.  Also
    returns how many picks came before the previous pick in the list,
    which only a merge that reopens a closed variable allows."""
    groups, var_owner, all_closed, earlier, last = [], {}, set(), 0, -1
    while True:
        j = next((j for j, c in enumerate(clauses)
                  if not any(abs(code) in all_closed for code in c)), None)
        if j is None:
            return groups, earlier
        earlier += j < last
        last, pick = j, clauses[j]
        absorbed = sorted({var_owner[abs(code)] for code in pick
                           if abs(code) in var_owner})
        merged = [c for i in absorbed for c in groups[i][0]] + [pick]
        groups = [g for i, g in enumerate(groups) if i not in absorbed]
        groups.append((merged, match_library(merged)))
        var_owner = {v: i for i, (cls, _) in enumerate(groups)
                     for v in cnf.vars_of(cls)}
        all_closed = {v for _, closed in groups for v in closed}


def test_group_growth_matches_the_rescanning_loop():
    rng = random.Random(7)
    earlier = 0
    for seed in range(300):
        k = 3 + seed % 2
        n = rng.randint(k + 1, 40)
        m = rng.randint(1, 5 * n if k == 3 else 10 * n)
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=9000 + seed))
        want, picks_before_the_last = _rescanning_growth(phi.clauses)
        assert structs._grow_groups(phi.clauses) == want, seed
        earlier += picks_before_the_last
    assert earlier > 0  # the re-check heap supplied some picks


def test_red_structs_empty_clause_short_circuits():
    phi = CnfFormula([(), (1, 2, 3)], 3)
    out = red_structs(phi, _structs_params(3, 3), 0.2, 0.1, _exact_counter)
    assert out.estimate is not None
    assert out.estimate.value == 0 and out.estimate.exact


def test_red_structs_no_clauses():
    phi = CnfFormula([], 4, k=3)
    out = red_structs(phi, _structs_params(3, 4), 0.2, 0.1, _exact_counter)
    assert out.struct_set is not None and len(out.struct_set) == 0


def test_red_structs_rejects_width_two():
    with pytest.raises(ValueError):
        red_structs(CnfFormula([(1, 2)], 2), _structs_params(3, 2), 0.2, 0.1,
                    _exact_counter)


def test_recursion_sums_branch_bounds_and_raises_only_a_flagged_total():
    phi = generate(GeneratorSpec(n=12, m=10, k=3, seed=8000))
    for flag_first in (False, True):
        calls = []

        def counter(sub, eps, delta) -> Estimate:
            calls.append(sub)
            return Estimate(value=1, exact=False, epsilon=eps, delta=delta,
                            under_sampled=flag_first and len(calls) == 1,
                            lower_bound=2)

        est = red_clauses(phi, 10 ** 6, 0.2, 0.1, counter).estimate
        assert len(calls) > 1 and est.under_sampled == flag_first
        assert est.lower_bound == 2 * len(calls)
        assert est.value == (2 if flag_first else 1) * len(calls)


def test_recursion_keeps_an_under_sampled_branch_flag():
    for seed in range(40):
        phi = generate(GeneratorSpec(n=14, m=5 + seed % 4, k=3, seed=6000 + seed))
        if red_structs(phi, _structs_params(3, 14), 0.2, 0.1,
                       _exact_counter).estimate is not None:
            break
    else:
        pytest.fail("no instance took the recursion")
    calls = []

    def first_branch_flagged(sub, eps, delta) -> Estimate:
        calls.append(sub)
        return Estimate(value=1, exact=False, epsilon=eps, delta=delta,
                        under_sampled=len(calls) == 1)

    for reduce in (
            lambda: red_structs(phi, _structs_params(3, 14), 0.2, 0.1,
                                first_branch_flagged),
            lambda: red_clauses(phi, 10 ** 6, 0.2, 0.1, first_branch_flagged)):
        calls.clear()
        outcome = reduce()
        assert len(calls) > 1
        assert outcome.estimate.under_sampled
    out = red_clauses(phi, 10 ** 6, 0.2, 0.1, _exact_counter)
    assert not out.estimate.under_sampled


def test_red_clauses_greedy_picks_are_maximal_and_closed():
    for seed in range(40):
        phi = generate(GeneratorSpec(n=12, m=14, k=3, seed=7000 + seed))
        out = red_clauses(phi, 1, 0.2, 0.1, _exact_counter)
        assert out.struct_set is not None
        psi = out.struct_set
        used = psi.all_vars
        for sigma in psi:
            assert len(sigma.clauses) == 1
            assert sigma.is_closed
        for c in phi.clauses:
            # nothing disjoint was left behind
            assert any(abs(code) in used for code in c)


def test_red_clauses_recursion_is_exact():
    for seed in range(15):
        phi = generate(GeneratorSpec(n=12, m=10, k=3, seed=8000 + seed))
        out = red_clauses(phi, 10 ** 6, 0.2, 0.1, _exact_counter)
        assert out.estimate is not None
        assert out.estimate.exact
        assert out.estimate.value == brute_force_count(phi).value
