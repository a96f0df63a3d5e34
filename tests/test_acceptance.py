"""Acceptance gate: nine criteria, one recorded pass/fail line each.

Everything here runs against independently derived references: direct
enumeration for counts, closed-form identities for constants.  The
statistical criteria state their repetition counts and thresholds
inline; the timed ones assert their wall-clock budgets.
"""

import time

from indepcount import (BranchKind, CnfFormula, CutKind,
                        CounterConfig, Estimate, Strategy, Struct, StructSet,
                        Universe, approx_count, brute_force_count,
                        chi_square_uniformity, count_2sat_exact, cut,
                        eps_accurate, match_library, p_k, params_for,
                        red_clauses, red_structs, struct_stats, theta_k)
from indepcount.gen import GeneratorSpec, generate
from indepcount.rng import generator
from indepcount.structs import EMPTY_STRUCT_SET

from conftest import CHAIN3_TEXT, CHAIN4_TEXT, record_criterion

BIG = 10 ** 9


def _clauses(*ints):
    return tuple(tuple(c) for c in ints)


def _exact_counter(sub, eps, delta):
    return Estimate(value=brute_force_count(sub).value, exact=True,
                    epsilon=eps, delta=delta)


def _greedy_clause_psi(phi) -> StructSet:
    out = red_clauses(phi, 1, 0.2, 0.1, _exact_counter)
    assert out.struct_set is not None
    return out.struct_set


def test_criterion_1_worked_examples():
    from indepcount import parse_dimacs
    start = time.perf_counter()
    chain3 = parse_dimacs(CHAIN3_TEXT)
    chain4 = parse_dimacs(CHAIN4_TEXT)

    values = [brute_force_count(chain3).value, count_2sat_exact(chain3).value]
    for strategy, psi in [(BranchKind.BINARY, EMPTY_STRUCT_SET),
                          (BranchKind.PRUNED_CLAUSE, EMPTY_STRUCT_SET),
                          (BranchKind.STRUCT_GUIDED,
                           _greedy_clause_psi(chain3))]:
        res = cut(chain3, psi, BIG, strategy)
        assert res.kind is CutKind.EXACT
        values.append(res.count)
    for strategy in Strategy:
        values.append(approx_count(chain3, 0.2, 0.1, strategy, seed=0).value)
    first_ok = all(v == 4 for v in values)

    chain4_count = brute_force_count(chain4).value
    res2 = cut(chain4, EMPTY_STRUCT_SET, BIG,
               BranchKind.PRUNED_CLAUSE)
    terminals = res2.leaves + res2.pruned
    second_ok = (chain4_count == 2 and res2.completed and res2.count == 2
                 and terminals <= 6)

    elapsed = time.perf_counter() - start
    ok = first_ok and second_ok and elapsed < 1.0
    record_criterion(1, ok,
                     f"chain3 all routes -> 4, chain4 -> 2 with {terminals} "
                     f"terminal nodes (<= 6), {elapsed:.2f}s (< 1s)")
    assert ok, (values, chain4_count, terminals, elapsed)


def test_criterion_2_struct_library_constants():
    shapes = [
        (_clauses((1, 2, 3)), 7, 2, 1),
        (_clauses((1, 2, 3), (1, 4, 5)), 25, 2, 1),
        (_clauses((1, 2, 3), (1, 2, 4)), 13, 2, 1),
        (_clauses((1, 2, 3), (1, 4, 5), (2, 6, 7)), 89, 4, 2),
        (_clauses((1, 2, 3, 4)), 15, 2, 1),
        (_clauses((1, 2, 3, 4), (1, 5, 6, 7)), 113, 2, 1),
        (_clauses((1, 2, 3, 4), (1, 5, 6, 7), (2, 8, 9, 10)), 851, 4, 2),
    ]
    got = []
    for cls, l_want, w_want, f_want in shapes:
        sigma = Struct(cls, match_library(cls))
        _, l_val, w_val, f_val = struct_stats(sigma)
        got.append((l_val, w_val, f_val) == (l_want, w_want, f_want))
    ok = all(got)
    record_criterion(2, ok,
                     "model counts 7/25/13/89 and 15/113/851 with the "
                     "expected closed-variable stats, exact")
    assert ok, [shape[1:] for shape, hit in zip(shapes, got) if not hit]


def test_criterion_3_universe_identity():
    rng = generator(303)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(8, 21))
        order = [int(v) + 1 for v in rng.permutation(n)]
        pos = 0
        structs = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(3, 6))
            if pos + size > n:
                break
            block = order[pos:pos + size]
            pos += size
            clauses = []
            for _ in range(int(rng.integers(1, 3))):
                chosen = rng.choice(len(block), size=3, replace=False)
                lits = tuple(block[i] if rng.integers(0, 2) else -block[i]
                             for i in chosen)
                clauses.append(tuple(lits))
            structs.append(Struct(tuple(clauses), match_library(clauses)))
        psi = StructSet(tuple(structs))
        union = CnfFormula([c for s in psi for c in s.clauses], n)
        assert Universe(psi, n).size == brute_force_count(union).value
        checked += 1
    ok = checked == 100
    record_criterion(3, ok,
                     f"universe size equals enumerated count on {checked}/100 "
                     f"random group sets (n <= 20), exact")
    assert ok


def test_criterion_4_sampler_uniformity():
    start = time.perf_counter()
    star_cls = _clauses((1, 2, 3), (1, 4, 5), (2, 6, 7))
    star = Struct(star_cls, match_library(star_cls))
    assert star.l_sigma == 89
    uni = Universe(StructSet((star,)), 7)
    passes = 0
    for rep in range(100):
        rng = generator(4400 + rep)
        words = uni.sample_words(10_000, rng)
        samples = [uni.decode_word(int(w)) for w in words]
        _, p = chi_square_uniformity(samples, uni)
        passes += p > 0.01
    elapsed = time.perf_counter() - start
    ok = passes >= 95 and elapsed < 30.0
    record_criterion(4, ok,
                     f"chi-square p > 0.01 in {passes}/100 repetitions over "
                     f"the 89-cell universe, {elapsed:.1f}s (< 30s)")
    assert ok, (passes, elapsed)


def test_criterion_5_cut_exactness_and_soundness():
    completed = aborted = 0
    for i in range(200):
        branching = [BranchKind.BINARY,
                     BranchKind.PRUNED_CLAUSE,
                     BranchKind.STRUCT_GUIDED][i % 3]
        if i % 5 < 3:
            n = 8 + i % 6
            m = 6 + (i * 3) % 25
            ell = BIG
        else:
            n = 14 + i % 3
            m = 10 + (i * 5) % 20
            ell = params_for(3, n, Strategy.INDEP_STRUCTS).ell
        phi = generate(GeneratorSpec(n=n, m=m, k=3, seed=50_000 + i))
        psi = (_greedy_clause_psi(phi)
               if branching is BranchKind.STRUCT_GUIDED else EMPTY_STRUCT_SET)
        want = brute_force_count(phi).value
        res = cut(phi, psi, ell, branching)
        if res.kind is CutKind.EXACT:
            assert res.count == want, (i, res.count, want)
            completed += 1
        else:
            assert want >= ell, (i, want, ell)
            assert res.count >= ell
            aborted += 1
    ok = completed + aborted == 200 and completed > 0 and aborted > 0
    record_criterion(5, ok,
                     f"{completed} completed runs match enumeration exactly, "
                     f"{aborted} threshold aborts all sound")
    assert ok, (completed, aborted)


def test_criterion_6_reduction_invariants():
    set_returns = recursions = 0
    for i in range(200):
        k = 3 if i % 10 < 7 else 4
        n = 10 + i % 7
        m = (4 + i % 5) if i % 2 else (20 + i % 16)
        if m > 3 * n:
            m = 3 * n
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=60_000 + i))
        params = params_for(k, n, Strategy.INDEP_STRUCTS)

        probe = {"max_width": 0}

        def probing_counter(sub, eps, delta):
            probe["max_width"] = max(probe["max_width"], sub.k)
            return _exact_counter(sub, eps, delta)

        out = red_structs(phi, params, 0.2, 0.1, probing_counter)
        if out.struct_set is not None:
            set_returns += 1
            seen: set[int] = set()
            for sigma in out.struct_set:
                assert not (set(sigma.vars) & seen), "groups must be disjoint"
                seen.update(sigma.vars)
                assert set(sigma.clauses) <= set(phi.clauses)
            assert out.struct_set.covers(phi), "maximality: uncovered clause"
        else:
            recursions += 1
            assert probe["max_width"] <= k - 1, "branch kept full width"
            assert out.estimate.exact
            assert out.estimate.value == brute_force_count(phi).value
    ok = (set_returns + recursions == 200 and set_returns >= 10
          and recursions >= 10)
    record_criterion(6, ok,
                     f"{set_returns} group sets (disjoint, maximal), "
                     f"{recursions} recursions (width-reduced, exact sums)")
    assert ok, (set_returns, recursions)


def test_criterion_7_end_to_end_accuracy():
    start = time.perf_counter()
    strategies = [Strategy.THURLEY, Strategy.PRUNED_TREE,
                  Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS]
    config = CounterConfig(small_n=0)  # keep the two-phase machinery engaged
    good = {s: 0 for s in strategies}
    runs = {s: 0 for s in strategies}
    jobs = ([(15, 40, 3, i) for i in range(300)]
            + [(14, 35, 4, i) for i in range(150)])
    for n, m, k, i in jobs:
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=70_000 + 7 * i + k))
        want = brute_force_count(phi).value
        for s_index, strategy in enumerate(strategies):
            est = approx_count(phi, 0.2, 0.1, strategy,
                               seed=17 * i + s_index, config=config)
            runs[strategy] += 1
            if want == 0:
                good[strategy] += est.value == 0
            else:
                good[strategy] += eps_accurate(est.value, want, 0.2)
    elapsed = time.perf_counter() - start
    rates = {s.value: good[s] / runs[s] for s in strategies}
    ok = all(rate >= 0.85 for rate in rates.values()) and elapsed < 600.0
    pretty = ", ".join(f"{name} {rate:.1%}" for name, rate in rates.items())
    record_criterion(7, ok,
                     f"eps-accurate rates over 450 runs each: {pretty} "
                     f"(>= 85%), {elapsed:.0f}s (< 600s)")
    assert ok, (rates, elapsed)


def test_criterion_8_parameter_constants():
    checks = [
        (theta_k(3), 1.5366, 1e-4),
        (theta_k(4), 1.6155, 1e-4),
        (2.0 ** p_k(3), 1.5298, 1e-4),
        (2.0 ** p_k(4), 1.6122, 1e-4),
        (theta_k(5), 1.6712, 5e-4),  # series-derived width
    ]
    ok = all(abs(got - want) < tol for got, want, tol in checks)
    record_criterion(8, ok,
                     "two-phase bases 1.5366/1.6155, clause-guided bases "
                     "1.5298/1.6122 (+-1e-4), series value 1.6712 (+-5e-4)")
    assert ok, checks


def test_criterion_9_tree_size_reduction():
    binary_nodes = pruned_nodes = 0
    for i in range(100):
        phi = generate(GeneratorSpec(n=14, m=24, k=3, seed=90_000 + i))
        rb = cut(phi, EMPTY_STRUCT_SET, BIG, BranchKind.BINARY)
        rp = cut(phi, EMPTY_STRUCT_SET, BIG,
                 BranchKind.PRUNED_CLAUSE)
        assert rb.completed and rp.completed and rb.count == rp.count
        binary_nodes += rb.branch_nodes
        pruned_nodes += rp.branch_nodes
    ratio = pruned_nodes / binary_nodes
    ok = pruned_nodes < binary_nodes
    record_criterion(9, ok,
                     f"mean branch nodes: clause-guided/binary ratio "
                     f"{ratio:.3f} over 100 instances (direction only)")
    assert ok, ratio
