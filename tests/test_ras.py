import time
from fractions import Fraction

import pytest

from indepcount import (CnfFormula, CounterConfig, GuardError, Strategy,
                        approx_count, brute_force_count, params_for)
from indepcount import structs
from indepcount.gen import GeneratorSpec, generate

from conftest import deadline

ALL = [Strategy.BRUTE_FORCE, Strategy.THURLEY, Strategy.PRUNED_TREE,
       Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS]
PIPELINE = CounterConfig(small_n=0)  # disable the small-instance shortcut


def test_chain3_all_strategies_exact(chain3):
    for strategy in ALL:
        est = approx_count(chain3, 0.2, 0.1, strategy, seed=0)
        assert est.exact and est.value == 4


def test_every_dispatch_handles_trivial_inputs():
    empty_clause = CnfFormula([(), (1, 2, 3)], 3)
    no_clauses = CnfFormula([], 6)
    for strategy in ALL:
        a = approx_count(empty_clause, 0.2, 0.1, strategy, seed=1)
        assert a.exact and a.value == 0
        b = approx_count(no_clauses, 0.2, 0.1, strategy, seed=1)
        assert b.exact and b.value == 64


def test_unsat_complete_pattern_counts_zero_through_the_pipeline():
    # all eight sign patterns over three variables: unsatisfiable
    patterns = [tuple((v if not (s >> i) & 1 else -v)
                      for i, v in enumerate((1, 2, 3)))
                for s in range(8)]
    phi = CnfFormula(patterns, 3, k=3)
    for strategy in ALL:
        est = approx_count(phi, 0.2, 0.1, strategy, seed=3, config=PIPELINE)
        assert est.value == 0
        assert est.exact


def test_width_two_dispatches_to_exact_counter():
    phi = generate(GeneratorSpec(n=24, m=30, k=2, seed=5))
    est = approx_count(phi, 0.2, 0.1, Strategy.INDEP_STRUCTS, seed=0)
    assert est.exact
    # cross-check on a smaller instance against enumeration
    small = generate(GeneratorSpec(n=14, m=18, k=2, seed=6))
    got = approx_count(small, 0.2, 0.1, Strategy.THURLEY, seed=0)
    assert got.value == brute_force_count(small).value


def test_small_instances_shortcut_to_enumeration():
    phi = generate(GeneratorSpec(n=12, m=20, k=3, seed=7))
    est = approx_count(phi, 0.2, 0.1, Strategy.INDEP_STRUCTS, seed=0)
    assert est.exact and est.value == brute_force_count(phi).value
    assert est.decider_calls == 0  # never entered the two-phase machinery


def test_replay_is_bit_identical():
    phi = generate(GeneratorSpec(n=15, m=18, k=3, seed=11))
    for strategy in ALL[1:]:
        a = approx_count(phi, 0.3, 0.1, strategy, seed=99, config=PIPELINE)
        b = approx_count(phi, 0.3, 0.1, strategy, seed=99, config=PIPELINE)
        assert a == b


# Sampled-path estimates pinned from a reference run: a change to the sampler
# or the clause scan must leave every one of them unchanged.  Entries are
# (k, n, m, strategy, value, samples, hits, decider_calls, branch_nodes);
# the instances use generator seed 1 and the counts seed 7.  Their true
# counts are 8,588 (k=3) and 484 (k=4); every value is within eps=0.2.
REPLAY_PINS = [
    (3, 23, 46, Strategy.THURLEY, Fraction(7012876288, 813947), 813947, 836, 2576, 1294),
    (3, 23, 46, Strategy.PRUNED_TREE, Fraction(7012876288, 813947), 813947, 836, 736, 443),
    (3, 23, 46, Strategy.INDEP_CLAUSES, Fraction(2753927792, 341963), 341963, 836, 1538, 555),
    (3, 23, 46, Strategy.INDEP_STRUCTS, Fraction(591847872, 65279), 261116, 836, 2051, 433),
    (4, 19, 114, Strategy.THURLEY, Fraction(438304768, 885513), 885513, 836, 399, 205),
    (4, 19, 114, Strategy.PRUNED_TREE, Fraction(438304768, 885513), 885513, 836, 95, 61),
    (4, 19, 114, Strategy.INDEP_CLAUSES, Fraction(120384000, 247609), 742827, 836, 263, 135),
    (4, 19, 114, Strategy.INDEP_STRUCTS, Fraction(167788544, 343899), 687798, 836, 418, 112),
]


def test_sampled_estimates_replay_pinned_values():
    for k, n, m, strategy, *pinned in REPLAY_PINS:
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=1))
        est = approx_count(phi, 0.2, 0.1, strategy, seed=7)
        assert not est.exact and not est.under_sampled
        got = (est.value, est.samples, est.hits, est.decider_calls,
               est.branch_nodes)
        assert got == tuple(pinned), (k, n, m, strategy)


# Recursion-route counts pinned from a reference run: each instance is too
# loose for a group set, so the reduction branches over the closed
# assignments and every branch is counted exactly.  Entries are
# (k, n, m, generator seed, strategy, value, branches); the counts use seed 7.
RECURSION_PINS = [
    (3, 24, 9, 8, Strategy.INDEP_STRUCTS, 6120448, 1268),
    (3, 24, 9, 2, Strategy.INDEP_CLAUSES, 4536320, 343),
    (4, 22, 5, 7, Strategy.INDEP_STRUCTS, 3025920, 38),
]


def test_recursion_route_replays_pinned_values(monkeypatch):
    branches = []
    restrict = structs.restrict

    def counted(*args):
        branches.append(args)
        return restrict(*args)
    monkeypatch.setattr(structs, "restrict", counted)
    for k, n, m, seed, strategy, value, n_branches in RECURSION_PINS:
        phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=seed))
        branches.clear()
        est = approx_count(phi, 0.2, 0.1, strategy, seed=7)
        got = (est.value, est.exact, est.lower_bound, est.decider_calls,
               est.branch_nodes, len(branches))
        assert got == (value, True, value, 0, 0, n_branches), (k, n, m, seed)
        assert value == brute_force_count(phi).value


def test_dense_unsat_formula_counts_zero_on_every_two_phase_strategy():
    # unsatisfiable at n=24: the root decision must not stall any strategy
    phi = generate(GeneratorSpec(n=24, m=96, k=3, seed=1))
    assert brute_force_count(phi).value == 0
    for strategy in ALL[1:]:
        start = time.perf_counter()
        est = approx_count(phi, 0.2, 0.1, strategy, seed=0)
        elapsed = time.perf_counter() - start
        assert est.exact and est.value == 0, strategy
        assert elapsed < 5.0, (strategy, elapsed)


def test_different_seeds_vary_only_sampled_results():
    phi = generate(GeneratorSpec(n=15, m=12, k=3, seed=12))
    a = approx_count(phi, 0.3, 0.1, Strategy.THURLEY, seed=1, config=PIPELINE)
    b = approx_count(phi, 0.3, 0.1, Strategy.THURLEY, seed=2, config=PIPELINE)
    if a.exact:
        assert a.value == b.value
    else:
        assert a.seed != b.seed


def test_estimates_carry_work_counters():
    phi = generate(GeneratorSpec(n=15, m=18, k=3, seed=13))
    est = approx_count(phi, 0.3, 0.1, Strategy.PRUNED_TREE, seed=4,
                       config=PIPELINE)
    assert est.decider_calls > 0
    assert est.value == pytest.approx(brute_force_count(phi).value,
                                      rel=0.35)


def test_pipeline_accuracy_across_strategies():
    # moderate sizes, exact reference, all two-phase strategies
    for seed in range(6):
        phi = generate(GeneratorSpec(n=15, m=40, k=3, seed=20 + seed))
        want = brute_force_count(phi).value
        for strategy in ALL[1:]:
            est = approx_count(phi, 0.2, 0.1, strategy, seed=seed,
                               config=PIPELINE)
            if want == 0:
                assert est.value == 0
            else:
                assert abs(est.value - want) <= 0.2 * want


def test_width_four_pipeline():
    phi = generate(GeneratorSpec(n=14, m=35, k=4, seed=30))
    want = brute_force_count(phi).value
    for strategy in ALL[1:]:
        est = approx_count(phi, 0.2, 0.1, strategy, seed=1, config=PIPELINE)
        assert abs(est.value - want) <= 0.2 * want


def test_untuned_width_five_uses_fallback_parameters():
    phi = generate(GeneratorSpec(n=14, m=25, k=5, seed=31))
    want = brute_force_count(phi).value
    est = approx_count(phi, 0.2, 0.1, Strategy.INDEP_STRUCTS, seed=2,
                       config=PIPELINE)
    assert abs(est.value - want) <= 0.2 * want
    with pytest.raises(ValueError):
        approx_count(phi, 0.2, 0.1, Strategy.INDEP_CLAUSES, seed=2,
                     config=PIPELINE)


def test_argument_validation(chain3):
    with pytest.raises(ValueError):
        approx_count(chain3, 0.0, 0.1)
    with pytest.raises(ValueError):
        approx_count(chain3, 1.5, 0.1)
    with pytest.raises(ValueError):
        approx_count(chain3, 0.2, 0.5)


def test_flagged_estimate_never_falls_below_the_certified_bound():
    # one sample almost never hits, but the cut has already certified at
    # least ell models, so a flagged value of 0 would be below what is known
    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    truth = approx_count(phi, 0.2, 0.1, Strategy.BRUTE_FORCE)
    assert truth.lower_bound == truth.value
    for strategy in (Strategy.THURLEY, Strategy.PRUNED_TREE):
        est = approx_count(phi, 0.2, 0.1, strategy, seed=7,
                           config=CounterConfig(sample_budget=1))
        assert est.under_sampled and est.samples == 1
        assert params_for(3, 23, strategy).ell <= est.lower_bound
        assert est.lower_bound <= truth.value
        assert est.value >= est.lower_bound


def test_sample_budget_flag_propagates():
    phi = generate(GeneratorSpec(n=16, m=12, k=3, seed=33))
    est = approx_count(phi, 0.05, 0.01, Strategy.THURLEY, seed=0,
                       config=CounterConfig(small_n=0, sample_budget=50))
    assert not est.exact
    assert est.under_sampled and est.samples == 50


def test_sampled_runs_never_draw_past_the_chernoff_cap(monkeypatch):
    # 50 random instances (k = 3 and 4, n = 12-15), every two-phase
    # strategy, with and without a budget: no Monte Carlo run, recursion
    # branches included, draws more than min(sample_size(U, ell, eps,
    # delta/2), budget), which is what it reports as samples_wanted
    from indepcount import ras
    from indepcount.mc import Universe, sample_size

    runs = []
    real = ras.mc_estimate

    def spy(phi, psi, ell, eps, delta, rng, **kw):
        est = real(phi, psi, ell, eps, delta, rng, **kw)
        runs.append((Universe(psi, variables=phi.variables).size, ell, eps,
                     delta, kw["sample_budget"], est))
        return est
    monkeypatch.setattr(ras, "mc_estimate", spy)
    for i in range(50):
        k = 3 + i % 2
        n = 12 + i % 4
        phi = generate(GeneratorSpec(n=n, m=round(n * (3.0 if k == 3 else 7.0)),
                                     k=k, seed=5_000 + i))
        budget = 3_000 if i % 3 == 0 else None
        for strategy in ALL[1:]:
            approx_count(phi, 0.2, 0.1, strategy, seed=i,
                         config=CounterConfig(small_n=0, sample_budget=budget))
    assert len(runs) >= 100
    endings = set()
    for size, ell, eps, delta, budget, est in runs:
        if size == 0:
            continue
        cap = sample_size(size, ell, eps, delta / 2)
        if budget is not None:
            cap = min(cap, budget)
        assert est.samples <= est.samples_wanted == cap
        endings.add("budget" if est.under_sampled else
                    "cap" if est.samples == cap else "rule")
    assert endings == {"rule", "cap", "budget"}


def test_sample_budget_below_one_is_refused():
    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    for budget in (0, -5):
        with pytest.raises(ValueError):
            approx_count(phi, 0.2, 0.1, Strategy.PRUNED_TREE, seed=7,
                         config=CounterConfig(sample_budget=budget))


def test_group_with_too_many_models_to_branch_on_is_refused():
    # red_structs keeps a group with more than 2^21 models here; branching
    # over it is refused at once, and the alarm turns a hang into a failure
    phi = generate(GeneratorSpec(n=60, m=360, k=4, seed=3))
    with deadline(20.0), pytest.raises(GuardError):
        approx_count(phi, 0.2, 0.1, Strategy.INDEP_STRUCTS, seed=0)


def test_cut_threshold_past_the_float_range_counts_exactly():
    # ell = 2^(ell_log2 n) is past 2^1024 here on every two-phase strategy;
    # the units force x5, then x7, then falsify (-7 -5)
    base = generate(GeneratorSpec(n=3000, m=3000, k=3, seed=1))
    phi = CnfFormula(base.clauses + ((5,), (-5, 7), (-7, -5)), 3000)
    for strategy in (Strategy.THURLEY, Strategy.PRUNED_TREE,
                     Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS):
        params = params_for(3, 3000, strategy)
        assert params.ell_log2 * 3000 >= 1024
        assert abs(params.ell.bit_length() - params.ell_log2 * 3000) <= 1
        est = approx_count(phi, 0.2, 0.1, strategy, seed=0)
        assert est.exact and est.value == 0
