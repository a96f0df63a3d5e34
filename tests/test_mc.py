import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from indepcount import (CnfFormula, Estimate, Strategy, Struct, StructSet,
                        Universe, approx_count, brute_force_count,
                        match_library, mc_estimate, sample_size,
                        sample_universe)
from indepcount.gen import GeneratorSpec, generate
from indepcount.rng import generator
from indepcount.structs import EMPTY_STRUCT_SET


def _struct(*ints):
    cls = tuple(tuple(c) for c in ints)
    return Struct(cls, match_library(cls))


def test_universe_size_is_product():
    sigma = _struct((1, 2, 3))           # 7 models over 3 vars
    tau = _struct((4, 5, 6), (4, 7, 8))  # 25 models over 5 vars
    uni = Universe(StructSet((sigma, tau)), 10)
    assert uni.size == 7 * 25 * 2 ** 2
    assert uni.free_vars == (9, 10)


def test_universe_without_structs_is_the_cube():
    uni = Universe(EMPTY_STRUCT_SET, 6)
    assert uni.size == 64
    assert len(uni.enumerate_words()) == 64


def test_universe_rejects_overlap_and_foreign_vars():
    with pytest.raises(ValueError):
        Universe(StructSet((_struct((1, 2, 3)),)), 2)
    a = Struct(((1, 2, 3),), (1,))
    b = Struct(((3, 4, 5),), (3,))
    with pytest.raises(ValueError):
        Universe(StructSet((a, b)), 5)


def test_enumerate_words_matches_membership():
    # every enumerated word projects to a model of each subformula and
    # the words are exactly the distinct universe elements
    sigma = _struct((1, 2, 3))
    uni = Universe(StructSet((sigma,)), 5)
    words = uni.enumerate_words()
    assert len(words) == uni.size == 7 * 4
    assert len(set(int(w) for w in words)) == len(words)
    for w in words[:40]:
        assignment = uni.decode_word(int(w))
        assert all(any(assignment[abs(code)] == (code > 0) for code in c)
                   for c in sigma.clauses)


def test_samples_land_in_the_universe():
    sigma = _struct((1, 2, 3), (1, 4, 5))
    uni = Universe(StructSet((sigma,)), 8)
    allowed = set(int(w) for w in uni.enumerate_words())
    rng = generator(5)
    words = uni.sample_words(500, rng)
    assert all(int(w) in allowed for w in words)
    one = sample_universe(uni, rng)
    assert sorted(one) == list(range(1, 9))


def test_sampling_refuses_variable_indices_above_64():
    sigma = _struct((1, 2, 3))
    uni = Universe(StructSet((sigma,)), variables=range(1, 66))
    assert uni.free_vars[-1] == 65
    with pytest.raises(ValueError):
        sample_universe(uni, generator(0))


def test_sample_size_pinned_values():
    # U = ell and delta = 2/e make the bound exactly the Chernoff factor
    assert sample_size(7, 7, 1.0, 2.0 / math.e) == 3
    # halving eps quadruples the sample count (up to ceiling)
    base = sample_size(1000, 10, 0.5, 0.1)
    fine = sample_size(1000, 10, 0.25, 0.1)
    assert 4 * base - 4 <= fine <= 4 * base
    # linear in U/ell
    assert sample_size(2000, 10, 0.5, 0.1) >= 2 * base - 1


def test_sample_size_validation():
    with pytest.raises(ValueError):
        sample_size(10, 0, 0.5, 0.1)
    with pytest.raises(ValueError):
        sample_size(10, 1, 0.0, 0.1)
    with pytest.raises(ValueError):
        sample_size(10, 1, 1.5, 0.1)
    with pytest.raises(ValueError):
        sample_size(10, 1, 0.5, 1.0)


def test_pinned_estimate_whole_universe_hits():
    # psi covers the only clause, so every draw satisfies the formula and
    # the estimate equals the universe size exactly
    phi = CnfFormula([(1, 2, 3)], 3)
    sigma = Struct(phi.clauses, match_library(phi.clauses))
    est = mc_estimate(phi, StructSet((sigma,)), 7, 1.0, 2.0 / math.e,
                      generator(0))
    assert est.samples == 3 and est.hits == 3
    assert est.value == 7 and not est.exact


def test_estimate_is_exact_rational():
    phi = generate(GeneratorSpec(n=10, m=12, k=3, seed=3))
    est = mc_estimate(phi, EMPTY_STRUCT_SET, 64, 0.3, 0.2, generator(1))
    assert isinstance(est.value, Fraction)
    assert est.value == Fraction(est.hits * 2 ** 10, est.samples)


def test_estimator_concentrates(chain3):
    # 4 models in a universe of 8; eps=0.25 around 4
    # allows only {3.0..5.0}, and the guarantee holds per run with
    # delta=0.1, so 200 runs clear 90% with room to spare
    good = 0
    for seed in range(200):
        est = mc_estimate(chain3, EMPTY_STRUCT_SET, 4, 0.25, 0.1,
                          generator(900 + seed))
        if abs(est.value - 4) <= 0.25 * 4:
            good += 1
    assert good >= 180


def test_estimator_is_unbiased_in_aggregate():
    # the mean of many tiny runs lands within 3 standard errors of truth
    phi = generate(GeneratorSpec(n=10, m=12, k=3, seed=8))
    want = brute_force_count(phi).value
    rng = generator(77)
    runs = 10_000
    values = np.empty(runs)
    for i in range(runs):
        est = mc_estimate(phi, EMPTY_STRUCT_SET, max(want, 1), 1.0, 0.4, rng)
        values[i] = float(est.value)
    mean = values.mean()
    stderr = values.std(ddof=1) / math.sqrt(runs)
    assert abs(mean - want) <= 3 * stderr


def test_restricted_and_plain_universes_agree():
    # paired runs with and without subformula restriction should put their
    # eps-intervals around the same count; overlap must beat 1 - 2*delta
    from indepcount import red_clauses

    phi = generate(GeneratorSpec(n=12, m=14, k=3, seed=21))
    want = brute_force_count(phi).value
    psi = red_clauses(phi, 1, 0.5, 0.2, lambda s, e, d: Estimate(
        value=brute_force_count(s).value, exact=True, epsilon=e,
        delta=d)).struct_set
    eps, delta = 0.5, 0.2
    overlaps = 0
    pairs = 50
    for seed in range(pairs):
        rng = generator(500 + seed)
        with_psi = mc_estimate(phi, psi, want, eps, delta, rng)
        without = mc_estimate(phi, EMPTY_STRUCT_SET, want, eps, delta, rng)
        lo = max((1 - eps) * with_psi.value, (1 - eps) * without.value)
        hi = min((1 + eps) * with_psi.value, (1 + eps) * without.value)
        overlaps += lo <= hi
    assert overlaps >= (1 - 2 * delta) * pairs


def test_budget_truncation_flags_under_sampling():
    phi = generate(GeneratorSpec(n=14, m=10, k=3, seed=9))
    est = mc_estimate(phi, EMPTY_STRUCT_SET, 1, 0.2, 0.05, generator(2),
                      sample_budget=100)
    assert est.under_sampled and est.samples == 100
    for budget in (0, -5):
        with pytest.raises(ValueError):
            mc_estimate(phi, EMPTY_STRUCT_SET, 1, 0.2, 0.05, generator(2),
                        sample_budget=budget)


def test_estimate_rejects_foreign_subformula():
    phi = CnfFormula([(1, 2, 3)], 6)
    stray = _struct((4, 5, 6))
    with pytest.raises(ValueError):
        mc_estimate(phi, StructSet((stray,)), 1, 0.5, 0.1, generator(0))


def test_empty_universe_returns_exact_zero():
    # a subformula with no models forces the count to zero
    phi = CnfFormula([(1,), (-1,)], 1)
    sigma = Struct(phi.clauses, (1,))
    assert sigma.l_sigma == 0
    est = mc_estimate(phi, StructSet((sigma,)), 1, 0.5, 0.1)
    assert est.exact and est.value == 0 and est.samples == 0


def test_estimate_requires_nonnegative_value():
    with pytest.raises(ValueError):
        Estimate(value=-1, exact=True, epsilon=0.5, delta=0.1)


def test_large_universe_sampling_stays_uniform_per_struct():
    # draws hit each subformula model with roughly equal frequency
    sigma = _struct((1, 2, 3))
    uni = Universe(StructSet((sigma,)), 3)
    rng = generator(11)
    words = uni.sample_words(7000, rng)
    _, counts = np.unique(words, return_counts=True)
    assert len(counts) == 7
    assert counts.min() > 800 and counts.max() < 1200


@pytest.mark.parametrize("psi,cells", [(EMPTY_STRUCT_SET, 8),
                                       (StructSet((_struct((1, 2, 3)),)), 7)])
def test_sampled_assignments_pass_chi_square(psi, cells):
    from indepcount import chi_square_uniformity

    uni = Universe(psi, 3)
    assert uni.size == cells
    rng = generator(29)
    draws = [sample_universe(uni, rng) for _ in range(8000)]
    stat, p = chi_square_uniformity(draws, uni)
    assert p > 0.01
    assert stat < 3 * cells


def test_universe_without_groups_draws_plain_coins():
    # no groups, no index draw: the words are one raw draw under the mask
    uni = Universe(EMPTY_STRUCT_SET, variables=(2, 5, 9, 40))
    words = uni.sample_words(1000, generator(3))
    raw = generator(3).integers(0, 2 ** 64, size=1000, dtype=np.uint64)
    assert np.array_equal(words, raw & np.uint64(uni.free_mask))


def test_merged_draw_over_split_tables_passes_chi_square(monkeypatch):
    # three 7-model groups and two coins; a 49-row cap merges the first two
    # groups into one table and leaves the third on its own
    from scipy import stats

    from indepcount import mc

    monkeypatch.setattr(mc, "_TABLE_ROWS", 49)
    psi = StructSet((_struct((1, 2, 3)), _struct((4, -5, 6)),
                     _struct((-7, 8, 9))))
    uni = Universe(psi, 11)
    cells = uni.enumerate_words()
    assert len(cells) == uni.size == 7 ** 3 * 4
    rng = generator(31)
    # two calls of different lengths share the draw's buffers
    words = np.concatenate([uni.sample_words(70_000, rng),
                            uni.sample_words(40_000, rng)])
    assert [len(t) for t in uni._tables] == [49, 7]
    at = np.searchsorted(cells, words)
    assert np.array_equal(cells[at], words)
    _, p = stats.chisquare(np.bincount(at, minlength=len(cells)))
    assert p > 0.01


def test_product_index_beyond_int64_stays_exact():
    # four 16-literal clauses over x1..x64, one table each: 65535^4 > 2^63
    # product rows, so the index needs all 64 bits; every word satisfies
    # all four clauses and each group's model is near uniform
    from scipy import stats

    blocks = [range(16 * i + 1, 16 * i + 17) for i in range(4)]
    signs = (1, -1, 1, -1)
    groups = [Struct((tuple(s * v for v in b),), tuple(b))
              for s, b in zip(signs, blocks)]
    uni = Universe(StructSet(tuple(groups)), 64)
    assert uni.size == 65535 ** 4 > 2 ** 63
    words = uni.sample_words(200_000, generator(17))
    assert len(uni._tables) == 4
    for i, s in enumerate(signs):
        field = (words >> np.uint64(16 * i)) & np.uint64(0xFFFF)
        banned = 0 if s > 0 else 0xFFFF   # the one falsifying assignment
        assert not np.any(field == banned)
        # 256 models per byte value, 255 where the banned value's byte is
        for byte, gap in ((field & np.uint64(0xFF), banned & 0xFF),
                          (field >> np.uint64(8), banned >> 8)):
            share = np.full(256, 256.0)
            share[gap] = 255.0
            observed = np.bincount(byte.astype(np.intp), minlength=256)
            _, p = stats.chisquare(observed, share * len(words) / 65535)
            assert p > 0.01


def test_two_table_draw_matches_a_python_int_reference():
    # six 7-model groups: 7^5 rows fill the first product table and the
    # sixth group gets its own, so every index is split by one mixed-radix
    # digit.  The reference redraws the same stream and splits each index
    # with Python ints, straight into one model per group.
    from indepcount import mc

    groups = [Struct(((3 * i + 1, -(3 * i + 2), 3 * i + 3),),
                     (3 * i + 1, 3 * i + 2, 3 * i + 3)) for i in range(6)]
    uni = Universe(StructSet(tuple(groups)), 21)
    count = mc._SLICE_WORDS + 1000
    words = uni.sample_words(count, generator(11))
    assert [len(t) for t in uni._tables] == [7 ** 5, 7]
    rng = generator(11)
    coins = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
    index = [int(i) for start in range(0, count, mc._SLICE_WORDS)
             for i in rng.integers(0, 7 ** 6, dtype=np.uint64,
                                   size=min(mc._SLICE_WORDS, count - start))]
    models = [[sum((b >> i & 1) << (v - 1) for i, v in enumerate(g.vars))
               for b in map(int, g.model_indices())] for g in groups]
    want = []
    for coin, i in zip(map(int, coins), index):
        # the first table's row is g0..g4 in base 7, g4 lowest
        row, word = i % 7 ** 5, coin & uni.free_mask
        for g in reversed(range(5)):
            row, digit = divmod(row, 7)
            word |= models[g][digit]
        want.append(word | models[5][i // 7 ** 5])
    assert words.tolist() == want


# -- the stopping rule -----------------------------------------------------

def _word_hits(words, clauses):
    """Per-word truth of the formula by plain bit tests, not the kernel."""
    ok = np.ones(len(words), dtype=bool)
    for c in clauses:
        sat = np.zeros(len(words), dtype=bool)
        for code in c:
            bit = (words >> np.uint64(abs(code) - 1)) & np.uint64(1)
            sat |= bit == (1 if code > 0 else 0)
        ok &= sat
    return ok


def _recount_stop(phi, psi, stop, seed):
    """Index of the ``stop``-th hit in the stream a rule run draws: one
    ``mc._SLICE_WORDS``-word draw after another from a fresh generator."""
    from indepcount import mc

    uni = Universe(psi, variables=phi.variables)
    rng = generator(seed)
    seen = done = 0
    while True:
        words = uni.sample_words(mc._SLICE_WORDS, rng)
        at = np.flatnonzero(_word_hits(words, phi.clauses))
        if seen + len(at) >= stop:
            return done + int(at[stop - seen - 1]) + 1
        seen += len(at)
        done += len(words)


def test_rule_stops_at_836_hits_and_covers_the_true_count():
    # the rule runs at (delta/2)^3 = 1.25e-4: 836 hits.  ell = 1 puts the
    # Chernoff cap near 277 U samples, far above the rule's ~836 U / 517,
    # so every run ends at the rule.  200 runs at eps = 0.2, delta = 0.1:
    # at least 1 - delta of them (180) must lie within eps of the
    # brute-force count.
    phi = generate(GeneratorSpec(n=12, m=16, k=3, seed=5))
    want = brute_force_count(phi).value
    assert want == 517
    good = 0
    for seed in range(200):
        est = mc_estimate(phi, EMPTY_STRUCT_SET, 1, 0.2, 0.1,
                          generator(4000 + seed))
        assert est.hits == 836 and not est.under_sampled
        assert est.value == Fraction(836 * 2 ** 12, est.samples)
        assert est.samples < est.samples_wanted == sample_size(
            2 ** 12, 1, 0.2, 0.05)
        good += abs(est.value - want) <= 0.2 * want
    assert good >= 180


def test_stop_index_is_exact_past_a_slice_boundary(monkeypatch):
    # 16-word slices, one draw each: over 300 seeds the Upsilon_1-th hit
    # (34 hits at eps = 0.9, (delta/2)^3 = 1/64) lands on the first and second
    # word of a draw and on the last; N must match a per-word recount of
    # the same stream in every run.  A group takes the first clause, so the
    # kernel checks only the rest while the recount checks them all.
    from indepcount import mc

    monkeypatch.setattr(mc, "_SLICE_WORDS", 16)
    phi = generate(GeneratorSpec(n=10, m=12, k=3, seed=3))
    psi = StructSet((_struct(phi.clauses[0]),))
    offsets = set()
    for seed in range(300):
        est = mc_estimate(phi, psi, 1, 0.9, 0.5, generator(seed))
        assert est.hits == 34
        assert est.samples == _recount_stop(phi, psi, 34, seed), seed
        offsets.add((est.samples - 1) % 16)
    assert {0, 1, 15} <= offsets


def test_stop_index_is_exact_across_a_full_slice():
    # 128 models of 2^14 need ~107,000 samples for 836 hits, so the runs
    # cross several 2^15-word draws; N matches the per-word recount.
    from indepcount import mc

    phi = generate(GeneratorSpec(n=14, m=36, k=3, seed=3))
    crossed = 0
    for seed in range(4):
        est = mc_estimate(phi, EMPTY_STRUCT_SET, 1, 0.2, 0.1, generator(seed))
        assert est.samples == _recount_stop(phi, EMPTY_STRUCT_SET, 836, seed)
        crossed += est.samples > mc._SLICE_WORDS
    assert crossed >= 1


def test_tiny_hit_rate_ends_at_the_chernoff_cap():
    # 9 models of 2^12 and ell = 9: the cap at delta/2 expects ~277 hits,
    # short of the rule's 836, so the cap ends the run with the guarantee
    phi = generate(GeneratorSpec(n=12, m=45, k=3, seed=3))
    assert brute_force_count(phi).value == 9
    cap = sample_size(2 ** 12, 9, 0.2, 0.05)
    est = mc_estimate(phi, EMPTY_STRUCT_SET, 9, 0.2, 0.1, generator(3))
    assert est.samples == est.samples_wanted == cap
    assert est.hits < 836 and not est.under_sampled
    assert est.value == Fraction(est.hits * 2 ** 12, cap)


def test_rule_inside_a_budget_below_the_cap_is_unflagged():
    # the cap (~4.5 M samples) exceeds the budget, which used to flag the
    # run; the rule's ~3,200 samples fit inside it, so the result carries
    # the guarantee
    phi = generate(GeneratorSpec(n=14, m=10, k=3, seed=9))
    assert sample_size(2 ** 14, 1, 0.2, 0.05) > 100_000
    est = mc_estimate(phi, EMPTY_STRUCT_SET, 1, 0.2, 0.1, generator(2),
                      sample_budget=100_000)
    assert not est.under_sampled
    assert est.hits == 836 and est.samples < 100_000 == est.samples_wanted


# sha256 over (value, samples, hits, samples_wanted) of 24 sampled counts:
# generator seeds 2-4 of both sparse-sample cells, every two-phase strategy,
# count seed 11.  Re-recorded when thurley and pruned moved to the cut's
# frontier; any change to the draw, the check or the walk moves it.
SAMPLER_FINGERPRINT = (
    "41fac65f3dcaf6c01a14d6f703c2883309791b4d36985f7453eb35e05e9468d6")


def test_sampled_counts_match_the_recorded_fingerprint():
    digest = hashlib.sha256()
    for k, n, m in ((3, 23, 46), (4, 19, 114)):
        for gen_seed in (2, 3, 4):
            phi = generate(GeneratorSpec(n=n, m=m, k=k, seed=gen_seed))
            for strategy in (Strategy.THURLEY, Strategy.PRUNED_TREE,
                             Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS):
                est = approx_count(phi, 0.2, 0.1, strategy, seed=11)
                assert not est.exact and not est.under_sampled and est.hits
                digest.update(f"{est.value}|{est.samples}|{est.hits}|"
                              f"{est.samples_wanted}\n".encode())
    assert digest.hexdigest() == SAMPLER_FINGERPRINT


# -- the frontier's cubes --------------------------------------------------

def _first_bit_cubes(n):
    """The cubes that split x1..xn by the first true variable: cube i sets
    x1..xi False and x(i+1) True, with 2^(n-1-i) assignments, and the
    all-false word is a cube of one."""
    full = (1 << n) - 1
    return [(1 << i, full & ~((2 << i) - 1)) for i in range(n)] + [(0, 0)]


def test_alias_table_gives_each_cube_its_exact_mass():
    # at every n <= 64 the weights over the smallest cube are integers and
    # so is every table entry; a cube's mass, its own threshold plus the
    # rest of each bin aliased to it, is len(cubes) times its weight
    from indepcount import mc

    for n in range(1, 65):
        cubes = _first_bit_cubes(n)
        least = min(mask.bit_count() for _, mask in cubes)
        weights = [1 << (mask.bit_count() - least) for _, mask in cubes]
        threshold, alias, total = mc._alias_table(weights)
        assert total == 1 << n
        assert all(isinstance(t, int) and 0 <= t < total for t in threshold)
        mass = [0] * len(cubes)
        for b, (t, a) in enumerate(zip(threshold, alias)):
            mass[b] += t
            mass[a] += total - t
        assert mass == [len(cubes) * w for w in weights], n
    # unequal weights that are not powers of two fill every bin exactly too
    threshold, alias, total = mc._alias_table([5, 1, 3, 3, 12])
    mass = [0] * 5
    for b, (t, a) in enumerate(zip(threshold, alias)):
        mass[b] += t
        mass[a] += total - t
    assert mass == [5 * w for w in (5, 1, 3, 3, 12)]


@pytest.mark.parametrize("n", [20, 64])
def test_cube_pick_follows_the_cube_sizes(n):
    # n = 20 draws bin and threshold as one bounded integer; at n = 64 the
    # product passes 2^64 and they are drawn apart.  Either way cube i
    # comes up with probability 2^-(i+1).
    from scipy import stats

    uni = Universe(EMPTY_STRUCT_SET, n, cubes=_first_bit_cubes(n))
    assert uni.size == 1 << n
    assert (len(uni.cubes) * (1 << n) > 2 ** 64) == (n == 64)
    words = uni.sample_words(1 << 16, generator(5))
    first = [(w & -w).bit_length() - 1 if w else n for w in map(int, words)]
    observed = np.bincount(np.minimum(first, 4), minlength=5)
    share = np.array([1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 16])
    _, p = stats.chisquare(observed, share * len(words))
    assert p > 0.01


def test_sampled_frontier_passes_chi_square():
    # a cut's frontier on a small formula: 2^16 draws cover its cubes'
    # assignments uniformly
    from indepcount import BranchKind, chi_square_uniformity, cut, frontier

    phi = generate(GeneratorSpec(n=10, m=30, k=3, seed=4))
    walk = frontier(cut(phi, EMPTY_STRUCT_SET, 4, BranchKind.PRUNED_CLAUSE),
                    1 << 60, 6)
    uni = Universe(EMPTY_STRUCT_SET, variables=phi.variables,
                   cubes=walk.cubes)
    assert 3 <= len(uni.cubes) and 100 <= uni.size < 1 << 10
    assert len({mask.bit_count() for _, mask in uni.cubes}) > 1
    words = uni.sample_words(1 << 16, generator(41))
    stat, p = chi_square_uniformity([uni.decode_word(w) for w in words], uni)
    assert p > 0.01 and stat < 3 * uni.size


def test_one_cube_frontier_draws_plain_coins():
    # one cube skips the pick: all coins reproduce the draw of a universe
    # without cubes, and a cube with fixed values ORs them in
    variables = (2, 5, 9, 40)
    plain = Universe(EMPTY_STRUCT_SET, variables=variables)
    raw = generator(3).integers(0, 2 ** 64, size=1000, dtype=np.uint64)
    for word, mask in ((0, plain.free_mask), (1 << 4, (1 << 1) | (1 << 39))):
        uni = Universe(EMPTY_STRUCT_SET, variables=variables,
                       cubes=[(word, mask)])
        words = uni.sample_words(1000, generator(3))
        assert np.array_equal(words, raw & np.uint64(mask) | np.uint64(word))
    with pytest.raises(ValueError):
        Universe(EMPTY_STRUCT_SET, variables=variables, cubes=[(1, 2)])
