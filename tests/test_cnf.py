import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from indepcount import (CnfFormula, DimacsError, approx_count,
                        brute_force_count, evaluate, parse_dimacs, restrict,
                        serialize_dimacs)
from indepcount.cnf import (_CHUNK_BITS, _SLICE_WORDS, DimacsWarning,
                            ParseStats, bit_positions, clause_tables,
                            satisfied_rows, satisfying_indices)
from indepcount.exact import ExactCount
from indepcount.gen import GeneratorSpec, generate

from conftest import CHAIN3_TEXT, deadline


def test_clause_rejects_duplicate_variable():
    with pytest.raises(ValueError):
        CnfFormula([(1, -1)], 2)
    with pytest.raises(ValueError):
        CnfFormula([(2, 2)], 2)


def test_formula_rejects_zero_code():
    with pytest.raises(ValueError):
        CnfFormula([(1, 0)], 2)


def test_parse_chain3(chain3):
    assert chain3.num_vars == 3
    assert chain3.num_clauses == 2
    assert chain3.k == 2
    assert chain3.int_clauses() == ((-1, 2), (-2, 3))


def test_parse_serialize_reparse_fixpoint(chain3):
    text = serialize_dimacs(chain3)
    again = parse_dimacs(text)
    assert again == chain3
    assert serialize_dimacs(again) == text


def test_parse_empty_formula_keeps_universe():
    phi = parse_dimacs("p cnf 2 0\n")
    assert phi.num_vars == 2
    assert phi.clauses == ()
    assert serialize_dimacs(phi) == "p cnf 2 0\n"


def test_parse_clauses_may_span_lines():
    phi = parse_dimacs("p cnf 4 2\n1 2\n3 0 -2\n4 0\n")
    assert phi.int_clauses() == ((1, 2, 3), (-2, 4))


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf x 2\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(DimacsError):
        parse_dimacs("")


def test_parse_tautology_dropped_with_warning():
    stats = ParseStats()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n", stats=stats)
    assert phi.num_clauses == 1
    assert stats.tautologies_dropped == 1
    assert any("tautological" in str(w.message) for w in caught)


def test_parse_duplicate_literal_merged():
    stats = ParseStats()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = parse_dimacs("p cnf 2 1\n1 1 2 0\n", stats=stats)
    assert phi.int_clauses() == ((1, 2),)
    assert stats.duplicate_literals_merged == 1


def test_parse_clause_count_mismatch_is_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = parse_dimacs("p cnf 2 5\n1 2 0\n")
    assert phi.num_clauses == 1
    assert any("declares 5" in str(w.message) for w in caught)


def test_parse_satlib_trailer_ends_clause_data():
    # SATLIB files end in "%" then "0"; that 0 is not an empty clause
    with warnings.catch_warnings():
        warnings.simplefilter("error", DimacsWarning)
        phi = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
    assert phi.int_clauses() == ((1, -2, 3), (-1, 2))
    assert (approx_count(phi, 0.2, 0.1).value
            == brute_force_count(phi).value == 5)


def test_formula_rejects_non_positive_variables():
    with pytest.raises(ValueError):
        CnfFormula([], variables=[0, 3])
    with pytest.raises(ValueError):
        CnfFormula([(-3,)], variables=[3, -3])


def test_formula_rejects_literal_outside_universe():
    with pytest.raises(ValueError):
        CnfFormula([(1, 5)], 3)


def test_k_is_observed_max_unless_overridden():
    phi = CnfFormula([(1, 2), (3,)], 3)
    assert phi.k == 2
    assert CnfFormula([(1, 2)], 3, k=3).k == 3
    with pytest.raises(ValueError):
        CnfFormula([(1, 2, 3)], 3, k=2)


def test_evaluate(chain3):
    assert evaluate(chain3, {1: False, 2: False, 3: False})
    assert not evaluate(chain3, {1: True, 2: False, 3: False})
    assert evaluate(chain3, {1: True, 2: True, 3: True})
    with pytest.raises(ValueError):
        evaluate(chain3, {1: True, 2: False})  # x3 unassigned


def test_restrict_drops_satisfied_and_strips_false(chain3):
    sub = restrict(chain3, {2: True})
    # first clause satisfied, second loses its ~x2 literal
    assert sub.int_clauses() == ((3,),)
    assert sub.variables == (1, 3)
    assert sub.num_vars == 2


def test_restrict_can_produce_empty_clause():
    phi = CnfFormula([(1, 2)], 2)
    sub = restrict(phi, {1: False, 2: False})
    assert sub.int_clauses() == ((),)
    assert sub.num_vars == 0


def test_restrict_rejects_unknown_variable(chain3):
    with pytest.raises(ValueError):
        restrict(chain3, {9: True})
    sub = restrict(chain3, {1: True})
    with pytest.raises(ValueError):
        restrict(sub, {1: True})  # already gone


def test_restrict_composes_like_a_single_restriction():
    # random formulas: restrict(restrict(phi, a), b) == restrict(phi, a|b)
    for seed in range(25):
        phi = generate(GeneratorSpec(n=10, m=12, k=3, seed=seed))
        a = {1: bool(seed & 1), 4: True}
        b = {7: False, 10: bool(seed & 2)}
        two_step = restrict(restrict(phi, a), b)
        one_step = restrict(phi, {**a, **b})
        assert two_step.clauses == one_step.clauses
        assert two_step.variables == one_step.variables


def _restrict_reference(phi, assignment):
    kept = []
    for c in phi.clauses:
        if any(abs(code) in assignment and assignment[abs(code)] == (code > 0)
               for code in c):
            continue
        kept.append(tuple(code for code in c if abs(code) not in assignment))
    return CnfFormula(kept, variables=[v for v in phi.variables
                                       if v not in assignment])


def test_restrict_matches_reference_across_sibling_assignments():
    # siblings fix the same variables with different values
    for seed in range(20):
        phi = generate(GeneratorSpec(n=9, m=14, k=3, seed=300 + seed))
        fixed = phi.variables[seed % 3::3]
        for values in range(1 << len(fixed)):
            a = {v: bool((values >> i) & 1) for i, v in enumerate(fixed)}
            got = restrict(phi, a)
            assert got == _restrict_reference(phi, a)
            assert got.varset == frozenset(got.variables)


def test_chain3_text_matches_fixture(chain3):
    assert parse_dimacs(CHAIN3_TEXT) == chain3


def _same_formula(phi, clauses, num_vars):
    # == compares the clauses, the variables and k
    built = CnfFormula(clauses, num_vars)
    assert phi == built and phi.varset == built.varset


def test_parsed_formula_equals_the_checked_constructor():
    for seed in range(60):
        k = 1 + seed % 5
        n = k + seed % 13
        phi = generate(GeneratorSpec(n=n, m=seed * 3 % 40, k=k, seed=500 + seed))
        _same_formula(parse_dimacs(serialize_dimacs(phi)), phi.clauses, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimacsWarning)
        edge = [
            ("p cnf 3 1\n1 1 -2 3 3 0\n", [(1, -2, 3)], 3),   # merged
            ("p cnf 3 2\n1 -1 2 0\n-3 0\n", [(-3,)], 3),     # tautology
            ("p cnf 4 2\n1 2 0\n-3 4\n", [(1, 2), (-3, 4)], 4),  # unterminated
            ("p cnf 3 1\n1 -2 0\n%\n0\n", [(1, -2)], 3),   # SATLIB trailer
            ("p cnf 0 0\n", [], 0),
            ("p cnf 5 1\n0\n", [()], 5),                    # empty clause
        ]
        for text, clauses, n in edge:
            _same_formula(parse_dimacs(text), clauses, n)


# --- clause-scan kernel ------------------------------------------------------

def _kernel(phi, words):
    return satisfied_rows(_tables(phi, _CHUNK_BITS),
                          np.asarray(words, dtype=np.uint64))


def _decode(phi, word):
    return {v: bool((int(word) >> i) & 1) for i, v in enumerate(phi.variables)}


def test_kernel_keeps_the_all_false_word_when_it_is_a_model():
    phi = CnfFormula([(-1,), (-2, 3)], 3)
    assert _kernel(phi, range(8)).tolist() == [0, 4, 6]


def test_kernel_empty_clause_drops_every_row_and_no_clauses_keep_all():
    assert _kernel(CnfFormula([(1, 2), ()], 3), range(8)).tolist() == []
    assert _kernel(CnfFormula([], 3), [5, 0, 7]).tolist() == [5, 0, 7]
    assert _kernel(CnfFormula([(1,)], 2), []).tolist() == []


def test_kernel_survivors_keep_input_order():
    phi = CnfFormula([(1, -2), (2, 3)], 3)
    words = [7, 0, 5, 3, 6, 1, 5, 2, 4]
    expected = [w for w in words if evaluate(phi, _decode(phi, w))]
    assert expected == [7, 5, 3, 5, 4]
    assert _kernel(phi, words).tolist() == expected


def test_kernel_agrees_with_evaluate_on_random_formulas():
    rng = np.random.default_rng(5)
    for seed in range(30):
        n = 3 + seed % 8
        phi = generate(GeneratorSpec(n=n, m=1 + seed % 12, k=min(3, n),
                                     seed=900 + seed))
        words = rng.integers(0, 1 << n, size=64).astype(np.uint64)
        expected = [int(w) for w in words if evaluate(phi, _decode(phi, w))]
        assert _kernel(phi, words).tolist() == expected


def _models(phi, words):
    """The words ``evaluate`` accepts, in input order (the reference)."""
    return [int(w) for w in words if evaluate(phi, _decode(phi, w))]


def test_kernel_over_64_clauses_uses_two_table_blocks():
    phi = generate(GeneratorSpec(n=12, m=70, k=4, seed=11))
    tables = clause_tables(phi.clauses, bit_positions(phi.variables))
    assert len(tables) == 2
    words = np.arange(1 << 12, dtype=np.uint64)
    expected = _models(phi, words)
    assert expected and _kernel(phi, words).tolist() == expected
    # the second block drops words the first one keeps
    first = satisfied_rows(_tables(phi, _CHUNK_BITS)[:1], words)
    assert len(first) > len(expected)


def test_kernel_reads_the_top_byte():
    rng = np.random.default_rng(17)
    clauses = []
    for _ in range(12):
        vs = rng.choice(np.arange(50, 65), size=3, replace=False)
        clauses.append(tuple(int(v) * int(rng.choice([-1, 1])) for v in vs))
    clauses += [(57, -64), (-60, 3)]
    phi = CnfFormula(clauses, 64)
    tables = clause_tables(phi.clauses, bit_positions(phi.variables))
    assert tables[0][0][-1] == 7
    words = rng.integers(0, 2 ** 64, size=3000, dtype=np.uint64)
    expected = _models(phi, words)
    assert expected and len(expected) < len(words)
    assert _kernel(phi, words).tolist() == expected


def test_kernel_spans_slices_with_a_ragged_tail():
    phi = generate(GeneratorSpec(n=6, m=5, k=3, seed=4))
    rng = np.random.default_rng(8)
    words = rng.integers(0, 1 << 6, size=2 * _SLICE_WORDS + 123,
                         dtype=np.uint64)
    # evaluate each of the 64 distinct words once, then look them up
    is_model = {w: bool(_models(phi, [w])) for w in range(1 << 6)}
    expected = [int(w) for w in words if is_model[int(w)]]
    assert 0 < len(expected) < len(words)
    assert _kernel(phi, words).tolist() == expected


def test_kernel_lone_empty_clause_and_no_clauses():
    words = np.arange(8, dtype=np.uint64)
    empty = CnfFormula([()], 3)
    (used, table), = clause_tables(empty.clauses, bit_positions(empty.variables))
    assert used == (0,) and (table == 1).all()
    assert _kernel(empty, words).tolist() == _models(empty, words) == []
    free = CnfFormula([], 3)
    assert clause_tables(free.clauses, bit_positions(free.variables)) == ()
    assert _kernel(free, words).tolist() == _models(free, words) == list(range(8))


def test_chunk_tables_agree_with_evaluate_across_widths():
    # every word carries random bits above the formula's positions, which
    # the check must ignore
    rng = np.random.default_rng(12)
    words = rng.integers(0, 2 ** 64, size=4096, dtype=np.uint64)
    gap = CnfFormula([(1, -3), (-8, 2), (-41, 44), (2, 45, -48)], 48)
    cases = [(gap, (0, 3)), (CnfFormula([()], 5), (0,)),
             (CnfFormula([], 7), None)]
    for n in (1, 11, 12, 13, 24, 25, 36, 64):
        k = min(3, n)
        cases.append((generate(GeneratorSpec(n=n, m=min(n, 20), k=k,
                                             seed=70 + n)), None))
        if n >= 4:
            # 70 clauses make two blocks
            cases.append((generate(GeneratorSpec(n=n, m=70, k=4,
                                                 seed=90 + n)), None))
    for phi, chunks in cases:
        tables = _tables(phi, _CHUNK_BITS)
        assert len(tables) == -(-phi.num_clauses // 64)
        for block_chunks, table in tables:
            assert table.shape == (len(block_chunks), 4096)
            assert table.dtype == np.uint64
            assert all(12 * c < phi.num_vars for c in block_chunks)
        if chunks is not None:
            assert tables[0][0] == chunks
        expected = _models(phi, words)
        if phi.num_clauses > 1:
            assert 0 < len(expected) < len(words), phi
        assert satisfied_rows(tables, words).tolist() == expected, phi


# --- clause-table builder -----------------------------------------------------

def _reference_tables(clauses, positions, bits):
    """The clause tables by their definition: bit j of entry x of chunk c
    is set when x agrees with clause j's falsifying values on clause j's
    literals in chunk c; chunks are those with a literal, else chunk 0."""
    values = np.arange(1 << bits)
    blocks = []
    for start in range(0, len(clauses), 64):
        block = clauses[start:start + 64]
        chunks = sorted({positions[abs(code)] // bits
                         for c in block for code in c}) or [0]
        tables = []
        for chunk in chunks:
            entry = np.zeros(1 << bits, dtype=np.uint64)
            for j, clause in enumerate(block):
                agree = np.ones(1 << bits, dtype=bool)
                for code in clause:
                    at = positions[abs(code)] - bits * chunk
                    if 0 <= at < bits:
                        agree &= ((values >> at) & 1) == (code < 0)
                entry[agree] |= np.uint64(1 << j)
            tables.append(entry)
        blocks.append((tuple(chunks), tables))
    return blocks


def _random_clause_sets(rng):
    """Clause sets over variables 1-64 at random distinct positions 0-63,
    widths 0-4, 0-12 clauses (every fifth set 65-70, two blocks)."""
    for i in range(40):
        positions = dict(zip(range(1, 65), rng.permutation(64).tolist()))
        m = int(rng.integers(65, 71)) if i % 5 == 4 else int(rng.integers(13))
        clauses = [tuple(int(v) * int(rng.choice([-1, 1]))
                         for v in rng.choice(np.arange(1, 65), replace=False,
                                             size=int(rng.integers(5))))
                   for _ in range(m)]
        yield clauses, positions


def test_clause_tables_match_their_definition_at_both_widths():
    named = [(clauses, {v: v - 1 for v in range(1, 65)}) for clauses in (
        [(61, -64), (-60,), (1, -62, 63)],                 # positions 59-63
        [(), ()],                                          # only empty
        [(1, -12), (-2, 5), (25, -36, 30), (-26, 3)],      # chunk 1 empty
        [(3, 4)] * 64 + [()],                              # block 1 empty
    )]
    cases = named + list(_random_clause_sets(np.random.default_rng(41)))
    for bits in (8, _CHUNK_BITS):
        for clauses, positions in cases:
            got = clause_tables(clauses, positions, bits)
            want = _reference_tables(clauses, positions, bits)
            assert [chunks for chunks, _ in got] == [c for c, _ in want]
            for (_, tables), (_, expected) in zip(got, want):
                assert tables.dtype == np.uint64
                assert tables.shape == (len(expected), 1 << bits)
                assert all(map(np.array_equal, tables, expected)), clauses
        # chunks without a literal are skipped, an all-empty block keeps
        # chunk 0, and no clauses give no blocks
        assert clause_tables(*named[2], bits)[0][0] == (
            (0, 1, 3, 4) if bits == 8 else (0, 2))
        assert clause_tables(*named[1], bits)[0][0] == (0,)
        assert clause_tables(*named[3], bits)[1][0] == (0,)
        assert clause_tables([], named[0][1], bits) == ()


# --- clause-table pins --------------------------------------------------------

# the benchmark's two sparse-sample cells (k, n, m): their formulas reach
# the sampler's check
_SAMPLE_CELLS = ((3, 23, 46), (4, 19, 114))


def _pinned_table_cases():
    """(clauses, positions) of the pinned formulas, at the sampler's
    positions (bit v - 1 for x_v)."""
    formulas = [generate(GeneratorSpec(n=n, m=m, k=k, seed=seed))
                for seed in range(64) for k, n, m in [_SAMPLE_CELLS[seed % 2]]]
    rng = np.random.default_rng(61)
    top = [tuple(int(v) * int(rng.choice([-1, 1]))
                 for v in rng.choice(np.arange(57, 65), size=3, replace=False))
           for _ in range(10)]
    low = generate(GeneratorSpec(n=30, m=64, k=3, seed=62)).clauses
    formulas += [
        # positions 60-63: the 12-bit chunk 5 spans bits 60-71
        CnfFormula(top + [(61,), (-64,), (1, 64)], 64),
        CnfFormula([()] * 3, 5),                    # only empty clauses
        CnfFormula(low + ((), ()), 30),             # block 1 only empty
        CnfFormula([(1, 2), (), (-3,)], 3),         # an empty clause among others
        generate(GeneratorSpec(n=40, m=70, k=4, seed=63)),    # two blocks
        # no literal in chunk 1 (bits 12-23) nor in byte 2 (bits 16-23)
        CnfFormula([(1, -12), (-2, 5), (25, -36, 30), (-26, 3)], 36),
    ]
    return [(phi.clauses, {v: v - 1 for v in phi.variables})
            for phi in formulas]


def _offset_tables(clauses, positions, bits):
    """Each block's tables at ``bits`` bits a chunk, with the bit offset of
    each table's chunk."""
    return [([bits * c for c in chunks], tables)
            for chunks, tables in clause_tables(clauses, positions, bits)]


def _table_digest(bits):
    h = hashlib.sha256()
    for clauses, positions in _pinned_table_cases():
        for block, (offsets, tables) in enumerate(
                _offset_tables(clauses, positions, bits)):
            assert len(offsets) == len(tables) and tables.dtype == np.uint64
            for offset, table in zip(offsets, tables):
                h.update(f"{block} {offset} ".encode())
                h.update(table.astype("<u8").tobytes())
        h.update(b";")
    return h.hexdigest()


# sha256 of every table of the pinned formulas, by chunk width
TABLE_PINS = {
    8: "cb5dbff7ffed0dfb5dfb07d322b3221fe0ed3bc0b9a35864fb74b68079ae7160",
    12: "9b1a10e1d38b80adf280e0b30cbf4d6983a2ebd7fd6818e46b95b0b6703ccdeb",
}


def test_clause_tables_are_pinned():
    for bits, digest in TABLE_PINS.items():
        assert _table_digest(bits) == digest, bits


def test_kernel_buffers_are_not_shared_between_threads():
    # the kernel keeps its buffers across calls, one set per thread; two
    # threads checking different formulas at once must not mix them
    rng = np.random.default_rng(13)
    words = rng.integers(0, 1 << 20, size=4 * _SLICE_WORDS, dtype=np.uint64)
    tables = [_tables(generate(GeneratorSpec(n=20, m=m, k=3, seed=m)),
                      _CHUNK_BITS) for m in (30, 90)]
    want = [satisfied_rows(t, words) for t in tables]
    assert len(want[0]) != len(want[1])

    def agree(i):
        return all(np.array_equal(satisfied_rows(tables[i], words), want[i])
                   for _ in range(20))
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(agree, (0, 1), timeout=60)) == [True, True]


def test_brute_force_count_across_slices_matches_evaluate():
    phi = generate(GeneratorSpec(n=16, m=30, k=3, seed=21))
    assert 1 << phi.num_vars > _SLICE_WORDS
    expected = len(_models(phi, range(1 << phi.num_vars)))
    assert expected > 0
    assert brute_force_count(phi).value == expected


def _tables(phi, bits=8):
    return clause_tables(phi.clauses, bit_positions(phi.variables), bits)


def _joined(tables, nbits):
    chunks = list(satisfying_indices(tables, nbits))
    assert all(chunk.dtype == np.uint64 for chunk in chunks)
    return np.concatenate([np.empty(0, dtype=np.uint64), *chunks])


def test_satisfying_indices_equals_the_kernel_on_every_index():
    # the kernel path shares no code with the join
    rng = np.random.default_rng(34)
    cases = [CnfFormula([], 0), CnfFormula([()], 0), CnfFormula([()], 9),
             CnfFormula([], 17), CnfFormula([(-17,), (1, 17)], 17)]
    for seed in range(60):
        k = 1 + seed % 4
        n = int(rng.integers(k, 21))
        # below the number of distinct clauses, so no duplicate is forced
        m = int(rng.integers(0, min(150, math.comb(n, k) * 2 ** k // 2) + 1))
        cases.append(generate(GeneratorSpec(n=n, m=m, k=k, seed=800 + seed)))
    for phi in cases:
        tables, t = _tables(phi), phi.num_vars
        got = _joined(tables, t)
        want = satisfied_rows(_tables(phi, _CHUNK_BITS),
                              np.arange(1 << t, dtype=np.uint64))
        assert np.array_equal(got, want), phi
        assert (np.diff(got.astype(np.int64)) > 0).all()


def test_satisfying_indices_walks_high_slices_at_34_bits():
    # 18 high variables pinned by units leave one value of h, which the
    # join's call on the high half lists (a 2^34 index scan would not finish)
    rng = np.random.default_rng(35)
    pins = [int(v) if rng.integers(2) else -int(v) for v in range(17, 35)]
    low = generate(GeneratorSpec(n=16, m=40, k=3, seed=9))
    spans = [(1, pins[-1]), (-2, -pins[0]), (3, 4, -pins[5])]
    phi = CnfFormula(low.clauses + tuple((p,) for p in pins) + tuple(spans), 34)
    got = _joined(_tables(phi), 34)
    head = sum(1 << (p - 1) for p in pins if p > 0)
    # the pinned head leaves the spanning clauses on the low 16 bits alone
    rest = CnfFormula(low.clauses + tuple(
        tuple(code for code in c if abs(code) <= 16) for c in spans
        if not any(code in pins for code in c)), 16)
    low_models = satisfied_rows(_tables(rest, _CHUNK_BITS),
                                np.arange(1 << 16, dtype=np.uint64))
    assert 0 < len(low_models) < 1 << 16
    assert got.tolist() == (low_models + np.uint64(head)).tolist()


def _pinned_join_case(nbits, rng):
    """A formula over ``nbits`` variables, and the words that cover every
    index its units allow, ascending.  Units pin every variable above 16
    but at most three.  Block 0 holds 60 4-clauses on the low 16
    variables and 4 that span both halves; block 1 holds the units, a
    clause between the lowest and highest free variables (from 24 bits)
    and one more spanning clause, so only block 1 has clauses wholly in
    the high half."""
    free = sorted({17, 17 + (nbits - 17) // 2, nbits})
    pins = [v if rng.integers(2) else -v
            for v in range(17, nbits + 1) if v not in free]
    high = [v if rng.integers(2) else -v for v in free + pins]
    low = generate(GeneratorSpec(n=16, m=60, k=4, seed=nbits))
    spans = [(int(rng.integers(1, 17)) * (-1) ** int(rng.integers(2)),
              int(h)) for h in rng.choice(high, size=5)]
    inner = [(free[0], -free[-1])] if len(free) > 1 else []
    clauses = (low.clauses + tuple(spans[:4]) + tuple((p,) for p in pins)
               + tuple(inner) + tuple(spans[4:]))
    head = sum(1 << (p - 1) for p in pins if p > 0)
    offsets = sorted(sum(1 << (v - 1) for j, v in enumerate(free) if r >> j & 1)
                     for r in range(1 << len(free)))
    words = ((np.array(offsets, dtype=np.uint64) + np.uint64(head))[:, None]
             | np.arange(1 << 16, dtype=np.uint64)).ravel()
    return CnfFormula(clauses, nbits), words


def test_satisfying_indices_joins_pinned_high_halves_at_every_width():
    rng = np.random.default_rng(36)
    for nbits in (17, 24, 33, 40, 44, 48, 64):
        phi, words = _pinned_join_case(nbits, rng)
        tables = _tables(phi)
        assert len(tables) == 2
        with deadline(1.0):
            got = _joined(tables, nbits)
        want = satisfied_rows(_tables(phi, _CHUNK_BITS), words)
        assert 0 < len(want), nbits
        assert np.array_equal(got, want), nbits


def test_satisfying_indices_with_no_clause_wholly_in_the_high_half():
    phi = generate(GeneratorSpec(n=20, m=90, k=3, seed=37))
    spans = CnfFormula([c for c in phi.clauses
                        if any(abs(code) <= 16 for code in c)], 20)
    assert any(abs(code) > 16 for c in spans.clauses for code in c)
    tables = _tables(spans)
    want = satisfied_rows(_tables(spans, _CHUNK_BITS),
                          np.arange(1 << 20, dtype=np.uint64))
    assert 0 < len(want) < 1 << 20
    assert np.array_equal(_joined(tables, 20), want)


def test_satisfying_indices_sees_an_empty_clause_among_high_bytes():
    # block 1 touches only bytes 2 and up, and its empty clause leaves no
    # index; without it the same formula has models
    low = generate(GeneratorSpec(n=16, m=64, k=3, seed=38))
    high = tuple((v,) for v in range(17, 41))
    with deadline(1.0):
        assert len(_joined(_tables(CnfFormula(low.clauses + high, 40)), 40))
        empty = CnfFormula(low.clauses + high + ((),), 40)
        tables = _tables(empty)
        assert len(tables) == 2 and min(tables[1][0]) >= 2
        assert len(_joined(tables, 40)) == 0


def test_64_unit_clauses_leave_one_model():
    units = [v if v % 3 else -v for v in range(1, 65)]
    phi = CnfFormula([(u,) for u in units], 64)
    with deadline(1.0):
        got = _joined(_tables(phi), 64)
        count = brute_force_count(phi, max_vars=64)
    assert got.tolist() == [sum(1 << (u - 1) for u in units if u > 0)]
    assert count == ExactCount(value=1, nodes_visited=1 << 64)
