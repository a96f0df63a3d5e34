"""CNF formulas, DIMACS I/O, and restriction by partial assignments.

Variables are positive 1-based integers, and a clause is a tuple of
signed DIMACS codes (``-v`` negates ``x_v``).  A formula carries the
tuple of variables its model count ranges over (its universe).
Restricting by a partial assignment removes the fixed variables from the
universe without renumbering the survivors, so literals keep their
original indices all the way down a search tree and partial counts stay
coherent.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class DimacsWarning(UserWarning):
    """Recoverable anomaly in DIMACS input (tautology, count mismatch)."""


def check_clause(codes: Iterable[int]) -> tuple[int, ...]:
    """``codes`` as a clause; ValueError for a 0 code or a repeated variable
    (including a literal next to its negation)."""
    c = tuple(codes)
    if 0 in c:
        raise ValueError("0 terminates clauses and is not a literal")
    if len({abs(code) for code in c}) != len(c):
        raise ValueError(f"repeated variable in clause {c}")
    return c


class CnfFormula:
    """Immutable CNF over an explicit variable universe.

    ``clauses`` is a tuple of clauses, each a tuple of signed DIMACS codes
    (``-v`` is the negation of ``x_v``) over distinct variables, in input
    order.  ``variables`` is the ascending tuple of free variables;
    ``num_vars`` is its length and the exponent in the 2^n model-count
    convention.  ``k`` bounds clause length (the observed maximum unless
    overridden upward).
    """

    __slots__ = ("clauses", "variables", "k", "_varset")

    def __init__(self, clauses, num_vars: int | None = None, *,
                 variables: Iterable[int] | None = None, k: int | None = None):
        cls_tuple = tuple(map(check_clause, clauses))
        if variables is not None:
            universe = tuple(sorted(set(variables)))
            if universe and universe[0] < 1:
                raise ValueError("variables are positive integers")
            if num_vars is not None and num_vars != len(universe):
                raise ValueError("num_vars disagrees with explicit variables")
        elif num_vars is not None:
            if num_vars < 0:
                raise ValueError("num_vars must be non-negative")
            universe = tuple(range(1, num_vars + 1))
        else:
            top = max((abs(code) for c in cls_tuple for code in c), default=0)
            universe = tuple(range(1, top + 1))
        varset = frozenset(universe)
        for c in cls_tuple:
            for code in c:
                if abs(code) not in varset:
                    raise ValueError(
                        f"literal {code} outside the variable universe")
        width = max((len(c) for c in cls_tuple), default=0)
        if k is None:
            k = width
        elif k < width:
            raise ValueError(f"clause of length {width} exceeds declared k={k}")
        self._fill(cls_tuple, universe, k, varset)

    def _fill(self, clauses, universe, k, varset) -> None:
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "variables", universe)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_varset", varset)

    @classmethod
    def _checked(cls, clauses: tuple[tuple[int, ...], ...],
                 universe: tuple[int, ...]) -> "CnfFormula":
        """Skip validation for parts taken from a valid formula: clauses
        over the ascending ``universe``, k the observed width."""
        self = object.__new__(cls)
        self._fill(clauses, universe, max(map(len, clauses), default=0),
                   frozenset(universe))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CnfFormula is immutable")

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def varset(self) -> frozenset[int]:
        return self._varset

    def int_clauses(self) -> tuple[tuple[int, ...], ...]:
        """The clauses, under the name the benchmark scripts call."""
        return self.clauses

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.clauses == other.clauses
                and self.variables == other.variables and self.k == other.k)

    def __hash__(self) -> int:
        return hash((self.clauses, self.variables, self.k))

    def __repr__(self) -> str:
        return (f"CnfFormula({self.num_clauses} clauses, "
                f"{self.num_vars} vars, k={self.k})")


# ---------------------------------------------------------------------------
# DIMACS

@dataclass
class ParseStats:
    """Counters for anomalies seen while parsing."""

    tautologies_dropped: int = 0
    duplicate_literals_merged: int = 0
    declared_clauses: int = 0
    parsed_clauses: int = 0

    @property
    def clause_count_mismatch(self) -> bool:
        return self.declared_clauses != self.parsed_clauses


def parse_dimacs(text: str, *, stats: ParseStats | None = None) -> CnfFormula:
    """Parse DIMACS CNF text.

    Comment lines start with ``c``.  A line starting with ``%`` ends the
    clause data, so SATLIB's ``%`` / ``0`` trailer is not read as an
    empty clause.  Clauses are runs of signed integers terminated by
    ``0`` and may span lines.  Tautological clauses are dropped with a
    warning, duplicate literals inside a clause are merged, and a
    clause-count mismatch against the header is reported as a warning
    rather than an error.
    """
    if stats is None:
        stats = ParseStats()
    num_vars = None
    declared = 0
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line[0] == "c":
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: repeated header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"line {lineno}: negative header counts")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        tokens.extend(line.split())

    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    stats.declared_clauses = declared

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    seen_vars: set[int] = set()
    taut = False
    for tok in tokens:
        try:
            code = int(tok)
        except ValueError as exc:
            raise DimacsError(f"bad token {tok!r} in clause data") from exc
        if code == 0:
            if not taut:
                clauses.append(tuple(current))
            else:
                stats.tautologies_dropped += 1
            current, seen_vars, taut = [], set(), False
            continue
        var = abs(code)
        if var > num_vars:
            raise DimacsError(f"literal {code} outside [1, {num_vars}]")
        if var in seen_vars:
            if (-code) in current:
                taut = True
            else:
                stats.duplicate_literals_merged += 1
            continue
        seen_vars.add(var)
        current.append(code)
    if current:
        # unterminated trailing clause: accept it but complain
        clauses.append(tuple(current))
        warnings.warn("final clause not terminated by 0", DimacsWarning)

    stats.parsed_clauses = len(clauses)
    if stats.tautologies_dropped:
        warnings.warn(
            f"dropped {stats.tautologies_dropped} tautological clause(s)",
            DimacsWarning)
    if stats.clause_count_mismatch:
        warnings.warn(
            f"header declares {declared} clauses, found {stats.parsed_clauses}",
            DimacsWarning)
    # the loop above already rejected variables outside the header's range,
    # merged repeated literals and dropped tautologies
    return CnfFormula._checked(tuple(clauses), tuple(range(1, num_vars + 1)))


def serialize_dimacs(phi: CnfFormula, *, comment: str | None = None) -> str:
    """Render a formula as DIMACS text (dense universes round-trip)."""
    top = phi.variables[-1] if phi.variables else 0
    lines = []
    if comment:
        lines.extend(f"c {row}" for row in comment.splitlines())
    lines.append(f"p cnf {top} {phi.num_clauses}")
    for c in phi.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Semantics

def vars_of(clauses: Iterable[tuple[int, ...]]) -> set[int]:
    """The variables the clauses mention."""
    return {abs(code) for c in clauses for code in c}


def evaluate(phi: CnfFormula, assignment: Mapping[int, bool]) -> bool:
    """Truth value of ``phi`` under a total assignment of its universe."""
    for v in phi.variables:
        if v not in assignment:
            raise ValueError(f"x{v} is unassigned")
    return all(any(assignment[abs(code)] == (code > 0) for code in c)
               for c in phi.clauses)


def assign(clauses: Iterable[tuple[int, ...]],
           assignment: Mapping[int, bool]) -> tuple[tuple[int, ...], ...]:
    """Fix some variables in int clauses, keeping the clause order.

    Clauses with a satisfied literal disappear; falsified literals are
    stripped (possibly leaving an empty, unsatisfiable clause).
    """
    true = {v if value else -v for v, value in assignment.items()}
    false = {-code for code in true}
    # list comprehensions, not generators: this runs at every tree node
    return tuple([c if false.isdisjoint(c)
                  else tuple([x for x in c if x not in false])
                  for c in clauses if true.isdisjoint(c)])


def restrict(phi: CnfFormula, assignment: Mapping[int, bool]) -> CnfFormula:
    """``assign`` on a formula: the fixed variables leave the universe,
    and the rest keep their indices."""
    for v in assignment:
        if v not in phi._varset:
            raise ValueError(f"x{v} is not free in this formula")
    return CnfFormula._checked(
        assign(phi.clauses, assignment),
        tuple([v for v in phi.variables if v not in assignment]))


# ---------------------------------------------------------------------------
# Bit-parallel helpers (shared by the exact counter, the groups and the sampler)
#
# An assignment is a uint64 word with one bit per variable position (bit
# set = true).  A clause set is checked by table lookup: clauses go in
# blocks of up to _TABLE_CLAUSES, and each block keeps one uint64 table
# per chunk of the word its clauses touch.  A chunk is a byte (256
# entries) on the exact routes and _CHUNK_BITS bits (4,096 entries,
# 32 KB) in the sampler.  Bit j of ``T_c[x]`` is set when chunk value x
# agrees, on clause j's literals in chunk c, with the one assignment of
# them that falsifies clause j.  ANDing the entries a word selects leaves
# exactly the clauses it falsifies, so a word satisfies the block when
# the AND is 0.  A clause with no literal in chunk c (an empty clause in
# every chunk) has its bit set in every entry of T_c.
#
# The sampler's check, ``satisfied_rows``, reads the _CHUNK_BITS-bit
# tables, so a word of up to 24 variables takes two gathers per block,
# each indexed by a shift and a mask.  It runs over slices of
# _SLICE_WORDS words, small enough that a slice and its buffers stay in
# L2, and later blocks see only the survivors of earlier ones.
#
# Listing every satisfying index of [0, 2^n) needs no gather per index:
# ``satisfying_indices`` joins the low _HALF_BITS bits of the index with
# the bits above them, which it lists by calling itself on their bytes,
# and tests a pair only on the clauses that span both halves.

_TABLE_CLAUSES = 64
_SLICE_WORDS = 1 << 15
_HALF_BITS = 16
_CHUNK_BITS = 12

ClauseTables = tuple[tuple[tuple[int, ...], np.ndarray], ...]
_buffers = threading.local()


def bit_positions(variables: Iterable[int]) -> dict[int, int]:
    """Map each variable to a distinct bit position, in sorted order."""
    return {v: i for i, v in enumerate(sorted(variables))}


def clause_tables(clauses: Iterable[tuple[int, ...]],
                  positions: Mapping[int, int], bits: int = 8) -> ClauseTables:
    """Lookup tables that check ``clauses`` on assignment words, one per
    ``bits``-bit chunk of the word (8, or _CHUNK_BITS for the sampler).

    One ``(chunks, tables)`` pair per block of up to ``_TABLE_CLAUSES``
    clauses: ``tables[i]`` is the 2^bits-entry table of chunk
    ``chunks[i]`` (bits ``bits * chunks[i]`` and up).  A chunk that holds
    no literal of the block is skipped, and a block touching no chunk
    (only empty clauses) keeps chunk 0.  No clauses, no blocks.
    """
    touched, falsify = [], []   # per clause: literal bits, falsifying values
    for c in clauses:
        t = f = 0
        for code in c:
            where = positions[abs(code)]
            if where >= 64:
                raise ValueError("bitmask view limited to 64 positions")
            t |= 1 << where
            if code < 0:
                f |= 1 << where
        touched.append(t)
        falsify.append(f)
    # a chunk's entry ANDs the entries of its units, bytes when 8 divides
    # ``bits`` and nibbles otherwise: a value agrees with a clause's
    # falsifying assignment on a chunk exactly when it does on each unit
    unit = 8 if bits % 8 == 0 else 4
    per = bits // unit
    values = np.arange(1 << unit, dtype=np.uint8)[:, None]
    blocks = []
    for start in range(0, len(touched), _TABLE_CLAUSES):
        stop = start + _TABLE_CLAUSES
        union = 0
        for t in touched[start:stop]:
            union |= t
        used = tuple(c for c in range(-(-64 // bits))
                     if (union >> (bits * c)) & ((1 << bits) - 1)) or (0,)
        # a chunk's units past bit 63 lie outside the word
        units = [u for c in used for u in range(per * c, per * c + per)
                 if unit * u < 64]
        # unit u of both masks of every clause, one row per used unit
        digits = (np.array([touched[start:stop], falsify[start:stop]],
                           dtype="<u8").view(np.uint8).reshape(2, -1, 8))
        if unit == 4:
            digits = np.stack((digits & 15, digits >> 4),
                              axis=3).reshape(2, -1, 16)
        t_units, f_units = digits[:, :, units].transpose(0, 2, 1)[:, :, None]
        agree = np.zeros((len(units), 1 << unit, _TABLE_CLAUSES), dtype=bool)
        agree[:, :, :t_units.shape[2]] = (values & t_units) == f_units
        tables = np.packbits(agree, axis=2, bitorder="little").view("<u8")
        tables = tables[:, :, 0].astype(np.uint64, copy=False)
        if per > 1:
            # the chunk's index reads its highest unit first; a unit
            # outside the word matches every value
            ones = np.full(1 << unit, ~np.uint64(0))
            of_unit = dict(zip(units, tables))
            chunks = []
            for c in used:
                entry = ones[:1]
                for u in reversed(range(per * c, per * c + per)):
                    entry = (entry[:, None] & of_unit.get(u, ones)).ravel()
                chunks.append(entry)
            tables = np.array(chunks)
        blocks.append((used, tables))
    return tuple(blocks)


def _scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's buffers for ``satisfied_rows``: chunk values, the AND
    of the gathered entries, and one gathered entry, ``_SLICE_WORDS`` each.

    They outlive the call.  The allocator hands freed 256 KB buffers back
    to the system, so buffers made per call page-faulted about 130 times
    a 2^15-word call, which cost as much as the gathers.  Each call writes
    a buffer before it reads it, so no state passes between calls.
    """
    scratch = getattr(_buffers, "scratch", None)
    if scratch is None:
        scratch = _buffers.scratch = tuple(
            np.empty(_SLICE_WORDS, dtype=np.uint64) for _ in range(3))
    return scratch


def satisfied_rows(tables: ClauseTables, words: np.ndarray) -> np.ndarray:
    """The assignment words that satisfy every clause, in input order.

    ``tables`` comes from ``clause_tables`` at _CHUNK_BITS bits.  Words
    are checked in slices of ``_SLICE_WORDS``; within a slice each block
    gathers one table entry per chunk with ``np.take``, ANDs them and
    keeps the words whose AND is 0, so later blocks see only the
    survivors of earlier ones.  The
    all-false word 0 survives when it is a model.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    index, falsified, gathered = _scratch()
    mask = np.uint64((1 << _CHUNK_BITS) - 1)
    kept = []
    for start in range(0, len(words), _SLICE_WORDS):
        part = words[start:start + _SLICE_WORDS]
        for chunks, table in tables:
            n = len(part)
            if not n:
                break
            idx, acc, entry = index[:n], falsified[:n], gathered[:n]
            # chunk values are below 2^_CHUNK_BITS, so their int64 view is
            # exact and "clip" never clips; unlike the default "raise" it
            # lets np.take write straight into ``out``
            for i, chunk in enumerate(chunks):
                if chunk:
                    np.right_shift(part, np.uint64(chunk * _CHUNK_BITS),
                                   out=idx)
                    np.bitwise_and(idx, mask, out=idx)
                else:
                    np.bitwise_and(part, mask, out=idx)
                np.take(table[i], idx.view(np.int64), out=entry if i else acc,
                        mode="clip")
                if i:
                    acc &= entry
            part = part[acc == 0]
        kept.append(part)
    return np.concatenate(kept) if kept else words


def _half_masks(used: tuple[int, ...], table: np.ndarray, first: int,
                digits: tuple[np.ndarray, ...], start) -> np.ndarray:
    """``start`` ANDed with one block's table entries for a run of bytes:
    byte ``first + j`` of each index is ``digits[j]``, and the block's
    bytes outside the run are left out.  The digit arrays broadcast
    together, so a column of byte-1 values against a row of byte-0 values
    covers a whole 2^16 range with one AND per value."""
    acc = start
    for i, b in enumerate(used):
        if first <= b < first + len(digits):
            acc = acc & table[i, digits[b - first]]
    return np.broadcast_to(acc, np.broadcast(*digits).shape)


def satisfying_indices(tables: ClauseTables, nbits: int) -> Iterator[np.ndarray]:
    """Every index in ``[0, 2^nbits)`` that satisfies all clauses, as
    ascending chunks.

    A meet-in-the-middle join over the index split into its low
    ``_HALF_BITS`` bits ``l`` and the bits above them ``h``.  In each
    block, ``L[l]`` ANDs the table entries of bytes 0-1 and ``H[h]`` those
    of bytes 2 and up, and ``h * 2^16 + l`` satisfies the block exactly
    when ``L[l] & H[h] == 0``.  A clause with no literal in one half has
    its bit set in every mask of that half, so the other half decides it
    alone: a broadcast sieve drops the ``l`` that falsify one, and the
    ``h`` that falsify none come from this function called on the tables
    of bytes 2 and up, with every clause that has a low literal cleared.
    The surviving pairs are tested on the blocks left with a clause that
    spans both halves, in slabs of whole ``h`` rows by every low
    survivor, read row-major so the output stays ascending.  No chunk
    holds more than 2^16 values, which bounds the memory at every
    ``nbits`` up to 64.
    """
    low_bits = min(nbits, _HALF_BITS)
    # per block: the clauses with no literal in the low half, then in the
    # high half (all ones when the block touches no byte of that half)
    missing = []
    for used, table in tables:
        miss = [~np.uint64(0), ~np.uint64(0)]
        for i, b in enumerate(used):
            miss[b >= 2] &= np.bitwise_and.reduce(table[i])
        missing.append(miss)
    # the low values that falsify no clause without a high literal
    low = None
    digits = (np.arange(min(1 << low_bits, 256)),
              np.arange(1 << max(low_bits - 8, 0))[:, None])
    for (used, table), miss in zip(tables, missing):
        clear = (_half_masks(used, table, 0, digits, miss[1]) == 0).ravel()
        low = np.flatnonzero(clear) if low is None else low[clear]
        digits = (low & 0xFF, low >> 8)
    low = np.arange(1 << low_bits) if low is None else low
    if nbits == low_bits:
        # no high half: every clause misses it, so the sieve decided all
        yield low.astype(np.uint64)
        return
    if not len(low):
        return
    # blocks with a high-only clause, every clause with a low literal cleared
    high_tables = tuple(
        (tuple(b - 2 for b in used if b >= 2),
         table[np.array(used) >= 2] & miss[0])
        for (used, table), miss in zip(tables, missing) if miss[0] & ~miss[1])
    # the join reads only blocks with a clause that spans both halves
    mixed = [(used, table) for (used, table), miss in zip(tables, missing)
             if np.bitwise_or.reduce(table[0]) & ~(miss[0] | miss[1])]
    low_masks = [_half_masks(used, table, 0, (low & 0xFF, low >> 8),
                             ~np.uint64(0)) for used, table in mixed]
    low = low.astype(np.uint64)
    rows = max(1, _SLICE_WORDS // len(low))
    high_bytes = range(max((used[-1] - 1 for used, _ in mixed), default=0))
    for high in satisfying_indices(high_tables, nbits - _HALF_BITS):
        digits = tuple((high >> np.uint64(8 * j)) & np.uint64(0xFF)
                       for j in high_bytes)
        high_masks = [_half_masks(used, table, 2, digits, ~np.uint64(0))
                      for used, table in mixed]
        heads = high << np.uint64(_HALF_BITS)
        for start in range(0, len(high), rows):
            part = slice(start, start + rows)
            pairs = heads[part, None] | low
            if mixed:
                clash = np.zeros(pairs.shape, dtype=bool)
                for low_mask, high_mask in zip(low_masks, high_masks):
                    clash |= (high_mask[part, None] & low_mask) != 0
                pairs = pairs[~clash]
            yield pairs.ravel()
