"""Monte Carlo estimation over a product sampling universe.

A set of variable-disjoint subformulas restricts the space we sample
from: each subformula contributes one of its own models.  A row of the
groups' product picks one model per group by mixed radix, group 0 the
most significant digit, and the variables outside the groups are fair
coins.  The universe is a set of disjoint nodes, each a contiguous range
of product rows times a cube that fixes some coins and leaves the rest
free: by default one node, every row and every coin, and after a cut the
nodes of its frontier (``cut.frontier``), which hold every model.  The
universe size U is exact integer arithmetic; the estimator scales the
empirical hit rate by U, so over a fixed sample count its expectation is
the true model count whenever the subformulas all appear in the target
formula and the nodes hold every model.

A draw packs an assignment into one 64-bit word.  The coins take one raw
64-bit draw under a node's mask, ORed with its fixed values.  One bounded
draw per word is a uniform position in the nodes laid end to end, each
holding 2^(its coins - the fewest) positions per row: the node holding it
is found from a guide table, and the position, shifted down, is a
uniform row of it.  The pick is exact in integers, so the draw is
uniform on the universe; a universe of one node, the root's among them,
is picked the same way.  The groups' models are merged, in order, into
product tables of at most ``_TABLE_ROWS`` rows each, and the row, split
by mixed radix, picks one row per table.  A uniform row of the product is
an independent uniform model per group, so the universe and the estimator
are those of one draw per group.

Before a cut's frontier is walked, a pilot draws a fixed ``PILOT_WORDS``
words from the root universe.  Its hits estimate the model count, which
sizes the walk and the run's slices; the pilot's own stream is separate,
so the run's draws do not depend on the universe the pilot chose.

How many draws a run takes: for 0 < eps < 1 the run stops at the
Upsilon_1-th hit, the stopping rule of Dagum, Karp, Luby and Ross ("An
Optimal Algorithm for Monte Carlo Estimation", SIAM J. Comput. 2000), and
reports U * Upsilon_1 / N, N being the index of that hit; run at failure
probability d, the rule is relative (eps, d) accurate whatever the count.
The paper's Chernoff count at delta/2, sized from the certified lower
bound ``ell``, caps the run, so it never draws more than the paper's
bound; if the cap ends it first, the hit rate is (eps, delta/2) accurate.
The rule runs at d = (delta/2)^3, so by the union bound the run fails
with probability at most delta.  At d = delta/2 (319 hits at eps 0.2,
delta 0.1) about one count in 1,200 misses eps, where the Chernoff count
missed practically never; at (delta/2)^3 (836 hits) about 2e-7 do.
At eps = 1 the run draws the Chernoff count at delta.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cnf import (_CHUNK_BITS, _SLICE_WORDS, ClauseTables, CnfFormula,
                  clause_tables, satisfied_rows)

if TYPE_CHECKING:  # pragma: no cover
    from .structs import Struct, StructSet

CHERNOFF_FACTOR = 3
_TABLE_ROWS = 1 << 16
_CELL_LIMIT = 200_000
# the pilot's fixed draw, and the smallest slice a sampling run draws
PILOT_WORDS = 1 << 13
_MIN_SLICE_WORDS = 1 << 12


@dataclass(frozen=True)
class Estimate:
    """Result record for a counting run.

    ``value`` is exact for exact routes and a rational for sampled ones
    (hits/samples times the universe size, kept unrounded).  Work counters
    accumulate over every phase that contributed to the result.
    ``lower_bound`` is a model count the run certified: the value itself
    on exact routes, the cut's count on sampled ones.  A flagged
    (``under_sampled``) value is never reported below it.
    ``samples_wanted`` is the Chernoff count, within the budget, that a
    sampled run was sized for; ``samples`` falls below it when the
    stopping rule ends the run first.  A pilot's draws are not among the
    ``samples``; ``ras.approx_count`` charges them to the budget.  ``universe_size`` is the U that a
    sampled run drew from (summed over recursion branches), and
    ``frontier_nodes`` the nodes the cut's frontier walk vetted to make
    it, 0 without a walk.
    """

    value: int | Fraction
    exact: bool
    epsilon: float
    delta: float
    samples: int = 0
    hits: int = 0
    seed: int | None = None
    under_sampled: bool = False
    decider_calls: int = 0
    branch_nodes: int = 0
    lower_bound: int = 0
    samples_wanted: int = 0
    universe_size: int = 0
    frontier_nodes: int = 0

    def __post_init__(self):
        if self.value < 0 or self.lower_bound < 0:
            raise ValueError("counts are non-negative")

    def with_lower_bound(self, lower_bound: int) -> "Estimate":
        """This estimate carrying ``lower_bound``; a flagged value below it
        is raised to it, a value that carries the guarantee is kept."""
        value = self.value
        if self.under_sampled and value < lower_bound:
            value = lower_bound
        return dataclasses.replace(self, value=value, lower_bound=lower_bound)


class Universe:
    """Sampling space: one model per subformula, and the variables outside
    them left to coins.

    An element is a row of the group product and a coin word.  Row i
    takes one model per group by mixed radix, group 0 the most
    significant digit: i = sum of r_g times the model counts of the groups
    after g, r_g indexing ``Struct.model_indices()``.  The universe is a
    tuple of disjoint nodes ``(lo, hi, word, mask)``: the rows [lo, hi)
    times a coin cube, bit v-1 for x_v, ``mask`` marking the variables
    outside the groups that are fair coins in it and ``word`` the values
    of the others; ``models`` counts the rows.  A new universe is one
    node, every row and every coin; ``over`` gives one with other nodes.
    Every draw, one node or many, picks a node in proportion to its size,
    so it is uniform on the universe.  A draw packs an assignment into
    one 64-bit word, so a variable index above 64 is refused.
    """

    def __init__(self, psi: "StructSet", n: int | None = None, *,
                 variables: Sequence[int] | None = None):
        if variables is not None:
            universe = tuple(sorted(set(variables)))
        elif n is not None:
            universe = tuple(range(1, n + 1))
        else:
            raise ValueError("need n or variables")
        if universe and universe[-1] > 64:
            raise ValueError("assignment words limited to variable indices <= 64")
        claimed = psi.all_vars
        outside = claimed.difference(universe)
        if outside:
            raise ValueError(
                f"subformula variable x{min(outside)} outside universe")
        self.structs = psi.structs
        self.variables = universe
        self.n = len(universe)
        self.free_vars = tuple(v for v in universe if v not in claimed)
        self.free_mask = sum(1 << (v - 1) for v in self.free_vars)
        self.models = math.prod(sigma.l_sigma for sigma in self.structs)
        # product tables and the draw's buffers, made on the first draw; a
        # universe ``over`` makes after that draw shares them
        self._tables: list[np.ndarray] | None = None
        # a group without a model leaves no node at all
        self._set_nodes(((0, self.models, 0, self.free_mask),)
                        if self.models else ())

    def over(self, nodes: Sequence[tuple[int, int, int, int]]) -> "Universe":
        """The universe of ``nodes`` over the same groups and variables,
        sharing this one's product tables if it has drawn already."""
        other = copy.copy(self)
        other._set_nodes(nodes)
        return other

    def _set_nodes(self, nodes) -> None:
        self.nodes = tuple(nodes)
        self.size = 0
        if not self.nodes:
            return
        # checked and laid out as uint64 columns, which hold a node's rows,
        # cube and size as sampling needs them to
        try:
            lo, hi, word, mask = np.array(self.nodes, dtype=np.uint64).T
        except OverflowError:
            raise ValueError("node outside the universe") from None
        # every index <= 64 and fewer than 2^|vars| models per group, so
        # models < 2^64
        if np.any(lo >= hi) or np.any(hi > np.uint64(self.models)):
            raise ValueError("node rows outside the group product")
        if np.any((word | mask) & ~np.uint64(self.free_mask) | word & mask):
            raise ValueError("node cube outside the variables left to coins")
        coins = np.array([node[3].bit_count() for node in self.nodes],
                         dtype=np.uint64)
        # the nodes, most coins first, hold consecutive positions of
        # [0, positions), 2^shift of them per row, shift being the node's
        # coins less the fewest.  Each node's first position is then a
        # multiple of its 2^shift, so a position shifted down, less the
        # first's, is a row offset.  Only the total can reach 2^64.
        least = coins.min()
        order = np.argsort(-coins.view(np.int64), kind="stable")
        lo, word, mask, held, shift = (a[order] for a in (
            lo, word, mask, (hi - lo) << (coins - least), coins - least))
        self._positions = sum(held.tolist())
        self.size = self._positions << int(least)
        self._first = np.zeros_like(held)
        np.cumsum(held[:-1], out=self._first[1:])
        self._last = self._first + (held - np.uint64(1))
        # wrapping uint64 arithmetic: the row is exact mod 2^64
        self._row_lo = lo - (self._first >> shift)
        self._shift, self._row_words, self._row_masks = shift, word, mask
        # the guide: bucket j, positions from j << bucket_bits on, starts in
        # node guide[j]; between len(nodes) and 64 len(nodes) buckets, so
        # that few buckets hold more than one node
        self._bucket_bits = max(0, self._positions.bit_length()
                                - (32 * len(self.nodes)).bit_length())
        starts = np.arange(((self._positions - 1) >> self._bucket_bits) + 1,
                           dtype=np.uint64) << np.uint64(self._bucket_bits)
        self._guide = np.searchsorted(self._first, starts, side="right") - 1

    def sample_words(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vector of assignment words, bit (v-1) = value of x_v.

        A draw takes a raw 64-bit coin word, then a node and a uniform row
        of it (``_pick``), whose cube masks the coins and sets its fixed
        values, and whose row is split into one model per group."""
        if self.size == 0:
            raise ValueError("cannot sample an empty universe")
        words = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
        node, rows = self._pick(count, rng)
        words &= np.take(self._row_masks, node)
        words |= np.take(self._row_words, node)
        if not self.structs:
            return words
        self._product()
        for start in range(0, count, _SLICE_WORDS):
            self._gather(words[start:start + _SLICE_WORDS],
                         rows[start:start + _SLICE_WORDS])
        return words

    def _pick(self, count: int, rng: np.random.Generator):
        """``count`` nodes, each drawn in proportion to its size, and a
        uniform product row of each, from one bounded draw per word: a
        uniform position, found from its guide bucket and at most a few
        steps on (indexed search, Chen and Asau 1974), then shifted down
        within its node.  Exact in integers."""
        position = rng.integers(0, self._positions, size=count, dtype=np.uint64)
        node = np.take(self._guide,
                       (position >> np.uint64(self._bucket_bits)).view(np.int64))
        ahead = np.flatnonzero(position > np.take(self._last, node))
        while len(ahead):
            node[ahead] += 1
            ahead = ahead[position[ahead] > np.take(self._last, node[ahead])]
        if self.structs:
            # wrapping uint64 arithmetic: the row is exact mod 2^64
            position >>= np.take(self._shift, node)
            position += np.take(self._row_lo, node)
        return node, position

    def _product(self) -> None:
        """Build the groups' product tables and the gather's buffers once."""
        if self._tables is None:
            self._tables = _product_tables(
                [_model_words(sigma) for sigma in self.structs], _TABLE_ROWS)
            self._digit = np.empty(_SLICE_WORDS, dtype=np.uint64)
            self._row = np.empty(_SLICE_WORDS, dtype=np.uint64)

    def _gather(self, part: np.ndarray, index: np.ndarray) -> None:
        """OR into ``part`` the models of its product rows ``index``, at
        most a slice of them; ``index`` is overwritten.

        A row is split by mixed radix into one row per table, the last
        table the least significant digit (at most 2^64 rows: fewer than
        2^|vars| models per group, every index <= 64).  Every digit is
        below its table's length, so its int64 view is exact.  A digit is
        the row less its quotient times the radix: uint64 divmod costs
        about three times a floor_divide.  Slices keep the row and both
        buffers in L2 cache."""
        first, *rest = self._tables
        digit, row = self._digit[:len(part)], self._row[:len(part)]
        for table in reversed(rest):
            radix = np.uint64(len(table))
            np.floor_divide(index, radix, out=row)
            np.multiply(row, radix, out=digit)
            np.subtract(index, digit, out=digit)
            index, row = row, index
            part |= np.take(table, digit.view(np.int64), out=row, mode="clip")
        part |= np.take(first, index.view(np.int64), out=row, mode="clip")

    def decode_word(self, word: int) -> dict[int, bool]:
        word = int(word)
        return {v: bool((word >> (v - 1)) & 1) for v in self.variables}

    def enumerate_words(self) -> np.ndarray:
        """All assignment words in the universe (for uniformity checks)."""
        if self.size > _CELL_LIMIT:
            raise ValueError(f"universe of size {self.size} exceeds "
                             f"enumeration limit {_CELL_LIMIT}")
        cells = [np.zeros(0, dtype=np.uint64)]
        for lo, hi, word, mask in self.nodes:
            rows = np.zeros(hi - lo, dtype=np.uint64)
            if self.structs:
                self._product()
                for start in range(lo, hi, _SLICE_WORDS):
                    stop = min(hi, start + _SLICE_WORDS)
                    self._gather(rows[start - lo:stop - lo],
                                 np.arange(start, stop, dtype=np.uint64))
            coins = [np.array([0, 1 << (v - 1)], dtype=np.uint64)
                     for v in self.free_vars if mask >> (v - 1) & 1]
            [node] = _product_tables(
                [rows | np.uint64(word), *coins], _CELL_LIMIT)
            cells.append(node)
        cells = np.concatenate(cells)
        cells.sort()
        return cells


def _model_words(sigma: "Struct") -> np.ndarray:
    """A group's models as assignment words, bit (v-1) = value of x_v;
    a ``Universe`` refuses indices above 64, so every v <= 64."""
    indices = sigma.model_indices()
    words = np.zeros(indices.shape, dtype=np.uint64)
    for i, v in enumerate(sigma.vars):
        words |= ((indices >> np.uint64(i)) & np.uint64(1)) << np.uint64(v - 1)
    return words


def _product_tables(parts: Sequence[np.ndarray], cap: int) -> list[np.ndarray]:
    """Merge word tables, in order, into product tables of at most ``cap``
    rows: row i*len(b) + j of the merge of a and b is a[i] | b[j].  A part
    larger than ``cap`` keeps a table of its own."""
    tables: list[np.ndarray] = []
    for part in parts:
        if tables and len(tables[-1]) * len(part) <= cap:
            tables[-1] = (tables[-1][:, None] | part[None, :]).reshape(-1)
        else:
            tables.append(part)
    return tables


def sample_universe(universe: Universe, rng: np.random.Generator) -> dict[int, bool]:
    """One uniform draw from the universe."""
    return universe.decode_word(universe.sample_words(1, rng)[0])


def sample_size(universe_size: int, ell: int, eps: float, delta: float) -> int:
    """Samples needed for a relative (eps, delta) guarantee given that the
    true count is at least ``ell``:
    ceil(CHERNOFF_FACTOR * ln(2/delta) * U / (eps^2 ell)).
    """
    if universe_size < 0 or ell < 1:
        raise ValueError("need universe_size >= 0 and ell >= 1")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    ratio = Fraction(universe_size, ell)
    need = Fraction(CHERNOFF_FACTOR) * Fraction(math.log(2.0 / delta)) * ratio \
        / Fraction(eps) ** 2
    return max(1, math.ceil(need))


def _stop_hits(eps: float, delta: float) -> int:
    """Upsilon_1 of the stopping rule: the hits after which a run with
    0 < eps < 1 stops, ceil(1 + (1 + eps) 4 (e - 2) ln(2/delta) / eps^2).
    Rounding up only raises the rule's Upsilon, which tightens its delta.
    """
    return math.ceil(1 + (1 + eps) * 4 * (math.e - 2) * math.log(2.0 / delta)
                     / eps ** 2)


def _hit_index(words: np.ndarray, kept: np.ndarray, need: int) -> int:
    """Position in ``words`` of its ``need``-th surviving word.

    ``kept`` holds the survivors in input order, and whether a word
    survives depends on the word alone, so that survivor is the c-th copy
    of its word in ``words``, c being its copies among the first ``need``.
    """
    word = kept[need - 1]
    copies = int(np.count_nonzero(kept[:need] == word))
    return int(np.flatnonzero(words == word)[copies - 1])


def run_hits(count: int, ell: int, eps: float, delta: float) -> int:
    """Hits h such that h U / ``count`` bounds the draws of an
    ``mc_estimate`` run over a universe of size U, given at least
    ``count`` >= ``ell`` models: under the rule its Upsilon_1, since the
    run ends by that hit, about Upsilon_1 U / #models draws in; at eps = 1
    the Chernoff count's expected hits at ``count`` models."""
    if eps < 1:
        return _stop_hits(eps, (delta / 2) ** 3)
    return sample_size(count, ell, eps, delta)


@dataclass(frozen=True)
class Pilot:
    """A fixed first draw of ``PILOT_WORDS`` words from the root universe.

    ``models`` is its estimate of the model count, hits * U /
    ``PILOT_WORDS`` (0 with no hit).  It sizes the frontier walk and the
    sampling run's first slice; the universe, with its product tables,
    and the check's clause tables are reused by the run.
    """

    universe: Universe
    tables: ClauseTables
    models: int


def run_pilot(phi: CnfFormula, psi: "StructSet",
              rng: np.random.Generator) -> Pilot:
    """Draw the pilot; ``rng`` must be a stream of its own, so that the
    estimator's draws do not depend on the universe the pilot chose."""
    universe = Universe(psi, variables=phi.variables)
    tables = _check_tables(phi, psi)
    models = 0
    if universe.size:
        words = universe.sample_words(PILOT_WORDS, rng)
        models = len(satisfied_rows(tables, words)) * universe.size // PILOT_WORDS
    return Pilot(universe, tables, models)


def _check_tables(phi: CnfFormula, psi: "StructSet") -> ClauseTables:
    """The check's clause tables: every draw satisfies the groups' own
    clauses, so only the rest are checked.  A group clause that ``phi``
    lacks is refused: its draws would miss models of ``phi``."""
    drawn = {c for sigma in psi for c in sigma.clauses}
    if not drawn <= set(phi.clauses):
        raise ValueError("subformula clause missing from the formula")
    return clause_tables([c for c in phi.clauses if c not in drawn],
                         {v: v - 1 for v in phi.variables}, _CHUNK_BITS)


def mc_estimate(phi: CnfFormula, psi: "StructSet", ell: int, eps: float,
                delta: float, rng: np.random.Generator | None = None, *,
                seed: int | None = None,
                sample_budget: int | None = None,
                nodes: Sequence[tuple[int, int, int, int]] | None = None,
                pilot: Pilot | None = None) -> Estimate:
    """Sampled count: draw from the universe, scale hit rate by its size.

    ``nodes``, if given, are the universe's nodes (see ``Universe``); they
    must hold every model of ``phi``.  ``pilot``, run over the same formula
    and groups, lends its tables and its estimate of the count.

    For 0 < eps < 1 the run stops at the ``_stop_hits(eps, (delta/2)^3)``-th
    hit and reports U * hits / N, N being that hit's index, unless the
    Chernoff count ``sample_size(U, ell, eps, delta/2)`` is drawn first;
    then it reports the hit rate times U.  Each ending fails with
    probability at most delta/2, the second when the true count is >= ell,
    so the run is (eps, delta) accurate.  At eps = 1 it draws
    ``sample_size(U, ell, eps, delta)``.  If ``sample_budget`` ends the run
    first, the result is flagged ``under_sampled`` instead of silently
    weakening anything; a budget below one sample is refused.

    Words are drawn and checked a slice at a time.  A slice holds the
    draws the run still expects, (stop - hits) U / N^, N^ being the
    count estimated by the hits so far or else by the pilot, within
    [``_MIN_SLICE_WORDS``, ``_SLICE_WORDS``]; with neither it is a full
    slice.  The hit index and the cap are exact whatever the slices.
    """
    if sample_budget is not None and sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    if rng is None:
        rng = np.random.default_rng(seed)

    if pilot is None:
        universe = Universe(psi, variables=phi.variables)
        tables, models = _check_tables(phi, psi), 0
    else:
        universe, tables, models = pilot.universe, pilot.tables, pilot.models
    if nodes is not None:
        universe = universe.over(nodes)
    if universe.size == 0:
        return Estimate(value=0, exact=True, epsilon=eps, delta=delta, seed=seed)
    rule = eps < 1
    wanted = sample_size(universe.size, ell, eps, delta / 2 if rule else delta)
    t = wanted
    under = False
    if sample_budget is not None and wanted > sample_budget:
        t = sample_budget
        under = True
    # without the rule no run reaches t + 1 hits
    stop = _stop_hits(eps, (delta / 2) ** 3) if rule else t + 1

    hits = 0
    done = 0
    while done < t:
        if hits:
            expect = (stop - hits) * done // hits
        elif models:
            expect = (stop - hits) * universe.size // models
        else:
            expect = _SLICE_WORDS
        size = min(_SLICE_WORDS, max(_MIN_SLICE_WORDS, expect), t - done)
        words = universe.sample_words(size, rng)
        # survivors, not nonzero words: the all-false word 0 can be a model
        kept = satisfied_rows(tables, words)
        if hits + len(kept) >= stop:
            # the rule ended the run, so no budget weakened it
            done += _hit_index(words, kept, stop - hits) + 1
            hits, under = stop, False
            break
        hits += len(kept)
        done += len(words)
    return Estimate(value=Fraction(hits * universe.size, done), exact=False,
                    epsilon=eps, delta=delta, samples=done, hits=hits,
                    seed=seed, under_sampled=under, samples_wanted=t,
                    universe_size=universe.size)
