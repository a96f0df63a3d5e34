"""Monte Carlo estimation over a product sampling universe.

A set of variable-disjoint subformulas restricts the space we sample
from: each subformula contributes one of its own models.  The variables
outside them come from one of a set of disjoint cubes, each fixing some of
them and leaving the rest fair coins: by default one cube of coins, and
without groups the cut's frontier (``cut.frontier``), whose cubes hold
every model.  The universe size U is exact integer arithmetic; the
estimator scales the empirical hit rate by U, so over a fixed sample
count its expectation is the true model count whenever the subformulas
all appear in the target formula and the cubes hold every model.

A draw packs an assignment into one 64-bit word.  The free variables take
one raw 64-bit draw under a cube's mask, ORed with the cube's fixed
values.  With more than one cube, the cube is picked in proportion to its
size from an exact integer alias table (Walker's method), so the draw is
uniform on the cubes; one cube skips the pick.  The groups' models are
merged, in order, into product tables of at most ``_TABLE_ROWS`` rows each; one
uniform ``uint64`` index into the product of the tables, split by mixed
radix, picks one row per table.  A uniform index into the product is an
independent uniform model per group, so the universe and the estimator
are those of one draw per group.

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

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cnf import (_CHUNK_BITS, _SLICE_WORDS, CnfFormula, clause_tables,
                  satisfied_rows)

if TYPE_CHECKING:  # pragma: no cover
    from .structs import Struct, StructSet

CHERNOFF_FACTOR = 3
_TABLE_ROWS = 1 << 16
_CELL_LIMIT = 200_000


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
    stopping rule ends the run first.  ``universe_size`` is the U that a
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
    them drawn from one of disjoint cubes.

    A cube is ``(word, mask)``, bit v-1 for x_v: ``mask`` marks the
    variables that are fair coins in it, ``word`` the values of the other
    variables outside the groups.  Without ``cubes`` the universe has one
    cube, all coins.  A draw picks a cube in proportion to its size, so
    it is uniform on the universe.
    """

    def __init__(self, psi: "StructSet", n: int | None = None, *,
                 variables: Sequence[int] | None = None,
                 cubes: Sequence[tuple[int, int]] | None = None):
        if variables is not None:
            universe = tuple(sorted(set(variables)))
        elif n is not None:
            universe = tuple(range(1, n + 1))
        else:
            raise ValueError("need n or variables")
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
        self.cubes = ((0, self.free_mask),) if cubes is None else tuple(cubes)
        for word, mask in self.cubes:
            if (word | mask) & ~self.free_mask or word & mask:
                raise ValueError("cube outside the variables left to coins")
        self._models = math.prod(sigma.l_sigma for sigma in self.structs)
        self.size = self._models * sum(1 << mask.bit_count()
                                       for _, mask in self.cubes)
        if len(self.cubes) > 1:
            # sizes over the smallest cube's are exact powers of two
            least = min(mask.bit_count() for _, mask in self.cubes)
            threshold, alias, self._total = _alias_table(
                [1 << (mask.bit_count() - least) for _, mask in self.cubes])
            self._threshold = np.array(threshold, dtype=np.uint64)
            # row b is cube b, row b + len(cubes) the alias of bin b
            rows = list(range(len(self.cubes))) + alias
            self._row_words, self._row_masks = np.array(
                [self.cubes[c] for c in rows], dtype=np.uint64).T.copy()
        # product tables and the draw's buffers, made on the first draw
        self._tables: list[np.ndarray] | None = None

    def _check_words(self) -> None:
        if self.variables and self.variables[-1] > 64:
            raise ValueError("assignment words limited to variable indices <= 64")

    def sample_words(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vector of assignment words, bit (v-1) = value of x_v."""
        if self.size == 0:
            raise ValueError("cannot sample an empty universe")
        self._check_words()
        words = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
        if len(self.cubes) == 1:
            # no pick: one cube draws plain coins under its mask
            [(word, mask)] = self.cubes
            words &= np.uint64(mask)
            if word:
                words |= np.uint64(word)
        else:
            row = self._pick_rows(count, rng)
            words &= np.take(self._row_masks, row)
            words |= np.take(self._row_words, row)
        if not self.structs:
            return words
        if self._tables is None:
            self._tables = _product_tables(
                [_model_words(sigma) for sigma in self.structs],
                _TABLE_ROWS)
            self._digit = np.empty(_SLICE_WORDS, dtype=np.uint64)
            self._row = np.empty(_SLICE_WORDS, dtype=np.uint64)
        *head, last = self._tables
        # one uniform index per sample into the product of the tables (at
        # most 2^64 rows: fewer than 2^|vars| models per group, every index
        # <= 64), split by mixed radix into one uniform row per table.  Every
        # digit is below its table's length, so its int64 view is exact.
        # Slices keep the index and both buffers in L2 cache.  A digit is
        # the index less its quotient times the radix: uint64 divmod costs
        # about three times a floor_divide.
        for start in range(0, count, _SLICE_WORDS):
            part = words[start:start + _SLICE_WORDS]
            digit, row = self._digit[:len(part)], self._row[:len(part)]
            index = rng.integers(0, self._models, size=len(part),
                                 dtype=np.uint64)
            for table in head:
                radix = np.uint64(len(table))
                np.floor_divide(index, radix, out=row)
                np.multiply(row, radix, out=digit)
                np.subtract(index, digit, out=digit)
                index, row = row, index
                part |= np.take(table, digit.view(np.int64), out=row,
                                mode="clip")
            part |= np.take(last, index.view(np.int64), out=row, mode="clip")
        return words

    def _pick_rows(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` rows of the cube tables, each cube drawn in proportion
        to its size from an exact integer alias table: a uniform bin and
        a uniform threshold below the table's total, one bounded draw
        split by division when their product fits in 64 bits, two
        otherwise.  A threshold past the bin's takes its alias's row."""
        total, bins = self._total, len(self.cubes)
        if bins * total <= 2 ** 64:
            drawn = rng.integers(0, bins * total, size=count, dtype=np.uint64)
            row = drawn // np.uint64(total)
            drawn -= row * np.uint64(total)
        else:
            row = rng.integers(0, bins, size=count, dtype=np.uint64)
            drawn = rng.integers(0, total, size=count, dtype=np.uint64)
        # rows stay below 2 len(cubes), so their int64 view is exact
        row += ((drawn >= np.take(self._threshold, row.view(np.int64)))
                * np.uint64(bins))
        return row.view(np.int64)

    def decode_word(self, word: int) -> dict[int, bool]:
        word = int(word)
        return {v: bool((word >> (v - 1)) & 1) for v in self.variables}

    def enumerate_words(self) -> np.ndarray:
        """All assignment words in the universe (for uniformity checks)."""
        if self.size > _CELL_LIMIT:
            raise ValueError(f"universe of size {self.size} exceeds "
                             f"enumeration limit {_CELL_LIMIT}")
        self._check_words()
        groups = [_model_words(sigma) for sigma in self.structs]
        cells = [np.zeros(0, dtype=np.uint64)]
        for word, mask in self.cubes:
            coins = [np.array([0, 1 << (v - 1)], dtype=np.uint64)
                     for v in self.free_vars if mask >> (v - 1) & 1]
            [cube] = _product_tables(
                [np.array([word], dtype=np.uint64), *coins, *groups],
                _CELL_LIMIT)
            cells.append(cube)
        cells = np.concatenate(cells)
        cells.sort()
        return cells


def _model_words(sigma: "Struct") -> np.ndarray:
    """A group's models as assignment words, bit (v-1) = value of x_v.
    Callers run ``Universe._check_words`` first, so every v <= 64."""
    indices = sigma.model_indices()
    words = np.zeros(indices.shape, dtype=np.uint64)
    for i, v in enumerate(sigma.vars):
        words |= ((indices >> np.uint64(i)) & np.uint64(1)) << np.uint64(v - 1)
    return words


def _alias_table(weights: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Walker's alias table over positive integer weights, in integers.

    Returns ``(threshold, alias, total)``, ``total`` the weights' sum.
    Over a uniform bin b and a uniform u in [0, total), the pick is b if
    u < threshold[b] and alias[b] otherwise, so index i comes out with
    probability weights[i] / total exactly: its mass, its own thresholds
    plus ``total`` less the thresholds of the bins whose alias it is, is
    len(weights) * weights[i].  A full bin is its own alias.
    """
    total = sum(weights)
    left = [w * len(weights) for w in weights]
    threshold, alias = [0] * len(weights), list(range(len(weights)))
    small = [i for i, w in enumerate(left) if w < total]
    large = [i for i, w in enumerate(left) if w >= total]
    # each step fills a short bin from a long one; the sums are exact, so
    # when either list runs out every bin left holds exactly ``total``
    while small and large:
        short, long = small.pop(), large.pop()
        threshold[short], alias[short] = left[short], long
        left[long] -= total - left[short]
        (small if left[long] < total else large).append(long)
    return threshold, alias, total


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


def mc_estimate(phi: CnfFormula, psi: "StructSet", ell: int, eps: float,
                delta: float, rng: np.random.Generator | None = None, *,
                seed: int | None = None,
                sample_budget: int | None = None,
                cubes: Sequence[tuple[int, int]] | None = None) -> Estimate:
    """Sampled count: draw from the universe, scale hit rate by its size.

    ``cubes``, if given, are the universe's cubes (see ``Universe``); they
    must hold every model of ``phi``.

    For 0 < eps < 1 the run stops at the ``_stop_hits(eps, (delta/2)^3)``-th
    hit and reports U * hits / N, N being that hit's index, unless the
    Chernoff count ``sample_size(U, ell, eps, delta/2)`` is drawn first;
    then it reports the hit rate times U.  Each ending fails with
    probability at most delta/2, the second when the true count is >= ell,
    so the run is (eps, delta) accurate.  At eps = 1 it draws
    ``sample_size(U, ell, eps, delta)``.  If ``sample_budget`` ends the run
    first, the result is flagged ``under_sampled`` instead of silently
    weakening anything; a budget below one sample is refused.
    """
    if sample_budget is not None and sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    drawn = {c for sigma in psi for c in sigma.clauses}
    if not drawn <= set(phi.clauses):
        raise ValueError("subformula clause missing from the formula")
    if rng is None:
        rng = np.random.default_rng(seed)

    universe = Universe(psi, variables=phi.variables, cubes=cubes)
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

    # every draw satisfies the groups' own clauses; only the rest are checked
    tables = clause_tables([c for c in phi.clauses if c not in drawn],
                           {v: v - 1 for v in phi.variables}, _CHUNK_BITS)
    hits = 0
    done = 0
    # one kernel slice a draw, so a run stops within a slice of its stop
    while done < t:
        words = universe.sample_words(min(_SLICE_WORDS, t - done), rng)
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
