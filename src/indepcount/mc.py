"""Monte Carlo estimation over a product sampling universe.

A set of variable-disjoint subformulas restricts the space we sample
from: each subformula contributes one of its own models, every variable
outside them is a fair coin.  The universe size U is exact integer
arithmetic; the estimator scales the empirical hit rate by U, so its
expectation is the true model count whenever the subformulas all appear
in the target formula.

A draw packs an assignment into one 64-bit word.  The free variables take
one raw 64-bit draw under a mask.  The groups' models are merged, in
order, into product tables of at most ``_TABLE_ROWS`` rows each; one
uniform ``uint64`` index into the product of the tables, split by mixed
radix, picks one row per table.  A uniform index into the product is an
independent uniform model per group, so the universe and the estimator
are those of one draw per group.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cnf import CnfFormula, clause_tables, satisfied_rows

if TYPE_CHECKING:  # pragma: no cover
    from .structs import StructSet

CHERNOFF_FACTOR = 3
_SAMPLE_CHUNK = 1 << 18
_TABLE_ROWS = 1 << 16
_SLICE = 1 << 15
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

    @property
    def value_float(self) -> float:
        return float(self.value)


class Universe:
    """Sampling space: one model per subformula, coins elsewhere."""

    def __init__(self, psi: "StructSet", n: int | None = None, *,
                 variables: Sequence[int] | None = None):
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
        self._models = math.prod(sigma.l_sigma for sigma in self.structs)
        self.size = self._models << len(self.free_vars)
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
        words &= np.uint64(self.free_mask)
        if not self.structs:
            return words
        if self._tables is None:
            self._tables = _product_tables(
                [sigma.satisfying_words() for sigma in self.structs],
                _TABLE_ROWS)
            self._digit = np.empty(_SLICE, dtype=np.uint64)
            self._row = np.empty(_SLICE, dtype=np.uint64)
        *head, last = self._tables
        # one uniform index per sample into the product of the tables (at
        # most 2^64 rows: fewer than 2^|vars| models per group, every index
        # <= 64), split by mixed radix into one uniform row per table.  Every
        # digit is below its table's length, so its int64 view is exact.
        # Slices keep the index and both buffers in L2 cache.
        for start in range(0, count, _SLICE):
            part = words[start:start + _SLICE]
            digit, row = self._digit[:len(part)], self._row[:len(part)]
            index = rng.integers(0, self._models, size=len(part),
                                 dtype=np.uint64)
            for table in head:
                np.divmod(index, np.uint64(len(table)), out=(index, digit))
                part |= np.take(table, digit.view(np.int64), out=row,
                                mode="clip")
            part |= np.take(last, index.view(np.int64), out=row, mode="clip")
        return words

    def decode_word(self, word: int) -> dict[int, bool]:
        word = int(word)
        return {v: bool((word >> (v - 1)) & 1) for v in self.variables}

    def enumerate_words(self) -> np.ndarray:
        """All assignment words in the universe (for uniformity checks)."""
        if self.size > _CELL_LIMIT:
            raise ValueError(f"universe of size {self.size} exceeds "
                             f"enumeration limit {_CELL_LIMIT}")
        self._check_words()
        coins = [np.array([0, 1 << (v - 1)], dtype=np.uint64)
                 for v in self.free_vars]
        # the leading one-row table makes the single product a fresh array
        [cells] = _product_tables(
            [np.zeros(1, dtype=np.uint64), *coins,
             *(sigma.satisfying_words() for sigma in self.structs)],
            _CELL_LIMIT)
        cells.sort()
        return cells


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


def mc_estimate(phi: CnfFormula, psi: "StructSet", ell: int, eps: float,
                delta: float, rng: np.random.Generator | None = None, *,
                seed: int | None = None,
                sample_budget: int | None = None) -> Estimate:
    """Sampled count: draw from the universe, scale hit rate by its size.

    The (eps, delta) guarantee holds when the true count is >= ell.  If the
    prescribed sample count exceeds ``sample_budget`` the run is truncated
    and flagged ``under_sampled`` instead of silently weakening anything;
    a budget below one sample is refused.
    """
    if sample_budget is not None and sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    drawn = {c for sigma in psi for c in sigma.clauses}
    if not drawn <= set(phi.clauses):
        raise ValueError("subformula clause missing from the formula")
    if rng is None:
        rng = np.random.default_rng(seed)

    universe = Universe(psi, variables=phi.variables)
    if universe.size == 0:
        return Estimate(value=0, exact=True, epsilon=eps, delta=delta, seed=seed)
    wanted = sample_size(universe.size, ell, eps, delta)
    t = wanted
    under = False
    if sample_budget is not None and wanted > sample_budget:
        t = sample_budget
        under = True

    # every draw satisfies the groups' own clauses; only the rest are checked
    tables = clause_tables([c for c in phi.clauses if c not in drawn],
                           {v: v - 1 for v in phi.variables})
    hits = 0
    done = 0
    while done < t:
        chunk = min(_SAMPLE_CHUNK, t - done)
        words = universe.sample_words(chunk, rng)
        # survivors, not nonzero words: the all-false word 0 can be a model
        hits += len(satisfied_rows(tables, words))
        done += chunk
    value = Fraction(hits * universe.size, t)
    return Estimate(value=value, exact=False, epsilon=eps, delta=delta,
                    samples=t, hits=hits, seed=seed, under_sampled=under)
