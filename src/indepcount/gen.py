"""Random instance generation for tests and benchmarks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula
from .rng import generator

_DUP_TRIES = 200


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random width-k instance; same spec, same formula."""

    n: int
    m: int
    k: int
    seed: int
    planted: bool = False

    def __post_init__(self):
        if self.k < 1 or self.n < self.k or self.m < 0:
            raise ValueError("need k >= 1, n >= k, m >= 0")


def _draw_clause(rng: np.random.Generator, n: int, k: int) -> tuple[int, ...]:
    chosen = rng.choice(n, size=k, replace=False) + 1
    signs = rng.integers(0, 2, size=k)
    return tuple(sorted(int(v) if s else -int(v)
                        for v, s in zip(chosen, signs)))


def generate(spec: GeneratorSpec) -> CnfFormula:
    """Uniform clauses over k distinct variables; optionally planted.

    Duplicate clauses are redrawn a bounded number of times, so they only
    appear when ``m`` forces them.  Planted mode fixes a hidden assignment
    first and never keeps a clause it falsifies: a duplicate that it
    satisfies is kept over a fresh clause that it falsifies, so every
    planted formula has at least one model.
    """
    rng = generator(spec.seed)
    hidden: dict[int, bool] | None = None
    if spec.planted:
        bits = rng.integers(0, 2, size=spec.n)
        hidden = {v + 1: bool(bits[v]) for v in range(spec.n)}

    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < spec.m:
        kept = None
        for tries in itertools.count(1):
            codes = _draw_clause(rng, spec.n, spec.k)
            if hidden is None or any(hidden[abs(c)] == (c > 0) for c in codes):
                kept = codes
            if kept is not None and (kept not in seen or tries >= _DUP_TRIES):
                break
        seen.add(kept)
        clauses.append(kept)
    return CnfFormula(clauses, spec.n, k=spec.k)
