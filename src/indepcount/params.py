"""Strategy parameters: exponents, thresholds and their derivations.

The decisive constant per clause width k is beta_k, the exponent of the
best known randomized satisfiability decision time 2^(beta_k n).  The
published values cover k = 3 and 4; for larger k it follows from the
series mu_k = sum_j 1 / (j (j + 1/(k-1))) as 1 - mu_k / (k - 1).

From beta_k everything else is derived: the balanced two-phase base
theta_k = 2^(1/(2 - beta_k)), the clause-branching exponent p_k, and the
per-strategy cut thresholds ell = 2^(coeff * n).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# decision-time exponents for the randomized width-k decider
BETA_TABLE = {3: 0.3864, 4: 0.5548}

# exact-counting base per width: #2-SAT in 1.2377^n, and the best published
# approximate-counting bases for widths 3 and 4
ALPHA_TABLE = {2: 1.2377, 3: 1.51426, 4: 1.60816}

# cut thresholds ell = 2^(coeff n) for the two reduction-based strategies
INDEP_STRUCTS_ELL_BASE = {3: 1.28794, 4: 1.23823}
INDEP_CLAUSES_ELL_BASE = {3: 1.2903, 4: 1.2372}

# disjoint-clause target size m_hat = ceil(fraction * n)
M_HAT_FRACTION = {3: 0.1563, 4: 0.0587}

MU_DEFAULT_TOL = 1e-12


class Strategy(enum.Enum):
    BRUTE_FORCE = "brute"
    THURLEY = "thurley"
    PRUNED_TREE = "pruned"
    INDEP_CLAUSES = "clauses"
    INDEP_STRUCTS = "structs"


@lru_cache(maxsize=None)
def mu_k(k: int) -> float:
    """Partial sum of 1 / (j (j + 1/(k-1))) with an integral tail estimate.

    The summand is decreasing, so the tail beyond J lies between the
    integral from J+1 and that integral plus the J-th term; taking the
    integral plus half the J-th term keeps the absolute error below
    1/(2 J^2), and J is sized so that this is at most ``MU_DEFAULT_TOL``.
    """
    if k < 2:
        raise ValueError("mu is defined for k >= 2")
    c = 1.0 / (k - 1)
    terms = max(64, math.ceil(1.0 / math.sqrt(2.0 * MU_DEFAULT_TOL)))
    j = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(1.0 / (j * (j + c))))
    edge = terms + 1.0
    tail = math.log((edge + c) / edge) / c + 0.5 / (edge * (edge + c))
    return head + tail


def beta_k(k: int) -> float:
    """Decision-time exponent: published for k in {3, 4}, series-derived above."""
    if k in BETA_TABLE:
        return BETA_TABLE[k]
    if k < 3:
        raise ValueError("no decision exponent for k < 3")
    return 1.0 - mu_k(k) / (k - 1)


def theta_k(k: int) -> float:
    """Balanced two-phase run-time base 2^(1/(2 - beta_k))."""
    return 2.0 ** (1.0 / (2.0 - beta_k(k)))


def _clause_branch_ratio(k: int) -> float:
    # k variables fixed per clause branch, log2(2^k - 1) models of it
    return k / math.log2((1 << k) - 1)


def p_k(k: int) -> float:
    """Two-phase exponent of clause-guided branching; 2^p_k is its run-time
    base."""
    beta = beta_k(k)
    r = _clause_branch_ratio(k)
    return (1.0 - beta * (r - 1.0)) / (2.0 - beta * r)


def thurley_ell_coeff(k: int) -> float:
    return (1.0 - beta_k(k)) / (2.0 - beta_k(k))


def pruned_ell_coeff(k: int) -> float:
    beta = beta_k(k)
    return (1.0 - beta) / (2.0 - beta * _clause_branch_ratio(k))


@dataclass(frozen=True)
class ParamSet:
    """Everything a strategy run needs, materialised for one (k, n)."""

    k: int
    n: int
    beta_k: float | None
    mu_k: float | None
    theta_k: float | None = None
    p_k: float | None = None
    ell_log2: float = 0.0
    m_hat_fraction: float | None = None

    def alpha(self, width: int) -> float:
        """Counting base for ``width``: the published one up to width 4;
        above it, up to ``k``, the decision-driven two-phase base, which
        the width-specific tuning must beat anyway."""
        if width in ALPHA_TABLE:
            return ALPHA_TABLE[width]
        if width in range(5, self.k + 1):
            return theta_k(width)
        raise ValueError(f"no counting base configured for width {width}")

    @property
    def ell(self) -> int:
        """Cut threshold ceil(2^x), x = ell_log2 * n, at least 1.  Past the
        float range, x >= 1024, it is the int ceil(2^(x - s)) * 2^s."""
        x = self.ell_log2 * self.n
        shift = max(int(x) - 1023, 0)
        return max(1, math.ceil(2.0 ** (x - shift)) << shift)

    @property
    def m_hat(self) -> int | None:
        if self.m_hat_fraction is None:
            return None
        return math.ceil(self.m_hat_fraction * self.n)


def params_for(k: int, n: int, strategy: Strategy) -> ParamSet:
    """Fill a ParamSet; raises for unsupported (k, strategy) pairs."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if k == 2 or strategy is Strategy.BRUTE_FORCE:
        return ParamSet(k=k, n=n, beta_k=None, mu_k=None)

    beta = beta_k(k)
    mu = mu_k(k) if k >= 5 else None
    theta = theta_k(k)
    p = p_k(k)
    frac = None

    if strategy is Strategy.THURLEY:
        coeff = thurley_ell_coeff(k)
    elif strategy is Strategy.PRUNED_TREE:
        coeff = pruned_ell_coeff(k)
    elif strategy is Strategy.INDEP_CLAUSES:
        if k not in INDEP_CLAUSES_ELL_BASE:
            raise ValueError(f"disjoint-clause strategy is tuned for widths "
                             f"{sorted(INDEP_CLAUSES_ELL_BASE)}, not {k}")
        coeff = math.log2(INDEP_CLAUSES_ELL_BASE[k])
        frac = M_HAT_FRACTION[k]
    elif strategy is Strategy.INDEP_STRUCTS:
        if k in INDEP_STRUCTS_ELL_BASE:
            coeff = math.log2(INDEP_STRUCTS_ELL_BASE[k])
        else:
            # untuned widths reuse the balanced two-phase threshold
            coeff = thurley_ell_coeff(k)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return ParamSet(k=k, n=n, beta_k=beta, mu_k=mu, theta_k=theta, p_k=p,
                    ell_log2=coeff, m_hat_fraction=frac)
