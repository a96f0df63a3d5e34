"""Approximate model counting for k-CNF via independent subformulas.

Exact references (full enumeration, width-2 counting), a bounded
search-tree explorer, a product-universe Monte Carlo estimator and the
strategy dispatcher gluing them together.
"""

from .cnf import (CnfFormula, DimacsError, evaluate, parse_dimacs, restrict,
                  serialize_dimacs)
from .cut import BranchKind, CutKind, CutResult, Frontier, cut, frontier
from .exact import (DecisionOutcome, ExactCount, GuardError,
                    brute_force_count, count_2sat_exact, decide)
from .gen import GeneratorSpec, generate
from .harness import bench, chi_square_uniformity, eps_accurate, run_report
from .mc import Estimate, Universe, mc_estimate, sample_size, sample_universe
from .params import ParamSet, Strategy, beta_k, mu_k, p_k, params_for, theta_k
from .ras import CounterConfig, approx_count
from .structs import (RedOutcome, Struct, StructSet, match_library,
                      red_clauses, red_structs, struct_stats)

__version__ = "0.1.0"

__all__ = [
    "CnfFormula", "DimacsError", "evaluate", "parse_dimacs", "restrict",
    "serialize_dimacs",
    "BranchKind", "CutKind", "CutResult", "Frontier", "cut", "frontier",
    "DecisionOutcome", "decide",
    "ExactCount", "GuardError", "brute_force_count", "count_2sat_exact",
    "GeneratorSpec", "generate",
    "bench", "chi_square_uniformity", "eps_accurate", "run_report",
    "Estimate", "Universe", "mc_estimate", "sample_size", "sample_universe",
    "ParamSet", "Strategy", "beta_k", "mu_k", "p_k", "params_for", "theta_k",
    "CounterConfig", "approx_count",
    "RedOutcome", "Struct", "StructSet", "match_library", "red_clauses",
    "red_structs", "struct_stats",
    "__version__",
]
