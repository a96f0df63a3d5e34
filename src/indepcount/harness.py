"""Experiment plumbing shared by the CLI and the test suite.

Builds schema-stable run reports, runs benchmark batches (optionally in a
process pool) and hosts the sampling-uniformity check.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections.abc import Mapping, Sequence
from fractions import Fraction

import numpy as np

from .cnf import CnfFormula
from .exact import brute_force_count
from .gen import GeneratorSpec, generate
from .mc import Estimate, Universe
from .params import Strategy, params_for
from .ras import CounterConfig, DEFAULT_CONFIG, approx_count

REPORT_VERSION = 1
EXACT_REFERENCE_GUARD = 24

CSV_COLUMNS = (
    "trial", "strategy", "k", "n", "m", "instance_seed", "run_seed",
    "value", "exact", "epsilon", "delta", "samples", "hits",
    "decider_calls", "branch_nodes", "under_sampled", "wall_time_s",
    "ref_value", "eps_accurate", "lower_bound", "universe_size",
    "frontier_nodes",
)


def chi_square_uniformity(samples: Sequence[Mapping[int, bool]],
                          universe: Universe) -> tuple[float, float]:
    """Pearson statistic and p-value of the draws against uniform cells.

    Every sample must be a member of the universe; cells the samples never
    hit still count toward the statistic.
    """
    from scipy import stats  # deferred: it dominates the package import time

    if not samples:
        raise ValueError("no samples given")
    cells = universe.enumerate_words()
    index = {int(w): i for i, w in enumerate(cells)}
    counts = np.zeros(len(cells), dtype=np.int64)
    for sample in samples:
        word = 0
        for v in universe.variables:
            if sample[v]:
                word |= 1 << (v - 1)
        try:
            counts[index[word]] += 1
        except KeyError:
            raise ValueError("sample falls outside the universe")
    expected = len(samples) / len(cells)
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(stats.chi2.sf(statistic, len(cells) - 1))
    return statistic, p_value


def _estimate_payload(est: Estimate) -> dict:
    value = est.value
    try:
        approx = float(value)
    except OverflowError:
        # past the float range; ``value_exact`` carries the count
        approx = None
    return {
        "value": approx,
        "value_exact": (str(value.numerator) if isinstance(value, Fraction)
                        and value.denominator == 1 else str(value)),
        "exact": est.exact,
        "epsilon": est.epsilon,
        "delta": est.delta,
        "samples": est.samples,
        "samples_wanted": est.samples_wanted,
        "universe_size": str(est.universe_size),
        "frontier_nodes": est.frontier_nodes,
        "hits": est.hits,
        "seed": est.seed,
        "under_sampled": est.under_sampled,
        "lower_bound": str(est.lower_bound),
    }


def _params_payload(k: int, n: int, strategy: Strategy) -> dict:
    try:
        p = params_for(k, n, strategy)
    except ValueError:
        return {"k": k, "n": n, "strategy": strategy.value}
    payload = {
        "k": p.k, "n": p.n, "strategy": strategy.value,
        "beta_k": p.beta_k, "mu_k": p.mu_k, "theta_k": p.theta_k,
        "p_k": p.p_k, "ell_log2": p.ell_log2,
    }
    if p.beta_k is not None:
        payload["ell"] = p.ell
    if p.m_hat is not None:
        payload["m_hat"] = p.m_hat
    return payload


def eps_accurate(value, reference: int, eps: float) -> bool:
    """Is ``value`` within relative error eps of the true count?"""
    lo = (1 - Fraction(eps)) * reference
    hi = (1 + Fraction(eps)) * reference
    v = Fraction(value)
    return lo <= v <= hi


def run_report(phi: CnfFormula, strategy: Strategy, eps: float, delta: float,
               seed: int | None, *, config: CounterConfig = DEFAULT_CONFIG,
               instance: Mapping | None = None,
               reference: int | None = None) -> dict:
    """One counting run as a JSON-ready dictionary (schema version 1)."""
    start = time.perf_counter()
    est = approx_count(phi, eps, delta, strategy=strategy, seed=seed,
                       config=config)
    elapsed = time.perf_counter() - start
    report = {
        "report_version": REPORT_VERSION,
        "instance": dict(instance) if instance is not None else {
            "n": phi.num_vars, "m": phi.num_clauses, "k": phi.k},
        "strategy": strategy.value,
        "params": _params_payload(phi.k, phi.num_vars, strategy),
        "estimate": _estimate_payload(est),
        "work": {
            "decider_calls": est.decider_calls,
            "branch_nodes": est.branch_nodes,
            "samples": est.samples,
        },
        "wall_time_s": elapsed,
    }
    if reference is not None:
        report["reference"] = {
            "value": str(reference),
            "eps_accurate": eps_accurate(est.value, reference, eps),
        }
    else:
        report["reference"] = None
    return report


def _bench_one(job: tuple) -> dict:
    (trial, spec_args, strategy_value, eps, delta, run_seed,
     config, want_ref) = job
    spec = GeneratorSpec(*spec_args)
    phi = generate(spec)
    reference = None
    if want_ref:
        reference = brute_force_count(
            phi, max_vars=config.brute_force_guard).value
    row = run_report(phi, Strategy(strategy_value), eps, delta, run_seed,
                     config=config,
                     instance={"n": spec.n, "m": spec.m, "k": spec.k,
                               "seed": spec.seed,
                               "planted": spec.planted},
                     reference=reference)
    row["trial"] = trial
    return row


def bench(n: int, m: int, k: int, trials: int,
          strategies: Sequence[Strategy], eps: float, delta: float,
          seed: int, *, threads: int = 1,
          config: CounterConfig = DEFAULT_CONFIG,
          want_ref: bool = True, planted: bool = False) -> list[dict]:
    """Run ``trials`` generated instances under each strategy.

    Trial i uses instance seed ``seed + i`` and an independent run seed, so
    rows are reproducible one by one regardless of pool scheduling.  With
    ``threads`` above 1 the trials run in that many worker processes;
    fewer than one is refused, as is a negative ``trials``.
    """
    if trials < 0:
        raise ValueError("trials must be at least 0")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    jobs = []
    trial = 0
    for i in range(trials):
        spec_args = (n, m, k, seed + i, planted)
        for s_index, strategy in enumerate(strategies):
            run_seed = (seed * 1_000_003 + i * 101 + s_index) % (2 ** 31)
            jobs.append((trial, spec_args, strategy.value, eps, delta,
                         run_seed, config, want_ref))
            trial += 1
    if threads == 1:
        return [_bench_one(job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(_bench_one, jobs))
    rows.sort(key=lambda r: r["trial"])
    return rows


def bench_csv_row(row: dict) -> list:
    est = row["estimate"]
    ref = row.get("reference") or {}
    inst = row["instance"]
    return [
        row.get("trial", ""), row["strategy"], inst.get("k"), inst.get("n"),
        inst.get("m"), inst.get("seed", ""), est["seed"],
        est["value_exact"], est["exact"], est["epsilon"], est["delta"],
        est["samples"], est["hits"], row["work"]["decider_calls"],
        row["work"]["branch_nodes"], est["under_sampled"],
        f"{row['wall_time_s']:.6f}",
        ref.get("value", ""), ref.get("eps_accurate", ""),
        est["lower_bound"], est["universe_size"], est["frontier_nodes"],
    ]
