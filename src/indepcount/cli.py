"""Command line interface.

Verbs: ``count`` one instance, ``gen`` a random instance as DIMACS,
``bench`` a batch with optional exact references (``--threads N`` runs
it in a pool of N worker processes, default 1), ``selftest`` a quick
smoke of the library's fixed constants.

Exit codes: 0 success, 2 usage, 3 bad input, 4 refused by a size guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .cnf import DimacsError, parse_dimacs, serialize_dimacs
from .exact import GuardError, brute_force_count, count_2sat_exact
from .gen import GeneratorSpec, generate
from .harness import (CSV_COLUMNS, EXACT_REFERENCE_GUARD, bench,
                      bench_csv_row, run_report)
from .params import Strategy, params_for, theta_k
from .ras import CounterConfig
from .structs import Struct, match_library

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_GUARD = 4


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--strategy", default="structs",
                     choices=[s.value for s in Strategy])
    sub.add_argument("--eps", type=float, default=0.2)
    sub.add_argument("--delta", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None,
                     help="cap on Monte Carlo samples")
    sub.add_argument("--small-n", type=int, default=None,
                     help="below this many variables, count exactly")
    sub.add_argument("--force", action="store_true",
                     help="override size guards")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indepcount",
        description="Approximate model counting for k-CNF formulas.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p_count = subs.add_parser("count", help="count one DIMACS instance")
    p_count.add_argument("--file", default="-",
                         help="DIMACS path, '-' for stdin")
    _add_run_flags(p_count)
    p_count.add_argument("--ref", action="store_true",
                         help="also brute-force the exact count")

    p_gen = subs.add_parser("gen", help="emit a random instance as DIMACS")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--planted", action="store_true")

    p_bench = subs.add_parser("bench", help="batch of generated instances")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--k", type=int, default=3)
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--strategies", default="structs",
                         help="comma-separated strategy names")
    _add_run_flags(p_bench)
    p_bench.add_argument("--threads", type=int, default=1,
                         help="worker processes (default 1)")
    p_bench.add_argument("--planted", action="store_true")
    p_bench.add_argument("--no-ref", action="store_true",
                         help="skip exact references")
    fmt = p_bench.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="JSON lines (default)")
    fmt.add_argument("--csv", action="store_true")

    subs.add_parser("selftest", help="quick smoke of the fixed constants")
    return parser


def _config_from(args) -> CounterConfig:
    fields = {}
    if args.budget is not None:
        fields["sample_budget"] = args.budget
    if args.small_n is not None:
        fields["small_n"] = args.small_n
    if args.force:
        fields["brute_force_guard"] = 10 ** 9
    return CounterConfig(**fields)


def _read_formula(path: str):
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def _cmd_count(args) -> int:
    phi = _read_formula(args.file)
    strategy = Strategy(args.strategy)
    config = _config_from(args)
    if (strategy is Strategy.BRUTE_FORCE and not args.force
            and phi.num_vars > config.brute_force_guard):
        raise GuardError(
            f"brute force over {phi.num_vars} variables needs --force")
    reference = None
    if args.ref:
        if phi.num_vars > EXACT_REFERENCE_GUARD and not args.force:
            raise GuardError(
                f"exact reference above {EXACT_REFERENCE_GUARD} variables "
                f"needs --force")
        reference = brute_force_count(phi, max_vars=10 ** 9).value
    report = run_report(phi, strategy, args.eps, args.delta, args.seed,
                        config=config,
                        instance={"file": args.file, "n": phi.num_vars,
                                  "m": phi.num_clauses, "k": phi.k},
                        reference=reference)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    est = report["estimate"]
    if est["under_sampled"]:
        print(f"warning: under-sampled, the (eps, delta) guarantee does not "
              f"hold; value {est['value_exact']}, certified lower bound "
              f"{est['lower_bound']}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(n=args.n, m=args.m, k=args.k, seed=args.seed,
                         planted=args.planted)
    phi = generate(spec)
    comment = (f"generated: n={spec.n} m={spec.m} k={spec.k} "
               f"seed={spec.seed} planted={spec.planted}")
    sys.stdout.write(serialize_dimacs(phi, comment=comment))
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.trials < 0:
        print("error: --trials must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    strategies = []
    for name in args.strategies.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            strategies.append(Strategy(name))
        except ValueError:
            raise DimacsError(f"unknown strategy {name!r}")
    if not strategies:
        raise DimacsError("no strategies selected")
    want_ref = not args.no_ref
    if want_ref and args.n > EXACT_REFERENCE_GUARD and not args.force:
        raise GuardError(
            f"exact references above {EXACT_REFERENCE_GUARD} variables need "
            f"--force (or pass --no-ref)")
    rows = bench(args.n, args.m, args.k, args.trials, strategies,
                 args.eps, args.delta,
                 args.seed if args.seed is not None else 0,
                 threads=args.threads, config=_config_from(args),
                 want_ref=want_ref, planted=args.planted)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(bench_csv_row(row))
    else:
        for row in rows:
            json.dump(row, sys.stdout)
            sys.stdout.write("\n")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    chain = parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    check("implication chain counts 4 models",
          brute_force_count(chain).value == 4
          and count_2sat_exact(chain).value == 4)

    single = Struct([(1, 2, 3)], match_library([(1, 2, 3)]))
    check("width-3 clause group: 7 models, one closed variable",
          (single.l_sigma, single.w_sigma, single.f_sigma) == (7, 2, 1))

    pair = [(1, 2, 3), (1, 4, 5)]
    shared = Struct(pair, match_library(pair))
    check("shared-variable pair: 25 models, hub closed",
          shared.l_sigma == 25 and shared.closed_vars == (1,))

    check("balanced two-phase base (width 3) near 1.5366",
          abs(theta_k(3) - 1.5366) < 1e-3)
    check("width-3 disjoint-group threshold materialises",
          params_for(3, 15, Strategy.INDEP_STRUCTS).ell >= 1)

    print(f"{'all good' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "count":
            return _cmd_count(args)
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb == "bench":
            return _cmd_bench(args)
        if args.verb == "selftest":
            return _cmd_selftest(args)
        parser.error(f"unknown verb {args.verb!r}")
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DimacsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
