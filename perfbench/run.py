"""The repository benchmark: time parse + count on one of two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
the same tree, never from an installed copy.  One process, one thread, a
closed loop: each count starts when the previous one ends.

Each workload loads one phase of the counter (see WORKLOADS).  The seed
makes the instances with ``indepcount.generate``; the counter only sees
their DIMACS text.  Every (instance, strategy) pair is timed as
``parse_dimacs`` + ``approx_count`` under a SIGALRM deadline, because
``approx_count`` has no deadline of its own.  A count that hits the
deadline or raises is a failed count; it is listed, never dropped.

References come from ``exactref`` after the timed window.  An exact
result that differs from its reference makes the run incorrect and the
exit code 1.  Sampled results must meet eps with probability 1 - delta,
so they are checked in bulk: the run is incorrect when the share that
misses eps is too large to be chance (binomial tail below 1e-6).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
same counts with the layer boundaries wrapped (``tracing.py``) and prints
the per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

EPS = 0.2
DELTA = 0.1
DEADLINE_S = 2.0
IMPORT_RUNS = 3
GUARANTEE_ALPHA = 1e-6
FOUR = ("thurley", "pruned", "clauses", "structs")


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[int, int, int], ...]   # (k, n, m), cycled per instance
    strategies: tuple[str, ...]
    targets: tuple[str, ...]                   # layers it is meant to load
    pool: int                                  # generated instances per run


# Why each workload exists is in BENCHMARK.json.  Sizes keep the typical
# count well under a second, so that one run averages over tens to
# thousands of counts.
#
# There is no workload for the explore phase (cut, decide, restrict) or
# for the width-2 recursion.  Both spend their time in pure-Python object
# work, whose speed on a shared 2-vCPU VM drifts with the host: the same
# explore-phase counts ran at 21-30 per second in consecutive 8 s windows.
# Their run-to-run spread (IQR / median over 10 seeds) came out near or
# above the 0.25 bound, against under 0.11 for the two numpy-bound
# workloads.  The traced run still counts their work on sparse-sample.
WORKLOADS = {
    # The cut reaches ell after a few nodes, then mc draws 1-4 million
    # samples per count.  Both cells take 0.4-1 s a count, so the count
    # times form one mode and the median sits inside it; with k=3 at n=22
    # (0.2-0.5 s) the median fell in the gap between two modes.
    "sparse-sample": Workload(
        cells=((3, 23, 46), (4, 19, 114)),
        strategies=FOUR, targets=("mc",), pool=32),
    # Satisfiable-side densities, so the scan never stops early and its
    # cost is set by n and m; the median lands inside the k=3, n=17 group.
    "small-exact": Workload(
        cells=((2, 18, 18), (3, 16, 48), (3, 17, 51), (4, 17, 119), (3, 18, 54)),
        strategies=("brute",) + FOUR, targets=("exact.brute",), pool=192),
}


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a count; a BaseException so no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass(frozen=True)
class Instance:
    k: int
    n: int
    m: int
    seed: int
    text: str
    int_clauses: tuple

    @property
    def label(self) -> str:
        return f"k={self.k} n={self.n} m={self.m} seed={self.seed}"


@dataclass
class Outcome:
    instance: int
    strategy: str
    seed: int
    seconds: float
    estimate: object = None
    error: str | None = None


@dataclass
class Window:
    outcomes: list = field(default_factory=list)
    wall: float = 0.0


def import_library():
    """Import ``indepcount`` from this tree's ``src``; exit 2 if absent."""
    if not (SRC / "indepcount" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import indepcount
    if Path(indepcount.__file__).resolve().parent != SRC / "indepcount":
        print("error: indepcount was imported from outside this tree",
              file=sys.stderr)
        sys.exit(2)
    return indepcount


def fresh_import_s() -> float:
    """Wall time of a new interpreter that only imports the library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import indepcount"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def make_instances(ic, workload: Workload, seed: int, tiny: bool) -> list[Instance]:
    rng = random.Random(f"instances:{seed}")
    out = []
    for i in range(len(workload.cells) if tiny else workload.pool):
        k, n, m = workload.cells[i % len(workload.cells)]
        s = rng.randrange(1 << 31)
        if tiny and n > 19:
            n, m = 19, round(m * 19 / n)
        phi = ic.generate(ic.GeneratorSpec(n=n, m=m, k=k, seed=s))
        out.append(Instance(k, n, m, s, ic.serialize_dimacs(phi),
                            phi.int_clauses()))
    return out


def make_counter(ic):
    """parse + count, looking both up on their modules at call time so
    that a traced run sees its wrappers."""
    cnf = sys.modules["indepcount.cnf"]
    ras = sys.modules["indepcount.ras"]

    def count(text: str, strategy: str, seed: int):
        phi = cnf.parse_dimacs(text)
        return ras.approx_count(phi, EPS, DELTA, strategy=ic.Strategy(strategy),
                                seed=seed)
    return count


def timed_count(count, inst: Instance, strategy: str, seed: int,
                index: int) -> Outcome:
    out = Outcome(index, strategy, seed, 0.0)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            out.estimate = count(inst.text, strategy, seed)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        out.error = f"deadline {DEADLINE_S:g} s"
    except Exception as exc:  # a failed count is recorded, the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out


def run_counts(count, instances, todo, seconds: float | None = None) -> Window:
    """Closed loop over (instance index, strategy, count seed) triples.
    With ``seconds``, no count starts after that much time has passed,
    but at least one runs."""
    win = Window()
    t0 = time.perf_counter()
    for i, strategy, seed in todo:
        if seconds is not None and win.outcomes and time.perf_counter() - t0 >= seconds:
            break
        win.outcomes.append(timed_count(count, instances[i], strategy, seed, i))
    win.wall = time.perf_counter() - t0
    return win


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
               for i in range(k, n + 1))


def check(ic, instances, win: Window, exactref):
    """End-to-end fractions and the list of problems that fail the run."""
    refs: dict[int, int] = {}
    problems = []
    done = [o for o in win.outcomes if o.error is None]
    sampled = misses = guaranteed = guaranteed_misses = 0
    for o in done:
        inst = instances[o.instance]
        if o.instance not in refs:
            refs[o.instance] = exactref.count_models(inst.int_clauses, inst.n)
        ref, est = refs[o.instance], o.estimate
        if est.exact:
            if est.value != ref:
                problems.append(f"exact mismatch: {inst.label} {o.strategy} "
                                f"got {est.value}, reference {ref}")
            continue
        sampled += 1
        miss = not ic.eps_accurate(est.value, ref, EPS)
        misses += miss
        if not est.under_sampled:
            guaranteed += 1
            guaranteed_misses += miss
    if guaranteed_misses and binomial_tail(guaranteed, DELTA,
                                           guaranteed_misses) < GUARANTEE_ALPHA:
        problems.append(f"{guaranteed_misses} of {guaranteed} sampled results "
                        f"miss eps={EPS}; delta={DELTA} allows far fewer")
    n = len(win.outcomes)
    fracs = {
        "error_frac": (n - len(done)) / n,
        "inaccurate_frac": misses / sampled if sampled else 0.0,
        "under_sampled_frac": sum(o.estimate.under_sampled for o in done) / n,
        "exact_frac": sum(o.estimate.exact for o in done) / n,
    }
    return fracs, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, report lines)."""
    ic = import_library()
    import exactref
    import tracing
    workload = WORKLOADS[workload_name]
    signal.signal(signal.SIGALRM, _on_alarm)

    imports = [fresh_import_s() for _ in range(1 if tiny else IMPORT_RUNS)]
    t0 = time.perf_counter()
    instances = make_instances(ic, workload, seed, tiny)
    setup_s = statistics.median(imports) + time.perf_counter() - t0

    count = make_counter(ic)
    # every instance with every strategy, cycled until the run ends
    pairs = itertools.cycle([(i, s) for i in range(len(instances))
                             for s in workload.strategies])
    win = run_counts(count, instances,
                     ((i, s, seed * 1_000_003 + j) for j, (i, s) in enumerate(pairs)),
                     seconds)
    fracs, problems = check(ic, instances, win, exactref)
    times = [o.seconds for o in win.outcomes]
    lines = [f"workload {workload_name}  seed {seed}  {len(times)} counts "
             f"in {win.wall:.2f} s  deadline {DEADLINE_S:g} s"]
    for o in win.outcomes:
        if o.error is not None:
            lines.append(f"failed: {workload_name} {instances[o.instance].label} "
                         f"{o.strategy}: {o.error}")
    e2e = {"counts_per_s": len(times) / win.wall,
           "count_s_p50": statistics.median(times),
           **fracs, "setup_s": setup_s}
    units = {m["name"]: m["unit"]
             for group in ("end_to_end", "per_layer") for m in declared()[group]}
    lines += [f"{k:<20} {v:.6g} {units[k]}" for k, v in e2e.items()]
    lines.append(f"(count_s_p50 over {len(times)} counts; setup_s is the median "
                 f"of {len(imports)} fresh imports plus generating "
                 f"{len(instances)} instances)")

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_counts(tracer.root(count), instances,
                                [(o.instance, o.strategy, o.seed) for o in win.outcomes])
        finally:
            tracer.remove()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload_name}.npz")
        for a, b in zip(win.outcomes, traced.outcomes):
            if a.error is None and b.error is None and a.estimate.value != b.estimate.value:
                problems.append(f"traced count differs: {instances[a.instance].label} "
                                f"{a.strategy}")
        per_layer = tracing.layer_metrics(tracer)
        self_s = tracer.layer_self_s(tracer.summary())
        total = sum(self_s.values())
        per_layer["trace.overhead_frac"] = traced.wall / win.wall - 1
        per_layer["trace.target_self_frac"] = (
            sum(self_s[t] for t in workload.targets) / total if total else 0.0)
        lines.append("traced self time by layer: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in self_s.items() if total))
        if tracer.absent:
            lines.append("absent boundaries: " + ", ".join(tracer.absent))
        lines += [f"{k:<28} {v:.6g} {units[k]}" for k, v in per_layer.items()]
        metrics = {**per_layer, **fracs}
    else:
        metrics = e2e
    lines += [f"PROBLEM: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": len(times),
        "failed": sum(o.error is not None for o in win.outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared()["per_layer" if trace else "end_to_end"]},
    }
    return result, lines


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
