"""The repository benchmark's self-check runs as part of the suite, so a
change that miscounts an exact route or drops a declared metric fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_wraps_the_reduction_path(monkeypatch):
    # the smoke check's tiny counts stop at the brute-force shortcut, so it
    # never reaches the reductions; these two counts do
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from indepcount import GeneratorSpec, Strategy, generate, ras

    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimates = [tracer.root(ras.approx_count)(phi, 0.2, 0.1, strategy=s,
                                                   seed=7)
                     for s in (Strategy.INDEP_CLAUSES, Strategy.INDEP_STRUCTS)]
    finally:
        tracer.remove()
    # the cut runs on ClauseIndex residuals, so only its two boundaries are
    # gone; every other boundary, structs.restrict among them, must stay
    assert set(tracer.absent) == {"cut.decide", "cut.restrict"}
    metrics = tracing.layer_metrics(tracer)
    assert metrics["structs.red_calls"] == 2
    assert metrics["structs.group_set_frac"] == 1.0
    assert metrics["cut.nodes"] > 0
    assert metrics["mc.samples"] == sum(e.samples for e in estimates) > 0


def test_tracer_sees_the_sampler_draw_and_check(monkeypatch):
    # a kernel that bypassed the wrapped names would read 0 s here, not fail
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from indepcount import GeneratorSpec, Strategy, generate, ras

    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimates = [tracer.root(ras.approx_count)(phi, 0.2, 0.1, strategy=s,
                                                   seed=7)
                     for s in (Strategy.THURLEY, Strategy.INDEP_STRUCTS)]
    finally:
        tracer.remove()
    assert all(not e.exact and e.samples for e in estimates)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mc.draw_s"] > 0
    assert metrics["mc.check_s"] > 0
