"""Quick self-check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes for a fraction of a second, untraced
and traced, and checks that:

* the reference counter agrees with the library's brute force;
* each run is correct and emits exactly the metrics BENCHMARK.json
  declares, with the declared units;
* a planted wrong reference makes the run incorrect.
"""

from __future__ import annotations

import sys

import exactref
import run


def main() -> int:
    spec = run.declared()
    ic = run.import_library()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    for k, n, m in ((2, 12, 12), (3, 12, 40), (3, 14, 6), (4, 12, 70)):
        for seed in range(3):
            phi = ic.generate(ic.GeneratorSpec(n=n, m=m, k=k, seed=seed))
            assert (exactref.count_models(phi.int_clauses(), n)
                    == ic.brute_force_count(phi).value), (k, n, m, seed)

    for name in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.run(name, 1, 0.2, trace, tiny=True)
            assert result["correct"], "\n".join(lines)
            assert result["attempted"] >= 1
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in spec[group]}, got
            print(f"ok  {name} trace={int(trace)}: {result['attempted']} counts")

    true_count = exactref.count_models
    exactref.count_models = lambda clauses, n: true_count(clauses, n) + 1
    try:
        result, lines = run.run("small-exact", 1, 0.2, False, tiny=True)
    finally:
        exactref.count_models = true_count
    assert not result["correct"]
    assert any(line.startswith("PROBLEM: exact mismatch") for line in lines)
    print("ok  planted wrong reference fails the run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
