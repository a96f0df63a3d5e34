import functools
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import indepcount
from indepcount import (Strategy, Struct, StructSet, Universe,
                        brute_force_count, chi_square_uniformity,
                        match_library, serialize_dimacs)
from indepcount import cli
from indepcount.cli import EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from indepcount.gen import GeneratorSpec, generate
from indepcount.harness import (CSV_COLUMNS, bench, bench_csv_row,
                                eps_accurate, run_report)
from indepcount.ras import CounterConfig
from indepcount.structs import EMPTY_STRUCT_SET

from conftest import CHAIN3_TEXT


# --- generator ---------------------------------------------------------------

def test_generate_is_deterministic():
    spec = GeneratorSpec(n=12, m=20, k=3, seed=5)
    assert generate(spec) == generate(spec)
    other = generate(GeneratorSpec(n=12, m=20, k=3, seed=6))
    assert generate(spec) != other


def test_generate_shape():
    phi = generate(GeneratorSpec(n=10, m=25, k=3, seed=1))
    assert phi.num_vars == 10 and phi.num_clauses == 25 and phi.k == 3
    for c in phi.clauses:
        assert len(c) == 3 and len({abs(code) for code in c}) == 3
    # duplicates are redrawn while the clause pool allows it
    assert len(set(phi.clauses)) == 25


def test_generate_planted_is_satisfiable():
    # all but (10, 40, 3) force duplicates: the clause kept once the
    # redraws run out must still be one the hidden assignment satisfies
    for n, m, k in ((10, 40, 3), (3, 10, 3), (4, 20, 3), (4, 40, 4), (5, 60, 3)):
        for seed in range(20):
            spec = GeneratorSpec(n=n, m=m, k=k, seed=seed, planted=True)
            phi = generate(spec)
            assert phi.num_clauses == m
            assert brute_force_count(phi).value >= 1, spec


def test_generate_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, m=5, k=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=5, m=-1, k=3, seed=0)


# --- harness -----------------------------------------------------------------

def test_chi_square_perfectly_uniform_sample():
    uni = Universe(EMPTY_STRUCT_SET, 3)
    samples = [{v: bool((w >> (v - 1)) & 1) for v in (1, 2, 3)}
               for w in range(8)]
    statistic, p = chi_square_uniformity(samples, uni)
    assert statistic == 0.0 and p == pytest.approx(1.0)


def test_chi_square_detects_a_point_mass():
    uni = Universe(EMPTY_STRUCT_SET, 3)
    samples = [{1: False, 2: False, 3: False}] * 80
    statistic, p = chi_square_uniformity(samples, uni)
    assert statistic == pytest.approx(560.0)
    assert p < 1e-10


def test_chi_square_rejects_outside_sample():
    cls = ((1, 2, 3),)
    uni = Universe(StructSet((Struct(cls, match_library(cls)),)), 3)
    with pytest.raises(ValueError):
        chi_square_uniformity([{1: False, 2: False, 3: False}], uni)
    with pytest.raises(ValueError):
        chi_square_uniformity([], uni)


def test_eps_accurate_uses_exact_bounds():
    assert eps_accurate(12, 10, 0.2)
    assert eps_accurate(8, 10, 0.2)
    assert not eps_accurate(13, 10, 0.2)
    assert not eps_accurate(7, 10, 0.2)
    assert eps_accurate(0, 0, 0.2)


def test_run_report_schema(chain3):
    report = run_report(chain3, Strategy.INDEP_STRUCTS, 0.2, 0.1, 7,
                        reference=4)
    assert report["report_version"] == 1
    assert set(report) == {"report_version", "instance", "strategy",
                           "params", "estimate", "work", "wall_time_s",
                           "reference"}
    assert report["strategy"] == "structs"
    assert report["estimate"]["value"] == 4.0
    assert report["estimate"]["exact"] is True
    assert report["reference"] == {"value": "4", "eps_accurate": True}
    assert json.loads(json.dumps(report)) == report


def test_bench_rows_and_csv_shape():
    rows = bench(10, 14, 3, 3, [Strategy.THURLEY, Strategy.INDEP_STRUCTS],
                 0.2, 0.1, 42)
    assert len(rows) == 6
    assert [r["trial"] for r in rows] == list(range(6))
    for row in rows:
        assert row["reference"] is not None
        line = bench_csv_row(row)
        assert len(line) == len(CSV_COLUMNS)


def _strip_times(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_s"}
            for row in rows]


def test_bench_is_reproducible_across_pools():
    args = (12, 16, 3, 2, [Strategy.PRUNED_TREE], 0.2, 0.1, 9)
    serial = bench(*args, threads=1)
    pooled = bench(*args, threads=2)
    assert _strip_times(serial) == _strip_times(pooled)
    again = bench(*args, threads=1)
    assert _strip_times(serial) == _strip_times(again)


def test_bench_refuses_fewer_than_one_thread():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            bench(12, 16, 3, 1, [Strategy.PRUNED_TREE], 0.2, 0.1, 9,
                  threads=threads)


def test_bench_refuses_a_negative_trial_count():
    with pytest.raises(ValueError, match="trials"):
        bench(12, 16, 3, -2, [Strategy.PRUNED_TREE], 0.2, 0.1, 9)
    assert bench(12, 16, 3, 0, [Strategy.PRUNED_TREE], 0.2, 0.1, 9) == []


def test_run_report_shows_samples_wanted_next_to_samples():
    # a sampled count stops at the rule well short of its Chernoff count
    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    est = run_report(phi, Strategy.INDEP_STRUCTS, 0.2, 0.1, 7)["estimate"]
    assert not est["exact"] and est["hits"] == 836
    assert 0 < est["samples"] < est["samples_wanted"]
    assert list(est).index("samples_wanted") == list(est).index("samples") + 1


def test_run_report_shows_the_sampled_universe():
    # thurley draws from the cut's frontier: its size U' and the nodes the
    # walk vetted follow samples_wanted, and close the CSV row
    phi = generate(GeneratorSpec(n=23, m=46, k=3, seed=1))
    row = run_report(phi, Strategy.THURLEY, 0.2, 0.1, 7)
    est = row["estimate"]
    keys = list(est)
    at = keys.index("samples_wanted")
    assert keys[at + 1:at + 3] == ["universe_size", "frontier_nodes"]
    assert 0 < int(est["universe_size"]) < 2 ** 23 and est["frontier_nodes"] > 0
    assert CSV_COLUMNS[-2:] == ("universe_size", "frontier_nodes")
    assert bench_csv_row(row)[-2:] == [est["universe_size"],
                                       est["frontier_nodes"]]


# --- CLI ---------------------------------------------------------------------

def test_cli_gen_roundtrip(capsys):
    assert main(["gen", "--n", "8", "--m", "6", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("c generated: n=8 m=6 k=3 seed=3")
    assert "p cnf 8 6" in out
    lines = [l for l in out.splitlines() if l and l[0] not in "cp"]
    assert len(lines) == 6 and all(l.endswith(" 0") for l in lines)


def test_cli_count_file(tmp_path, capsys):
    path = tmp_path / "chain3.cnf"
    path.write_text(CHAIN3_TEXT)
    code = main(["count", "--file", str(path), "--ref", "--seed", "1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["estimate"]["value"] == 4.0
    assert report["reference"]["eps_accurate"] is True
    assert report["instance"]["file"] == str(path)


def test_cli_count_reports_a_count_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 1100 0\n")
    assert main(["count", "--file", str(path)]) == EXIT_OK
    est = json.loads(capsys.readouterr().out)["estimate"]
    assert est["value"] is None and est["value_exact"] == str(2 ** 1100)


def test_cli_count_warns_on_a_flagged_result(tmp_path, capsys):
    path = tmp_path / "sparse.cnf"
    path.write_text(serialize_dimacs(generate(
        GeneratorSpec(n=23, m=46, k=3, seed=1))))
    code = main(["count", "--file", str(path), "--strategy", "pruned",
                 "--seed", "7", "--budget", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr()
    est = json.loads(out.out)["estimate"]
    assert est["under_sampled"] is True
    bound = int(est["lower_bound"])
    assert bound >= 1 and est["value"] >= bound
    assert "warning: under-sampled" in out.err
    main(["count", "--file", str(path), "--strategy", "pruned", "--seed", "7"])
    assert capsys.readouterr().err == ""


def test_cli_count_refuses_a_budget_below_one(tmp_path, capsys):
    path = tmp_path / "sparse.cnf"
    path.write_text(serialize_dimacs(generate(
        GeneratorSpec(n=23, m=46, k=3, seed=1))))
    code = main(["count", "--file", str(path), "--budget", "0"])
    assert code == EXIT_INPUT
    assert "sample_budget must be at least 1" in capsys.readouterr().err


def test_cli_count_strategy_choices(tmp_path):
    path = tmp_path / "chain3.cnf"
    path.write_text(CHAIN3_TEXT)
    with pytest.raises(SystemExit) as err:
        main(["count", "--file", str(path), "--strategy", "bogus"])
    assert err.value.code == 2


def test_cli_count_missing_file_is_input_error(capsys):
    assert main(["count", "--file", "/nonexistent.cnf"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_cli_count_malformed_dimacs(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf nope\n")
    assert main(["count", "--file", str(path)]) == EXIT_INPUT


def test_cli_reference_guard(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 30 1\n1 2 3 0\n")
    assert main(["count", "--file", str(path), "--ref"]) == EXIT_GUARD
    assert "--force" in capsys.readouterr().err
    # without the reference the same instance counts fine
    assert main(["count", "--file", str(path), "--seed", "0"]) == EXIT_OK


def test_cli_brute_guard(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 30 1\n1 2 3 0\n")
    code = main(["count", "--file", str(path), "--strategy", "brute"])
    assert code == EXIT_GUARD
    capsys.readouterr()


def test_cli_bench_csv(capsys):
    code = main(["bench", "--n", "10", "--m", "12", "--trials", "2",
                 "--strategies", "thurley,pruned", "--csv", "--seed", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2


def test_cli_bench_json_lines(capsys):
    code = main(["bench", "--n", "10", "--m", "12", "--trials", "1",
                 "--strategies", "structs", "--seed", "5"])
    assert code == EXIT_OK
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1 and rows[0]["strategy"] == "structs"


def test_cli_bench_guard_and_no_ref(capsys):
    base = ["bench", "--n", "26", "--m", "10", "--trials", "1",
            "--strategies", "structs"]
    assert main(base) == EXIT_GUARD
    capsys.readouterr()
    assert main(base + ["--no-ref"]) == EXIT_OK


def test_cli_bench_reference_obeys_the_brute_force_guard(monkeypatch, capsys):
    # a guard of 8 stands in for the default 28, so n=10 is above it;
    # --small-n 2 keeps the count itself off the brute-force route
    monkeypatch.setattr(cli, "CounterConfig",
                        functools.partial(CounterConfig, brute_force_guard=8))
    base = ["bench", "--n", "10", "--m", "30", "--trials", "1",
            "--strategies", "thurley", "--small-n", "2", "--threads", "1",
            "--seed", "3"]
    assert main(base) == EXIT_GUARD
    assert "exceeds guard of 2^8" in capsys.readouterr().err
    assert main(base + ["--force"]) == EXIT_OK
    row, = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    expected = brute_force_count(generate(GeneratorSpec(10, 30, 3, 3))).value
    assert row["reference"]["value"] == str(expected)


def test_cli_bench_refuses_fewer_than_one_thread(capsys):
    code = main(["bench", "--n", "10", "--m", "5", "--trials", "1",
                 "--threads", "-3"])
    assert code == EXIT_USAGE
    assert "--threads must be at least 1" in capsys.readouterr().err


def test_cli_bench_refuses_a_negative_trial_count(capsys):
    code = main(["bench", "--n", "10", "--m", "20", "--trials", "-2", "--csv"])
    assert code == EXIT_USAGE
    assert "--trials must be at least 0" in capsys.readouterr().err
    assert main(["bench", "--n", "10", "--m", "20", "--trials", "0",
                 "--csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [",".join(CSV_COLUMNS)]


def test_cli_bench_unknown_strategy(capsys):
    code = main(["bench", "--n", "10", "--m", "5", "--strategies", "nope"])
    assert code == EXIT_INPUT


def test_cli_selftest(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out and "all good" in out


def _console_script():
    """Shell command and environment that run the ``indepcount`` script.

    An installed script on PATH is used as it is. Without one, the entry
    point declared under ``[project.scripts]`` is called the way pip's
    wrapper calls it, with the tested package's directory first on the
    child's PYTHONPATH so that it loads the same code from any directory.
    """
    exe = shutil.which("indepcount")
    if exe is not None:
        return shlex.quote(exe), None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["indepcount"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    package_root = str(Path(indepcount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH"))))
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}", env


def test_console_script_pipe():
    exe, env = _console_script()
    pipe = subprocess.run(
        f"{exe} gen --n 10 --m 14 --seed 2 | {exe} count --ref --seed 3",
        shell=True, capture_output=True, text=True, timeout=120, env=env)
    assert pipe.returncode == EXIT_OK, pipe.stderr
    report = json.loads(pipe.stdout)
    assert report["reference"]["eps_accurate"] in (True, False)
    assert report["instance"]["n"] == 10
