"""Tests of the benchmark's own pieces, run against the package under src/.

    python3 -m pytest perfbench/tests

Each test starts a few short wegnerlab commands; the whole module takes
about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_and_untraced_csvs_are_byte_identical(tmp_path):
    plain = bench.invoke("edge_pair", 0, tmp_path)
    traced = bench.invoke("edge_pair", 0, tmp_path, trace=True)
    assert plain["csv"] is not None
    assert traced["csv"] == plain["csv"]
    assert traced["exit_code"] == plain["exit_code"]
    names = {span[0] for span in traced["stats"]["spans"]}
    assert {"row", "trial", *bench.LAYERS} <= names


def test_campaign_check_counts_rows_against_the_reference(tmp_path):
    reference = json.loads(bench.REFERENCE.read_text())["edge_pair"]["1"]
    inv = bench.invoke("edge_pair", 1, tmp_path)
    assert bench.check("edge_pair", reference, inv) == (3, 0)
    one_row_wrong = {**reference, "rows": [reference["rows"][0] + "0", *reference["rows"][1:]]}
    assert bench.check("edge_pair", one_row_wrong, inv) == (3, 1)
    wrong_status = {**reference, "exit_code": 1 - reference["exit_code"]}
    assert bench.check("edge_pair", wrong_status, inv) == (3, 3)
    assert bench.check("edge_pair", reference, {**inv, "csv": None}) == (3, 3)


def test_oracle_check_counts_suites_against_the_reference():
    reference = json.loads(bench.REFERENCE.read_text())["oracles"]["0"]
    suites = dict(reference["suites"])
    inv = {"exit_code": reference["exit_code"], "stats": {"suites": suites}}
    assert bench.check("oracles", reference, inv) == (6, 0)
    suites["dist"] = [True, suites["dist"][1] + 1]
    assert bench.check("oracles", reference, inv) == (6, 1)
    del suites["dist"]
    assert bench.check("oracles", reference, inv) == (6, 1)


def test_end_to_end_metrics_of_a_run():
    def command(setup_s, wall_s, rows, maxrss_kb, steal_share=0.0):
        return {"setup_s": setup_s, "wall_s": wall_s, "steal_share": steal_share,
                "stats": {"rows": rows, "maxrss_kb": maxrss_kb}}

    probes = [command(0.3, 0.3, [], 1024)]
    runs = [command(0.5, 2.0, [[600, 0.5], [600, 0.7]], 2048),
            command(0.8, 6.0, [[600, 2.0], [600, 2.4]], 4096, steal_share=0.5)]
    metrics = bench.end_to_end(probes, runs)
    assert metrics["setup_s"]["value"] == pytest.approx(0.4)
    assert metrics["wall_s"]["value"] == pytest.approx(2.5)
    assert metrics["trials_per_s"]["value"] == pytest.approx(2400 / 3.4)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(3.0)


def test_wrong_reference_gives_a_positive_fail_rate(tmp_path, monkeypatch):
    reference = json.loads(bench.REFERENCE.read_text())
    entry = reference["edge_pair"]["0"]
    entry["rows"][-1] += "0"
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(bench, "REFERENCE", wrong)
    result, _ = bench.measure("edge_pair", 0, 0, 1, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 6
    assert result["metrics"]["fail_rate"]["value"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", ["edge_pair", "oracles"])
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge_pair",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
