"""Self-test of the benchmark at smoke size.

Run from the repository root: ``python3 -m pytest perfbench``.  Each
workload goes through the same gates and metric printing as a full run, a
job with a wrong expected value must count as failed, and the benchmark must
refuse to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    done = _smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for line in (f"metric {m['name']} = " for m in declared):
        assert line in done.stdout


def test_wrong_expected_value_counts_the_job_as_failed(capsys):
    wrong = run.wrong_expectations(run.EXPECTED)
    result = run.run("invariant-d6", seed=3, seconds=1, trace=False, smoke=True, expect=wrong)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] == 0
    assert '"ok": false' in capsys.readouterr().out


def test_every_gate_rejects_a_wrong_expected_value():
    wrong = run.wrong_expectations(run.EXPECTED)
    cases = [
        ({"command": "invariant", "d": 2, "points": 2, "seed": 5},
         "degree 2: invariant = 27/2\nraw two-point pairing = 81/2\n"
         "constant across 2 specializations (seed 5): yes\n", {}),
        ({"command": "verify", "dmax": 2, "seed": 5}, "PASS x\n" * 13 + "13/13 identities hold\n", {}),
        ({"command": "reproduce", "seed": 5}, "PASS x\n" * 55 + "55/55 checks passed\n", {}),
        ({"command": "table", "dmax": 2, "seed": 5},
         "scaled two-point values: f(1) = -27, f(2) = 27\n", {}),
        ({"command": "enumerate", "d": 3, "seed": 5}, "", {"graphs": 201, "aut_total": 321}),
    ]
    for spec, stdout, record in cases:
        assert run.check_output(spec, stdout, record, run.EXPECTED) == "", spec
        assert run.check_output(spec, stdout, record, wrong) != "", spec


def test_every_engine_cache_is_found_and_cleared():
    import job
    from hilb3.localization import forbidden_weights

    forbidden_weights(1)
    names = job.clear_engine_caches()
    for short in ("edge_character", "edge_euler", "graph_sum", "forbidden_weights",
                  "_edges_at", "_subtrees", "_items", "enumerate_graphs", "fixed_points",
                  "tangent_character", "curve_catalog", "curves_through", "dual_basis"):
        assert any(name.endswith("." + short) for name in names), short
    assert forbidden_weights.cache_info().currsize == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _smoke("invariant-d6", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
