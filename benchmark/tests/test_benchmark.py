"""Checks on the benchmark itself: tiny smoke runs and a mutation check.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_IGNORE = shutil.ignore_patterns("__pycache__", ".bench_out")


def _run(root: Path, workload: str, trace: int = 0, max_ops: int = 3):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--max-ops", str(max_ops)],
        capture_output=True, text=True, timeout=170, cwd=root)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _copy_checkout(tmp_path: Path) -> Path:
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=_IGNORE)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def test_spec_matches_the_printed_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    lines, result = _run(ROOT, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in END_TO_END_UNITS.items():
        assert f"{name} " in text and f" {unit} " in text
    failed_line = next(line for line in lines if "failed_frac" in line)
    assert float(failed_line.split()[1]) == 0.0
    assert "n=3" in text  # sample counts are printed


def test_traced_smoke_run_prints_every_layer_metric():
    lines, result = _run(ROOT, "games", trace=1)
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["adversary.games"]["value"] == 3
    assert any("per-layer self-time share" in line for line in lines)
    trace = json.loads(
        (ROOT / ".bench_out" / "games-seed0-trace1.json").read_text())
    spans = trace["trace"]["spans"]
    assert spans and all(len(s) == 6 for s in spans)
    ids = {s[0] for s in spans}
    assert all(s[4] == -1 or s[4] in ids for s in spans)


def test_altered_reference_digest_counts_as_failed(tmp_path):
    root = _copy_checkout(tmp_path)
    _, clean = _run(root, "games")
    assert clean["failed"] == 0
    done = json.loads(
        (root / ".bench_out" / "games-seed0-trace0.json").read_text())
    first_key = done["passes"][0][0][0]
    ref_path = root / "benchmark" / "reference.json"
    reference = json.loads(ref_path.read_text())
    digest = reference["games"][first_key]
    reference["games"][first_key] = "0" * len(digest)
    ref_path.write_text(json.dumps(reference))

    lines, result = _run(root, "games")
    assert result["failed"] == 1 and not result["correct"]
    failed_line = next(line for line in lines if "failed_frac" in line)
    assert float(failed_line.split()[1]) > 0
    assert any("FAILED mismatch" in line and first_key in line
               for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "games",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
