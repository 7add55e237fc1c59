"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, that a perturbed or missing reference is caught, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT,
          size: str = "tiny") -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", size,
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def copy_benchmark(dest: Path) -> Path:
    """BENCHMARK.json and the benchmark's directories, copied into ``dest``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.fixture
def checkout(tmp_path) -> Path:
    """A copy of the benchmark whose references the test may rewrite,
    running the program's own sources."""
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    code, result, stderr = bench("--workload", workload, "--trace", trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def perturb_reference(checkout: Path, workload: str) -> str:
    """Shift one output of the tiny reference; return that output's name."""
    path = checkout / "perfbench" / "reference" / f"{workload}-tiny.json"
    reference = json.loads(path.read_text())
    name = sorted(reference["outputs"])[0]
    reference["outputs"][name][0] += 1e-9
    path.write_text(json.dumps(reference))
    return name


def test_perturbed_reference_makes_failed_frac_nonzero(checkout):
    base = ("--workload", "missrate")
    code, result, stderr = bench(*base, "--update-reference", cwd=checkout)
    assert code == 0 and result["failed"] == 0, stderr
    code, result, stderr = bench(*base, "--trace", "1", cwd=checkout)
    assert code == 0 and result["failed"] == 0, stderr
    assert result["metrics"]["failed_frac"]["value"] == 0.0

    name = perturb_reference(checkout, "missrate")
    code, result, stderr = bench(*base, "--trace", "1", cwd=checkout)
    assert code == 0, stderr
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0.0
    assert name in stderr


def test_reference_is_used_only_for_its_seed(checkout):
    base = ("--workload", "missrate")
    assert bench(*base, "--update-reference", cwd=checkout)[0] == 0
    perturb_reference(checkout, "missrate")
    # Another seed checks passes against each other, not the reference.
    code, result, stderr = bench(*base, "--seed", "7", cwd=checkout)
    assert code == 0 and result["failed"] == 0, stderr


def test_full_size_needs_its_reference(checkout):
    (checkout / "perfbench" / "reference" / "missrate-full.json").unlink()
    code, result, stderr = bench("--workload", "missrate", cwd=checkout,
                                 size="full")
    assert code != 0 and result is None
    assert "missing reference" in stderr


def test_fails_without_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    code, result, _ = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0 and result is None
