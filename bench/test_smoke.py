"""Smoke tests of the benchmark harness itself (tiny inputs, a few seconds
per workload).  Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["sweep", "gauss125", "crossed", "cli"]


def run_all(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("seed", [1, 2])
def test_untraced_smoke_passes_every_check(seed):
    lines, result = run_all("--seed", str(seed), "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in WORKLOADS:
        assert f"{w} note failed_ratio 0.0" in lines
        for metric in SPEC["end_to_end"]:
            reported = result["metrics"][f"{w}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0


def test_traced_smoke_reports_every_layer_metric():
    lines, result = run_all("--seed", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    for w in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert result["metrics"][f"{w}.{metric['name']}"]["unit"] == metric["unit"]
        assert (BENCH / "out" / f"spans-{w}-seed1.json").is_file()
        assert f"{w} note attribution_ok True" in lines
        assert result["metrics"][f"{w}.trace.overhead"]["value"] > 0
    assert result["metrics"]["sweep.oracle.flatten.calls"]["value"] > 0
    assert result["metrics"]["crossed.groups.GroupAction.validate.per_orbit_decompose"]["value"] > 0
    assert result["metrics"]["cli.cli.main.calls"]["value"] > 0
    assert result["metrics"]["cli.cli.startup.s"]["value"] > 0


def test_metric_names_match_benchmark_json():
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(run.per_layer_metrics()) == [m["name"] for m in SPEC["per_layer"]]
    assert list(run.WORKLOAD_NAMES) == WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


def test_wrong_results_are_counted_as_failures():
    """A check that compares against a wrong pin must fail the op."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import workloads as W\n"
        "order = W.gaussian_outer(3)\n"
        "assert W._report_check(order, W.P5, W.GAUSS_PINS[3][0]) is None\n"
        "assert W._report_check(order, W.P5, ('(1+2i)', 27, False, False)) is not None\n"
        "W.CLI_PINS[('example', 'nonbasic')] = (0, '0' * 64)\n"
        "state = {'dir': W.OUT_DIR}\n"
        "assert W.Cli._op(state, ('example', 'nonbasic'))(None) is not None\n"
    ) % (str(BENCH), str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_attribution_below_its_floor_fails_the_traced_run():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import run\n"
        "run.ATTRIBUTION_FLOOR['crossed'] = 1.01\n"
        "sys.exit(run.main(['--workload', 'crossed', '--smoke', '--trace', '1']))\n"
    ) % str(BENCH)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert "attribution" in proc.stderr
