"""Self-tests of the benchmark, on its smoke inputs.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run; together
they take under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMES = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"}

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert f"\n{m['name']} = " in "\n" + proc.stdout
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "fail_frac = 0 " in proc.stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture
def work():
    workloads.WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=workloads.WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k not in TIMES} for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_digest_counts_as_failure(workload, work, monkeypatch):
    pins = workloads.load_pins()
    for size in pins.values():
        size["mult"] = {k: "0" + v[1:] for k, v in size["mult"].items()}
        size["sweep"]["sha256"] = "0" + size["sweep"]["sha256"][1:]
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    outcome = workloads.measure(workload, workloads.SMOKE, 3, 0.5, work)
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted


def test_refuses_to_run_without_sources():
    workloads.WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_self_time_subtracts_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("localize.table", 1.0, 5.0, 0),
        ("rootsys.mul", 2.0, 3.0, 1),
        ("rootsys.mul", 3.5, 4.0, 1),
        (tracing.OBSERVE, 5.0, 6.0, 0),
    ]
    calls, self_s, incl_s = tracing.span_totals(spans)
    assert calls["rootsys.mul"] == 2
    assert self_s["rootsys.mul"] == pytest.approx(1.5)
    assert self_s["localize.table"] == pytest.approx(2.5)
    assert incl_s["localize.table"] == pytest.approx(4.0)
    assert self_s["cli.main"] == pytest.approx(5.0)


def test_scaled_time_divides_by_the_bracketing_reference(monkeypatch):
    references = iter([0.4, 0.2, 0.6])
    monkeypatch.setattr(workloads.HostClock, "time_reference", lambda self: next(references))
    clock = workloads.HostClock()
    assert clock.scale(3.0) == pytest.approx(3.0 * workloads.REFERENCE_S / 0.3)
    assert clock.scale(1.0) == pytest.approx(1.0 * workloads.REFERENCE_S / 0.4)
