"""Run the eqschub benchmark.

One workload, printing each metric and, as the last stdout line, the
result as one JSON object:

    python3 bench/run.py --workload mult-A4 --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, untraced and then traced, with a
summary of every metric and of the tracing overhead:

    python3 bench/run.py --seed 1

``--smoke`` swaps in tiny inputs (A2 queries, an affine A1 sweep at length
4) for the self-tests in ``selftest.py``.  Metric names and units come
from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    return parser.parse_args(argv)


def result_of(spec: dict, trace: int, outcome) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(outcome.metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(names ^ set(outcome.metrics))}"
        )
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def print_result(result: dict, info: dict | None = None) -> None:
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in (info or {}).items():
        print(f"{name} = {value:.6g} {unit} (wall clock, not listed)")
    print(f"fail_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']})")
    print(json.dumps(result))


def run_one(args, spec: dict) -> int:
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    workloads.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=workloads.WORK_DIR))
    try:
        if args.trace:
            outcome = workloads.trace(args.workload, size, args.seed, work)
        else:
            outcome = workloads.measure(args.workload, size, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(result_of(spec, args.trace, outcome), outcome.info)
    return 0


def run_all(args, names) -> int:
    """Each workload in a child process, untraced then traced."""
    results = {}
    for workload in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results[f"{workload} trace={trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    all_correct = True
    for key, result in results.items():
        print(f"== {key}")
        print_result(result)
        all_correct = all_correct and result["correct"]
    for workload in names:
        overhead = results[f"{workload} trace=1"]["metrics"]["trace.overhead_s"]["value"]
        print(f"tracing overhead {workload}: {overhead:.3f} s")
    print(json.dumps(results))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    if not (SRC / "eqschub" / "__init__.py").is_file():
        print(f"error: no eqschub sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
