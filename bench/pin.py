"""Write ``pins.json``: the digests the benchmark checks outputs against.

    python3 bench/pin.py

Runs every pooled mult query and one sweep per size with the program in
``src/`` and records the sha256 of each query's stdout and of the sweep's
cache file.  Run it only on a commit whose outputs are trusted; the
benchmark then flags any output that differs from that commit's.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def pin(size: workloads.Size, work: Path) -> dict:
    cartan = workloads.write_cartan(work / f"{size.name}-cartan.json", size.mult_cartan, "finite")
    mult = {}
    for args in workloads.query_pool(size):
        _, code, text = workloads.run_query(cartan, args)
        if code != 0:
            raise SystemExit(f"mult {workloads.query_key(args)} exited {code}")
        mult[workloads.query_key(args)] = workloads.sha256_text(text)
    cache = work / f"{size.name}-sweep.jsonl"
    _, report = workloads.run_sweep(size, cache)
    if report.verdict != "pass":
        raise SystemExit(f"{size.name} sweep verdict {report.verdict}")
    return {
        "mult": mult,
        "sweep": {"pairs": report.pair_count, "sha256": workloads.sha256_file(cache)},
    }


def main() -> None:
    workloads.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pin-", dir=workloads.WORK_DIR) as tmp:
        pins = {name: pin(size, Path(tmp)) for name, size in workloads.SIZES.items()}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
