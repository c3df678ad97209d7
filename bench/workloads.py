"""Inputs, workloads and output checks of the eqschub benchmark.

Every workload drives eqschub through its public entry points only:
``cli.main`` for ``mult`` queries, ``cli.run_sweep`` for sweeps, and the
library functions they call for the independent re-check.  Inputs are
made in code from the run's seed; outputs are compared with the sha256
digests in ``pins.json``, which were taken from the program as it was
when the benchmark was defined (see ``pin.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import eqschub
from eqschub import cli

from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
# Scratch space inside the checkout; listed in the repository's .gitignore.
WORK_DIR = ROOT / ".bench_work"

# The mult query pool is fixed, so that every query a seed can draw has
# a pinned digest; the run's seed picks the stream from the pool.
POOL_SEED = 9908172
FORMATS = ("text", "json", "csv")
BASES = ("x", "y")
EVAL_SHARE = 0.25
# mult queries per run that are re-checked with verify_product_identity.
CHECK_SAMPLE = 2
# Fresh processes per run that time ``import eqschub`` and one root system.
SETUP_PROBES = 9
# The reference work takes this long at the host speed that scaled times
# are given in: about its time at the faster of the two speeds a 2.1 GHz
# Xeon VM was seen to run at (see bench/README.md, "Noise").
REFERENCE_S = 0.2

A2 = ((2, -1), (-1, 2))
A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
AFFINE_A1 = ((2, -2), (-2, 2))
AFFINE_A2 = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


@dataclass(frozen=True)
class Size:
    """The inputs of one benchmark size: ``full`` is the real benchmark,
    ``smoke`` the tiny one the self-tests run."""

    name: str
    mult_cartan: tuple
    pool_size: int
    trace_queries: int
    sweep_cartan: tuple
    sweep_bound: int


# mult-A4: |W| = 120.  Every query rebuilds the whole-group Bruhat order
# and restriction table, so weyl and localize do most of the work and the
# solver little.
# sweep-affA2 / resume-affA2: affine A2 is a Kac-Moody (general-kind)
# matrix, truncated at length 6: 361 pairs over one table, so the
# per-pair solve, division, certificate and JSON encoding dominate, the
# reverse of mult-A4.  One sweep takes about 2 s, so a run holds about
# 15 of them.  The resume run reads a cache that already holds every
# pair, so only it exercises the cache's read side.
FULL = Size("full", A4, 256, 8, AFFINE_A2, 6)
SMOKE = Size("smoke", A2, 16, 3, AFFINE_A1, 4)
SIZES = {s.name: s for s in (FULL, SMOKE)}


def reference_work() -> int:
    """Fixed pure-Python work of the kind eqschub does, without eqschub:
    products of sparse polynomials held as dicts keyed by exponent
    tuples, with Fraction coefficients."""
    p = {(i, j, k): Fraction(i + 1, j + 2) for i in range(4) for j in range(4) for k in range(3)}
    acc: dict = {}
    for _ in range(24):
        acc = {}
        for e1, c1 in p.items():
            for e2, c2 in p.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                acc[e] = acc.get(e, 0) + c1 * c2
    return len(acc)


class HostClock:
    """Scales wall times to a fixed host speed.

    The host runs the same code up to twice as fast at some moments as
    at others, in spells of seconds.  The reference work runs before and
    after every timed operation; the operation's wall time over the mean
    of the two reference times, times REFERENCE_S, is its scaled time.
    A slower program raises the scaled time; a slower host does not.
    """

    def __init__(self):
        self.reference: list[float] = []
        self.last = self.time_reference()

    def time_reference(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.reference.append(elapsed)
        return elapsed

    def scale(self, elapsed: float) -> float:
        """Scale the operation that just ended, which took ``elapsed``."""
        before, self.last = self.last, self.time_reference()
        return elapsed * REFERENCE_S / ((before + self.last) / 2)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_cartan(path: Path, entries, kind: str) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rank": len(entries), "entries": [list(r) for r in entries], "kind": kind}, fh)
    return path


def word_arg(word) -> str:
    return ",".join(str(i) for i in word) if word else "e"


def query_pool(size: Size) -> list[tuple[str, ...]]:
    """The mult queries, as arguments after ``mult --cartan FILE``.

    Pairs are uniform over the whole group; each query also draws a
    format, a basis and, for a quarter of them, a positive rational
    evaluation point.
    """
    rs = eqschub.build_root_system(eqschub.CartanMatrix(size.mult_cartan), "finite")
    rng_w = eqschub.enumerate_upto(rs, len(rs.positive_roots))
    words = [w.word for w in rng_w.elements]
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(size.pool_size):
        u, v = rng.choice(words), rng.choice(words)
        args = ("--u", word_arg(u), "--v", word_arg(v),
                "--format", rng.choice(FORMATS), "--basis", rng.choice(BASES))
        if rng.random() < EVAL_SHARE:
            point = ",".join(
                str(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(rs.rank)
            )
            args += ("--eval", point)
        pool.append(args)
    return pool


def query_key(args) -> str:
    return " ".join(args)


def run_query(cartan_path: Path, args) -> tuple[float, int, str]:
    """One mult query through ``cli.main``; only the call itself is timed."""
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.main(["mult", "--cartan", str(cartan_path), *args], out)
    return time.perf_counter() - start, code, out.getvalue()


def run_sweep(size: Size, cache_path: Path):
    start = time.perf_counter()
    report = cli.run_sweep(
        size.sweep_cartan, "general", size.sweep_bound, "x", jobs=1, cache_path=str(cache_path)
    )
    return time.perf_counter() - start, report


def cached_pairs(path: Path) -> int:
    """Records in a sweep cache, not counting its header line."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for i, line in enumerate(fh) if line.strip() and i > 0)


def report_problem(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


class MultWorkload:
    """A closed loop of independent mult queries from one client."""

    pairs_per_op = 1

    def __init__(self, size: Size, seed: int, pins: dict, work: Path):
        self.size = size
        self.root_system = (size.mult_cartan, "finite")
        self.trace_ops = size.trace_queries
        self.pins = pins["mult"]
        self.cartan = write_cartan(work / "mult-cartan.json", size.mult_cartan, "finite")
        self.pool = query_pool(size)
        self.rng = random.Random(seed)
        self.order: list[int] = []
        self.seed = seed
        self.passed: list[int] = []

    def query(self, i: int):
        while len(self.order) <= i:
            self.order.append(self.rng.randrange(len(self.pool)))
        return self.pool[self.order[i]]

    def op(self, i: int) -> tuple[float, int]:
        """Run query i of the stream; return (seconds, failed pairs)."""
        args = self.query(i)
        start = time.perf_counter()
        try:
            elapsed, code, text = run_query(self.cartan, args)
        except Exception:
            traceback.print_exc()
            report_problem(f"mult {query_key(args)} raised")
            return time.perf_counter() - start, 1
        if code != 0:
            report_problem(f"mult {query_key(args)} exited {code}")
            return elapsed, 1
        if self.pins.get(query_key(args)) != sha256_text(text):
            report_problem(f"mult {query_key(args)} stdout digest differs from pin")
            return elapsed, 1
        self.passed.append(i)
        return elapsed, 0

    def recheck(self) -> int:
        """Re-check a seeded sample of the queries that passed by the
        product identity at every fixed point; return how many failed."""
        ops = sorted(set(self.passed))
        sample = random.Random(self.seed).sample(ops, min(CHECK_SAMPLE, len(ops)))
        rs = eqschub.build_root_system(eqschub.CartanMatrix(self.size.mult_cartan), "finite")
        table = eqschub.restriction_table(rs, len(rs.positive_roots))
        w0 = eqschub.longest_element(rs)
        failed = 0
        for i in sample:
            args = self.query(i)
            opts = dict(zip(args[::2], args[1::2]))
            u, v = (eqschub.element_from_word(rs, cli.parse_word(opts[f], rs.rank, f))
                    for f in ("--u", "--v"))
            s = eqschub.structure_constants(table, u, v)
            if opts["--basis"] == "y":
                s = eqschub.opposite_constants(s, w0)
            if not eqschub.verify_product_identity(table, s):
                report_problem(f"mult {query_key(args)} fails the product identity")
                failed += 1
        return failed

    def trace_extras(self, tracer: Tracer) -> dict:
        return {"cli.cache.bytes": 0, "cli.recomputed_frac": 0.0}


class SweepWorkload:
    """Repeated sweeps, each into a fresh cache file."""

    trace_ops = 1

    def __init__(self, size: Size, seed: int, pins: dict, work: Path):
        self.size = size
        self.root_system = (size.sweep_cartan, "general")
        self.pin = pins["sweep"]
        self.pairs_per_op = self.pin["pairs"]
        self.cache = work / "sweep-cache.jsonl"
        # (pairs cached before, cache bytes after) of the last sweep that ran.
        self.last = (0, 0)

    def prepare_cache(self) -> int:
        """Make the cache the next sweep writes to; return its cached pairs."""
        if self.cache.exists():
            self.cache.unlink()
        return 0

    def op(self, i: int) -> tuple[float, int]:
        cached_before = self.prepare_cache()
        start = time.perf_counter()
        try:
            elapsed, report = run_sweep(self.size, self.cache)
        except Exception:
            traceback.print_exc()
            report_problem("run_sweep raised")
            return time.perf_counter() - start, self.pairs_per_op
        self.last = (cached_before, self.cache.stat().st_size)
        # The cache digest covers every pair at once, so a sweep that fails
        # any check fails all of its pairs.
        if report.pair_count != self.pairs_per_op or report.verdict != "pass":
            report_problem(f"sweep gave {report.pair_count} pairs, verdict {report.verdict}")
        elif sha256_file(self.cache) != self.pin["sha256"]:
            report_problem("sweep cache digest differs from pin")
        elif cached_pairs(self.cache) != self.pairs_per_op:
            report_problem("sweep cache does not hold every pair once")
        else:
            return elapsed, 0
        return elapsed, self.pairs_per_op

    def recheck(self) -> int:
        return 0

    def trace_extras(self, tracer: Tracer) -> dict:
        cached_before, cache_bytes = self.last
        solves = sum(1 for s in tracer.spans if s[0] == "structconst.solve")
        return {
            "cli.cache.bytes": cache_bytes,
            "cli.recomputed_frac": solves / cached_before if cached_before else 0.0,
        }


class ResumeWorkload(SweepWorkload):
    """Sweeps against a cache that already holds every pair.

    The full cache is made once per checkout by the CLI in a child
    process, which is preparation and is not timed, and is kept under
    WORK_DIR while its digest matches the pin.  Each sweep must leave its
    copy byte-identical.
    """

    def __init__(self, size: Size, seed: int, pins: dict, work: Path):
        super().__init__(size, seed, pins, work)
        self.work = work
        self.full = self.fill()
        self.cache = work / "resume-cache.jsonl"
        self.copied = False

    def fill(self) -> Path:
        full = WORK_DIR / f"{self.size.name}-resume-full.jsonl"
        if full.exists() and sha256_file(full) == self.pin["sha256"]:
            return full
        cartan = write_cartan(self.work / "sweep-cartan.json", self.size.sweep_cartan, "general")
        tmp = self.work / "fill.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop(cli.CACHE_ENV, None)
        proc = subprocess.run(
            [sys.executable, "-m", "eqschub.cli", "sweep", "--cartan", str(cartan),
             "--max-length", str(self.size.sweep_bound), "--cache", str(tmp)],
            env=env, cwd=self.work, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            report_problem(f"cache fill exited {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, full)
        return full

    def prepare_cache(self) -> int:
        if not self.copied:
            shutil.copyfile(self.full, self.cache)
            self.copied = True
        return self.pairs_per_op

    def op(self, i: int) -> tuple[float, int]:
        elapsed, failed = super().op(i)
        # A failed sweep may have changed the cache: start the next from a fresh copy.
        self.copied = failed == 0
        return elapsed, failed


WORKLOAD_TYPES = {
    "mult-A4": MultWorkload,
    "sweep-affA2": SweepWorkload,
    "resume-affA2": ResumeWorkload,
}


SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eqschub
eqschub.build_root_system(eqschub.CartanMatrix.from_rows(json.loads(sys.argv[2])), sys.argv[3])
print(time.perf_counter() - start)
"""


def setup_seconds(entries, kind: str, clock: HostClock) -> tuple[float, float]:
    """Median over fresh processes of ``import eqschub`` plus one root
    system: (scaled seconds, wall seconds).

    One probe runs first untimed, so that bytecode compilation in a new
    checkout is not counted.
    """
    argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), json.dumps(entries), kind]
    subprocess.run(argv, capture_output=True, timeout=60, check=True)
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(clock.scale(wall[-1]))
    return statistics.median(scaled), statistics.median(wall)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict
    # Printed for reading, not listed in BENCHMARK.json: name -> (value, unit).
    info: dict = field(default_factory=dict)


def measure(name: str, size: Size, seed: int, seconds: float, work: Path) -> Outcome:
    """The untraced run: end-to-end metrics over ``seconds`` of operations.

    Operations start until the next one would end past ``seconds``
    (judged by their mean time so far, reference work included), and at
    least one runs.  Listed times are scaled by ``HostClock``; the wall
    times are printed beside them.
    """
    wl = WORKLOAD_TYPES[name](size, seed, load_pins()[size.name], work)
    clock = HostClock()
    setup, setup_wall = setup_seconds(*wl.root_system, clock)

    per_pair, per_pair_wall, timed, failed, n = [], [], 0.0, 0, 0
    start = time.perf_counter()
    while True:
        elapsed, bad = wl.op(n)
        n += 1
        per_pair.append(clock.scale(elapsed) / wl.pairs_per_op)
        per_pair_wall.append(elapsed / wl.pairs_per_op)
        timed += elapsed
        failed += bad
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed += wl.recheck()
    attempted = n * wl.pairs_per_op
    return Outcome(attempted, min(failed, attempted), {
        "setup_s": setup,
        "pair_s": statistics.median(per_pair),
        "peak_rss_mb": peak_rss_mb,
    }, {
        "setup_wall_s": (setup_wall, "s"),
        "mult_p50_s": (statistics.median(per_pair_wall), "s"),
        "mult_p90_s": (percentile(per_pair_wall, 90), "s"),
        "pairs_per_s": (attempted / timed, "1/s"),
        "reference_s": (statistics.median(clock.reference), "s"),
    })


def source_lines() -> dict:
    pkg = SRC / "eqschub"
    out = {}
    total = 0
    for path in sorted(pkg.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        total += lines
        if path.stem in ("rootsys", "weyl", "localize", "structconst", "cli"):
            out[f"loc.{path.stem}"] = lines
    out["loc.total"] = total
    return out


def trace(name: str, size: Size, seed: int, work: Path) -> Outcome:
    """The traced run: a fixed set of operations, first untraced and then
    traced, so that counts repeat exactly for a seed and the difference in
    scaled time (see ``HostClock``) is the tracing overhead."""
    wl = WORKLOAD_TYPES[name](size, seed, load_pins()[size.name], work)
    clock = HostClock()
    ops = range(wl.trace_ops)
    untraced, failed = 0.0, 0
    for i in ops:
        elapsed, bad = wl.op(i)
        untraced += clock.scale(elapsed)
        failed += bad
    tracer = Tracer()
    traced = 0.0
    with tracer.installed():
        for i in ops:
            elapsed, bad = wl.op(i)
            traced += clock.scale(elapsed)
            failed += bad
    failed += wl.recheck()
    metrics = layer_metrics(tracer)
    metrics.update(wl.trace_extras(tracer))
    metrics.update(source_lines())
    metrics["trace.overhead_s"] = traced - untraced
    attempted = 2 * len(ops) * wl.pairs_per_op
    return Outcome(attempted, min(failed, attempted), metrics)
