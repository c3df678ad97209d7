"""Command-line front end.

Commands: rootsys, restrict, mult, sweep.  Stdout carries only the result
payload and is byte-identical across reruns and across --jobs settings;
diagnostics (including wall time) go to stderr.

Exit codes: 0 success, 2 bad input, 3 resource/closure cap, 4 internal
solver inconsistency, 5 a positivity certificate failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from bisect import bisect_right
from contextlib import closing, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .errors import (
    DomainViolation,
    EqschubError,
    InsufficientBound,
    InvalidCartan,
    NotFiniteType,
)
from .localize import restriction_column, restriction_table
from .rootsys import (
    BUILTIN_TYPES,
    CartanMatrix,
    FINITE,
    GENERAL,
    RootPolynomial,
    RootSystem,
    build_root_system,
    descriptor_for,
    monomial_text,
)
from .structconst import (
    ChevalleyContext,
    billey_evaluate,
    column_constants,
    opposite_constants,
    positivity_certificate,
    record_text,
    structure_constants,
)
from .weyl import WeylRange, element_from_word, enumerate_upto, inverse, longest_element

CACHE_ENV = "EQSCHUB_CACHE"
CACHE_HEADER = {"engine": f"eqschub {__version__}", "convention": "KK", "format": 1}
# Index conventions of `restrict`: KK reads value(w, v) as the table stores
# it; Arabia and Billey both read it at (w^{-1}, v^{-1}).
CONVENTIONS = ("KK", "Arabia", "Billey")
# A --jobs pool starts at most one worker per this many pairs left.
PAIRS_PER_WORKER = 16

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 4
EXIT_CERT_FAIL = 5


class CliError(EqschubError):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.exit_code = code


# ---------------------------------------------------------------------------
# Setup kept for later calls in the same process
#
# The root system, the range and its Bruhat order depend on the Cartan
# matrix alone, not on the pair asked about, so a process that calls
# ``main`` or ``run_sweep`` many times builds them once.  One range is held:
# the one with the largest bound asked for, of the root system last used.


@lru_cache(maxsize=16)
def _root_system(cartan: CartanMatrix, kind: str, descriptor: str) -> RootSystem:
    return build_root_system(cartan, kind, descriptor=descriptor)


_held_range: WeylRange | None = None


def weyl_range(rs: RootSystem, bound: int) -> WeylRange:
    """``enumerate_upto(rs, bound)``, as a prefix of the range held for ``rs``
    when that range reaches ``bound`` or is the whole group; otherwise the
    range is enumerated and held in place of the last one."""
    global _held_range
    held = _held_range
    if held is None or held.rs is not rs or (bound > held.bound and not held.complete):
        held = _held_range = enumerate_upto(rs, bound)
    return held.prefix(bound)


def clear_setup() -> None:
    """Forget the root systems and the range kept for later calls."""
    global _held_range
    _root_system.cache_clear()
    _held_range = None


# ---------------------------------------------------------------------------
# Input parsing


def load_root_system(args) -> RootSystem:
    """The root system of ``--type`` or ``--cartan``; a file is read and
    checked on every call, and the system built once per process."""
    if args.type and args.cartan:
        raise CliError("use either --type or --cartan, not both")
    if args.type:
        if args.type not in BUILTIN_TYPES:
            raise CliError(
                f"unknown type {args.type!r}; choose from {', '.join(BUILTIN_TYPES)}"
            )
        entries, kind = BUILTIN_TYPES[args.type]
        return _root_system(CartanMatrix(entries), kind, args.type)
    if args.cartan:
        try:
            with open(args.cartan, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read cartan file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"cartan file is not valid JSON: {exc}")
        if not isinstance(data, dict) or "entries" not in data:
            raise CliError('cartan file must be {"rank": n, "entries": [[..]]}')
        try:
            cartan = CartanMatrix.from_rows(data["entries"])
        except InvalidCartan as exc:
            raise CliError(f"invalid Cartan matrix: {exc}")
        if "rank" in data and type(data["rank"]) is not int:
            raise CliError("rank field must be an integer")
        if "rank" in data and data["rank"] != cartan.rank:
            raise CliError("rank field does not match entries")
        kind = data.get("kind", FINITE)
        if kind not in (FINITE, GENERAL):
            raise CliError(f'kind must be "{FINITE}" or "{GENERAL}"')
        return _root_system(cartan, kind, descriptor_for(cartan, kind))
    raise CliError("one of --type or --cartan is required")


def parse_word(text: str, rank: int, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "e":
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdigit():
            raise CliError(f"{flag}: malformed word {text!r}")
        i = int(part)
        if not 1 <= i <= rank:
            raise CliError(f"{flag}: letter {i} out of range for rank {rank}")
        out.append(i)
    return tuple(out)


def parse_eval_point(text: str, rank: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise CliError(f"--eval needs {rank} comma-separated values")
    point = []
    for p in parts:
        try:
            point.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--eval: bad rational value {p!r}") from None
    return tuple(point)


def word_text(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word) if word else "e"


def vector_text(coords) -> str:
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        mag = abs(c)
        body = f"a{i + 1}" if mag == 1 else f"{mag}*a{i + 1}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# rootsys


def cmd_rootsys(args, out) -> int:
    rs = load_root_system(args)
    if args.format == "json":
        payload = {
            "type": rs.descriptor,
            "kind": rs.kind,
            "rank": rs.rank,
            "cartan": [list(row) for row in rs.cartan.entries],
        }
        if rs.kind == FINITE:
            payload["positive_roots"] = [
                [int(c) for c in root.coords] for root in rs.positive_roots
            ]
            payload["fundamental_weights"] = [
                [str(c) for c in w.coords] for w in rs.fundamental_weights
            ]
        print(json.dumps(payload), file=out)
    else:
        print(f"type: {rs.descriptor}", file=out)
        print(f"kind: {rs.kind}", file=out)
        print(f"rank: {rs.rank}", file=out)
        if rs.kind == FINITE:
            print(f"positive roots ({len(rs.positive_roots)}):", file=out)
            for root in rs.positive_roots:
                print(f"  {vector_text(root.coords)}", file=out)
            print("fundamental weights:", file=out)
            for j, w in enumerate(rs.fundamental_weights):
                print(f"  w{j + 1} = {vector_text(w.coords)}", file=out)
        else:
            print("positive roots: not enumerated for general kind", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# restrict


def cmd_restrict(args, out) -> int:
    rs = load_root_system(args)
    w_word = parse_word(args.w, rs.rank, "--w")
    v_word = parse_word(args.v, rs.rank, "--v")
    w = element_from_word(rs, w_word)
    v = element_from_word(rs, v_word)
    if args.convention != "KK":
        w, v = inverse(w), inverse(v)
    poly = restriction_column(v).get(w.matrix, RootPolynomial.zero(rs.rank))
    if args.format == "json":
        payload = {
            "type": rs.descriptor,
            "w": list(w_word),
            "v": list(v_word),
            "convention": args.convention,
            "value": poly.to_json_dict(),
        }
        print(json.dumps(payload), file=out)
    else:
        print(poly.to_text(), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mult


def cmd_mult(args, out) -> int:
    rs = load_root_system(args)
    u_word = parse_word(args.u, rs.rank, "--u")
    v_word = parse_word(args.v, rs.rank, "--v")
    u = element_from_word(rs, u_word)
    v = element_from_word(rs, v_word)
    if args.basis == "y" and rs.kind != FINITE:
        raise CliError("--basis y requires a finite-type root system")
    # The recurrence reads no fixed point longer than length(u)+length(v), and
    # a finite group's range stops at the longest element.  The range comes
    # from the one held for the process (see ``weyl_range``), with its
    # Bruhat order, so only the table below is built for this pair.
    bound = u.length + v.length if args.max_length is None else args.max_length
    rng = weyl_range(rs, bound)
    # It reads the rows of e, of the s_i (the ids up to rank, as ids run in
    # length order) and of the shorter of u and v (v on a tie), so the table
    # holds just the lower ideal of that element, and only at the points
    # above the longer one up to length(u)+length(v).  One outside the range
    # leaves the bound too short, which structure_constants reports.
    short, long = (u, v) if u.length < v.length else (v, u)
    short, long = rng.index.get(short), rng.index.get(long)
    ideal, points = frozenset((0,)), ()
    if short is not None and long is not None:
        ideal = rng.leq[short]
        top = u.length + v.length
        # Ids run in length order, so the points above long lie from long
        # up to the last id of length top.
        stop = bisect_right(rng.elements, top, key=lambda w: w.length)
        points = [b for b in range(long, stop) if long in rng.leq[b]]
    table = restriction_table(
        rs, bound, rng=rng, rows=ideal.union(range(min(len(rng), rs.rank + 1))), points=points
    )
    try:
        s = structure_constants(table, u, v)
    except InsufficientBound as exc:
        raise CliError(str(exc))
    if args.basis == "y":
        s = opposite_constants(s, longest_element(rs))
    cert = positivity_certificate(s)
    evaluation = None
    if args.eval is not None:
        point = parse_eval_point(args.eval, rs.rank)
        try:
            evaluation = billey_evaluate(s, point)
        except DomainViolation as exc:
            raise CliError(str(exc))

    if args.format == "json":
        record, _ = record_text(s, cert)
        if evaluation is not None:
            record = record[:-1] + ", \"eval\": " + json.dumps({
                "nu": [str(x) for x in point],
                "values": [
                    {"w": list(w.word), "value": str(x)} for w, x in zip(s.order, evaluation)
                ],
            }) + "}"
        print(record, file=out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["w_word", "degree", "monomial", "coefficient"])
        for w, poly in s.values.items():
            for exp, coeff in poly.sorted_terms():
                writer.writerow([word_text(s.order[w].word), sum(exp), monomial_text(exp), coeff])
    else:
        print(
            f"type={rs.descriptor} basis={args.basis} "
            f"u={word_text(u_word)} v={word_text(v_word)}",
            file=out,
        )
        zero = RootPolynomial.zero(rs.rank)
        for k, w in enumerate(s.order):
            print(f"w={w.word_text()}: {s.values.get(k, zero).to_text()}", file=out)
        print(f"certificate: {cert.verdict}", file=out)
        if evaluation is not None:
            nu_text = ",".join(str(x) for x in point)
            for w, x in zip(s.order, evaluation):
                print(f"eval nu={nu_text} w={w.word_text()}: {x}", file=out)
    return EXIT_OK if cert else EXIT_CERT_FAIL


# ---------------------------------------------------------------------------
# sweep


_WORKER: dict = {}


def _sweep_init(state):
    _WORKER["state"] = state


def _sweep_row_lines(state, u: int, vs) -> list[tuple[str, str, bool]]:
    """Cache lines of the pairs (u, v) and (v, u), and their verdict, for
    each v of ``vs``, all named by id.

    The constants are symmetric in u and v, so row u is column u of the
    recurrence, and the (u, v) record is the (v, u) record with its "u"
    and "v" values swapped; ``record_text`` encodes both from one body.
    """
    out = []
    for s in column_constants(state["context"], u, vs):
        if state["w0"] is not None:
            s = opposite_constants(s, state["w0"])
        cert = positivity_certificate(s)
        line, swapped = record_text(s, cert)
        out.append((swapped, line, bool(cert)))
    return out


def _sweep_task(row):
    return _sweep_row_lines(_WORKER["state"], *row)


@dataclass
class SweepReport:
    descriptor: str
    bound: int
    basis: str
    pair_count: int
    fails: list[tuple[tuple[int, ...], tuple[int, ...]]]
    wall_time: float
    cache_path: str | None

    @property
    def verdict(self) -> str:
        return "pass" if not self.fails else "fail"

    def to_json_dict(self) -> dict:
        return {
            "type": self.descriptor,
            "bound": self.bound,
            "basis": self.basis,
            "pair_count": self.pair_count,
            "fails": [
                {"u": list(u), "v": list(v)} for u, v in self.fails
            ],
            "verdict": self.verdict,
            "cache": self.cache_path,
        }


def run_sweep(
    entries,
    kind: str,
    bound: int,
    basis: str,
    *,
    jobs: int = 1,
    cache_path: str | None = None,
) -> SweepReport:
    """Certify every ordered pair in range, computing only the pairs the cache lacks.

    The report and the cache hold one entry per ordered pair, in
    row-major order over the swept elements.  An existing cache is read
    and validated before anything is solved.  A cached pair is not solved
    again: its verdict is re-certified from the record's stored values
    (see ``_read_cache``).  A cache key holds no bound because a sweep
    takes only pairs with length(u)+length(v) <= bound, and the constants
    of such a pair do not depend on the bound.

    Each unordered pair {u, v} left is computed once, since c_uv = c_vu:
    row u holds the pairs (u, v) left with v at or after u, and all of
    them come from one column of the Chevalley recurrence.  The lines of
    row u are appended, each whole, and flushed as soon as row u is
    computed, so an interrupted sweep keeps every finished row.  The root
    system and the range come from those kept for the process (see
    ``weyl_range``), built on the first sweep that needs them; the one
    restriction table and recurrence context are built per sweep, and only
    if some pair is left.  A ``jobs`` > 1 pool
    worker is handed both rather than building its own, and computes whole
    rows.  The pool has at most one worker per CPU, per row and per
    ``PAIRS_PER_WORKER`` pairs; the output does not depend on its size.
    """
    start = time.perf_counter()
    cached = _read_cache(cache_path) if cache_path else None
    cartan = CartanMatrix.from_rows(entries)
    rs = _root_system(cartan, kind, descriptor_for(cartan, kind))
    if basis == "y" and rs.kind != FINITE:
        raise NotFiniteType("y-basis sweep requires a finite-type root system")
    rng = weyl_range(rs, bound)
    words = [w.word for w in rng.elements if rng.complete or 2 * w.length <= bound]
    verdicts = cached or {}

    def missing(pair) -> bool:
        return (rs.descriptor, basis, *pair) not in verdicts

    # Row u lists the ids v >= u of the pairs {u, v} left; the swept
    # elements are a prefix of the range, so their ids are their positions.
    rows = [
        [b for b in range(a, len(words)) if missing((uw, words[b])) or missing((words[b], uw))]
        for a, uw in enumerate(words)
    ]
    todo = [(a, row) for a, row in enumerate(rows) if row]

    fails = []
    # Lines not yet written, by ordered pair: a (v, u) line waits here
    # from row u, which computes {u, v}, until row v is written.
    pending: dict = {}
    with closing(
        _solve_rows(todo, rs, rng, basis, jobs)
    ) as solved, _open_cache(cache_path, cached is None or todo) as fh:
        if fh is not None and cached is None:
            fh.write(json.dumps(CACHE_HEADER) + "\n")
        for uw, row in zip(words, rows):
            # A row with nothing left is not in todo: nothing was computed for it.
            for b, (line, swapped, ok) in zip(row, next(solved) if row else []):
                vw = words[b]
                for pair, text in (((uw, vw), line), ((vw, uw), swapped)):
                    if missing(pair):
                        pending[pair] = (text, ok)
            lines = []
            for vw in words:
                if (uw, vw) in pending:
                    line, ok = pending.pop((uw, vw))
                    lines.append(line + "\n")
                else:
                    ok = verdicts[(rs.descriptor, basis, uw, vw)]
                if not ok:
                    fails.append((uw, vw))
            if fh is not None and lines:
                fh.write("".join(lines))
                fh.flush()
    wall = time.perf_counter() - start
    return SweepReport(
        rs.descriptor, bound, basis, len(words) ** 2, fails, wall, cache_path
    )


def ProcessPoolExecutor(**kwargs):
    """A ``concurrent.futures`` process pool.  Its module, with
    ``multiprocessing``, is imported here rather than with the CLI: only
    ``sweep --jobs`` > 1 needs it, and it takes about 20 ms to import."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(**kwargs)


def _solve_rows(rows, rs, rng, basis, jobs):
    """Yield ``_sweep_row_lines`` of each (u id, v ids) row, in order.

    Nothing is set up before the first row is asked for.  The state (the
    range's table and recurrence context, w0 for the y basis) is used here
    at ``jobs`` 1 and handed to each pool worker otherwise: inherited under
    fork, pickled once per worker under spawn.
    """
    table = restriction_table(rs, rng.bound, rng=rng)
    state = {
        "context": ChevalleyContext(table),
        "w0": longest_element(rs) if basis == "y" else None,
    }
    if jobs > 1:
        # A row reads the elements above its own (the identity's row reads
        # all of them); read every element here once, so the workers
        # inherit what they read instead of each building it again.
        for x in range(len(rng.elements)):
            state["context"].read(x)
        pairs = sum(len(row) for _, row in rows)
        workers = min(jobs, os.cpu_count() or 1, len(rows), -(-pairs // PAIRS_PER_WORKER))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_sweep_init,
            initargs=(state,),
        ) as pool:
            yield from pool.map(_sweep_task, rows)
    else:
        for u, vs in rows:
            yield _sweep_row_lines(state, u, vs)


def _open_cache(path: str | None, needed):
    """The cache opened for appending, or a null context if there is none or
    nothing to write."""
    if not (path and needed):
        return nullcontext()
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write cache {path}: {exc.strerror}")


def _cache_key(record: dict) -> tuple:
    return (
        record["type"],
        record["basis"],
        tuple(record["u"]),
        tuple(record["v"]),
    )


def _stored_values_pass(record: dict) -> bool:
    """The sign rule of ``structconst.value_sign_ok`` on a record's stored values.

    x basis: every coefficient >= 0.  y basis: every coeff*(-1)^degree >= 0.
    """
    alternating = {"x": False, "y": True}[record["basis"]]
    for value in record["values"]:
        for term in value["poly"]["terms"]:
            coeff = int(term["coeff"])
            if alternating and sum(term["exp"]) % 2:
                coeff = -coeff
            if coeff < 0:
                return False
    return True


def _read_cache(path: str) -> dict | None:
    """Verdict of each record in the cache at ``path``, by key; None if the
    cache is absent or empty.

    A verdict is recomputed from the record's stored values; the record's
    own certificate verdict is not trusted, only compared with it.
    Refuses, with exit 2, a cache whose first line is not this version's
    header, a later line that is not a sweep record, and a record whose
    stored verdict disagrees with its values.  A last line after the
    header that has no final newline and does not parse is the torn end
    of an interrupted append: it is dropped, with a warning on stderr, by
    truncating the file to the end of the last complete line.  A last
    line that parses but lacks its newline gets one, so appends start on
    a line of their own.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return None
    verdicts: dict = {}
    torn = None  # (line number, byte offset) of a torn last line
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CliError(f"cannot read cache {path}: {exc.strerror}")
    with fh:
        end = 0  # byte offset just past the lines read so far
        for number, line in enumerate(fh, start=1):
            offset, end = end, end + len(line)
            complete = line.endswith(b"\n")
            if number > 1 and not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if number > 1 and not complete:
                    torn = (number, offset)
                    break
                raise CliError(f"cache {path}: line {number} is not valid JSON ({exc.msg})")
            if number == 1:
                if not isinstance(record, dict) or any(
                    record.get(key) != value for key, value in CACHE_HEADER.items()
                ):
                    raise CliError(
                        f"cache {path}: line 1 is not the header {json.dumps(CACHE_HEADER)}"
                        " of this version; use another cache file"
                    )
                continue
            try:
                ok = _stored_values_pass(record)
                stored = record["certificate"]["verdict"]
                verdicts[_cache_key(record)] = ok
            except (KeyError, TypeError, ValueError):
                raise CliError(f"cache {path}: line {number} is not a sweep record")
            verdict = "pass" if ok else "fail"
            if stored != verdict:
                raise CliError(
                    f"cache {path}: line {number} has certificate verdict {stored!r},"
                    f" but its values {verdict} the {record['basis']}-basis sign rule"
                )
    try:
        if torn is not None:
            number, offset = torn
            print(
                f"warning: cache {path}: line {number} is a torn write; dropping it",
                file=sys.stderr,
            )
            os.truncate(path, offset)
        elif not complete:
            with open(path, "a", encoding="utf-8") as out:
                out.write("\n")
    except OSError as exc:
        raise CliError(f"cannot repair cache {path}: {exc.strerror}")
    return verdicts


def cmd_sweep(args, out) -> int:
    rs = load_root_system(args)
    if args.max_length is None:
        raise CliError("sweep requires --max-length")
    if args.max_length < 0:
        raise CliError("--max-length must be nonnegative")
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    cache_path = args.cache or os.environ.get(CACHE_ENV) or None
    try:
        report = run_sweep(
            rs.cartan.entries,
            rs.kind,
            args.max_length,
            args.basis,
            jobs=args.jobs,
            cache_path=cache_path,
        )
    except NotFiniteType as exc:
        raise CliError(str(exc))
    if args.format == "json":
        print(json.dumps(report.to_json_dict()), file=out)
    else:
        print(
            f"type={report.descriptor} bound={report.bound} basis={report.basis} "
            f"pairs={report.pair_count} fails={len(report.fails)} "
            f"verdict={report.verdict} cache={report.cache_path or '-'}",
            file=out,
        )
        for u, v in report.fails:
            print(f"fail: u={word_text(u)} v={word_text(v)}", file=out)
    print(f"sweep completed in {report.wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK if report.verdict == "pass" else EXIT_CERT_FAIL


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the flags it reads, so argparse
    refuses any other with exit 2."""
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--type", help="built-in root system name")
    system.add_argument("--cartan", help="JSON file with a Cartan matrix")

    parser = argparse.ArgumentParser(
        prog="eqschub",
        description="Exact equivariant Schubert structure constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, formats=("text", "json")):
        p = sub.add_parser(name, parents=[system])
        p.add_argument("--format", default="text", choices=list(formats))
        return p

    command("rootsys")

    p_restrict = command("restrict")
    p_restrict.add_argument("--w", required=True)
    p_restrict.add_argument("--v", required=True)
    p_restrict.add_argument("--convention", default="KK", choices=list(CONVENTIONS))

    p_mult = command("mult", ("text", "json", "csv"))
    p_mult.add_argument("--u", required=True)
    p_mult.add_argument("--v", required=True)
    p_mult.add_argument("--basis", default="x", choices=["x", "y"])
    p_mult.add_argument("--eval", default=None)
    p_mult.add_argument("--max-length", type=int, default=None)

    p_sweep = command("sweep")
    p_sweep.add_argument("--basis", default="x", choices=["x", "y"])
    p_sweep.add_argument("--max-length", type=int, default=None)
    p_sweep.add_argument("--cache", help="JSONL cache path")
    p_sweep.add_argument("--jobs", type=int, default=1)

    return parser


COMMANDS = {
    "rootsys": cmd_rootsys,
    "restrict": cmd_restrict,
    "mult": cmd_mult,
    "sweep": cmd_sweep,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args, out)
    except EqschubError as exc:
        prefix = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``eqschub ... | head``).  Point stdout at
        # devnull so the flush at exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
