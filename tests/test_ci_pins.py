"""The CI steps that pin the output of ``mult``, ``restrict``,
``rootsys``, the zero-filled ``mult``/``sweep`` records and the sweep
caches, replayed through ``cli.main`` in one process.

Each output step runs a group of ``eqschub`` commands into one file and
checks the file's sha256.  Here every command of those steps runs in the
order the workflow lists them, in this one process, so each reuses the
root systems and the range its predecessors left; the output of each
step must still match that step's digest.  A step that writes a Cartan
file for its commands has it written first.  Each sweep-digest step writes
one or more caches, each of which must match its digest; its sweeps run
here in workflow order and then interleaved across the steps, so a
sweep follows one of the same root system at another bound or one of
another root system.  The commands and digests are read from the
workflow, so the two cannot drift apart.

    PYTHONPATH=src python -m pytest -q tests/test_ci_pins.py
"""

import hashlib
import io
import re
import shlex
from pathlib import Path

import eqschub.cli as cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# One step of the workflow, up to the next.
WORKFLOW_STEP = re.compile(r"- name: (?:(?!\n[ \t]+- name: ).)*", re.S)
# A Cartan file a sweep-digest step writes, and the digest of its caches.
CARTAN_FILE = re.compile(r"echo '(?P<json>[^']*)' > (?P<path>\S+)")
DIGEST = re.compile(r"digest=(?P<digest>[0-9a-f]{64})")

# A group of eqschub commands written to one file, then that file's digest.
STEP = re.compile(
    r"\{\n(?P<commands>(?:[ \t]+eqschub [^\n]*\n)+)[ \t]+\} > \S+\n[ \t]+digest=(?P<digest>[0-9a-f]{64})"
)


def pinned_steps() -> list[tuple[dict, list[list[str]], str]]:
    """(Cartan files by path, commands, digest) of each pinned group, in
    workflow order."""
    out = []
    for step in WORKFLOW_STEP.finditer(WORKFLOW.read_text(encoding="utf-8")):
        files = {f["path"]: f["json"] for f in CARTAN_FILE.finditer(step[0])}
        out.extend(
            (files, [shlex.split(line)[1:] for line in m["commands"].splitlines()], m["digest"])
            for m in STEP.finditer(step[0])
        )
    return out


def _replay(steps, tmp_path):
    """Run each step's commands into one buffer and check its digest."""
    for files, commands, digest in steps:
        for path, text in files.items():
            (tmp_path / path).write_text(text + "\n", encoding="utf-8")
        out = io.StringIO()
        for argv in commands:
            assert cli.main(argv, out) == 0, argv
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest, commands


def test_pinned_steps_replay_in_one_process(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    steps = pinned_steps()
    assert [digest[:8] for _, _, digest in steps] == [
        "b4072952", "a6f10368", "4e6455ad", "2e371e63", "7bbb9aed", "426a687f", "8cded4cb",
        "6c0338ca", "0024674a", "059fc534", "8543aaf5",
    ]
    _replay(steps, tmp_path)


def test_pinned_steps_replay_in_reverse_order_in_one_process(tmp_path, monkeypatch):
    """The same steps, last first, from cleared memos: the range each
    query reads then keeps the restriction entries and recurrence steps of
    other queries, filled in another order, and every digest still holds."""
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    steps = pinned_steps()
    assert len(steps) == 11
    cli.clear_setup()
    try:
        _replay(steps[::-1], tmp_path)
    finally:
        cli.clear_setup()


def sweep_digest_steps() -> list[tuple[dict, list[list[str]], str]]:
    """(Cartan files by path, sweep commands, digest of every cache they
    write) of each step that pins sweep caches, in workflow order."""
    out = []
    for m in WORKFLOW_STEP.finditer(WORKFLOW.read_text(encoding="utf-8")):
        lines = [line.strip() for line in m[0].splitlines()]
        sweeps = [
            shlex.split(line)[1:] for line in lines
            if line.startswith("eqschub sweep ") and "--cache" in line.split()
        ]
        digest = DIGEST.search(m[0])
        if sweeps and digest:
            files = {f["path"]: f["json"] for f in CARTAN_FILE.finditer(m[0])}
            out.append((files, sweeps, digest["digest"]))
    return out


def test_sweep_digest_steps_replay_in_one_process(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    steps = sweep_digest_steps()
    assert [digest[:8] for _, _, digest in steps] == [
        "2bd06c65", "0a95f5f4", "2850b8b7", "8fe9b3c7", "c2ec63d9", "295e14fe", "b0885c0d",
    ]
    in_order = [(step, argv) for step in steps for argv in step[1]]
    interleaved = [
        (step, step[1][k]) for k in range(max(len(s[1]) for s in steps))
        for step in steps if k < len(step[1])
    ]
    for n, order in enumerate((in_order, interleaved)):
        work = tmp_path / f"pass{n}"
        work.mkdir()
        monkeypatch.chdir(work)
        for files, _, _ in steps:
            for path, text in files.items():
                (work / path).write_text(text + "\n", encoding="utf-8")
        for (_, _, digest), argv in order:
            assert cli.main(argv, io.StringIO()) == 0, argv
            cache = work / argv[argv.index("--cache") + 1]
            assert _sha256(cache) == digest, (n, argv)
            # The whole-group A4 cache is 206 MB; none is read again.
            cache.unlink()


def _sha256(path) -> str:
    """The sha256 of a file, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
