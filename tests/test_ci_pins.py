"""The CI steps that pin the output of ``mult``, ``restrict`` and the
zero-filled ``mult``/``sweep`` records, replayed through ``cli.main`` in
one process.

Each such step runs a group of ``eqschub`` commands into one file and
checks the file's sha256.  Here every command of those steps runs in the
order the workflow lists them, in this one process, so each reuses the
root systems and the range its predecessors left; the output of each
step must still match that step's digest.  The commands and digests are
read from the workflow, so the two cannot drift apart.

    PYTHONPATH=src python -m pytest -q tests/test_ci_pins.py
"""

import hashlib
import io
import re
import shlex
from pathlib import Path

import eqschub.cli as cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# A group of eqschub commands written to one file, then that file's digest.
STEP = re.compile(
    r"\{\n(?P<commands>(?:[ \t]+eqschub [^\n]*\n)+)[ \t]+\} > \S+\n[ \t]+digest=(?P<digest>[0-9a-f]{64})"
)


def pinned_steps() -> list[tuple[list[list[str]], str]]:
    """(commands, digest) of each pinned group, in workflow order."""
    text = WORKFLOW.read_text(encoding="utf-8")
    return [
        ([shlex.split(line)[1:] for line in m["commands"].splitlines()], m["digest"])
        for m in STEP.finditer(text)
    ]


def test_pinned_steps_replay_in_one_process(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    steps = pinned_steps()
    assert [digest[:8] for _, digest in steps] == [
        "b4072952", "a6f10368", "2e371e63", "7bbb9aed", "426a687f",
    ]
    for commands, digest in steps:
        out = io.StringIO()
        for argv in commands:
            assert cli.main(argv, out) == 0, argv
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest, commands
