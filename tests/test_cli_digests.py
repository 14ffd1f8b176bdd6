"""Golden outputs: every section of tests/cli_digests.txt prints its committed bytes.

Each line of that file is the sha256 of one `polybern` command's stdout,
its line count, and the command's arguments. This test is the file's one
reader; CI runs it with the rest of tier-1 on every Python it supports,
so the same digests hold on each. When a change alters output on purpose,
rewrite the file from the changed tree and commit it with the change:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import warnings
from pathlib import Path

import pytest

from polybern.cli import main
from polybern.saddle import CompactnessWarning

DIGESTS = Path(__file__).with_name("cli_digests.txt")


def _sections() -> list[tuple[str, int, str]]:
    # (sha256, line count, arguments) per line, comment lines skipped
    sections = []
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            digest, count, argv = line.split(" ", 2)
            sections.append((digest, int(count), argv))
    return sections


def _run(argv: str) -> tuple[int, bytes]:
    # The asym sections leave the compact band; the warning says so on
    # stderr, never on stdout, and pytest would turn it into an error.
    sink = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(sink):
        warnings.simplefilter("ignore", CompactnessWarning)
        code = main(argv.split())
    return code, sink.getvalue().encode("utf-8")


@pytest.mark.parametrize(("digest", "count", "argv"), [pytest.param(*s, id=s[2]) for s in _sections()])
def test_section_prints_its_committed_bytes(digest, count, argv):
    code, out = _run(argv)
    lines = out.count(b"\n")
    assert code == 0, f"polybern {argv} exited {code}"
    assert lines == count, f"polybern {argv} printed {lines} lines, not {count}"
    assert hashlib.sha256(out).hexdigest() == digest, f"polybern {argv} printed other bytes than committed"


if __name__ == "__main__":
    lines = [line for line in DIGESTS.read_text(encoding="utf-8").splitlines() if line.startswith("#")]
    for _, _, argv in _sections():
        code, out = _run(argv)
        if code != 0:
            raise SystemExit(f"polybern {argv} exited {code}; {DIGESTS.name} left as it was")
        count = out.count(b"\n")
        lines.append(f"{hashlib.sha256(out).hexdigest()} {count} {argv}")
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
