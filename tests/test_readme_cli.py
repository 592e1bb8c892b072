"""Every CLI example of README.md, run in-process, against recorded stdout.

The README promises byte-identical reports apart from ``elapsed_ms`` for the
same inputs and seed; this holds each documented command to the bytes in
``readme_cli_golden.json``.  The two ``@file`` inputs the README names are
written to a temporary directory first: the squares 1..1000 and the
3-smooth numbers up to 10^4, one per line.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from sumsieve.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("readme_cli_golden.json")
_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def readme_commands() -> list[str]:
    """The `sumsieve ...` lines of the README's CLI block, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    block = re.sub(r"\\\n\s*", "", block)
    return [line.strip() for line in block.splitlines() if line.strip().startswith("sumsieve ")]


def write_inputs(work: Path) -> dict:
    squares = "\n".join(str(i * i) for i in range(1, 1001))
    smooth = sorted(2**i * 3**j for i in range(14) for j in range(9) if 2**i * 3**j <= 10**4)
    (work / "squares.txt").write_text(squares + "\n", encoding="utf-8")
    (work / "set.txt").write_text("\n".join(map(str, smooth)) + "\n", encoding="utf-8")
    return {"@squares.txt": f"@{work / 'squares.txt'}", "@set.txt": f"@{work / 'set.txt'}"}


def run_line(line: str, files: dict, capsys) -> dict:
    argv = [files.get(token, token) for token in shlex.split(line)[1:]]
    code = main(argv)
    out = capsys.readouterr().out
    return {"exit": code, "stdout": _ELAPSED.sub('"elapsed_ms": null', out)}


def test_readme_lists_the_recorded_commands():
    assert readme_commands() == list(json.loads(GOLDEN.read_text(encoding="utf-8")))


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_output(line, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[line]
    assert run_line(line, write_inputs(tmp_path), capsys) == expected
