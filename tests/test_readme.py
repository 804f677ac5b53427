"""The command-line examples of README.md run as written.

The test reads the `sh` block under "## Command line" from the README
itself, writes a small document for each input file name the block uses,
and runs every line through `cli.main`, so the examples cannot drift from
the program.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from netline.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# the inputs the examples name; X lies inside the window W
DOCUMENTS = {
    "A.json": {"kind": "points", "coords": ["0", "1/2", "3.25"]},
    "B.json": {"kind": "intervals", "intervals": [["0", "1"], ["2", "2"]]},
    "X.json": {"kind": "points", "coords": ["1", "5/2", "4"]},
    "Y.json": {"kind": "points", "coords": ["0", "1", "3"]},
    "W.json": {"kind": "window", "lo": "0", "hi": "10"},
}


def _examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no sh block under '## Command line'"
    return block.group(1).splitlines()


@pytest.mark.parametrize("line", _examples())
def test_readme_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    program, *argv = shlex.split(line)
    assert program == "netline"
    assert main(argv) == 0, capsys.readouterr().err
