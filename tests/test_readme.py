"""The README's library example and command lines must run as written."""

import re
import shlex
from pathlib import Path

from wallachkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_example_runs():
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library entry points'"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL)
    assert block, "no command block under 'Command line'"
    joined = block.group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in joined.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "wallachkit" for argv in commands)
    # In one directory, so --witness-out witness.json feeds replay witness.json.
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr())
