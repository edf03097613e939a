"""The README's library example and command lines must run as written, and
the values they state must be the ones the code gives."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from wallachkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _claim(comment: str):
    """The value a comment states, if it opens with a Python literal: the
    whole comment, or its text before the first colon."""
    text = comment.lstrip("#").strip()
    for head in (text, text.split(":", 1)[0]):
        try:
            return True, ast.literal_eval(head)
        except (ValueError, SyntaxError):
            pass
    return False, None


def test_library_entry_points_example_runs():
    # Each statement runs as written; an expression whose comment opens with
    # a literal ("# False: in the gap") must evaluate to that literal.
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library entry points'"
    source = block.group(1)
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        stated, value = _claim(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and stated:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == value, (ast.unparse(stmt), got, value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked >= 5, checked


def test_report_schema_example_is_what_calabi_writes(capsys):
    # The schema example is a calabi report, one of its blocks shown: every
    # field it names is written, with the value it shows (floats to the
    # digits shown), and it names every field but duration_s's value.
    section = README.read_text().split("### Report schemas", 1)[1]
    shown = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    argv = ["calabi", shown["domain"], "--format", "json"]
    argv += [f"--{key}={value!r}" for key, value in shown["parameters"].items()
             if key in ("lambda", "cutoff")]
    assert main(argv) == 0
    written = json.loads(capsys.readouterr().out)
    assert set(shown) == set(written)
    del shown["duration_s"], written["duration_s"]
    blocks = {b["degree"]: b for b in written.pop("per_block")}
    for block in shown.pop("per_block"):
        assert block == pytest.approx(blocks[block["degree"]], rel=1e-12)
    for key, value in shown.items():
        assert value == (pytest.approx(written[key], rel=1e-12)
                         if isinstance(value, dict) else written[key]), key


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
