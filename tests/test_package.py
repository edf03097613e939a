"""The package's public surface: __all__ names exactly what __init__ imports."""

import ast
from pathlib import Path

import wallachkit as wk


def test_all_is_sorted_unique_and_matches_the_imports():
    tree = ast.parse(Path(wk.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert wk.__all__ == sorted(wk.__all__)
    assert len(set(wk.__all__)) == len(wk.__all__)
    assert set(wk.__all__) == public
