"""The package's public surface: __all__ names exactly what __init__ imports,
and every defaulted parameter of it has a caller; and the package's
module-level state."""

import ast
import importlib
import inspect
import pkgutil
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


def test_gram_path_uses_neither_the_blocks_nor_the_closed_form():
    # The Gram verdict is one of three independent answers: gram.py must not
    # reach the series or the Calabi blocks, nor the closed-form Wallach set.
    tree = ast.parse((Path(wk.__file__).parent / "gram.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "domains" in used  # the walk sees gram's own imports
    assert not used & {"calabi", "series", "wallach_set", "wallach_contains"}


def test_every_cache_is_one_a_cold_clear_empties():
    # perfbench's cold runs empty every module-level lru_cache and every
    # module-level dict named *_CACHE; a cache kept in any other shape would
    # survive that clear and let a "cold" verdict run warm.
    caches, cached = set(), set()
    for info in pkgutil.iter_modules(wk.__path__):
        mod = importlib.import_module(f"wallachkit.{info.name}")
        for attr, obj in vars(mod).items():
            if isinstance(obj, (dict, list, set)) and not attr.startswith("__"):
                assert attr.endswith("_CACHE") and isinstance(obj, dict), (info.name, attr)
                caches.add(attr)
        # Every function that caches is a module-level lru_cache.
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    name = ast.unparse(deco)
                    if "cache" in name:
                        assert "lru_cache" in name and node in tree.body, (info.name, name)
                        cached.add(node.name)
    assert "_SCAN_PLAN_CACHE" in caches
    assert {"basis", "norm_series", "_rank_table"} <= cached


def test_every_import_is_used_and_every_private_name_is_read():
    # What a deletion leaves behind: a name a module imports and never reads,
    # or a module-level private name that nothing in the package reads.
    # __init__ imports only to re-export.
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(wk.__file__).parent.glob("*.py")}
    loads = {
        stem: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and isinstance(node, (ast.Name, ast.Attribute))
        }
        for stem, tree in trees.items()
    }
    read_anywhere = set().union(*loads.values())
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in loads[stem] or name == "annotations", (stem, name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    assert name in read_anywhere, (stem, name)


def _unpassed_defaults(public, roots) -> list[str]:
    """The defaulted parameters of the functions in public that no call in
    the .py files under roots passes, by position or by keyword, as
    "function.parameter".  A call is matched by the name it calls (f(...) or
    x.f(...)); a * or ** expansion passes nothing, and no positional
    argument after a * one is counted."""
    calls = {}
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    unpassed = []
    for name, obj in public.items():
        if not inspect.isfunction(inspect.unwrap(obj)):
            continue
        params = list(inspect.signature(obj).parameters.values())
        for i, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            positional = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            for call in calls.get(name, []):
                starred = [isinstance(a, ast.Starred) for a in call.args] + [True]
                if any(k.arg == param.name for k in call.keywords) or (
                    positional and starred.index(True) > i
                ):
                    break
            else:
                unpassed.append(f"{name}.{param.name}")
    return unpassed


def test_every_public_default_is_passed_by_some_caller(tmp_path):
    # A defaulted parameter that no caller sets is an option without a use:
    # every one in the public surface is passed by some call in the package,
    # the benchmark or the tests.
    repo = Path(__file__).resolve().parents[1]
    public = {name: getattr(wk, name) for name in wk.__all__}
    roots = [repo / "src", repo / "perfbench", repo / "tests"]
    assert _unpassed_defaults(public, roots) == []
    # The scan sees a default nothing passes, and a call that passes it.
    def probe(x, y=1, *, z=2):
        pass

    (tmp_path / "calls.py").write_text("probe(0, z=3)\nprobe(*a, **{'y': 1})\n")
    assert _unpassed_defaults({"probe": probe}, [tmp_path]) == ["probe.y"]
    (tmp_path / "calls.py").write_text("probe(0, 1)\n")
    assert _unpassed_defaults({"probe": probe}, [tmp_path]) == ["probe.z"]
