"""Package-level surface, and a dead-code guard over the sources."""

import ast
import pathlib
import subprocess
import sys

import zdmn


def test_backend_name_is_numpy():
    # run records carry this name; every kernel is a numpy one
    assert zdmn.backend_name() == "numpy"


def test_import_leaves_scipy_unloaded():
    # only the analytic codebook method needs scipy, and it imports it itself
    code = "import sys, zdmn; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "[]\n"


_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "zdmn"


def _parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _loaded_names(tree):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_import_is_used():
    # __init__.py imports are the public surface, so they are exempt
    unused = []
    for path, tree in _parsed(sorted(_SRC.glob("*.py"))).items():
        if path.name == "__init__.py":
            continue
        used = {name for name, _ in _loaded_names(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_every_module_level_definition_is_referenced():
    # a reference is a read of the name outside the definition's own lines,
    # anywhere in src, tests or perfbench; re-exports are imports, not reads
    files = (sorted(_SRC.glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))
             + sorted((_ROOT / "perfbench").glob("*.py")))
    trees = _parsed(files)
    refs = {}
    for path, tree in trees.items():
        for name, line in _loaded_names(tree):
            refs.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted(_SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(node.name, ())):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_every_instance_attribute_is_read():
    # a `self.<attr> = ...` in src must be read as `.<attr>` somewhere in src,
    # tests or perfbench; one that is only ever written is dead state
    files = (sorted(_SRC.glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))
             + sorted((_ROOT / "perfbench").glob("*.py")))
    read = set()
    for tree in _parsed(files).values():
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in _parsed(sorted(_SRC.glob("*.py"))).items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in read):
                unread.append(f"{path.name}:{node.lineno} {node.attr}")
    assert unread == []
