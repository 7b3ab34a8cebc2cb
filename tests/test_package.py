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
    # only the analytic codebook method needs scipy, and it imports it itself;
    # the exhaustive gaussian experiment draws its normals without it
    experiment = ("from zdmn.cli import main; main(['gaussian', '--power', '5', "
                  "'--experiment', '--n', '8', '--trials', '10', '--method', 'exhaustive'])")
    for run in ("import zdmn", experiment):
        code = f"import sys; {run}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120).stdout
        assert out.splitlines()[-1] == "[]"


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


def test_random_streams_are_built_in_two_places():
    # one counter-stream layout: trial_uniforms builds every simulator's
    # stream, random_table_code keeps its sequential one so generated codes
    # stay the same, and neither builds a stream inside a loop
    builders = {"SeedSequence", "Philox", "Generator", "default_rng"}
    built = set()

    def visit(node, path, where, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, in_loop = node.name, False
        elif isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                               ast.DictComp, ast.GeneratorExp)):
            in_loop = True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in builders:
                built.add((path.name, where, in_loop))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where, in_loop)

    for path, tree in _parsed(sorted(_SRC.glob("*.py"))).items():
        visit(tree, path, None, False)
    assert built == {("simulate.py", "trial_uniforms", False),
                     ("simulate.py", "random_table_code", False)}


def _attribute_uses(tree):
    """(stores, self_reads, other_reads, named) of one module.

    stores are (line, class, attr) of every `self.<attr> = ...` in a class,
    self_reads (class, attr) of every `self.<attr>` read in a class,
    other_reads the attrs read through any other object, and named every
    name the module mentions (classes it defines or imports included).
    """
    stores, self_reads, other_reads, named = [], set(), set(), set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            named.add(node.name)
            cls = node.name
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            on_self = (cls is not None and isinstance(node.value, ast.Name)
                       and node.value.id == "self")
            if isinstance(node.ctx, ast.Store) and on_self:
                stores.append((node.lineno, cls, node.attr))
            elif isinstance(node.ctx, ast.Load):
                if on_self:
                    self_reads.add((cls, node.attr))
                else:
                    other_reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return stores, self_reads, other_reads, named


def _unread_attributes(src_trees, other_trees):
    """`path:line Class.attr` of every attribute stored on `self` in a src
    class and never read.  A `self.<attr>` read counts only for the class it
    is read in; a read through any other object counts only in a module that
    names the owning class, so `args.spec` in a module that never mentions
    GridProblem does not read `GridProblem.spec`."""
    uses = {path: _attribute_uses(tree) for path, tree in {**src_trees, **other_trees}.items()}
    self_reads = set().union(*(u[1] for u in uses.values()))
    unread = []
    for path in src_trees:
        for line, cls, attr in uses[path][0]:
            if (cls, attr) in self_reads:
                continue
            if any(cls in named and attr in other for _, _, other, named in uses.values()):
                continue
            unread.append(f"{path}:{line} {cls}.{attr}")
    return unread


def test_every_instance_attribute_is_read():
    # a `self.<attr> = ...` in src must be read in src, tests or perfbench;
    # one that is only ever written is dead state
    others = sorted((_ROOT / "tests").glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py"))
    assert _unread_attributes(_parsed(sorted(_SRC.glob("*.py"))), _parsed(others)) == []


def test_attribute_guard_matches_owners_not_names():
    grid = ast.parse(
        "class GridProblem:\n"
        "    def __init__(self, spec, k):\n"
        "        self.spec = spec\n"
        "        self.k = k\n"
        "    def points(self):\n"
        "        return self.k + 1\n")
    cli = ast.parse("def run(args):\n    return args.spec\n")
    # the write-only GridProblem.spec is not read by a namesake elsewhere
    assert _unread_attributes({"_grid.py": grid}, {"cli.py": cli}) == [
        "_grid.py:3 GridProblem.spec"]
    # nor by a `self.spec` read inside another class
    other = ast.parse("class Other:\n    def f(self):\n        return self.spec\n")
    assert _unread_attributes({"_grid.py": grid}, {"other.py": other}) == [
        "_grid.py:3 GridProblem.spec"]
    # a read in a module that names the owning class does count
    bounds = ast.parse("from ._grid import GridProblem\n\n"
                       "def hull(problem: GridProblem):\n    return problem.spec\n")
    assert _unread_attributes({"_grid.py": grid}, {"bounds.py": bounds}) == []
