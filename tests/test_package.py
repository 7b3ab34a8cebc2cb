"""Package-level surface, and a dead-code guard over the sources."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import zdmn

# every public name of the package, by the submodule that defines it
_PUBLIC = {
    "bounds": ["BscFbRegion", "Cut", "CutConstraint", "GaussianRelayBounds", "MembershipResult",
               "RateRegionReport", "RateTuple", "bscfb_capacity_region", "capacity_cut_cap",
               "check_factorization", "enumerate_cuts", "gaussian_relay_bounds", "grid_hull",
               "positive_delay_cut_cap", "region_membership"],
    "errors": ["DomainError", "ResourceCapError", "SpecIOError", "ZdmnError",
               "ZeroProbabilityEvent"],
    "gaussian": ["CodebookResult", "GaussianRelayConfig", "RelayTrace", "SeparationReport",
                 "codebook_experiment", "neutralization_rate", "separation_report",
                 "simulate_relay"],
    "model": ["ChannelTable", "DelayProfile", "NetworkSpec", "NodeSet", "Partition",
              "ValidationReport", "enumerate_feasible_profiles", "is_feasible", "load_spec",
              "locate_node", "save_spec", "validate_spec"],
    "networks": ["BUNDLED", "bscfb_spec", "bundled_spec", "causal_relay_spec",
                 "classical_bsc_spec", "deterministic_two_node_spec"],
    "polar": ["PolarCode"],
    "probability": ["JointPmf", "binary_entropy", "compose_channels", "condition",
                    "conditional_mutual_information", "marginalize", "mutual_information"],
    "simulate": ["BscFbSchemeResult", "ErrorReport", "SimTrace", "TableCode",
                 "bscfb_engine_code", "bscfb_scheme", "check_memoryless_markov",
                 "check_positive_delay_markov", "equivalence_check", "estimate_error",
                 "induced_joint", "load_code", "random_table_code", "run_trial", "save_code"],
}


def test_backend_name_is_numpy():
    # run records carry this name; every kernel is a numpy one
    assert zdmn.backend_name() == "numpy"


def test_public_names_are_their_submodules_objects():
    names = [name for names in _PUBLIC.values() for name in names]
    assert len(names) == 69
    assert sorted(zdmn.__all__) == sorted(names + ["backend_name", "__version__"])
    for module, names in _PUBLIC.items():
        sub = importlib.import_module(f"zdmn.{module}")
        for name in names:
            assert getattr(zdmn, name) is getattr(sub, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        zdmn.__getattr__("no_such_name")


def _loaded(run):
    """The zdmn, numpy and scipy modules a fresh interpreter holds after `run`."""
    code = (f"import json, sys; {run}; print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('zdmn', 'numpy', 'scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # `import zdmn` loads no submodule, so no numpy either; only the analytic
    # codebook method needs scipy, and it imports it itself; the exhaustive
    # gaussian experiment draws its normals without it
    assert _loaded("import zdmn") == ["zdmn"]
    experiment = ("from zdmn.cli import main; main(['gaussian', '--power', '5', "
                  "'--experiment', '--n', '8', '--trials', '10', '--method', 'exhaustive'])")
    assert not [m for m in _loaded(experiment) if m.startswith("scipy")]


_SIMULATE = ["polar", "probability", "simulate"]


@pytest.mark.parametrize("argv, extra", [
    (["validate", "--spec", "{spec}"], []),
    (["feasible", "--spec", "{spec}", "--all"], []),
    (["generate", "spec", "--name", "bscfb", "--out", "{out}"], []),
    (["bound", "--spec", "{spec}", "--grid", "2"], ["_grid", "bounds", "probability"]),
    (["simulate", "--spec", "{spec}", "--code", "{code}", "--trials", "3"], _SIMULATE),
    (["bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25", "--trials", "2"], _SIMULATE),
    (["generate", "code", "--spec", "{spec}", "--out", "{out}"], _SIMULATE),
    (["gaussian", "--power", "5"], ["_grid", "bounds", "gaussian"] + _SIMULATE),
], ids=["validate", "feasible", "generate-spec", "bound", "simulate", "bscfb", "generate-code",
        "gaussian"])
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    files = {"spec": tmp_path / "net.json", "out": tmp_path / "out.json",
             "code": tmp_path / "code.json"}
    spec = zdmn.bscfb_spec(0.11)
    zdmn.save_spec(spec, files["spec"])
    zdmn.save_code(zdmn.random_table_code(spec, 1, zdmn.DelayProfile.of((1, 1)), seed=0),
                   files["code"])
    argv = [a.format(**files) for a in argv]
    loaded = _loaded(f"from zdmn.cli import main; assert main({argv!r}) == 0")
    assert [m for m in loaded if m.startswith("zdmn")] == sorted(
        ["zdmn"] + [f"zdmn.{m}" for m in ["cli", "errors", "model", "networks"] + extra])


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


def _unread_methods(src_trees, other_trees):
    """`path:line Class.method` of every method or property of a src class,
    dunders aside, that no module reads as an attribute or names in a string
    constant (as `getattr` and the benchmark's span table do)."""
    read = set()
    for tree in {**src_trees, **other_trees}.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path, tree in src_trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and node.name not in read
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    unread.append(f"{path}:{node.lineno} {cls.name}.{node.name}")
    return unread


def test_every_method_is_read():
    # a method or property of a src class is read somewhere in src, tests
    # or perfbench, as an attribute or by name
    others = sorted((_ROOT / "tests").glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py"))
    assert _unread_methods(_parsed(sorted(_SRC.glob("*.py"))), _parsed(others)) == []


def test_method_guard_counts_attribute_reads_and_names():
    code = ast.parse(
        "class Code:\n"
        "    def __len__(self):\n        return 1\n"
        "    @property\n    def rows(self):\n        return 2\n"
        "    def encode(self):\n        return self.rows\n"
        "    def decode(self):\n        return 0\n")
    assert _unread_methods({"code.py": code}, {}) == [
        "code.py:7 Code.encode", "code.py:9 Code.decode"]
    # a read through any object, or a string naming the method, counts
    user = ast.parse("def run(c):\n    return c.encode(), getattr(c, 'decode')()\n")
    assert _unread_methods({"code.py": code}, {"user.py": user}) == []


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


def test_symbol_tuples_unfold_only_through_numpy():
    # one index convention: np.ravel_multi_index / np.unravel_index (C order,
    # first symbol most significant) fold and unfold every symbol tuple, so
    # no module splits an index by hand with np.divmod or a // b % c
    hand_rolled = []
    for path, tree in _parsed(sorted(_SRC.glob("*.py"))).items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "divmod"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.BinOp)
                    and isinstance(node.left.op, ast.FloorDiv)):
                hand_rolled.append(f"{path.name}:{node.lineno}")
    assert hand_rolled == []


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


def _limit_parameters(trees):
    """`path:line function(parameter)` of every parameter named `cap` or
    `max_*`: a resource limit a caller can set."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is not None and (arg.arg == "cap" or arg.arg.startswith("max_")):
                        found.append(f"{path}:{node.lineno} {getattr(node, 'name', 'lambda')}"
                                     f"({arg.arg})")
    return sorted(found)


def test_resource_limits_are_module_constants():
    # every cap is a constant such as POINT_CAP or CODEBOOK_CAP, never a knob
    assert _limit_parameters(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_limit_guard_reads_every_parameter_kind():
    code = ast.parse(
        "class Grid:\n"
        "    def __init__(self, k, max_points=10):\n        pass\n"
        "def run(x, /, *, cap=4):\n    return x\n"
        "scale = lambda max_x: max_x\n"
        "def fine(capacity, maximum, budget):\n    return capacity\n")
    assert _limit_parameters({"code.py": code}) == [
        "code.py:2 __init__(max_points)", "code.py:4 run(cap)", "code.py:6 lambda(max_x)"]
