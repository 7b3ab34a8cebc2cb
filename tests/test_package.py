"""Package-level surface, and a dead-code guard over the sources."""

import ast
import collections
import dataclasses
import graphlib
import importlib
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

import zdmn

# every public name of the package, by the submodule that defines it
_PUBLIC = {
    "bounds": ["CutConstraint", "MembershipResult", "RateRegionReport", "RateTuple",
               "grid_hull", "region_membership"],
    "errors": ["DomainError", "ResourceCapError", "SpecIOError", "ZdmnError"],
    "gaussian": ["CodebookResult", "GaussianRelayConfig", "RelayTrace", "SeparationReport",
                 "codebook_experiment", "neutralization_rate", "separation_report",
                 "simulate_relay"],
    "model": ["ChannelTable", "Cut", "DelayProfile", "NetworkSpec", "NodeSet", "Partition",
              "ValidationReport", "enumerate_cuts", "enumerate_feasible_profiles", "is_feasible",
              "load_spec", "save_spec", "validate_spec"],
    "networks": ["BUNDLED", "bscfb_spec", "bundled_spec", "causal_relay_spec",
                 "classical_bsc_spec", "deterministic_two_node_spec"],
    "polar": ["PolarCode"],
    "probability": ["JointPmf", "binary_entropy", "compose_channels",
                    "conditional_mutual_information", "marginalize"],
    "simulate": ["BscFbRegion", "BscFbSchemeResult", "ErrorReport", "SimTrace", "TableCode",
                 "bscfb_capacity_region", "bscfb_scheme", "check_memoryless_markov",
                 "check_positive_delay_markov", "equivalence_check", "estimate_error",
                 "induced_joint", "load_code", "random_table_code", "run_trial", "save_code"],
}


def test_backend_name_is_numpy():
    # run records carry this name; every kernel is a numpy one
    assert zdmn.backend_name() == "numpy"


def test_public_names_are_their_submodules_objects():
    names = [name for names in _PUBLIC.values() for name in names]
    assert len(names) == 59
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
    # `import zdmn` loads no submodule, so no numpy either; both codebook
    # methods run on numpy alone, the analytic one summing its own
    # noncentral chi-square CDF
    assert _loaded("import zdmn") == ["zdmn"]
    for method in ("exhaustive", "analytic"):
        experiment = ("from zdmn.cli import main; main(['gaussian', '--power', '5', "
                      f"'--experiment', '--n', '8', '--trials', '10', '--method', '{method}'])")
        assert not [m for m in _loaded(experiment) if m.startswith("scipy")]


def test_numpy_is_the_only_runtime_dependency():
    # scipy stays a test oracle only
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.split("[<>=!~ ]", d)[0] for d in project["dependencies"]] == ["numpy"]
    assert "scipy" in [re.split("[<>=!~ ]", d)[0] for d in project["optional-dependencies"]["test"]]


_SIMULATE = ["polar", "probability", "simulate"]


@pytest.mark.parametrize("argv, extra", [
    (["validate", "--spec", "{spec}"], []),
    (["feasible", "--spec", "{spec}", "--all"], []),
    (["generate", "spec", "--name", "bscfb", "--out", "{out}"], []),
    (["bound", "--spec", "{spec}", "--grid", "2"], ["_grid", "bounds", "probability"]),
    (["simulate", "--spec", "{spec}", "--code", "{code}", "--trials", "3"], _SIMULATE),
    (["bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25", "--trials", "2"], _SIMULATE),
    (["generate", "code", "--spec", "{spec}", "--out", "{out}"], _SIMULATE),
    (["gaussian", "--power", "5"], ["gaussian"]),
    (["gaussian", "--power", "5", "--experiment", "--n", "8", "--trials", "10",
      "--method", "exhaustive"], ["gaussian"]),
    (["gaussian", "--power", "5", "--experiment", "--n", "8", "--trials", "10",
      "--method", "analytic"], ["gaussian"]),
], ids=["validate", "feasible", "generate-spec", "bound", "simulate", "bscfb", "generate-code",
        "gaussian", "gaussian-experiment", "gaussian-analytic"])
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
_ORACLE_FILE = _ROOT / "tests" / "oracles.py"


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


def _unreferenced(src_trees, trees):
    """`path:line name` of every module-level function or class of a src
    module that no module of `trees` reads outside the definition's own
    lines; re-exports are imports, not reads."""
    refs = {}
    for path, tree in trees.items():
        for name, line in _loaded_names(tree):
            refs.setdefault(name, []).append((path, line))
    unreferenced = []
    for path, tree in src_trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(node.name, ())):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    return unreferenced


def test_every_module_level_definition_is_referenced():
    # a reference is a read of the name anywhere in src, tests or perfbench;
    # tests/oracles.py is held to the same rule, so a test reads every oracle
    src = _parsed(sorted(_SRC.glob("*.py")) + [_ORACLE_FILE])
    others = _parsed(sorted((_ROOT / "tests").glob("*.py"))
                     + sorted((_ROOT / "perfbench").glob("*.py")))
    assert _unreferenced(src, {**src, **others}) == []


def _oracle_imports(trees):
    """`path:line` of every import of the test oracles, in any form."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_tests_import_the_oracles():
    # the oracles are references for the unit tests; neither the package nor
    # the benchmark may come to depend on them
    assert _oracle_imports(_parsed(sorted(_SRC.glob("*.py"))
                                   + sorted((_ROOT / "perfbench").glob("*.py")))) == []


def test_oracle_import_guard_reads_every_import_form():
    # perfbench's own `oracle` module is not the test oracles
    code = ast.parse("import oracle\nfrom oracle import x\nimport oracles\n"
                     "from oracles import f\nfrom tests.oracles import g\n"
                     "def lazy():\n    from . import oracles\n")
    assert _oracle_imports({pathlib.Path("m.py"): code}) == [
        "m.py:3", "m.py:4", "m.py:5", "m.py:7"]


def test_every_definition_is_read_by_the_system():
    # stricter than the two guards around it: a src function, class or
    # method stays only if src, perfbench or the acceptance suite reads it;
    # a unit test alone keeps nothing, so its references live in
    # tests/oracles.py
    src = _parsed(sorted(_SRC.glob("*.py")))
    system = _parsed(sorted((_ROOT / "perfbench").glob("*.py"))
                     + [_ROOT / "tests" / "test_acceptance.py"])
    # the interpreter reads a module's dunders, such as the package's __getattr__
    unread = [d for d in _unreferenced(src, {**src, **system}) + _unread_methods(src, system)
              if " __" not in d]
    assert unread == []


def _class_members(cls):
    """Names a class body defines: its methods and properties, and its
    annotated fields (a dataclass's)."""
    return ({node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            | {node.target.id for node in cls.body
               if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)})


def _unread_methods(src_trees, other_trees):
    """`path:line Class.method` of every method or property of a src class,
    dunders aside, that no module reads as an attribute or names in a string
    constant (as `getattr` and the benchmark's span table do) outside the
    method's own body.

    A name that more than one src class defines, as a method, a property or
    a field, is read by the rule ``_unread_attributes`` applies to instance
    attributes: a `self.<name>` read counts only for the class it is read
    in, and any other read only in a module that names the owning class, so
    `trace.to_csv()` in a module that never mentions RelayTrace does not
    read `RelayTrace.to_csv`."""
    trees = {**src_trees, **other_trees}
    named = {}
    reads = collections.defaultdict(list)  # name -> (path, line, reading class or None)
    for path, tree in trees.items():
        _, self_reads, other_reads, named[path] = _attribute_uses(tree)
        for cls, attr, line in self_reads:
            reads[attr].append((path, line, cls))
        # a read through another object, or a string naming the method
        for attr, line in other_reads:
            reads[attr].append((path, line, None))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads[node.value].append((path, node.lineno, None))
    classes = [(path, cls) for path, tree in src_trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    owners = collections.Counter(name for _, cls in classes for name in _class_members(cls))
    unread = []
    for path, cls in classes:
        for node in cls.body:
            name = node.name if isinstance(node, ast.FunctionDef) else None
            if name is None or name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, reader) for p, line, reader in reads[name]
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if owners[name] == 1:
                is_read = bool(outside)
            else:
                is_read = any(reader == cls.name if reader else cls.name in named[p]
                              for p, reader in outside)
            if not is_read:
                unread.append(f"{path}:{node.lineno} {cls.name}.{name}")
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


def test_method_guard_reads_shared_names_through_their_owner():
    code = ast.parse(
        "class Trace:\n"
        "    def to_csv(self):\n        return ''\n"
        "class Relay:\n"
        "    n: int\n"
        "    def to_csv(self):\n        return ''\n"
        "class Block:\n"
        "    @property\n    def n(self):\n        return 1\n")
    # to_csv is two classes' method and n a method of one and a field of
    # another, so a read in a module naming none of them reads none of them,
    # and neither does a `self.n` read in another class
    anonymous = ast.parse("def run(t, b):\n    return t.to_csv(), b.n\n"
                          "class Other:\n    def size(self):\n        return self.n\n")
    assert _unread_methods({"code.py": code}, {"user.py": anonymous}) == [
        "code.py:2 Trace.to_csv", "code.py:6 Relay.to_csv", "code.py:10 Block.n"]
    # a read, or a string naming the method, in a module naming the owner counts
    user = ast.parse("from code import Trace\n\n"
                     "def run(t: Trace):\n    return t.to_csv()\n")
    spans = ast.parse("import code\nSPANS = [(code.Block, 'n')]\n")
    assert _unread_methods({"code.py": code}, {"user.py": user, "spans.py": spans}) == [
        "code.py:6 Relay.to_csv"]
    # a method that only delegates to a namesake reads itself, which does not
    # count: Cut.bitmask is unread although its own body reads `bitmask` in
    # a module naming Cut
    model = ast.parse(
        "class NodeSet:\n"
        "    def bitmask(self, n):\n        return ''\n"
        "class Cut:\n"
        "    nodes: NodeSet\n"
        "    def bitmask(self, n):\n        return self.nodes.bitmask(n)\n")
    cli = ast.parse("from model import NodeSet\n\n"
                    "def show(s: NodeSet):\n    return s.bitmask(2)\n")
    assert _unread_methods({"model.py": model}, {"cli.py": cli}) == ["model.py:6 Cut.bitmask"]


def test_mode_names_stay_in_the_grid_and_the_cli():
    # a mode picks the network the grid scans; every other function works on
    # the network it is handed, so only the grid's mode switch and the CLI's
    # choices spell a mode
    modes = {"capacity", "positive-delay"}
    spelled = sorted({path.name for path, tree in _parsed(sorted(_SRC.glob("*.py"))).items()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value in modes})
    assert spelled == ["_grid.py", "cli.py"]


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
    assert built == {("model.py", "trial_uniforms", False),
                     ("simulate.py", "random_table_code", False)}


def _module_imports(trees, lazy=False):
    """Submodule -> the sibling submodules it imports at module level, and
    with `lazy` also inside functions (a CLI handler's, say)."""
    graph = {}
    for path, tree in trees.items():
        deps = set()
        for node in ast.walk(tree) if lazy else tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    deps.update(alias.name for alias in node.names)
                else:
                    deps.add(node.module.split(".")[0])
        graph[path.stem] = deps
    return graph


def _import_cycle(graph):
    """One cycle of the import graph as `a -> b -> a`, or None."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as e:
        return " -> ".join(e.args[1])
    return None


def test_module_imports_form_a_dag():
    # a worked example stands on the model alone: gaussian needs no bound,
    # grid or engine, so `zdmn gaussian` loads none of them
    trees = _parsed(sorted(_SRC.glob("*.py")))
    assert _module_imports(trees)["gaussian"] == {"errors", "model"}
    # an import inside a function still closes a cycle, only later
    assert _import_cycle(_module_imports(trees, lazy=True)) is None


def test_import_graph_guard_skips_lazy_imports():
    code = ast.parse("from . import model\nfrom .errors import E\nimport numpy\n"
                     "def handler():\n    from . import bounds\n")
    trees = {pathlib.Path("cli.py"): code}
    assert _module_imports(trees) == {"cli": {"model", "errors"}}
    assert _module_imports(trees, lazy=True) == {"cli": {"model", "errors", "bounds"}}
    # a lazy import back into a module-level importer is a cycle
    grid = ast.parse("def build():\n    from .bounds import enumerate_cuts\n")
    bounds = ast.parse("from ._grid import GridProblem\n")
    trees = {pathlib.Path("_grid.py"): grid, pathlib.Path("bounds.py"): bounds}
    assert _import_cycle(_module_imports(trees)) is None
    assert _import_cycle(_module_imports(trees, lazy=True)) == "_grid -> bounds -> _grid"


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


def _name_parses(trees):
    """`path:line` of every `int(<expr>[1:])` outside `var_size`: a variable
    name such as "X3" parsed back into its node index."""
    found = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int" and len(node.args) == 1
                and isinstance(node.args[0], ast.Subscript)
                and isinstance(node.args[0].slice, ast.Slice)
                and isinstance(node.args[0].slice.lower, ast.Constant)
                and node.args[0].slice.lower.value == 1
                and node.args[0].slice.upper is None and where != "var_size"):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path, tree in trees.items():
        visit(tree, path, None)
    return found


def test_only_var_size_parses_variable_names():
    # the engine and validation read node indices from model.step_plan; a
    # name is turned back into a node index only by NetworkSpec.var_size
    assert _name_parses(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_name_parse_guard_finds_int_of_a_tail():
    code = ast.parse(
        "def var_size(name):\n    return int(name[1:])\n"
        "def slots(names):\n    return [int(v[1:]) - 1 for v in names], names[1:]\n"
        "def tail(v):\n    return int(v[2:]), int(v[1:3])\n")
    assert _name_parses({pathlib.Path("m.py"): code}) == ["m.py:4"]


def _attribute_uses(tree):
    """(stores, self_reads, other_reads, named) of one module.

    stores are (line, class, attr) of every `self.<attr> = ...` in a class,
    self_reads (class, attr, line) of every `self.<attr>` read in a class,
    other_reads (attr, line) of every attribute read through any other
    object, and named every name the module mentions (classes it defines or
    imports included).
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
                    self_reads.add((cls, node.attr, node.lineno))
                else:
                    other_reads.add((node.attr, node.lineno))
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
    self_reads = {(cls, attr) for u in uses.values() for cls, attr, _ in u[1]}
    other_reads = [({attr for attr, _ in other}, named) for _, _, other, named in uses.values()]
    unread = []
    for path in src_trees:
        for line, cls, attr in uses[path][0]:
            if (cls, attr) in self_reads:
                continue
            if any(cls in named and attr in other for other, named in other_reads):
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


def _range_refusals(trees):
    """`path:line` of every string (an f-string's literal parts included)
    spelling a `must be >=` refusal outside model.py."""
    return sorted(f"{path.name}:{node.lineno}" for path, tree in trees.items()
                  if path.name != "model.py" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "must be >=" in node.value)


def test_only_the_guards_spell_a_lower_bound():
    # a number's least value is checked by model.require_integer, whose one
    # message format is "<what> must be >= <least>, got <value>"
    assert _range_refusals(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_lower_bound_guard_reads_every_string():
    code = ast.parse("def f(n, k):\n"
                     "    if n < 1:\n        raise ValueError(f'n must be >= 1, got {n}')\n"
                     "    if k < 0:\n        raise ValueError('k must be >= 0')\n"
                     "    raise ValueError(f'k must be one of {n}')\n")
    assert _range_refusals({pathlib.Path("m.py"): code}) == ["m.py:3", "m.py:5"]
    assert _range_refusals({pathlib.Path("model.py"): code}) == []


def _called(node):
    """The name a call calls, `f` of `f(...)` or of `m.f(...)`; None otherwise."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _wrapped_reals(trees):
    """`path:line` of every float(...) or isfinite(...) call whose argument is
    a require_real(...) call: the guard already returns a finite float."""
    return [f"{path.name}:{node.lineno}" for path, tree in trees.items()
            for node in ast.walk(tree)
            if _called(node) in ("float", "isfinite")
            and node.args and _called(node.args[0]) == "require_real"]


def test_no_call_rewraps_require_real():
    assert _wrapped_reals(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_real_wrapper_guard_finds_float_and_isfinite():
    code = ast.parse("import math\nfrom model import require_real\nimport model\n"
                     "a = float(require_real(x, 'x'))\n"
                     "b = math.isfinite(model.require_real(y, 'y'))\n"
                     "c = require_real(float(z), 'z')\n"
                     "d = float(x) + math.isfinite(require_real)\n")
    assert _wrapped_reals({pathlib.Path("m.py"): code}) == ["m.py:4", "m.py:5"]


_TABLE_HOLDERS = {"__post_init__", "spec_from_dict", "code_from_dict", "simulate_relay"}
_CONVERSIONS = {"array", "asarray", "asanyarray", "ascontiguousarray", "astype"}


def _own_table_conversions(trees):
    """`path:line` of every setflags(...) call outside model.read_only, and of
    every conversion with a dtype of its own in a table holder (any
    __post_init__, spec_from_dict, code_from_dict or simulate_relay): an
    array, asarray, asanyarray, ascontiguousarray or astype call, or any
    call with a dtype keyword."""
    found = []
    for path, tree in trees.items():
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        guard = {id(node) for fn in functions if path.name == "model.py"
                 and fn.name == "read_only" for node in ast.walk(fn)}
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if _called(node) == "setflags" and id(node) not in guard]
        found += [(path.name, node.lineno) for fn in functions if fn.name in _TABLE_HOLDERS
                  for node in ast.walk(fn) if _called(node) in _CONVERSIONS
                  or isinstance(node, ast.Call) and any(k.arg == "dtype" for k in node.keywords)]
    return [f"{name}:{line}" for name, line in sorted(set(found))]


def test_every_table_passes_the_table_guard():
    # a table a caller or a file hands in becomes its holder's own read-only
    # copy through model.require_table, the one place that converts it;
    # model.read_only is the one place an array is made read-only
    assert _own_table_conversions(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_table_guard_reads_holders_and_setflags():
    code = ("import numpy as np\n"
            "def read_only(a):\n    a.setflags(write=False)\n    return a.view()\n"
            "class Held:\n"
            "    def __post_init__(self):\n"
            "        t = np.asarray(self.t, dtype=float)\n"
            "        self.t.setflags(write=False)\n"
            "        u = require_table(self.u, 'real', 'u')\n"
            "        w = np.zeros(3, dtype=np.int64)\n"
            "def spec_from_dict(d):\n    return d['rows'].astype(float)\n"
            "def simulate_relay(c, x):\n    return np.array(x)\n"
            "def other(x):\n    return np.asarray(x, dtype=float)\n")
    assert _own_table_conversions({pathlib.Path("model.py"): ast.parse(code)}) == [
        "model.py:7", "model.py:8", "model.py:10", "model.py:12", "model.py:14"]
    assert _own_table_conversions({pathlib.Path("m.py"): ast.parse(code)}) == [
        "m.py:3", "m.py:7", "m.py:8", "m.py:10", "m.py:12", "m.py:14"]


def _cap_refusals(trees):
    """`path:line` of every ResourceCapError(...) built outside the body of
    model.require_within_cap."""
    found = []
    for path, tree in trees.items():
        guard = [node for node in tree.body if path.name == "model.py"
                 and isinstance(node, ast.FunctionDef) and node.name == "require_within_cap"]
        inside = {id(node) for g in guard for node in ast.walk(g)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _called(node) == "ResourceCapError" and id(node) not in inside]
    return sorted(found)


def test_only_the_cap_guard_raises_a_cap_error():
    # every resource cap is checked by model.require_within_cap, whose one
    # message format is "<what> <count> is above the cap of <limit>"
    assert _cap_refusals(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_cap_error_guard_reads_every_module():
    code = ("from .errors import ResourceCapError\n"
            "def require_within_cap(count, limit, what):\n"
            "    if count > limit:\n        raise ResourceCapError(what)\n"
            "def other(n):\n    raise ResourceCapError(f'{n} is too many')\n")
    assert _cap_refusals({pathlib.Path("model.py"): ast.parse(code)}) == ["model.py:6"]
    assert _cap_refusals({pathlib.Path("m.py"): ast.parse(code)}) == ["m.py:4", "m.py:6"]


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _cap_arguments(trees):
    """`path:line` of every require_within_cap(...) call whose limit is not a
    module-level UPPER_CASE constant (a name bound at the top of its module,
    or one read off a module) or whose `what` is not a string literal."""
    found = []
    for path, tree in trees.items():
        imported = {alias.asname or alias.name.split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        top = imported | {t.id for node in tree.body if isinstance(node, ast.Assign)
                          for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if _called(node) != "require_within_cap":
                continue
            args = dict(zip(("count", "limit", "what"), node.args))
            args.update((k.arg, k.value) for k in node.keywords)
            limit, what = args.get("limit"), args.get("what")
            named = ""
            if isinstance(limit, ast.Name) and limit.id in top:
                named = limit.id
            elif (isinstance(limit, ast.Attribute) and isinstance(limit.value, ast.Name)
                  and limit.value.id in imported):
                named = limit.attr
            if not (_CONSTANT.fullmatch(named)
                    and isinstance(what, ast.Constant) and isinstance(what.value, str)):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_cap_is_a_module_constant():
    # a cap is never a knob: no parameter, local or expression sets one
    assert _cap_arguments(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_cap_argument_guard_reads_names_attributes_and_keywords():
    code = ast.parse(
        "from . import model\nfrom .polar import MAX_N\nCAP = 4\nlower = 5\n"
        "def f(n, cap):\n"
        "    LOCAL = 3\n"
        "    model.require_within_cap(n, CAP, 'n')\n"
        "    require_within_cap(n, model.DRAW_CELLS, 'n')\n"
        "    require_within_cap(n, limit=MAX_N, what='n')\n"
        "    require_within_cap(n, cap, 'n')\n"
        "    require_within_cap(n, LOCAL, 'n')\n"
        "    require_within_cap(n, lower, 'n')\n"
        "    require_within_cap(n, CAP.bit_length(), 'n')\n"
        "    require_within_cap(n, n.CAP, 'n')\n"
        "    require_within_cap(n, CAP, f'{n} items')\n")
    assert _cap_arguments({pathlib.Path("m.py"): code}) == [
        f"m.py:{line}" for line in range(10, 16)]


def _channel_less_specs(trees):
    """`path:line` of every NetworkSpec(...) call whose channels, the seventh
    argument or the `channels` keyword, is an empty tuple."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if _called(node) != "NetworkSpec":
                continue
            channels = node.args[6] if len(node.args) > 6 else next(
                (k.value for k in node.keywords if k.arg == "channels"), None)
            if isinstance(channels, ast.Tuple) and not channels.elts:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_network_spec_has_its_channels():
    # the two partitions alone give a network's steps (model.step_plan), so
    # no spec is built without its channels to read them
    paths = sorted(_SRC.glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))
    assert _channel_less_specs(_parsed(paths)) == []


def test_channel_less_spec_guard_reads_positions_and_keywords():
    code = ast.parse(
        "from . import model\n"
        "a = NetworkSpec(2, (2, 2), (2, 2), 1, s, s, ())\n"
        "b = model.NetworkSpec(2, (2, 2), (2, 2), 1, s, s, channels=())\n"
        "c = NetworkSpec(2, (2, 2), (2, 2), 1, s, s, (q,))\n"
        "d = model.NetworkSpec(2, (2, 2), (2, 2), 1, s, s, channels=qs)\n"
        "e = NetworkSpec(n_nodes=2, input_alphabet_sizes=(2, 2),\n"
        "                output_alphabet_sizes=(2, 2), alpha=1, input_partition=s,\n"
        "                output_partition=s, channels=())\n"
        "f = NetworkSpec(2, (), (), 0, s, s, qs)\n")
    assert _channel_less_specs({pathlib.Path("m.py"): code}) == ["m.py:2", "m.py:3", "m.py:6"]


def _validations(trees):
    """`path:line` of every name or attribute `validate_spec` read outside
    the body of NetworkSpec.__post_init__ in model.py: a call, or an alias
    that a later call could go through."""
    found = []
    for path, tree in trees.items():
        own = [node for cls in tree.body if path.name == "model.py"
               and isinstance(cls, ast.ClassDef) and cls.name == "NetworkSpec"
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
        inside = {id(node) for fn in own for node in ast.walk(fn)}
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if id(node) not in inside
                  and (isinstance(node, ast.Name) and node.id == "validate_spec"
                       or isinstance(node, ast.Attribute) and node.attr == "validate_spec")]
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_a_spec_validates_itself():
    # a NetworkSpec runs validate_spec once, when it is built; every entry
    # point reads the stored report through require_valid
    assert _validations(_parsed(sorted(_SRC.glob("*.py")))) == []


def test_validation_guard_reads_calls_and_aliases():
    code = ("class NetworkSpec:\n"
            "    def __post_init__(self):\n        self.validation = validate_spec(self)\n"
            "    def check(self):\n        return validate_spec(self)\n"
            "class ChannelTable:\n"
            "    def __post_init__(self):\n        model.validate_spec(self)\n"
            "def validate_spec(spec):\n    return spec\n"
            "check = model.validate_spec\n")
    assert _validations({pathlib.Path("model.py"): ast.parse(code)}) == [
        "model.py:5", "model.py:8", "model.py:11"]
    assert _validations({pathlib.Path("m.py"): ast.parse(code)}) == [
        "m.py:3", "m.py:5", "m.py:8", "m.py:11"]


def _cumsum_calls(tree):
    """Line of every cumsum(...) call, bare or through a module."""
    return [node.lineno for node in ast.walk(tree) if _called(node) == "cumsum"]


def test_the_engine_draws_only_from_the_specs_tables():
    # a channel's cumulative draw table is derived once, by NetworkSpec when
    # it is built (its draw_tables); the engine forms none of its own
    assert _cumsum_calls(ast.parse((_SRC / "simulate.py").read_text(encoding="utf-8"))) == []


def test_cumsum_guard_finds_every_call_form():
    code = ast.parse("import numpy as np\nfrom numpy import cumsum\n"
                     "a = np.cumsum(t, axis=1)\nb = cumsum(t)\nc = t.cumsum()\n"
                     "d = np.cumprod(t)\n")
    assert _cumsum_calls(code) == [3, 4, 5]


def _readers(tree, name):
    """Name of each function that reads the module-level `name`, one entry
    per function, in source order; a read outside every function is
    "<module>"."""
    readers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load) and where not in readers):
            readers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return readers


def test_one_function_holds_the_wilson_formula():
    # every Wilson interval, one count's or a report's whole array, comes
    # from simulate.wilson_half_width, the one reader of the quantile
    simulate = ast.parse((_SRC / "simulate.py").read_text(encoding="utf-8"))
    assert _readers(simulate, "_WILSON_Z") == ["wilson_half_width"]


def test_reader_guard_names_each_function_once():
    code = ast.parse("Z = 1.96\nW = Z * 2\n"
                     "def half(e):\n    z = Z\n    return Z * z\n"
                     "def twin(e):\n    def inner():\n        return Z\n    return inner()\n"
                     "def writes():\n    global Z\n    Z = 2.0\n")
    assert _readers(code, "Z") == ["<module>", "half", "inner"]


def _function_reads(tree):
    """Module-level function name -> every name its body reads, nested
    functions included."""
    return {node.name: {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def _enumeration_breaches(tree):
    """Each way simulate leaves its one enumeration of a code's outcomes: a
    check that reaches induced_joint or builds the all-delayed network
    (all_delayed_network, compose_channels), through any chain of the
    module's functions, or a function besides _run_batch and _outcomes that
    reads the slot loop."""
    reads = _function_reads(tree)
    breaches = []
    for check in ("check_memoryless_markov", "check_positive_delay_markov", "_step_cmis",
                  "equivalence_check"):
        seen, todo = set(), [check]
        while todo:
            for name in reads.get(todo.pop(), set()) - seen:
                seen.add(name)
                todo.append(name)
        breaches += [f"{check} reaches {name}" for name in
                     ("induced_joint", "all_delayed_network", "compose_channels") if name in seen]
    return breaches + [f"{name} reads _slots" for name, names in reads.items()
                       if "_slots" in names and name not in ("_run_batch", "_outcomes")]


def test_one_enumeration_feeds_the_joint_and_the_checks():
    # the Markov and equivalence checks read a code's outcome rows, never
    # the dense (W, X^n, Y^n) table or a second network's rows, and only the
    # Monte Carlo batch and the outcome enumeration drive the slot loop
    simulate = ast.parse((_SRC / "simulate.py").read_text(encoding="utf-8"))
    assert _enumeration_breaches(simulate) == []


def test_enumeration_guard_follows_helpers_and_nested_functions():
    code = ast.parse("def induced_joint(s, c):\n    return _outcomes(s, c)\n"
                     "def _dense(s, c):\n    return induced_joint(s, c)\n"
                     "def _step_cmis(s, c):\n    return _dense(s, c)\n"
                     "def equivalence_check(s, c):\n    return _outcomes(_twin(s), c)\n"
                     "def _twin(s):\n    return all_delayed_network(s)\n"
                     "def _outcomes(s, c):\n    def column():\n        return _slots\n"
                     "    return column\n"
                     "def _run_batch(s, c):\n    return _slots(s, c)\n"
                     "def estimate_error(s, c):\n    return _slots(s, c)\n")
    assert _enumeration_breaches(code) == ["_step_cmis reaches induced_joint",
                                           "equivalence_check reaches all_delayed_network",
                                           "estimate_error reads _slots"]


def _cmi_builds(tree):
    """Which of marginalize and JointPmf conditional_mutual_information
    calls, itself or through any chain of the module's functions."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["conditional_mutual_information"]
    while todo:
        for name in {_called(node) for node in ast.walk(functions[todo.pop()])} - seen:
            seen.add(name)
            if name in functions:
                todo.append(name)
    return sorted(seen & {"marginalize", "JointPmf"})


def test_a_cmi_builds_no_second_joint():
    # conditional_mutual_information sums its (|A|, |B|, |C|) table out of
    # the joint's array with _marginal; marginalize would build and validate
    # a second JointPmf on every call
    probability = ast.parse((_SRC / "probability.py").read_text(encoding="utf-8"))
    assert _cmi_builds(probability) == []


def test_cmi_guard_follows_helpers():
    code = ("def conditional_mutual_information(p, a, b, c):\n    return _table(p, a + b)\n"
            "def _table(p, keep):\n    return marginalize(p, keep).probs\n"
            "def marginalize(p, keep):\n    return JointPmf(p.variables, p.probs)\n")
    assert _cmi_builds(ast.parse(code)) == ["JointPmf", "marginalize"]
    direct = ("import probability\n"
              "def conditional_mutual_information(p, a, b, c):\n"
              "    return probability.JointPmf(p.variables, _marginal(p, a + b))\n"
              "def _marginal(p, keep):\n    return p.probs\n"
              "def marginalize(p, keep):\n    return JointPmf(p.variables, p.probs)\n")
    assert _cmi_builds(ast.parse(direct)) == ["JointPmf"]
    clean = direct.replace("probability.JointPmf(p.variables, _marginal", "cmi_table(_marginal")
    assert _cmi_builds(ast.parse(clean)) == []


def _entry_points():
    """(entry point, parameter, kind, call) per number a public entry point
    takes: `call` hands the value to that parameter alone, every other
    argument valid."""
    from zdmn import gaussian, polar, simulate
    spec = zdmn.bscfb_spec(0.11)
    code = zdmn.random_table_code(spec, 1, zdmn.DelayProfile.of((1, 1)), seed=0)
    profile = code.delay_profile
    config, cfg = gaussian.GaussianRelayConfig, gaussian.GaussianRelayConfig(5.0, 8)
    pairs, table_code = zdmn.RateTuple.from_pairs, zdmn.random_table_code
    return [
        ("grid_hull", "grid resolution k", int, lambda v: zdmn.grid_hull(spec, "capacity", v)),
        ("GaussianRelayConfig", "blocklength", int, lambda v: config(5.0, v)),
        ("GaussianRelayConfig", "seed", int, lambda v: config(5.0, 8, seed=v)),
        ("GaussianRelayConfig", "source power", float, lambda v: config(v, 8)),
        ("GaussianRelayConfig", "power back-off", float, lambda v: config(5.0, 8, delta=v)),
        ("neutralization_rate", "block count", int,
         lambda v: gaussian.neutralization_rate(cfg, v)),
        ("codebook_experiment", "rate", float,
         lambda v: gaussian.codebook_experiment(cfg, v, trials=2)),
        ("codebook_experiment", "trial count", int,
         lambda v: gaussian.codebook_experiment(cfg, 0.5, trials=v)),
        ("separation_report", "power", float, gaussian.separation_report),
        ("separation_report", "operating rate", float,
         lambda v: gaussian.separation_report(5.0, v)),
        ("PolarCode", "n", int, lambda v: polar.PolarCode(v, 8, 0.11)),
        ("PolarCode", "k", int, lambda v: polar.PolarCode(64, v, 0.11)),
        ("PolarCode", "crossover eps", float, lambda v: polar.PolarCode(64, 8, v)),
        ("PolarCode", "list_size", int, lambda v: polar.PolarCode(64, 8, 0.11, list_size=v)),
        ("PolarCode", "crc_bits", int, lambda v: polar.PolarCode(64, 8, 0.11, crc_bits=v)),
        ("binary_entropy", "eps", float, zdmn.binary_entropy),
        ("bscfb_spec", "eps", float, zdmn.bscfb_spec),
        ("TableCode", "blocklength", int, lambda v: dataclasses.replace(code, n=v)),
        ("TableCode", "message size", int,
         lambda v: dataclasses.replace(code, message_sizes=((1, v), (2, 1)))),
        ("random_table_code", "blocklength", int, lambda v: table_code(spec, v, profile, 0)),
        ("random_table_code", "message size", int,
         lambda v: table_code(spec, 1, profile, 0, message_size=v)),
        ("random_table_code", "seed", int, lambda v: table_code(spec, 1, profile, v)),
        ("run_trial", "trial", int, lambda v: zdmn.run_trial(spec, code, 0, trial=v)),
        ("run_trial", "seed", int, lambda v: zdmn.run_trial(spec, code, v)),
        ("estimate_error", "trials", int, lambda v: zdmn.estimate_error(spec, code, v, 0)),
        ("estimate_error", "seed", int, lambda v: zdmn.estimate_error(spec, code, 3, v)),
        ("bscfb_scheme", "eps", float, lambda v: zdmn.bscfb_scheme(v, 64, 0.25, 0, 2)),
        ("bscfb_scheme", "forward rate", float, lambda v: zdmn.bscfb_scheme(0.11, 64, v, 0, 2)),
        ("bscfb_scheme", "n", int, lambda v: zdmn.bscfb_scheme(0.11, v, 0.25, 0, 2)),
        ("bscfb_scheme", "trials", int, lambda v: zdmn.bscfb_scheme(0.11, 64, 0.25, 0, v)),
        ("bscfb_scheme", "seed", int, lambda v: zdmn.bscfb_scheme(0.11, 64, 0.25, v, 2)),
        ("RateTuple.from_pairs", "n_nodes", int, lambda v: pairs(v, {})),
        ("RateTuple.from_pairs", "node index", int, lambda v: pairs(2, {(v, 2): 0.5})),
        ("RateTuple.from_pairs", "node index", int, lambda v: pairs(2, {(1, v): 0.5})),
        ("RateTuple.from_pairs", "rate", float, lambda v: pairs(2, {(1, 2): v})),
        ("DelayProfile", "delay bit", int, lambda v: zdmn.DelayProfile((1, v))),
        ("DelayProfile.of", "delay bit", int, lambda v: zdmn.DelayProfile.of((v, 1))),
        ("wilson_half_width", "errors", int, lambda v: simulate.wilson_half_width(v, 3)),
        ("wilson_half_width", "trials", int, lambda v: simulate.wilson_half_width(0, v)),
        ("JointPmf", "alphabet size of A", int, lambda v: zdmn.JointPmf((("A", v),), [1.0])),
        ("enumerate_cuts", "n_nodes", int, zdmn.enumerate_cuts),
    ]


_ENTRY_POINTS = _entry_points()
# an integer parameter is also handed a fraction, and a huge negative
# integer in place of the huge one, which can be a valid count or seed
_MALFORMED = {float: [10 ** 400, math.nan, math.inf, -math.inf, True, "x"],
              int: [-10 ** 400, math.nan, math.inf, True, "x", 2.5]}


@pytest.mark.parametrize("what, kind, call", [e[1:] for e in _ENTRY_POINTS],
                         ids=[f"{e[0]}({e[1]})" for e in _ENTRY_POINTS])
def test_every_entry_point_refuses_a_malformed_number(what, kind, call):
    # one DomainError naming the parameter, never an OverflowError,
    # TypeError or ValueError, and never a silent acceptance
    for value in _MALFORMED[kind]:
        with pytest.raises(zdmn.DomainError) as e:
            call(value)
        assert str(e.value).startswith(f"{what} must be "), (value, str(e.value))


# a seed of any size is valid
_HUGE = [e for e in _ENTRY_POINTS if e[2] is int and e[1] != "seed"]


@pytest.mark.parametrize("call", [e[3] for e in _HUGE], ids=[f"{e[0]}({e[1]})" for e in _HUGE])
def test_every_entry_point_refuses_a_huge_integer(call):
    # 10**5000 is refused by a range check or a cap, never by the
    # ValueError that str() raises on an int past 4300 digits
    with pytest.raises(zdmn.ZdmnError):
        call(10 ** 5000)
