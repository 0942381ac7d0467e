"""Every name a module of the package imports is used by that module, every
private module-level name of the package is used somewhere in it, no
module-level function or class of the package, nor a method or property of
one of its classes, serves only the tests, every field of a package
dataclass is read, every Gram is built by ``gram.weighted_gram`` or read
by ``gram.load_gram``, only the plan functions read the byte cap, and only
``functionals.py`` calls a functional's evaluators h1..h4."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoif"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read afterwards.

    A name listed in ``__all__`` counts as used (a re-export), and
    ``from __future__`` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_exports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "x = np.zeros(1)\n"
        "y = dumps(x)\n"
    )
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


# the package's modules by file name, the tests' (``reference.py`` too) under tests/
MODULES = {**{p.name: p for p in SRC.glob("*.py")},
           **{f"tests/{p.name}": p for p in Path(__file__).resolve().parent.glob("*.py")}}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module].read_text()) == []


def unused_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions, classes and constants that no
    module in ``sources`` (module name -> source) reads.

    A read is a loaded name, an attribute access or a ``from`` import of
    the name; dunder names are not private.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(name, f"{module}:{node.lineno}") for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{name} ({where})" for name, where in defined if name not in used)


def test_private_scanner_flags_leftovers():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "_CAP = 3\n"
            "_LIMIT: int = 4\n"
            "def _helper(n):\n    return n\n"
            "def _leftover(n):\n    return n\n"
            "class _Shared:\n    pass\n"
            "class _Stale:\n    pass\n"
            "def public(n):\n    return _helper(n) + _CAP\n"
        ),
        "b.py": "from a import _LIMIT\nimport a\nx = a._Shared\n",
    }
    assert unused_privates(sources) == ["_Stale (a.py:10)", "_leftover (a.py:6)"]


def test_no_unused_privates():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_privates(sources) == []


# package names that only tests read, each kept for the reason given
TEST_ONLY_ALLOWED = {
    "dataset_to_csv": "writes the CSV format that dataset_from_csv reads",
    "load_gram": "reads the binary format that save_gram writes",
}


def _loads(node: ast.AST) -> set[str]:
    """Names loaded and attributes accessed anywhere in ``node``."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unreached_definitions(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Module-level functions and classes of ``sources`` (module name ->
    source), and the methods and properties of those classes, that no root
    reaches.

    The roots are ``roots`` and every name that module-level code outside
    a definition reads; a reached definition reaches every name read in it
    (decorators and defaults included).  A class reaches what its body reads
    outside its methods, dunder methods included; a method or property
    ``C.f`` is reached once ``C`` is and reached code reads an attribute
    ``f`` of anything.  A read is a loaded name or an attribute access: an
    import alone reaches nothing.
    """
    reads, where = {}, {}
    frontier = set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                frontier |= _loads(node)
                continue
            where[node.name] = f"{module}:{node.lineno}"
            own = reads.setdefault(node.name, set())
            if not isinstance(node, ast.ClassDef):
                own |= _loads(node)
                continue
            for expr in node.decorator_list + node.bases + node.keywords:
                own |= _loads(expr)
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    reads[f"{node.name}.{item.name}"] = _loads(item)
                    where[f"{node.name}.{item.name}"] = f"{module}:{item.lineno}"
                else:
                    own |= _loads(item)
    reached = set()
    while frontier:
        reached |= frontier
        frontier = set().union(*(reads.get(name, ()) for name in frontier))
        # a member whose class and attribute name are both reached
        frontier |= {key for key in reads if "." in key and set(key.split(".")) <= reached}
        frontier -= reached
    return sorted(f"{name} ({at})" for name, at in where.items() if name not in reached)


def test_reach_scanner_flags_test_only_code():
    sources = {
        "a.py": (
            "from b import helper\n"
            "def api(n):\n    return helper(n) + _inner(n) + Config().f()\n"
            "def _inner(n):\n    return n\n"
            "def oracle(n):\n    return _oracle_part(n)\n"
            "def _oracle_part(n):\n    return n\n"
            "class Config:\n    def f(self):\n        return _from_method()\n"
            "def _from_method():\n    return 1\n"
            "REGISTRY = [registered]\n"
        ),
        "b.py": (
            "def helper(n):\n    return n\n"
            "def registered():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
        ),
    }
    assert unreached_definitions(sources, {"api", "Config"}) == [
        "_oracle_part (a.py:8)", "oracle (a.py:6)", "recursive (b.py:5)"]


def test_reach_scanner_flags_test_only_members():
    source = (
        "class Basis:\n"
        "    size: int = _DEFAULT\n"
        "    def __post_init__(self):\n"
        "        _check(self)\n"
        "    @property\n"
        "    def k(self):\n"
        "        return self.size\n"
        "    def evaluate_many(self, x):\n"
        "        return x\n"
        "    def evaluate(self, x):\n"
        "        return _first(self.evaluate_many([x]))\n"
        "def _check(b):\n    pass\n"
        "def _first(rows):\n    return rows[0]\n"
        "def api(b):\n    return b.evaluate_many(b.k)\n"
        "class Unused:\n    def evaluate(self):\n        pass\n"
    )
    assert unreached_definitions({"a.py": source}, {"api", "Basis"}) == [
        "Basis.evaluate (a.py:10)", "Unused (a.py:18)", "Unused.evaluate (a.py:19)",
        "_first (a.py:14)"]


def test_no_test_only_code_in_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    init = ast.parse(sources["__init__.py"])
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    fixed = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("hoif") for alias in node.names}
    roots = set(exported) | fixed | set(TEST_ONLY_ALLOWED)
    assert unreached_definitions(sources, roots) == []


def unread_fields(sources: dict[str, str], readers: tuple[str, ...] = ()) -> list[str]:
    """Fields of the dataclasses in ``sources`` (module name -> source) that
    no source in ``sources`` or ``readers`` reads.

    A read is a loaded attribute of that name on anything, or a string
    constant with the name as one of its dotted parts, since ``attrgetter``
    and ``getattr`` read fields by name.  Setting a field is not a read.
    """
    fields, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in _loads(dec) for dec in node.decorator_list):
                fields += [(item.target.id, f"{node.name}.{item.target.id} ({module}:{item.lineno})")
                           for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for source in (*sources.values(), *readers):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(node.value.split("."))
    return sorted(label for name, label in fields if name not in read)


def test_field_scanner_flags_unread_fields():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class Spec:\n"
            "    size: int\n"
            "    label: str = ''\n"
            "    family: str = 'haar'\n"
            "    order: int = 0\n"
            "    LIMIT = 3\n"
            "@dataclasses.dataclass\n"
            "class Report:\n"
            "    value: float\n"
            "    note: str\n"
            "class Plain:\n"
            "    hint: str\n"
            "def run(spec, rep):\n"
            "    rep.note = 'set, not read'\n"
            "    return spec.size + rep.value\n"
        ),
        "b.py": "from operator import attrgetter\nKEYS = {'basis.family': 1}\n",
    }
    assert unread_fields(sources, ("def check(spec):\n    return spec.order\n",)) == [
        "Report.note (a.py:13)", "Spec.label (a.py:6)"]
    assert unread_fields(sources) == [
        "Report.note (a.py:13)", "Spec.label (a.py:6)", "Spec.order (a.py:8)"]


def test_no_unread_dataclass_fields():
    # A8 reads the truncation rate of a scenario that only the acceptance
    # gates use, so that file counts as a reader
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    assert unread_fields(sources, (acceptance,)) == []


# the one Gram builder: the module-level functions (module:function) that
# may call each constructor of a GramMatrix
GRAM_BUILDERS = {
    "GramMatrix": {"gram.py:weighted_gram", "gram.py:_finish"},
    "_finish": {"gram.py:weighted_gram", "gram.py:load_gram"},
}


def stray_gram_builds(sources: dict[str, str]) -> list[str]:
    """Calls in ``sources`` (module name -> source) of a name in
    ``GRAM_BUILDERS``, bare or as an attribute, from outside the module-level
    functions it allows; a call in a class or at module level is stray too."""
    stray = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = f"{module}:{getattr(node, 'name', '<module>')}"
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in GRAM_BUILDERS and owner not in GRAM_BUILDERS[name]:
                    stray.append(f"{name} in {owner}:{call.lineno}")
    return sorted(stray)


def test_gram_build_scanner_flags_a_second_builder():
    sources = {
        "gram.py": (
            "def _finish(e):\n    return GramMatrix(e)\n"
            "def weighted_gram(d):\n    return GramMatrix(d) if d else _finish(d)\n"
            "def load_gram(e):\n    return _finish(e)\n"
            "def cell_gram(m):\n    return GramMatrix(m)\n"
            "def _dense(m):\n    return _finish(m).entries\n"
        ),
        "sim.py": (
            "import gram\n"
            "EYE = gram.GramMatrix(1)\n"
            "class Study:\n    def ref(self):\n        return gram._finish(2)\n"
            "def weighted_gram(d):\n    return gram.GramMatrix(d)\n"
        ),
    }
    assert stray_gram_builds(sources) == [
        "GramMatrix in gram.py:cell_gram:8", "GramMatrix in sim.py:<module>:2",
        "GramMatrix in sim.py:weighted_gram:7", "_finish in gram.py:_dense:10",
        "_finish in sim.py:Study:5"]


def test_every_gram_is_built_by_weighted_gram():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stray_gram_builds(sources) == []


# the byte cap, read only where a working set is planned
CAP = "PLAN_BYTES_MAX"
CAP_READERS = {"ustat.py:run_plan"}


def stray_cap_reads(sources: dict[str, str]) -> list[str]:
    """Reads of ``CAP``, as a loaded name or an attribute, in ``sources``
    (module name -> source) from outside the module-level functions of
    ``CAP_READERS``; a read in a class or at module level is stray too.  An
    import or an assignment of the name is not a read."""
    stray = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = f"{module}:{getattr(node, 'name', '<module>')}"
            stray += [f"{owner}:{read.lineno}" for read in ast.walk(node)
                      if ((isinstance(read, ast.Name) and read.id == CAP
                           and isinstance(read.ctx, ast.Load))
                          or (isinstance(read, ast.Attribute) and read.attr == CAP))
                      and owner not in CAP_READERS]
    return sorted(stray)


def test_cap_scanner_flags_a_second_reader():
    sources = {
        "ustat.py": (
            "PLAN_BYTES_MAX = 1 << 30\n"
            "def run_plan(n):\n    return n > PLAN_BYTES_MAX\n"
            "def _slack(n):\n    return PLAN_BYTES_MAX - n\n"
        ),
        "gram.py": (
            "import ustat\n"
            "from ustat import PLAN_BYTES_MAX, run_plan\n"
            "def gram_plan(k):\n    return run_plan(8 * k)\n"
            "def _capped(b):\n    return b > PLAN_BYTES_MAX\n"
            "def node_rows(k):\n    return 8 * k <= ustat.PLAN_BYTES_MAX\n"
        ),
        "sim.py": (
            "import gram\n"
            "LIMIT = gram.PLAN_BYTES_MAX // 2\n"
            "class Study:\n    cap = f'{gram.PLAN_BYTES_MAX}'\n"
        ),
    }
    assert stray_cap_reads(sources) == [
        "gram.py:_capped:6", "gram.py:node_rows:8", "sim.py:<module>:2", "sim.py:Study:4",
        "ustat.py:_slack:5"]


def test_only_the_plans_read_the_byte_cap():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stray_cap_reads(sources) == []


# the evaluators of a functional, called only in the module that owns them
EVALUATORS = {"h1", "h2", "h3", "h4"}
EVALUATOR_OWNER = "functionals.py"


def stray_evaluator_calls(sources: dict[str, str]) -> list[str]:
    """Calls of an attribute named in ``EVALUATORS``, on anything, in the
    modules of ``sources`` (module name -> source) other than
    ``EVALUATOR_OWNER``."""
    return sorted(f"{call.func.attr} in {module}:{call.lineno}"
                  for module, source in sources.items() if module != EVALUATOR_OWNER
                  for call in ast.walk(ast.parse(source))
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                  and call.func.attr in EVALUATORS)


def test_evaluator_scanner_flags_a_second_reader():
    sources = {
        "functionals.py": (
            "def influence(spec, data):\n    return spec.h1(data) + spec.h4(data)\n"
        ),
        "estimator.py": (
            "def fold(spec, est, specs):\n"
            "    w = spec.abs_h1(est)\n"
            "    h1 = spec.h1\n"
            "    return h1(est) + specs[0].h3(est) + w\n"
            "class Arm:\n    def res(self, d):\n        return self.spec.h2(d)\n"
        ),
        "nuisance.py": "SEEN = arms().h4(data)\n",
    }
    assert stray_evaluator_calls(sources) == [
        "h2 in estimator.py:7", "h3 in estimator.py:4", "h4 in nuisance.py:1"]


def test_only_functionals_calls_the_evaluators():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stray_evaluator_calls(sources) == []


def test_no_command_loads_scipy(tmp_path):
    # numpy is the one run-time dependency: no estimate (Haar; an order-0
    # B-spline at a q no Haar basis has; B-splines of order 1 to 3, each
    # under emp and ac), no study and no basis-inspect loads scipy
    fixture = Path(__file__).resolve().parent / "fixtures" / "golden_data.csv"
    estimate = ["estimate", "--input", str(fixture), "--out", str(tmp_path / "e"), "--set", "m=3"]
    order0 = ["--set", "basis.family=bspline", "--set", "basis.per_dim_size=14"]
    runs = [estimate, estimate + order0, estimate + order0 + ["--set", "variant=ac"]]
    runs += [estimate + ["--set", "basis.family=bspline", "--set", f"basis.order={order}",
                         "--set", f"variant={variant}"]
             for order in (1, 2, 3) for variant in ("emp", "ac")]
    runs += [["simulate", "--out", str(tmp_path / "s"), "--set", "scenario=s1-smooth-d1",
              "--set", "n=400", "--set", "reps=2", "--set", "basis.family=bspline",
              "--set", "basis.order=2"],
             ["basis-inspect", "--set", "basis.family=bspline", "--set", "basis.order=3"]]
    script = (
        "import sys\n"
        "from hoif.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    rc = main(argv)\n"
        "    assert rc == 0, (argv, rc)\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]"] * len(runs)


def test_cli_import_loads_no_process_pool():
    # simulate imports multiprocessing when it forks workers; a bare import
    # of the CLI, which every command pays, must not load it
    script = ("import sys, hoif.cli\n"
              "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
              " if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
