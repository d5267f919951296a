"""Source hygiene checks that need no import of the package under test."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdlsim"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level private names (`_x`, not dunders) the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "os (line 1)", "b (line 2)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_detector_flags_an_unreferenced_private_name():
    source = (
        "_cache: dict = {}\n"
        "_A, _B = 1, 2\n"
        "def _helper():\n    return _B\n"
        "class _Plan:\n    pass\n"
        "__version__ = '1'\n"
        "def public():\n    return _helper()\n"
    )
    assert unreferenced_private_names(source) == [
        "_cache (line 1)", "_A (line 2)", "_Plan (line 5)"]
    # a store alone is not a read
    assert unreferenced_private_names("_x = 1\n_x = 2\n") == ["_x (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text()) == []


SEED_RULE = ("derive_seed", "simulate_counts")  # sub-seeds are derived and drawn in instrument.py


def seed_rule_uses(source: str) -> list[str]:
    """Imports of, reads of and calls to `derive_seed` or `simulate_counts`, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in SEED_RULE]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detector_flags_a_seed_rule_use():
    source = (
        "from .instrument import derive_seed as ds, measure\n"
        "import numpy as np\n"
        "seeds = [instrument.derive_seed(1, 'x', k) for k in range(3)]\n"
        "draw = simulate_counts\n"
        "measure(batch, rig, 'x', range(3))\n"
    )
    assert seed_rule_uses(source) == [
        "derive_seed (line 1)", "derive_seed (line 3)", "simulate_counts (line 4)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "instrument.py"],
                         ids=[p.name for p in MODULES if p.name != "instrument.py"])
def test_seed_rule_stays_in_instrument(path):
    assert seed_rule_uses(path.read_text()) == []


SPANS = SRC.parents[1] / "benchmark" / "spans.py"


def traced_names(source: str) -> dict:
    """The `TRACED` mapping (module -> function names) of a spans file, read with ast."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED assignment")


def module_functions(name: str) -> dict:
    tree = ast.parse((SRC / f"{name}.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def scalar_twins(source: str) -> list[str]:
    """Public module-level functions `f` beside a public plural `fs` (or `fy` beside `fies`)."""
    names = {n.name for n in ast.parse(source).body
             if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    plural = {name: name[:-1] + "ies" if name.endswith("y") else name + "s" for name in names}
    return sorted(name for name in names if plural[name] in names)


def test_detector_flags_a_scalar_twin():
    source = (
        "def norm(x):\n    return norms(x)\n"
        "def norms(x):\n    return x\n"
        "def entropy(x):\n    return x\n"
        "def entropies(x):\n    return x\n"
        "def _pad(x):\n    return x\n"
        "def _pads(x):\n    return x\n"
        "def outs(x):\n    return x\n"
        "out = 1\n"
        "class Item:\n    pass\n"
        "def Items():\n    return Item\n"
    )
    assert scalar_twins(source) == ["entropy", "norm"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_scalar_twins_are_benchmark_traced(path):
    """A one-value `f` beside its stacked `fs` stays only where the benchmark traces `f`."""
    traced = traced_names(SPANS.read_text()).get(path.stem, ())
    assert [f for f in scalar_twins(path.read_text()) if f not in traced] == []


def test_traced_names_reader():
    assert traced_names("x = 1\nTRACED = {'m': ('f', 'g')}\n") == {"m": ("f", "g")}
    with pytest.raises(LookupError):
        traced_names("TRACE = {}\n")


def test_benchmark_traced_functions_exist():
    traced = traced_names(SPANS.read_text())
    assert traced
    missing = [f"{mod}.{fn}" for mod, names in traced.items()
               for fn in names if fn not in module_functions(mod)]
    assert missing == []
    # the tracer counts simulated settings as len() of simulate_counts' second
    # argument, passed by position or as `settings`
    assert module_functions("instrument")["simulate_counts"].args.args[1].arg == "settings"
