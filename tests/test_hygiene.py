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


CLOSED_FORM_CALLS = ("cosh", "sinh", "exp")  # the transport laws live in theory.py


def closed_form_calls(source: str) -> list[str]:
    """Calls to `np.cosh`, `np.sinh` or `np.exp` (or `numpy.`), and imports of them from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in CLOSED_FORM_CALLS]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
              and node.func.attr in CLOSED_FORM_CALLS):
            found.append((node.lineno, node.func.attr))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detector_flags_a_closed_form_call():
    source = (
        "import numpy as np\n"
        "from numpy import sinh, log\n"
        "y = np.cosh(g) * np.log(x)\n"
        "z = numpy.exp(-t) + math.exp(1) + rate.exp()\n"
        "w = np.expm1(t)\n"
    )
    assert closed_form_calls(source) == ["sinh (line 2)", "cosh (line 3)", "exp (line 4)"]


def test_cli_states_no_closed_form():
    assert closed_form_calls((SRC / "cli.py").read_text()) == []


SPANS = SRC.parents[1] / "benchmark" / "spans.py"


def traced_names(source: str) -> dict:
    """The `TRACED` mapping (module -> function names) of a spans file, read with ast."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED assignment")


def top_level_functions(source: str) -> dict:
    return {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}


def module_functions(name: str) -> dict:
    return top_level_functions((SRC / f"{name}.py").read_text())


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


# positional parameters `Tracer._observe` reads from a traced call: (module, function) -> {place: name}
OBSERVED_ARGS = {
    ("instrument", "simulate_counts"): {1: "settings"},
    ("compensation", "optimize_compensator"): {0: "pdl_a", 2: "cfg"},
}


def traced_binding_faults(traced: dict, functions) -> list[str]:
    """Traced names that are no function of their module, and observed parameters out of place.

    `functions(mod)` gives the module's top-level functions, name -> `ast.FunctionDef`.
    """
    faults = []
    for mod, names in traced.items():
        defined = functions(mod)
        for fn in names:
            if fn not in defined:
                faults.append(f"{mod}.{fn} is not a function")
                continue
            params = [a.arg for a in defined[fn].args.args]
            for place, arg in OBSERVED_ARGS.get((mod, fn), {}).items():
                if params[place:place + 1] != [arg]:
                    faults.append(f"{mod}.{fn} parameter {place} is not {arg}")
    return faults


def test_detector_flags_a_missing_traced_name():
    fake = {
        "instrument": "def simulate_counts(batch, schedule, src):\n    pass\n",
        "compensation": "def optimize_compensator(pdl_a, base):\n    pass\n",
    }
    traced = {"instrument": ("simulate_counts", "no_such_fn"),
              "compensation": ("optimize_compensator",)}
    assert traced_binding_faults(traced, lambda mod: top_level_functions(fake[mod])) == [
        "instrument.simulate_counts parameter 1 is not settings",
        "instrument.no_such_fn is not a function",
        "compensation.optimize_compensator parameter 2 is not cfg",
    ]


def test_benchmark_traced_functions_exist():
    """Every traced name is a pdlsim function, and the tracer's positional reads stay in place."""
    traced = traced_names(SPANS.read_text())
    assert set(OBSERVED_ARGS) <= {(mod, fn) for mod, names in traced.items() for fn in names}
    assert traced_binding_faults(traced, module_functions) == []
