"""Coercion happens only at the API edge: no private kernel of projective,
pants, coordinates or builder coerces a number or builds a point or map
object.  The kernels take numbers, (num, den) point tuples and
(a, b, c, d) matrix tuples; the public functions coerce points once and
wrap.  complex() itself is called only where numbers enter the package, so
every formula computes in its inputs' own arithmetic."""

import ast
import pathlib

import pytest

from helpers import SRC

MODULES = [pathlib.Path(SRC) / "pantsrep" / ("%s.py" % name)
           for name in ("projective", "pants", "coordinates", "builder")]
#: cli is an entry point throughout, so it is left out
FORMULA_MODULES = [p for p in sorted((pathlib.Path(SRC) / "pantsrep").glob("*.py"))
                   if p.stem != "cli"]
#: the calls that coerce or build an object
EDGE_CALLS = {"complex", "as_point", "ProjectivePoint", "MoebiusMap"}
#: (module, function) where numbers enter the package and complex() may be called
ENTRY_POINTS = {
    ("coordinates", "params_from_json"),
    ("builder", "build"),
    ("projective", "ProjectivePoint.__init__"),
    ("projective", "MoebiusMap.__init__"),
    ("projective", "sqrt_principal"),  # cmath needs a complex number
    ("fuchsian", "from_fenchel_nielsen"),  # its output is complex
}


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _callee(call):
    """The called name of f(...) or x.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def edge_calls_in_kernels(tree):
    """(function, callee, line) for each edge call inside a private function,
    nested functions included."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and _is_private(fn.name):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _callee(node) in EDGE_CALLS:
                    found.append((fn.name, _callee(node), node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_kernels_do_not_coerce(path):
    assert edge_calls_in_kernels(ast.parse(path.read_text(), str(path))) == []


def test_the_rule_sees_calls_in_nested_and_attribute_form():
    tree = ast.parse("def _k(x):\n    def inner():\n        return pj.MoebiusMap(x)\n"
                     "    return complex(x)\n"
                     "def edge(x):\n    return as_point(x)\n"
                     "def __init__(self, x):\n    self.x = complex(x)\n")
    assert sorted(edge_calls_in_kernels(tree)) == [("_k", "MoebiusMap", 3), ("_k", "complex", 4)]


def complex_calls(tree):
    """(qualified name of the enclosing function or class, line) of each
    complex(...) call; a call at module level has the name ''."""
    found = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            name = qual
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = "%s.%s" % (qual, child.name) if qual else child.name
            elif isinstance(child, ast.Call) and _callee(child) == "complex":
                found.append((qual, child.lineno))
            visit(child, name)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", FORMULA_MODULES, ids=[p.name for p in FORMULA_MODULES])
def test_complex_is_called_only_where_numbers_enter(path):
    calls = complex_calls(ast.parse(path.read_text(), str(path)))
    assert [(qual, line) for qual, line in calls if (path.stem, qual) not in ENTRY_POINTS] == []
