"""Coercion happens only at the API edge: no private kernel of projective,
pants, coordinates or builder coerces a number or builds a point or map
object.  The kernels take Python complex numbers, (num, den) point tuples
and (a, b, c, d) matrix tuples; the public functions coerce once and wrap."""

import ast
import pathlib

import pytest

from helpers import SRC

MODULES = [pathlib.Path(SRC) / "pantsrep" / ("%s.py" % name)
           for name in ("projective", "pants", "coordinates", "builder")]
#: the calls that coerce or build an object
EDGE_CALLS = {"complex", "as_point", "ProjectivePoint", "MoebiusMap"}


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def edge_calls_in_kernels(tree):
    """(function, callee, line) for each edge call inside a private function,
    nested functions included."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and _is_private(fn.name):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in EDGE_CALLS:
                        found.append((fn.name, name, node.lineno))
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
