"""Every numeric degeneracy is one rule: a DegenerateInputError names its
vanishing factor, and only projective._vanishing tests a factor it is given."""

import ast
import pathlib

import pytest

from helpers import SRC

MODULES = sorted((pathlib.Path(SRC) / "pantsrep").glob("*.py"))


def _is_degenerate_error(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "DegenerateInputError")


def _unnamed_factors(tree):
    """Line of each DegenerateInputError(...) call without a factor= keyword."""
    return [node.lineno for node in ast.walk(tree) if _is_degenerate_error(node)
            and "factor" not in {kw.arg for kw in node.keywords}]


def _predicates(tree):
    """Functions raising a DegenerateInputError whose factor is one of their
    arguments: each is a vanishing rule of its own."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        if any(kw.arg == "factor" and isinstance(kw.value, ast.Name) and kw.value.id in args
               for node in ast.walk(fn) if _is_degenerate_error(node) for kw in node.keywords):
            found.append(fn.name)
    return found


def _parse(path):
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_degenerate_input_error_names_its_factor(path):
    assert _unnamed_factors(_parse(path)) == []


def test_the_vanishing_rule_is_defined_once_in_projective():
    assert [(path.name, name) for path in MODULES for name in _predicates(_parse(path))] \
        == [("projective.py", "_vanishing")]
