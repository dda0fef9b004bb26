"""Every name a library module imports is used in that module, and the
library loads numpy only where a caller asks for an array."""

import ast
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pantsrep import coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.projective import MoebiusMap

from helpers import SRC, SUBPROCESS_ENV, sample_params

MODULES = sorted((pathlib.Path(SRC) / "pantsrep").glob("*.py"))


def _unused_imports(path):
    """(line, name) of each imported name that the module never loads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _import_time_imports(path):
    """(line, module) of each import that runs when the module is imported:
    everything outside function bodies."""
    found = []
    stack = list(ast.parse(path.read_text(), str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_numpy_import(path):
    assert [(line, name) for line, name in _import_time_imports(path)
            if name.split(".")[0] == "numpy"] == []


def _run_python(code, *args):
    r = subprocess.run([sys.executable, "-c", code] + list(args),
                       capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_cli_commands_do_not_load_numpy(tmp_path):
    """No command loads numpy, sample included: a cold process pays more
    to import it than to run any command of the mix."""
    files = {}
    for name, surf, params in [
        ("four", su.four_holed_sphere(), None),
        ("one", su.one_holed_torus(), None),
        ("fuchsian", su.one_holed_torus(), EdgeParams({1: -2.5, 2: -3.0}, {1: 1.5})),
    ]:
        spath, ppath = tmp_path / (name + "-surface.json"), tmp_path / (name + "-params.json")
        su.save(surf, spath)
        co.save_params(params or sample_params(surf, np.random.default_rng(8)), ppath)
        files[name] = ["--surface", str(spath), "--params", str(ppath)]
    argvs = [["example", "genus2"], ["validate"] + files["four"][:2], ["validate"] + files["four"],
             ["generators"] + files["four"], ["traces"] + files["one"], ["recover"] + files["four"],
             ["act", "--flip", "2"] + files["four"], ["move", "--kind", "reverse", "--target", "1"]
             + files["four"], ["fn"] + files["fuchsian"], ["shearbend"] + files["one"],
             ["sample", "--n", "2"] + files["four"][:2],
             ["sample", "--n", "2", "--fuchsian"] + files["one"][:2]]
    out = tmp_path / "out.json"
    code = """
import json, sys
from pantsrep import cli
loaded = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv + ["--out", sys.argv[2]]))
    loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    doc = json.loads(_run_python(code, json.dumps(argvs), str(out)))
    assert doc["codes"] == [0] * len(argvs)
    assert doc["loaded"] == [False] * (len(argvs) + 1), list(zip(["import"] + argvs, doc["loaded"]))


def test_moebius_array_input_m_and_repr_in_a_fresh_process():
    code = """
import sys
from pantsrep.projective import MoebiusMap
before = "numpy" in sys.modules
m = MoebiusMap([[2, 1j], [0.5, 3]])
print(before, m.m.dtype, m.m.shape, m.m.flags.writeable)
print(repr(m))
"""
    want = MoebiusMap(np.array([[2, 1j], [0.5, 3]]))
    assert _run_python(code) == "False complex128 (2, 2) False\n%r\n" % (want,)
