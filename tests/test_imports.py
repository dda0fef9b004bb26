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


def _cli_files(tmp_path):
    """The flags naming each fixture's files: "@x" stands for --surface and
    --params of fixture x, "@x-surface" for its --surface alone."""
    flags = {}
    for name, surf, params in [
        ("four", su.four_holed_sphere(), None),
        ("one", su.one_holed_torus(), None),
        ("fuchsian", su.one_holed_torus(), EdgeParams({1: -2.5, 2: -3.0}, {1: 1.5})),
    ]:
        spath, ppath = tmp_path / (name + "-surface.json"), tmp_path / (name + "-params.json")
        su.save(surf, spath)
        co.save_params(params or sample_params(surf, np.random.default_rng(8)), ppath)
        flags["@" + name] = ["--surface", str(spath), "--params", str(ppath)]
        flags["@%s-surface" % name] = ["--surface", str(spath)]
    unparsable, outside = tmp_path / "unparsable.json", tmp_path / "outside.json"
    unparsable.write_text('{"eigen": ')
    doc = json.loads((tmp_path / "four-params.json").read_text())
    doc["eigen"]["2"] = [1.0, 0.0]
    outside.write_text(json.dumps(doc))
    flags["@unparsable"] = flags["@four-surface"] + ["--params", str(unparsable)]
    flags["@outside"] = flags["@four-surface"] + ["--params", str(outside)]
    return flags


def _expand(argv, flags):
    return [x for a in argv for x in flags.get(a, [a])]


#: a cold command line, its exit code, and the pantsrep modules it loads
#: besides those that every command loads
COLD_LINES = {
    "example": (["example", "genus2"], 0, {"builder"}),
    "validate": (["validate", "@four-surface"], 0, set()),
    "validate-params": (["validate", "@four"], 0, set()),
    "generators": (["generators", "@four"], 0, {"builder"}),
    "traces": (["traces", "@one"], 0, {"builder"}),
    "recover": (["recover", "@four"], 0, {"builder"}),
    "act": (["act", "--flip", "2", "@four"], 0, {"symmetry"}),
    "move": (["move", "--kind", "reverse", "--target", "1", "@four"], 0, {"moves"}),
    "fn": (["fn", "@fuchsian"], 0, {"fuchsian", "symmetry"}),
    "shearbend": (["shearbend", "@one"], 0, {"builder", "shearbend"}),
    "sample": (["sample", "--n", "2", "@four-surface"], 0, {"builder"}),
    "sample-fuchsian": (["sample", "--n", "2", "--fuchsian", "@one-surface"], 0, {"builder"}),
    "generators-schema-error": (["generators", "@unparsable"], 2, set()),
    "generators-domain-error": (["generators", "@outside"], 3, set()),
}
EVERY_COMMAND_LOADS = {"pantsrep", "pantsrep.cli", "pantsrep.coordinates", "pantsrep.pants",
                       "pantsrep.projective", "pantsrep.surface"}


def test_cli_commands_do_not_load_numpy(tmp_path):
    """No command loads numpy, sample included: a cold process pays more
    to import it than to run any command of the mix."""
    flags = _cli_files(tmp_path)
    argvs = [_expand(argv, flags) for argv, _, _ in COLD_LINES.values()]
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
    doc = json.loads(_run_python(code, json.dumps(argvs), str(out)).splitlines()[-1])
    assert doc["codes"] == [exit_code for _, exit_code, _ in COLD_LINES.values()]
    assert doc["loaded"] == [False] * (len(argvs) + 1), list(zip(["import"] + argvs, doc["loaded"]))


@pytest.mark.parametrize("line", COLD_LINES)
def test_a_cold_command_loads_only_the_modules_it_runs(tmp_path, line):
    """builder loads only in the commands that build matrices: validate,
    act, move, fn and an input error compile none of its code."""
    argv, code, extra = COLD_LINES[line]
    child = """
import json, sys
from pantsrep import cli
code = cli.main(json.loads(sys.argv[1]) + ["--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "pantsrep")]))
"""
    out = _run_python(child, json.dumps(_expand(argv, _cli_files(tmp_path))), str(tmp_path / "out.json"))
    assert json.loads(out.splitlines()[-1]) == [
        code, sorted(EVERY_COMMAND_LOADS | {"pantsrep." + m for m in extra})]


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
