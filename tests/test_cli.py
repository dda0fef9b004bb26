"""Command-line interface: subcommands, exit codes, determinism."""

import copy
import json
import math
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pantsrep import cli, coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams

from helpers import SUBPROCESS_ENV, caterpillar, handle_chain, sample_params

RNG = np.random.default_rng(20240909)


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "pantsrep.cli"] + list(args),
        capture_output=True, text=True, env=SUBPROCESS_ENV, **kw,
    )


@pytest.fixture
def four_holed_files(tmp_path):
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    spath, ppath = tmp_path / "surf.json", tmp_path / "params.json"
    su.save(surf, spath)
    co.save_params(params, ppath)
    return surf, params, str(spath), str(ppath)


def test_example_runs_and_is_deterministic():
    r1 = run_cli("example", "four-holed")
    r2 = run_cli("example", "four-holed")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert set(doc) >= {"surface", "params", "generators", "relation_residuals"}
    assert max(doc["relation_residuals"].values()) < 1e-9


def test_example_all_fixtures():
    for which in ("four-holed", "one-holed", "genus2"):
        r = run_cli("example", which)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert max(doc["relation_residuals"].values()) < 1e-9


def test_validate(four_holed_files):
    _, _, spath, _ = four_holed_files
    r = run_cli("validate", "--surface", spath)
    assert r.returncode == 0
    assert json.loads(r.stdout)["surface"] == "ok"


def test_generators_and_traces(four_holed_files):
    surf, params, spath, ppath = four_holed_files
    r = run_cli("generators", "--surface", spath, "--params", ppath)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert "d1" in doc["generators"]
    r2 = run_cli("traces", "--surface", spath, "--params", ppath)
    assert r2.returncode == 0, r2.stderr
    json.loads(r2.stdout)


def test_recover_roundtrip_via_cli(four_holed_files):
    surf, params, spath, ppath = four_holed_files
    r = run_cli("recover", "--surface", spath, "--params", ppath)
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout)


def test_sample_is_deterministic(four_holed_files):
    _, _, spath, _ = four_holed_files
    r1 = run_cli("sample", "--surface", spath, "--seed", "11", "--n", "4")
    r2 = run_cli("sample", "--surface", spath, "--seed", "11", "--n", "4")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    r3 = run_cli("sample", "--surface", spath, "--seed", "12", "--n", "4")
    assert r3.stdout != r1.stdout


USAGE_ERRORS = {
    "no-command": [], "unknown-command": ["nope"], "example-without-name": ["example"],
    "example-bad-name": ["example", "nope"], "bad-kind": ["move", "--kind", "nope"],
    "non-integer-n": ["sample", "--n", "x"], "non-integer-seed": ["sample", "--seed", "1.5"],
    "non-integer-flip": ["act", "--flip", "a"], "unknown-flag": ["validate", "--nope"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_is_a_schema_error(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert strict_json(out)["error"] == "schema" and err == ""


def _with_files(argv, spath, ppath):
    """argv with "S" and "P" replaced by the --surface and --params flags."""
    files = {"S": ["--surface", spath], "P": ["--params", ppath]}
    return [x for a in argv for x in files.get(a, [a])]


_ELEM = ["move", "S", "P", "--kind", "elem", "--target", "1", "--branch"]
MALFORMED_FLAGS = {
    "move-bare": (["move", "S", "P"], "move needs --kind and --target"),
    "move-kind-only": (["move", "S", "P", "--kind", "reverse"], "move needs --kind and --target"),
    "move-bad-target": (["move", "S", "P", "--kind", "reverse", "--target", "x"],
                        "--target must be an edge or vertex id"),
    "move-branch-one-part": (_ELEM + ["1"], "--branch must be re,im"),
    "move-branch-not-numbers": (_ELEM + ["a,b"], "--branch must be re,im"),
    "move-branch-nan": (_ELEM + ["nan,0"], "--branch must be finite"),
    "move-branch-inf": (_ELEM + ["inf,0"], "--branch must be finite"),
    "move-branch-minus-inf": (_ELEM + ["0,-inf"], "--branch must be finite"),
    "move-branch-not-elem": (["move", "S", "P", "--kind", "twist-r", "--target", "1", "--branch", "1,2"],
                             "--branch applies only to --kind elem"),
    "move-branch-empty": (_ELEM + [""], "--branch must be re,im"),
    "act-bare": (["act", "S", "P"], "act needs --flip and/or --epsilon"),
    "act-bad-epsilon": (["act", "S", "P", "--epsilon", "1,x"], "--epsilon must be a comma-separated edge list"),
    "act-epsilon-empty": (["act", "S", "P", "--flip", "2", "--epsilon", ""],
                          "--epsilon must be a comma-separated edge list"),
    "act-epsilon-empty-alone": (["act", "S", "P", "--epsilon", ""],
                                "--epsilon must be a comma-separated edge list"),
    "act-epsilon-commas-only": (["act", "S", "P", "--flip", "2", "--epsilon", ","],
                                "--epsilon must be a comma-separated edge list"),
    "act-epsilon-empty-item": (["act", "S", "P", "--flip", "2", "--epsilon", "1,,3"],
                               "--epsilon must be a comma-separated edge list"),
    "no-surface": (["generators", "P"], "--surface is required for this command"),
    "no-params": (["generators", "S"], "--params is required for this command"),
    "bad-tol": (["recover", "S", "P", "--tol", "abc"], "argument --tol: must be a finite non-negative number"),
}


@pytest.mark.parametrize("argv, detail", MALFORMED_FLAGS.values(), ids=MALFORMED_FLAGS)
def test_a_missing_or_malformed_flag_is_a_schema_error(capsys, four_holed_files, argv, detail):
    _, _, spath, ppath = four_holed_files
    assert cli.main(_with_files(argv, spath, ppath)) == 2
    out, err = capsys.readouterr()
    doc = strict_json(out)
    assert doc["error"] == "schema" and doc["detail"].startswith(detail) and err == "", doc


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as ex:
        cli.main(["--help"])
    assert ex.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pantsrep")


def test_sample_negative_n_is_a_schema_error(capsys, four_holed_files):
    _, _, spath, _ = four_holed_files
    assert cli.main(["sample", "--surface", spath, "--n", "-1"]) == 2
    doc = strict_json(capsys.readouterr().out)
    assert doc["error"] == "schema" and "--n" in doc["detail"]


def test_sample_negative_seed_is_a_schema_error(capsys, four_holed_files):
    _, _, spath, _ = four_holed_files
    assert cli.main(["sample", "--surface", spath, "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    doc = strict_json(out)
    assert doc["error"] == "schema" and "--seed" in doc["detail"] and err == ""


@pytest.mark.parametrize("fuchsian", [False, True], ids=["complex", "fuchsian"])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1])
@pytest.mark.parametrize("make", [su.four_holed_sphere, su.genus_two], ids=["four_holed", "genus_two"])
def test_sample_draws_from_the_documented_ranges(tmp_path, capsys, make, seed, fuchsian):
    """Log-uniform |e| in [1.2, 5] and |t| in [0.1, 10], rejected into the
    domain; with --fuchsian, real e = -exp(u), u in [0.1, 2], and real t."""
    surf = make()
    spath = tmp_path / "s.json"
    su.save(surf, spath)
    argv = ["sample", "--surface", str(spath), "--seed", str(seed), "--n", "6"]
    argv += ["--fuchsian"] if fuchsian else []
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    doc = strict_json(out)
    assert (doc["seed"], doc["n"], len(doc["points"])) == (seed, 6, 6)
    slack = 1 + 1e-12  # exp(log(b)) may round past b
    for point in doc["points"]:
        params = co.params_from_json(point["params"])
        assert co.in_domain(params, surf)
        for e in params.eigen.values():
            if fuchsian:
                assert e.imag == 0 and -math.exp(2) * slack <= e.real <= -math.exp(0.1) / slack
            else:
                assert 1.2 / slack <= abs(e) <= 5.0 * slack
        for t in params.twist.values():
            if fuchsian:
                assert t.imag == 0 and 0.1 / slack <= t.real <= 10.0 * slack
            else:
                assert 0.1 / slack <= abs(t) <= 10.0 * slack


@pytest.mark.parametrize("flags", [[], ["--fuchsian"]], ids=["complex", "fuchsian"])
def test_sample_of_no_points(capsys, four_holed_files, flags):
    _, _, spath, _ = four_holed_files
    assert cli.main(["sample", "--surface", spath, "--n", "0"] + flags) == 0
    doc = strict_json(capsys.readouterr().out)
    assert (doc["points"], doc["worst_residual"]) == ([], 0.0)


def test_sample_numeric_error_names_the_point(tmp_path, capsys):
    # the build of a deep handle chain loses the relations at some points:
    # the error names the failing point, and the points before it build
    spath = tmp_path / "s.json"
    su.save(handle_chain(8), spath)
    argv = ["sample", "--surface", str(spath), "--seed", "1", "--n", "5"]
    assert cli.main(argv) == 4
    doc = strict_json(capsys.readouterr().out)
    match = re.match(r"point (\d+): vertex \d+: ", doc["detail"])
    assert match and doc["factor"], doc
    argv[-1] = match.group(1)
    assert cli.main(argv) == 0
    assert len(strict_json(capsys.readouterr().out)["points"]) == int(match.group(1))


def test_fn_on_fuchsian_point(tmp_path):
    surf = su.one_holed_torus()
    params = EdgeParams({1: -2.5, 2: -3.0}, {1: 1.5})
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(params, ppath)
    r = run_cli("fn", "--surface", str(spath), "--params", str(ppath))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert "lengths" in doc and "twists" in doc
    assert doc["roundtrip_error"] < 1e-9


def test_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a surface\"}")
    r = run_cli("validate", "--surface", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "schema"
    # missing file is also a schema problem
    r2 = run_cli("validate", "--surface", str(tmp_path / "nope.json"))
    assert r2.returncode == 2


def test_domain_error_exit_3(tmp_path):
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    # zero twist is outside the domain
    bad = EdgeParams(dict(params.eigen), {1: 0.0})
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(bad, ppath)
    r = run_cli("generators", "--surface", str(spath), "--params", str(ppath))
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "domain"


def _parabolic_elem(tmp_path):
    """The elem move on edge 1 of these files makes the new curve parabolic:
    the parameters are inside the domain but degenerate for the move."""
    surf = su.four_holed_sphere()
    eigen = {1: -2.0, 2: -3.0, 3: -1.5, 4: -2.5, 5: -1.75}
    # tr(g3 g4) = A t + B + C / t; solve A t^2 + (B - 2) t + C = 0
    lp_es = (eigen[1], eigen[2], eigen[3], eigen[4], eigen[5])
    vals = {t: co.four_holed_traces(lp_es, t)[0] for t in (1.0, 2.0, 4.0)}
    m = np.array([[t, 1.0, 1.0 / t] for t in vals])
    a, b, c = np.linalg.solve(m, np.array(list(vals.values()), dtype=complex))
    roots = np.roots([a, b - 2.0, c])
    t1 = complex(roots[0])
    params = EdgeParams({k: complex(v) for k, v in eigen.items()}, {1: t1})
    assert co.in_domain(params, surf)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(params, ppath)
    return run_cli("move", "--surface", str(spath), "--params", str(ppath),
                   "--kind", "elem", "--target", "1")


def test_numeric_error_exit_4(tmp_path):
    r = _parabolic_elem(tmp_path)
    assert r.returncode == 4, (r.stdout, r.stderr)
    assert json.loads(r.stdout)["error"] == "numeric"


def test_move_numeric_error_names_the_edge(tmp_path):
    r = _parabolic_elem(tmp_path)
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    assert strict_json(r.stdout)["detail"].startswith("edge 1: ")


def _four_holed(eigen, twist):
    return su.four_holed_sphere(), EdgeParams(dict(enumerate(eigen, start=1)), {1: twist})


def _one_holed(t1):
    return su.one_holed_torus(), EdgeParams({1: -2 + 0j, 2: -1.5 + 0j}, {1: t1})


@pytest.mark.parametrize("command, case, flags, factor", [
    # build: a generator image fails MoebiusMap's singularity rule
    ("generators", _four_holed((-2, 3.00003, -1.5, -2.5, -1.75), 1.3 + 0.2j), (), "det"),
    # a deep image drifts off det = 1 before its fixed points are read
    ("recover", (handle_chain(8), sample_params(handle_chain(8), np.random.default_rng(1))),
     (), "det - 1"),
    # a vertex restriction whose commutator trace is within --tol of 2
    ("recover", _four_holed((-1.32 - 0.236j, 0.752 + 1.294j, 0.772 - 1.072j, -1.047 - 0.093j,
                             1.149 - 0.242j), 0.64), ("--tol", "0.05"), "tr[m,m']-2"),
    # the shear-bend edge parameter a and the layered tetrahedra degenerate
    ("shearbend", _one_holed(-1), (), "t1 + 1"),
    ("shearbend", _one_holed(-0.25), (), "t1 e1^2 + 1"),
])
def test_numeric_error_names_the_vanishing_factor(tmp_path, command, case, flags, factor):
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(case[0], spath)
    co.save_params(case[1], ppath)
    r = run_cli(command, "--surface", str(spath), "--params", str(ppath), *flags)
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    doc = strict_json(r.stdout)
    assert (doc["error"], doc["factor"]) == ("numeric", factor)


@pytest.mark.parametrize("t1", [-1, -0.25])
def test_shearbend_numeric_error_names_the_edge(tmp_path, t1):
    # the two shear-bend cases above: the error names the loop edge
    surf, params = _one_holed(t1)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(params, ppath)
    r = run_cli("shearbend", "--surface", str(spath), "--params", str(ppath))
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    assert strict_json(r.stdout)["detail"].startswith("edge 1: ")


def test_shearbend_singular_map_names_the_edge(tmp_path):
    # t1 e1^2 + 1 = -1e-7: the parameters are in the domain, but the
    # shear-bend matrices fail MoebiusMap's singularity rule
    e1 = -2 + 0.3j
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(su.one_holed_torus(), spath)
    co.save_params(EdgeParams({1: e1, 2: -1.7 + 0.1j}, {1: -(1 + 1e-7) / e1 ** 2}), ppath)
    r = run_cli("shearbend", "--surface", str(spath), "--params", str(ppath))
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    doc = strict_json(r.stdout)
    assert doc["factor"] == "det" and doc["detail"].startswith("edge 1: singular matrix"), doc


def test_recover_numeric_error_names_the_vertex(tmp_path):
    # the deep hc8 point above: the vertex word whose det drifts is named
    surf = handle_chain(8)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(sample_params(surf, np.random.default_rng(1)), ppath)
    r = run_cli("recover", "--surface", str(spath), "--params", str(ppath))
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    doc = strict_json(r.stdout)
    assert doc["factor"] == "det - 1"
    assert re.match(r"vertex \d+ slot [012]: ", doc["detail"]), doc


def test_recover_singular_vertex_word_names_the_vertex(tmp_path):
    # a deep hc10 point whose build passes and one of whose vertex words
    # fails the singularity rule in recover
    surf = handle_chain(10)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(sample_params(surf, np.random.default_rng(10)), ppath)
    r = run_cli("recover", "--surface", str(spath), "--params", str(ppath))
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    doc = strict_json(r.stdout)
    assert doc["factor"] == "det"
    assert re.match(r"vertex \d+ slot [012]: singular matrix", doc["detail"]), doc


def test_build_numeric_error_names_the_vertex(tmp_path):
    # the generators case above fails in pants_rep: the error names its vertex
    surf, params = _four_holed((-2, 3.00003, -1.5, -2.5, -1.75), 1.3 + 0.2j)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(params, ppath)
    r = run_cli("generators", "--surface", str(spath), "--params", str(ppath))
    assert (r.returncode, r.stderr) == (4, ""), (r.stdout, r.stderr[-500:])
    doc = strict_json(r.stdout)
    assert doc["factor"] == "det"
    assert re.match(r"vertex \d+: ", doc["detail"]), doc


def test_act_flip(four_holed_files):
    surf, params, spath, ppath = four_holed_files
    r = run_cli("act", "--surface", spath, "--params", ppath, "--flip", "2")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    back = co.params_from_json(doc["params"] if "params" in doc else doc)
    assert abs(back.eigen[2] - 1 / params.eigen[2]) < 1e-9


def test_move_reverse_via_cli(four_holed_files):
    surf, params, spath, ppath = four_holed_files
    r = run_cli("move", "--surface", spath, "--params", ppath,
                "--kind", "reverse", "--target", "1")
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout)


def test_out_flag_writes_file(tmp_path, four_holed_files):
    _, _, spath, _ = four_holed_files
    out = tmp_path / "out.json"
    r = run_cli("validate", "--surface", spath, "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["surface"] == "ok"


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def strict_json(text):
    """Parse stdout as strict JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def test_act_epsilon(four_holed_files):
    from pantsrep import symmetry

    surf, params, spath, ppath = four_holed_files
    eps = symmetry.epsilon_basis(surf)[0]
    ids = sorted(eid for eid, s in eps.items() if s == -1)
    r = run_cli("act", "--surface", spath, "--params", ppath,
                "--epsilon", ",".join(map(str, ids)))
    assert r.returncode == 0, r.stderr
    back = co.params_from_json(strict_json(r.stdout))
    for eid, e in params.eigen.items():
        assert abs(back.eigen[eid] - eps.get(eid, 1) * e) < 1e-12


def test_act_inadmissible_sign_vector_is_a_domain_error(four_holed_files, capsys):
    # -1 on edge 1 alone breaks the product at its trivalent vertex
    _, _, spath, ppath = four_holed_files
    assert cli.main(["act", "--surface", spath, "--params", ppath, "--epsilon", "1"]) == 3
    out = strict_json(capsys.readouterr().out)
    assert out["error"] == "domain" and out["detail"] == "sign vector [1] is not admissible", out


@pytest.mark.parametrize("branch, detail", [
    (None, None),
    ("1e10,0", "branch is not a root of x^2 - tr x + 1"),
    ("1e200,0", "branch (1e+200+0j): its square or residual e^2 - tr e + 1 is not finite"),
], ids=["default", "not-a-root", "square-overflows"])
def test_elementary_move_on_the_example_takes_or_names_its_branch(tmp_path, capsys, branch, detail):
    # a branch whose square overflows is a domain error that names it, like
    # a finite branch that is no root; it was a numeric error (exit 4)
    # whose detail was an errno tuple
    assert cli.main(["example", "four-holed"]) == 0
    doc = strict_json(capsys.readouterr().out)
    spath, ppath = tmp_path / "surface.json", tmp_path / "params.json"
    spath.write_text(json.dumps(doc["surface"]))
    ppath.write_text(json.dumps(doc["params"]))
    argv = ["move", "--surface", str(spath), "--params", str(ppath), "--kind", "elem", "--target", "1"]
    if branch is None:
        assert cli.main(argv) == 0
        assert strict_json(capsys.readouterr().out).keys() == {"surface", "params"}
    else:
        assert cli.main(argv + ["--branch", branch]) == 3
        out, err = capsys.readouterr()
        assert strict_json(out) == {"error": "domain", "detail": detail} and err == ""


@pytest.mark.parametrize("part, key, value", [
    ("eigen", "2", "x"), ("eigen", "2", [float("nan"), 0.0]), ("eigen", "2", [1.0, float("inf")]),
    ("eigen", "2", [1.0]), ("eigen", "2", [True, 0.0]), ("eigen", "2", None),
    ("twist", "1", [float("nan"), 1.0]),
])
def test_bad_parameter_value_is_a_schema_error(tmp_path, four_holed_files, part, key, value):
    _, params, spath, _ = four_holed_files
    doc = co.params_to_json(params)
    doc[part][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("generators", "--surface", spath, "--params", str(bad))
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert strict_json(r.stdout)["error"] == "schema"


@pytest.mark.parametrize("part, key", [("twist", "9"), ("eigen", "3")])
def test_parameter_key_mismatch_names_the_id(tmp_path, capsys, part, key):
    spath, ppath = _fixture_files(tmp_path, su.four_holed_sphere, 20261021)
    doc = json.loads(Path(ppath).read_text())
    if key in doc[part]:
        del doc[part][key]  # a missing key
    else:
        doc[part][key] = [0.5, 0.25]  # an unexpected one
    with open(ppath, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["generators", "--surface", spath, "--params", ppath]) == 2
    out = strict_json(capsys.readouterr().out)
    assert out["error"] == "schema" and "[%s]" % key in out["detail"], out


def test_non_finite_output_is_a_numeric_error(capsys):
    from pantsrep import cli

    with pytest.raises(ArithmeticError):
        cli._emit({"value": float("nan")}, None)
    assert capsys.readouterr().out == ""


def _fixture_files(tmp_path, make, seed):
    surf = make()
    spath, ppath = tmp_path / "surf.json", tmp_path / "params.json"
    su.save(surf, spath)
    co.save_params(sample_params(surf, np.random.default_rng(seed)), ppath)
    return str(spath), str(ppath)


@pytest.mark.parametrize("make, kind, target", [
    (su.four_holed_sphere, "elem", "2"),      # boundary edge
    (su.four_holed_sphere, "twist-r", "2"),   # boundary edge
    (su.four_holed_sphere, "vertex", "2"),    # univalent vertex
    (su.genus_two, "elem", "3"),              # self-glued four-holed picture
])
def test_undefined_move_is_a_domain_error(tmp_path, make, kind, target):
    spath, ppath = _fixture_files(tmp_path, make, 20261020)
    r = run_cli("move", "--surface", spath, "--params", ppath, "--kind", kind, "--target", target)
    assert r.returncode == 3, (r.stdout, r.stderr)
    assert strict_json(r.stdout)["error"] == "domain"
    assert r.stderr == ""


@pytest.mark.parametrize("flag", ["--flip", "--epsilon"])
def test_act_unknown_edge_is_a_domain_error(four_holed_files, flag):
    _, _, spath, ppath = four_holed_files
    r = run_cli("act", "--surface", spath, "--params", ppath, flag, "99")
    assert r.returncode == 3, (r.stdout, r.stderr)
    doc = strict_json(r.stdout)
    assert doc["error"] == "domain" and "99" in doc["detail"]


@pytest.mark.parametrize("edit", ["tree", "vertex"])
def test_surface_with_unknown_ids_is_a_schema_error(tmp_path, four_holed_files, edit):
    surf, _, _, ppath = four_holed_files
    doc = su.to_json(surf)
    if edit == "tree":
        doc["tree"] = doc["tree"] + [99]
    else:
        doc["edges"][-1]["head"] = 99
    bad = tmp_path / "bad-surface.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("generators", "--surface", str(bad), "--params", ppath)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert strict_json(r.stdout)["error"] == "schema"


@pytest.mark.parametrize("make, tree", [(su.four_holed_sphere, []), (su.genus_two, [1, 2, 3])])
def test_non_spanning_stored_tree_is_a_schema_error(tmp_path, capsys, make, tree):
    spath, ppath = _fixture_files(tmp_path, make, 20261018)
    doc = json.loads(Path(spath).read_text())
    doc["tree"] = tree
    with open(spath, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["generators", "--surface", spath, "--params", ppath]) == 2
    doc = strict_json(capsys.readouterr().out)
    assert doc["error"] == "schema" and "spanning tree" in doc["detail"]


@pytest.mark.parametrize("vertex, slot, incidence, argv", [
    (1, 0, [1, "middle"], ["generators"]),  # a label neither tail nor head
    (0, 1, [3, "tail"], ["generators"]),    # (3, tail) listed twice, (2, tail) never
    (2, 0, [2, "x"], ["move", "--kind", "reverse", "--target", "2"]),  # at a univalent vertex
], ids=["label-at-trivalent", "end-twice", "label-at-univalent"])
def test_malformed_incidence_list_is_a_schema_error(tmp_path, capsys, vertex, slot, incidence, argv):
    spath, ppath = _fixture_files(tmp_path, su.four_holed_sphere, 20261019)
    doc = json.loads(Path(spath).read_text())
    doc["vertices"][vertex]["incident"][slot] = incidence
    Path(spath).write_text(json.dumps(doc))
    for command in (["validate"], argv):
        assert cli.main(command + ["--surface", spath, "--params", ppath]) == 2
        out, err = capsys.readouterr()
        doc = strict_json(out)
        assert doc["error"] == "schema" and repr(tuple(incidence)) in doc["detail"] and err == ""


@pytest.mark.parametrize("make, part, index, new_id", [
    (su.one_holed_torus, "vertices", 1, "x"),  # edge 2's head is renamed with it
    (su.four_holed_sphere, "edges", 1, "2"),
], ids=["vertex", "edge"])
def test_non_integer_id_is_a_schema_error(tmp_path, capsys, make, part, index, new_id):
    doc = su.to_json(make())
    doc[part][index]["id"] = new_id
    if part == "vertices":
        doc["edges"][1]["head"] = new_id
    spath = tmp_path / "surface.json"
    spath.write_text(json.dumps(doc))
    assert cli.main(["validate", "--surface", str(spath)]) == 2
    out, err = capsys.readouterr()
    doc = strict_json(out)
    assert doc["error"] == "schema" and "id %r is not an integer" % new_id in doc["detail"]
    assert err == ""


#: genus or boundary values that are not non-negative integers
_BAD_COUNTS = (2.0, True, "2", None, -1)


@pytest.mark.parametrize("key", ["genus", "boundary"])
@pytest.mark.parametrize("value", _BAD_COUNTS)
def test_a_genus_or_boundary_that_is_not_a_non_negative_integer_is_a_schema_error(
        tmp_path, capsys, key, value):
    # a 2.0 genus used to pass validate, then crash range() in Presentation
    spath, ppath = _fixture_files(tmp_path, su.genus_two, 1)
    doc = json.loads(Path(spath).read_text())
    doc[key] = value
    Path(spath).write_text(json.dumps(doc))
    assert cli.main(["generators", "--surface", spath, "--params", ppath]) == 2
    out, err = capsys.readouterr()
    detail = "invalid surface: %s %r is not a non-negative integer" % (key, value)
    assert strict_json(out) == {"error": "schema", "detail": detail} and err == ""


def test_sample_names_the_point_whose_rejection_sampling_fails(tmp_path, capsys, monkeypatch):
    spath, _ = _fixture_files(tmp_path, su.four_holed_sphere, 1)
    monkeypatch.setattr(co, "in_domain", lambda params, surf: False)
    assert cli.main(["sample", "--surface", spath, "--n", "2"]) == 4
    out, err = capsys.readouterr()
    assert strict_json(out) == {"error": "numeric", "factor": "in_domain",
                                "detail": "point 0: rejection sampling failed to hit the domain"} and err == ""


COMMANDS = ("example", "validate", "generators", "traces", "recover", "act", "move", "fn",
            "shearbend", "sample")


def _command_argvs(tmp_path):
    """One valid invocation of each command."""
    (tmp_path / "four").mkdir()
    (tmp_path / "one").mkdir()
    s4, p4 = _fixture_files(tmp_path / "four", su.four_holed_sphere, 8)
    s1, _ = _fixture_files(tmp_path / "one", su.one_holed_torus, 8)
    pf = str(tmp_path / "one" / "fuchsian.json")
    co.save_params(EdgeParams({1: -2.5, 2: -3.0}, {1: 1.5}), pf)
    f4, f1 = ["--surface", s4, "--params", p4], ["--surface", s1, "--params", pf]
    return {"example": ["example", "genus2"], "validate": ["validate"] + f4,
            "generators": ["generators"] + f4, "traces": ["traces"] + f1,
            "recover": ["recover"] + f4, "act": ["act", "--flip", "2"] + f4,
            "move": ["move", "--kind", "reverse", "--target", "1"] + f4,
            "fn": ["fn"] + f1, "shearbend": ["shearbend"] + f1,
            "sample": ["sample", "--surface", s4, "--n", "2"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_out_writes_exactly_what_stdout_shows(tmp_path, capsys, command):
    argv = _command_argvs(tmp_path)[command]
    assert cli.main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == shown.encode()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_is_a_schema_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert cli.main(["example", "genus2", "--out", str(out)]) == 2
    shown = capsys.readouterr()
    doc = strict_json(shown.out)
    assert doc["error"] == "schema" and doc["detail"].startswith("cannot write") and shown.err == ""


UNREAD_FLAGS = {
    "sample-params": ["sample", "P", "S"], "sample-tol": ["sample", "--tol", "1e-3", "S"],
    "move-auto": ["move", "P", "--kind", "auto", "--target", "1", "S"],
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, four_holed_files, argv):
    _, _, spath, ppath = four_holed_files
    assert cli.main(_with_files(argv, spath, ppath)) == 2
    out, err = capsys.readouterr()
    assert strict_json(out)["error"] == "schema" and err == ""


def _exit_and_stdout(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as ex:  # --help
        code = ex.code
    return code, capsys.readouterr().out


PARSER_CASES = {**{"usage-" + k: argv for k, argv in USAGE_ERRORS.items()},
                **{"flag-" + k: argv for k, (argv, _) in MALFORMED_FLAGS.items()},
                **{"unread-" + k: argv for k, argv in UNREAD_FLAGS.items()},
                "help": ["--help"], **{c + "-help": [c, "--help"] for c in COMMANDS}}


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES)
def test_one_sub_parser_answers_as_the_full_parser(monkeypatch, capsys, four_holed_files, argv):
    """main builds only the named command's sub-parser; what it prints and
    returns must not differ from a run through the parser of every command."""
    _, _, spath, ppath = four_holed_files
    argv, full, built = _with_files(argv, spath, ppath), cli.make_parser, []
    monkeypatch.setattr(cli, "make_parser", lambda command=None: built.append(command) or full(command))
    lean = _exit_and_stdout(argv, capsys)
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
    monkeypatch.setattr(cli, "make_parser", lambda command=None: full())
    assert _exit_and_stdout(argv, capsys) == lean


@pytest.mark.parametrize("command", ["validate", "generators"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, command, tol):
    spath, ppath = _fixture_files(tmp_path, su.four_holed_sphere, 20261022)
    doc = json.loads(Path(ppath).read_text())
    doc["eigen"]["2"] = [1.0, 0.0]  # outside the domain
    with open(ppath, "w") as fh:
        json.dump(doc, fh)
    argv = [command, "--surface", spath, "--params", ppath]
    assert cli.main(argv) == 3
    capsys.readouterr()
    assert cli.main(argv + ["--tol=" + tol]) == 2
    out, err = capsys.readouterr()
    assert strict_json(out)["error"] == "schema" and err == ""


@pytest.mark.parametrize("command", ["validate", "generators"])
@pytest.mark.parametrize("tol", ["0", "1e-12", "1e-9"])
def test_tol_does_not_loosen_the_domain_check_below_builds(tmp_path, capsys, command, tol):
    # eigenvalue 2 is 1e-10 from 1: inside the domain at --tol 0, outside
    # it at build's tolerance, so a small --tol must not pass it to build
    out = tmp_path / "example.json"
    assert cli.main(["example", "four-holed", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["params"]["eigen"]["2"] = [1 + 1e-10, 0.0]
    spath, ppath = tmp_path / "surf.json", tmp_path / "params.json"
    spath.write_text(json.dumps(doc["surface"]))
    ppath.write_text(json.dumps(doc["params"]))
    capsys.readouterr()
    assert cli.main([command, "--surface", str(spath), "--params", str(ppath), "--tol", tol]) == 3
    out, err = capsys.readouterr()
    assert strict_json(out)["error"] == "domain" and err == ""


def test_generators_on_a_deep_tree_answers_in_json(tmp_path):
    surf = caterpillar(1000)
    spath, ppath = tmp_path / "s.json", tmp_path / "p.json"
    su.save(surf, spath)
    co.save_params(sample_params(surf, np.random.default_rng(1)), ppath)
    r = run_cli("generators", "--surface", str(spath), "--params", str(ppath))
    assert r.returncode in (2, 3, 4) and r.stderr == "", r.stderr[-500:]
    assert strict_json(r.stdout)["error"] in ("schema", "domain", "numeric")


def test_readme_command_block_parses():
    """Every `pantsrep` line of README's command-line block parses, and
    together they show every command of the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Command line (", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("pantsrep ")]
    for argv in argvs:
        cli.make_parser().parse_args(argv[1:])
    sub = next(a for a in cli.make_parser()._actions if a.dest == "command")
    assert sorted(argv[1] for argv in argvs) == sorted(COMMANDS) == sorted(sub.choices)


# ---------------------------------------------------------------------------
# fuzzing: any surface and parameter documents, any command

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 9), max_size=4), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NUMBER = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e-308]),
                    st.floats(allow_nan=True, allow_infinity=True))


def _mutate_surface(draw, doc):
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        what = draw(st.sampled_from(["drop", "junk", "tree", "vertex", "edge", "count"]))
        if what == "drop":
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        elif what == "junk":
            doc[draw(st.sampled_from(["genus", "boundary", "vertices", "edges", "tree"]))] = draw(_JUNK)
        elif what == "tree":
            doc["tree"] = draw(st.lists(st.integers(-1, 7), max_size=6))
        elif what == "vertex" and isinstance(doc.get("vertices"), list) and doc["vertices"]:
            v = doc["vertices"][draw(st.integers(0, len(doc["vertices"]) - 1))]
            if isinstance(v, dict):
                v[draw(st.sampled_from(["id", "kind", "incident"]))] = draw(st.one_of(_JUNK, st.lists(
                    st.lists(st.one_of(st.integers(-1, 7), st.sampled_from(["tail", "head", "x"])),
                             max_size=3), max_size=4)))
        elif what == "edge" and isinstance(doc.get("edges"), list) and doc["edges"]:
            e = doc["edges"][draw(st.integers(0, len(doc["edges"]) - 1))]
            if isinstance(e, dict):
                e[draw(st.sampled_from(["id", "tail", "head"]))] = draw(st.one_of(st.integers(-1, 7), _JUNK))
        elif what == "count":
            doc[draw(st.sampled_from(["genus", "boundary"]))] = draw(st.integers(-1, 4))
    return doc


def _mutate_params(draw, doc):
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        part = draw(st.sampled_from(["eigen", "twist"]))
        what = draw(st.sampled_from(["value", "number", "extra", "drop", "junk"]))
        values = doc.get(part)
        if what == "junk" or not isinstance(values, dict):
            doc[part] = draw(_JUNK)
        elif what == "extra":
            values[draw(st.sampled_from(["9", "-1", "x", ""]))] = [draw(_NUMBER), draw(_NUMBER)]
        elif values and what == "drop":
            values.pop(draw(st.sampled_from(sorted(values))))
        elif values:
            key = draw(st.sampled_from(sorted(values)))
            values[key] = draw(_JUNK) if what == "value" else [draw(_NUMBER), draw(_NUMBER)]
    return doc


@st.composite
def _documents(draw):
    """A fixture's surface and a parameter point on it, each perhaps broken."""
    make = draw(st.sampled_from(sorted(cli.EXAMPLES.items())))[1]
    params = sample_params(make(), np.random.default_rng(draw(st.integers(0, 2**16))))
    surface_doc = _mutate_surface(draw, su.to_json(make()))
    params_doc = _mutate_params(draw, co.params_to_json(params))
    return surface_doc, params_doc


_COMMANDS = st.one_of(
    st.sampled_from([["validate"], ["generators"], ["traces"], ["recover"], ["fn"]]),
    st.tuples(st.just("act"), st.sampled_from(["--flip", "--epsilon"]), st.integers(-1, 7)).map(
        lambda t: [t[0], t[1], str(t[2])]),
    st.tuples(st.sampled_from(["reverse", "twist-l", "twist-r", "vertex", "elem"]),
              st.integers(-1, 7)).map(lambda t: ["move", "--kind", t[0], "--target", str(t[1])]),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(docs=_documents(), command=_COMMANDS, with_params=st.booleans())
def test_cli_fuzz_exit_code_and_strict_json(tmp_path, capsys, docs, command, with_params):
    surface_doc, params_doc = docs
    spath, ppath = tmp_path / "fuzz-surface.json", tmp_path / "fuzz-params.json"
    spath.write_text(json.dumps(surface_doc))
    ppath.write_text(json.dumps(params_doc))
    argv = command + ["--surface", str(spath)]
    if with_params or command[0] != "validate":
        argv += ["--params", str(ppath)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4), (argv, out)
    strict_json(out)


@st.composite
def _incidence_edits(draw):
    """A fixture's documents with one or two incidences relabelled, duplicated or swapped."""
    make = draw(st.sampled_from(sorted(cli.EXAMPLES.items())))[1]
    params = sample_params(make(), np.random.default_rng(draw(st.integers(0, 2**16))))
    doc = su.to_json(make())
    lists = [v["incident"] for v in doc["vertices"]]
    slots = [(inc, j) for inc in lists for j in range(len(inc))]
    for _ in range(draw(st.integers(1, 2))):
        (inc, j), (other, k) = draw(st.sampled_from(slots)), draw(st.sampled_from(slots))
        what = draw(st.sampled_from(["relabel", "duplicate", "swap"]))
        if what == "relabel":
            inc[j] = [inc[j][0], draw(st.sampled_from(["tail", "head", "middle", "x"]))]
        elif what == "duplicate":
            inc[j] = list(other[k])
        else:
            inc[j], other[k] = other[k], inc[j]
    return doc, co.params_to_json(params)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(docs=_incidence_edits(),
       command=st.one_of(_COMMANDS, st.just(["shearbend"]), st.just(["sample", "--n", "1"])))
def test_cli_incidence_fuzz_exit_code_and_strict_json(tmp_path, capsys, docs, command):
    surface_doc, params_doc = docs
    spath, ppath = tmp_path / "fuzz-surface.json", tmp_path / "fuzz-params.json"
    spath.write_text(json.dumps(surface_doc))
    ppath.write_text(json.dumps(params_doc))
    argv = command + ["--surface", str(spath)]
    if command[0] != "sample":
        argv += ["--params", str(ppath)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4), (argv, out)
    strict_json(out)


# ---------------------------------------------------------------------------
# seeded mutations of the fixtures' documents, through every command

#: values of the wrong type, or of the right type and out of range
_WRONG = (None, True, False, 2.0, "2", "x", -1, 0, 1e308, [], {}, [1, "tail"], {"1": [1.0, 0.0]})
#: spellings of an integer key k that are not str(int(k))
_SPELLINGS = ("0%s", " %s", "+%s", "%s_0", "%s ")


def _entries(doc):
    """Every (container, key or index) of a JSON document."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        for k in (list(node) if isinstance(node, dict) else range(len(node))):
            out.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return out


def _mutated(rng, doc):
    """A copy of doc with one to three seeded edits: a wrong type, a deleted or
    duplicated entry, an extra key, or a key respelled non-canonically."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        entries = _entries(doc)
        if not entries:
            break
        node, k = rng.choice(entries)
        what = rng.choice(("type", "delete", "duplicate", "extra", "respell"))
        if what == "type":
            node[k] = copy.deepcopy(rng.choice(_WRONG))
        elif what == "delete":
            del node[k]
        elif isinstance(node, list):
            node.insert(k, copy.deepcopy(node[k] if what == "duplicate" else rng.choice(_WRONG)))
        elif what == "extra":
            node[rng.choice(("9", "-1", "x", "", "tree", "genus"))] = copy.deepcopy(rng.choice(_WRONG))
        else:
            spelled = rng.choice(_SPELLINGS) % k
            node[spelled] = node[k] if what == "duplicate" else node.pop(k)
    return doc


def _every_command(spath, ppath, rng):
    files = ["--surface", spath, "--params", ppath]
    return [["example", "genus2"], ["validate", "--surface", spath], ["validate"] + files,
            ["generators"] + files, ["traces"] + files, ["recover"] + files,
            ["act", "--flip", str(rng.randint(-1, 6))] + files, ["act", "--epsilon", "1,2"] + files,
            ["move", "--kind", rng.choice(["reverse", "twist-l", "twist-r", "vertex", "elem"]),
             "--target", str(rng.randint(-1, 6))] + files,
            ["fn"] + files, ["shearbend"] + files, ["sample", "--surface", spath, "--n", "1"]]


def test_seeded_mutations_of_the_fixtures_never_print_a_traceback(tmp_path, capsys):
    rng = random.Random(20261020)
    spath, ppath = str(tmp_path / "surface.json"), str(tmp_path / "params.json")
    runs = []  # (surface doc, params doc, commands to run it through)
    for which, make in sorted(cli.EXAMPLES.items()):
        surf = make()
        surface_doc = su.to_json(surf)
        params_doc = co.params_to_json(sample_params(surf, np.random.default_rng(rng.randrange(2 ** 16))))
        for key in ("genus", "boundary"):
            for value in _BAD_COUNTS:
                runs.append((dict(surface_doc, **{key: value}), params_doc, None))
        for _ in range(100):
            target = rng.choice(("surface", "params", "both"))
            runs.append((_mutated(rng, surface_doc) if target != "params" else surface_doc,
                         _mutated(rng, params_doc) if target != "surface" else params_doc, 1))
    for surface_doc, params_doc, n in runs:
        Path(spath).write_text(json.dumps(surface_doc))
        Path(ppath).write_text(json.dumps(params_doc))
        argvs = _every_command(spath, ppath, rng)
        for argv in argvs if n is None else rng.sample(argvs, n):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4) and err == "", (argv, surface_doc, params_doc, out, err)
            strict_json(out)
