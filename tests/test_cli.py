"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pantsrep import coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams

from conftest import SUBPROCESS_ENV, sample_params

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


def test_numeric_error_exit_4(tmp_path):
    # a twist making the post-move curve parabolic is inside the domain but
    # degenerate for the elementary move
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
    r = run_cli("move", "--surface", str(spath), "--params", str(ppath),
                "--kind", "elem", "--target", "1")
    assert r.returncode == 4, (r.stdout, r.stderr)
    assert json.loads(r.stdout)["error"] == "numeric"


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
