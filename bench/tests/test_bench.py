"""Tests of the benchmark itself: generators, seeding, checks, spans, CLI checker.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import math

import numpy as np
import pytest

from pantsrep import builder, coordinates, surface
from pantsrep.coordinates import EdgeParams

import checks
import families
import run
import spans
import workloads


@pytest.mark.parametrize("g", [1, 2, 3, 4, 7, 32])
def test_handle_chain_is_valid(g):
    surf = families.handle_chain(g)
    assert surface.validate(surf) == []
    assert (surf.genus, surf.boundary) == (g, 2)
    assert len(surf.graph.edges) == 3 * g + 1
    assert len(surface.maximal_tree(surf)) == len(surf.graph.vertices) - 1


@pytest.mark.parametrize("b", [4, 5, 8, 32])
def test_caterpillar_is_valid(b):
    surf = families.caterpillar(b)
    assert surface.validate(surf) == []
    assert (surf.genus, surf.boundary) == (0, b)
    assert len(surf.graph.trivalent_vertices()) == b - 2


def test_generator_failure_aborts():
    with pytest.raises(families.GeneratorError):
        families.caterpillar(3)
    surf = families.caterpillar(5)
    broken = surface.PantsSurface(1, 5, surf.graph)
    with pytest.raises(families.GeneratorError, match="euler|count"):
        families.checked(broken, "mislabelled")


def test_elem_edges_are_movable():
    surf = families.handle_chain(3)
    loops = [e for e in surf.graph.interior_edges()
             if surf.graph.edges[e].tail == surf.graph.edges[e].head]
    assert set(loops) <= set(families.elem_edges(surf))
    handles = set(surf.graph.interior_edges()) - set(families.elem_edges(surf))
    assert handles, "handle edges see their loop twice and have no elementary move"


SMALL = {
    "fixtures-roundtrip": {"pool": 5, "census_pool": 2, "band_pool": 3},
    "marking-walk": {"pool": 14, "census_pool": 14},
    "cli-cold": {},
}


def _data(name, wl, out_dir):
    if name == "cli-cold":
        return [[a.replace(str(out_dir), "") for a in case.args] for r in wl.rounds for case in r]
    if name == "marking-walk":
        return [(w[0], w[2], w[3], w[4]) for w in wl.walks]
    return [(label, pool) for label, _, pool in wl.items]


def _inputs(name, seed, out_dir):
    """Everything a workload and its census generate from the seed, with
    paths made relative."""
    wl = workloads.WORKLOADS[name](seed, out_dir, **SMALL[name])
    files = {p.relative_to(out_dir).as_posix(): p.read_text() for p in out_dir.rglob("*.json")}
    data = [_data(name, wl, out_dir)] + [_data(name, c, out_dir) for c, _ in wl.census]
    return files, repr(data)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_reproduces_inputs(name, tmp_path):
    a = _inputs(name, 7, tmp_path / "a")
    b = _inputs(name, 7, tmp_path / "b")
    c = _inputs(name, 8, tmp_path / "c")
    assert a == b
    assert a != c


def test_margin_sampler_keeps_off_the_boundary():
    rng = np.random.default_rng(3)
    surf = surface.genus_two()
    for _ in range(20):
        inner = families.box_params(surf, rng)
        assert coordinates.in_domain(inner, surf, families.MARGIN)
        band = families.band_params(surf, rng)
        assert coordinates.in_domain(band, surf)
        assert not coordinates.in_domain(band, surf, families.MARGIN)


def test_timed_walks_check_elem_moves_first(tmp_path):
    wl = workloads.marking_walk(5, tmp_path, pool=70, census_pool=70)
    for *_, script in wl.walks:
        kinds = [kind for kind, _ in script]
        assert kinds == sorted(kinds, key=lambda k: k != "elem")
    (census, size), = wl.census
    drawn = [[kind for kind, _ in w[4]] for w in census.walks]
    assert size == 70 and any(k != sorted(k, key=lambda x: x != "elem") for k in drawn)


def test_census_is_outside_the_timed_tally(tmp_path):
    wl = workloads.cli_cold(2, tmp_path)
    (census, size), = wl.census
    assert size == wl.round + 3
    assert [c.command for c in census.rounds[0][-3:]] == ["act", "generators", "generators"]
    assert not any("--epsilon" in c.args for r in wl.rounds for c in r)


def test_residual_check_flags_nan_and_over_gate():
    nan = float("nan")
    assert max(0.0, nan) == 0.0  # why a bare max() must not reduce residuals
    assert checks.residual_stage({"relator": 0.0, "walk": nan}) == "residual_nonfinite"
    assert checks.residual_stage({"relator": nan, "walk": 0.0}) == "residual_nonfinite"
    assert checks.residual_stage({"relator": float("inf")}) == "residual_nonfinite"
    assert checks.residual_stage({}) == "residual_nonfinite"
    assert checks.residual_stage({"relator": 2e-9, "walk": 0.0}) == "residual_over_gate"
    assert checks.residual_stage({"relator": 3e-12, "walk": 1e-15}) is None


def test_roundtrip_check_rejects_nan():
    want = EdgeParams({1: 2.0 + 0j}, {1: 1.5 + 0j})
    assert checks.params_match(want, want, checks.ROUNDTRIP_GATE)
    assert not checks.params_match(EdgeParams({1: complex("nan")}, {1: 1.5}), want, 1e-8)
    assert not checks.params_match(EdgeParams({1: 2.0 + 1e-6}, {1: 1.5}), want, 1e-8)
    assert not checks.params_match(EdgeParams({1: 2.0, 2: 3.0}, {1: 1.5}), want, 1e-8)


def test_point_stage_attributes_failures(monkeypatch):
    surf = surface.four_holed_sphere()
    params = EdgeParams({1: -2.0, 2: -1.5, 3: 2.5 + 1j, 4: -3.0, 5: 1.7j}, {1: 1.0 + 0.5j})
    assert workloads.point_stage(surf, params, [], []) is None
    nan_residuals = {"relator": 0.0, "walk": float("nan")}
    monkeypatch.setattr(builder, "verify_relations", lambda rep: nan_residuals)
    assert workloads.point_stage(surf, params, [], []) == "residual_nonfinite"


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping), and
    # c [2, 3] inside a; d [9, 12] sticks out of the root and is clipped
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    assert got == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_recorder_totals_and_wrappers():
    rec = spans.SpanRecorder()
    original = builder.build
    uninstall = spans.install(rec)
    assert builder.build is not original
    try:
        rec.op_id = 0
        root = rec.open(rec.intern("bench.point"))
        surf = surface.one_holed_torus()
        params = EdgeParams({1: -2.0, 2: 1.5 + 1j}, {1: 0.75 + 0.25j})
        builder.build(surf, params)
        rec.close(root)
    finally:
        uninstall()
    assert builder.build is original and builder.build.__name__ == "build"
    tot = spans.totals(rec)
    assert tot["builder.build"][0] == 1
    assert tot["pants.pants_rep"][0] == 1
    assert tot["projective.moebiusmap.init"][0] > 0
    assert set(rec.op) == {0}
    assert sum(s for _, s in tot.values()) == pytest.approx(rec.end[0] - rec.start[0])


def test_cli_checker():
    assert checks.cli_stage(0, '{"a": 1}', (0,)) is None
    assert checks.cli_stage(0, '{"a": NaN}', (2,)) == "invalid_json"
    assert checks.cli_stage(0, '{"a": -Infinity}', (0,)) == "invalid_json"
    assert checks.cli_stage(0, "", (0,)) == "invalid_json"
    assert checks.cli_stage(1, "", (0,)) == "exit_code"
    assert checks.cli_stage(1, '{"a": 1}', (0,)) == "exit_code"
    assert checks.cli_stage(0, '{"a": 1}', (2,)) == "exit_code"
    assert checks.cli_stage(3, '{"error": "domain"}', (2, 3)) is None
    with pytest.raises(ValueError):
        checks.strict_json("[NaN]")


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert math.isfinite(doc["run_seconds"])


def test_latency_record_thins_evenly(monkeypatch):
    monkeypatch.setattr(workloads, "RECORD_CAP", 8)
    monkeypatch.setattr(workloads, "STEP_CAP", 32)
    tally = workloads.Tally()
    for k in range(40):
        tally.point("a", float(k), float(k), [float(k)] * 2, None)
    assert tally.attempted == tally.verified == 40
    assert tally.stride == 8
    assert list(tally.point_t) == [0.0, 8.0, 16.0, 24.0, 32.0]
    assert len(tally.step_s) < 32 and tally.step_s[-1] == 32.0
    assert tally.by_label["a"][1] == list(tally.point_t)


def test_block_percentile_ignores_one_slow_block(monkeypatch):
    monkeypatch.setattr(run, "BLOCK", 10)
    values = [1.0] * 90 + [50.0] * 10
    assert run.block_pct(values, 99) == pytest.approx(1.0)
    assert run.pct(values, 99) == pytest.approx(50.0)
    assert run.block_pct(values[:15], 50) == run.pct(values[:15], 50)


def test_calibration_scales_by_the_local_median():
    import calibration

    took = iter([2e-3, 2e-3, 9e-3, 2e-3, 2e-3, 4e-3, 4e-3, 4e-3, 4e-3, 4e-3])
    cal = calibration.Calibration(lambda: next(took), nominal=1e-3, spacing=0.0)
    for _ in range(10):
        cal.sample()
    # the 9 ms outlier is outvoted by its neighbours
    assert cal.factor(cal.at[2]) == pytest.approx(0.5)
    assert cal.factor(cal.at[9]) == pytest.approx(0.25)
    assert list(cal.scale([1.0, 1.0], [cal.at[0], cal.at[9] + 1])) == pytest.approx([0.5, 0.25])
    t0, t1 = cal.at[7], cal.at[9]
    assert cal.span(t0, t1 + 1.0) == pytest.approx((t1 + 1.0 - t0 - 0.012) * 0.25)
