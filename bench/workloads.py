"""The three benchmark workloads and their defect censuses.

Each workload is a closed loop with one client: ``op(k, tally)`` runs
operation k to completion before the next one is issued.  Inputs come from
``setup(seed, out_dir)`` and depend only on the seed.  Every output is
checked; a failed operation is attributed to one stage in ``tally.stages``.
A broken structural invariant (one that holds exactly, with no rounding
involved) goes to ``tally.broken`` and makes the run incorrect.

The timed inputs stay where the library is correct at this commit.  The
inputs where it is known to fail (the genus ladder, the domain's boundary
band, drifted walks, three CLI inputs) form each workload's ``census``: a
fixed, seeded set of the same operations, run once outside the timed
loops and reported as per-layer failure counts.
"""

import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from pantsrep import builder, coordinates, fuchsian, moves, surface, symmetry
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move

import checks
import families

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the genus-scaling ladder: handle chains S_{g,2} and caterpillars S_{0,b}
LADDER = [("hc%d" % g, families.handle_chain, g) for g in (2, 4, 8, 16, 32)] + [
    ("cat%d" % b, families.caterpillar, b) for b in (4, 8, 16, 32)
]
#: relative gates of the acceptance suite: test_07 (FN), test_06 (moves)
FN_GATE = 1e-10
ELEM_TRACE_GATE = 1e-10
MOVE_GATE = 1e-8


#: most operation and step latencies kept.  A full record drops every
#: other entry and from then on keeps every other operation, so the record
#: samples the whole run evenly and a faster library does not raise the
#: peak RSS through it.
RECORD_CAP = 20000
STEP_CAP = 4 * RECORD_CAP


class Tally:
    """What one run did: attempts, failures by stage, latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stages = Counter()
        self.broken = []
        self.verified = 0
        self.verified_steps = 0
        # latencies in wall seconds, each with the instant it started
        self.point_s, self.point_t = array("d"), array("d")
        self.step_s, self.step_t = array("d"), array("d")
        self.by_label = defaultdict(lambda: ([], []))
        self.cli_s, self.cli_t = [], []
        self.cli_rss_kb = 0
        self.stride = 1

    def point(self, label, t0, dt, steps, stage):
        if self.attempted % self.stride == 0:
            self.point_s.append(dt)
            self.point_t.append(t0)
            self.step_s.extend(steps)
            self.step_t.extend([t0] * len(steps))
            self.by_label[label][0].append(dt)
            self.by_label[label][1].append(t0)
            if len(self.point_s) >= RECORD_CAP:
                self.stride *= 2
                self.point_s, self.point_t = self.point_s[::2], self.point_t[::2]
                for dts, ts in self.by_label.values():
                    dts[:], ts[:] = dts[::2], ts[::2]
            if len(self.step_s) >= STEP_CAP:
                self.step_s, self.step_t = self.step_s[::2], self.step_t[::2]
        self.attempted += 1
        if stage:
            self.fail(stage)
        else:
            self.verified += 1
            self.verified_steps += len(steps)

    def fail(self, stage):
        self.failed += 1
        self.stages[stage] += 1


def _timed(steps, fn, *args, **kwargs):
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        steps.append(perf_counter() - t0)


# ---------------------------------------------------------------------------
# build -> verify -> recover, shared by fixtures-roundtrip and genus-ladder


def point_stage(surf, params, steps, broken):
    """Run one point; None when verified, else the stage that failed.

    A raise inside verify_relations means no finite residual exists, so
    it is attributed to residual_nonfinite.
    """
    try:
        rep = _timed(steps, builder.build, surf, params)
    except (ValueError, ArithmeticError):
        return "build_raised"
    if set(rep.images) != set(rep.presentation.generators()):
        broken.append("generator images do not match the presentation")
    try:
        residuals = _timed(steps, builder.verify_relations, rep)
    except (ValueError, ArithmeticError):
        return "residual_nonfinite"
    stage = checks.residual_stage(residuals)
    if stage:
        return stage
    try:
        first = _timed(steps, builder.recover_coordinates, rep)
        choice = checks.branch_choice(first, params)
        rec = _timed(steps, builder.recover_coordinates, rep, eigen_choice=choice)
    except (ValueError, ArithmeticError):
        return "recover_raised"
    if not checks.params_match(rec, params, checks.ROUNDTRIP_GATE):
        return "roundtrip_mismatch"
    return None


class PointWorkload:
    """Round-robin over (label, surface, pool of points)."""

    unit = "point"

    def __init__(self, items):
        self.items = items
        self.round = self.warmup = len(items)

    def op(self, k, tally):
        label, surf, pool = self.items[k % len(self.items)]
        params = pool[(k // len(self.items)) % len(pool)]
        steps = []
        t0 = perf_counter()
        stage = point_stage(surf, params, steps, tally.broken)
        tally.point(label, t0, perf_counter() - t0, steps, stage)


def fixtures_roundtrip(seed, out_dir, pool=700, census_pool=6, band_pool=100):
    """The three fixtures with the test-suite box sampler, kept off the
    domain's boundary.

    The census is the genus ladder (handle chains and caterpillars with
    moderate complex parameters) and the fixtures' boundary band.
    """
    rng = np.random.default_rng(seed)
    items = []
    for label, make in families.FIXTURES.items():
        surf = families.checked(make(), label)
        items.append((label, surf, [families.box_params(surf, rng) for _ in range(pool)]))
    wl = PointWorkload(items)
    wl.probe = _cli_cases(out_dir, [("recover", surf, pts[i]) for i in range(5)
                                    for _, surf, pts in items])
    ladder = []
    for label, make, size in LADDER:
        surf = make(size)
        ladder.append((label, surf, [families.moderate_params(surf, rng)
                                     for _ in range(census_pool)]))
    band = [(label, surf, [families.band_params(surf, rng) for _ in range(band_pool)])
            for label, surf, _ in items]
    wl.census = [(PointWorkload(ladder), len(ladder) * census_pool),
                 (PointWorkload(band), len(band) * band_pool)]
    wl.relator_letters = {
        label: len(surface.presentation(surf, surface.maximal_tree(surf)).one_relator())
        for label, surf, _ in ladder
    }
    return wl


# ---------------------------------------------------------------------------
# marking-walk


WALK_SURFACES = ("four_holed", "one_holed", "genus_two", "hc2", "hc4", "cat4", "cat8")


def _walk_surfaces():
    out = {label: families.checked(make(), label) for label, make in families.FIXTURES.items()}
    out.update(hc2=families.handle_chain(2), hc4=families.handle_chain(4),
               cat4=families.caterpillar(4), cat8=families.caterpillar(8))
    return out


def _walk_script(surf, rng, length):
    """A seeded run of invertible steps; elem steps are side checks on the
    parameters reached so far."""
    graph = surf.graph
    edges, interior = sorted(graph.edges), graph.interior_edges()
    basis = symmetry.epsilon_basis(surf)
    elem = families.elem_edges(surf)
    kinds = ["reverse", "twist", "flip", "vertex"] + (["epsilon"] if basis else []) + (
        ["elem"] if elem else [])
    script = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "reverse" or kind == "flip":
            script.append((kind, edges[rng.integers(len(edges))]))
        elif kind == "twist":
            script.append((("twist-r", "twist-l")[rng.integers(2)],
                           interior[rng.integers(len(interior))]))
        elif kind == "vertex":
            tri = graph.trivalent_vertices()
            script.append((kind, tri[rng.integers(len(tri))]))
        elif kind == "epsilon":
            eps = {eid: 1 for eid in edges}
            for vec in basis:
                if rng.integers(2):
                    eps = {eid: eps[eid] * vec[eid] for eid in edges}
            script.append((kind, eps))
        else:
            script.append((kind, elem[rng.integers(len(elem))]))
    return script


def _graph_key(surf):
    g = surf.graph
    return (sorted((v.id, v.kind, v.incident) for v in g.vertices.values()),
            sorted(tuple(e) for e in g.edges.values()))


class MarkingWalk:
    """Coordinate-only walks: apply a random run of moves, then undo it."""

    unit = "walk"

    def __init__(self, walks):
        self.walks = walks
        self.round = self.warmup = len(WALK_SURFACES)

    def op(self, k, tally):
        label, surf, params, is_fuchsian, script = self.walks[k % len(self.walks)]
        steps = []
        t0 = perf_counter()
        try:
            stage = self._walk(surf, params, is_fuchsian, script, steps, tally.broken)
        except (ValueError, ArithmeticError):
            stage = "step_raised"
        tally.point(label, t0, perf_counter() - t0, steps, stage)

    @staticmethod
    def _walk(surf, params, is_fuchsian, script, steps, broken):
        if is_fuchsian:
            fn = _timed(steps, fuchsian.to_fenchel_nielsen, params, surf)
            back = _timed(steps, fuchsian.from_fenchel_nielsen, fn, surf)
            if not checks.params_match(back, params, FN_GATE):
                return "fn_roundtrip"
        s, p = surf, params
        done = []
        for kind, target in script:
            if kind == "elem":
                if not _elem_trace_ok(s, p, target, steps):
                    return "elem_trace"
                continue
            done.append((kind, target, p))
            if kind == "flip":
                p = _timed(steps, symmetry.flip_eigenvalue, p, s, target)
            elif kind == "epsilon":
                p = _timed(steps, symmetry.act_epsilon, p, target, s)
            else:
                s, p = _timed(steps, moves.apply_move, s, p, Move(kind, target))
        for kind, target, before in reversed(done):
            if kind == "flip":
                p = _timed(steps, symmetry.flip_eigenvalue, p, s, target)
            elif kind == "epsilon":
                p = _timed(steps, symmetry.act_epsilon, p, target, s)
            elif kind == "vertex":
                s, p = _timed(steps, moves.apply_move, s, p, Move("vertex", target))
                if not _vertex_square_ok(s, before, p, target):
                    return "vertex_identity"
                for eid, end in s.graph.vertices[target].incident:
                    if eid in p.twist:
                        undo = "twist-l" if end == "tail" else "twist-r"
                        s, p = _timed(steps, moves.apply_move, s, p, Move(undo, eid))
            else:
                inverse = {"twist-r": "twist-l", "twist-l": "twist-r"}.get(kind, kind)
                s, p = _timed(steps, moves.apply_move, s, p, Move(inverse, target))
        if _graph_key(s) != _graph_key(surf):
            broken.append("walk did not return to its start graph")
        if not checks.params_match(p, params, MOVE_GATE):
            return "walk_mismatch"
        return None


def _vertex_square_ok(surf, before, after, vid):
    """Two vertex moves are one full twist per incidence (test_06)."""
    graph = surf.graph
    want = dict(before.twist)
    for eid, end in graph.vertices[vid].incident:
        if eid in want:
            e = before.eigen[eid] if end == "tail" else 1 / before.eigen[eid]
            want[eid] = want[eid] * e * e
    return checks.params_match(after, EdgeParams(before.eigen, want), MOVE_GATE)


def _elem_trace_ok(surf, params, edge, steps):
    """e' + 1/e' equals the closed-form trace of the new curve."""
    _, new = _timed(steps, moves.apply_move, surf, params, Move("elem", edge))
    lp = coordinates.local_picture(surf, params, edge)
    if surf.graph.edges[edge].tail == surf.graph.edges[edge].head:
        e2 = next(v for slot, v in zip(lp.neighbor_slots, lp.es[1:]) if slot[0] != edge)
        tr, _ = coordinates.one_holed_traces(params.eigen[edge], e2, params.twist[edge])
    else:
        tr = coordinates.four_holed_traces(lp.es, lp.t1)[0]
    e1p = new.eigen[edge]
    err = abs(e1p + 1 / e1p - tr) / max(1.0, abs(tr))
    return math.isfinite(err) and err <= ELEM_TRACE_GATE


def _walks(surfaces, rng, pool, length):
    walks = []
    for i in range(pool):
        label = WALK_SURFACES[i % len(WALK_SURFACES)]
        surf = surfaces[label]
        is_fuchsian = (i // len(WALK_SURFACES)) % 2 == 0
        sampler = families.fuchsian_params if is_fuchsian else families.moderate_params
        walks.append((label, surf, sampler(surf, rng), is_fuchsian,
                      _walk_script(surf, rng, length)))
    return walks


def _elem_first(walk):
    """The walk with its elem checks moved to the start point."""
    label, surf, params, is_fuchsian, script = walk
    script = sorted(script, key=lambda step: step[0] != "elem")
    return label, surf, params, is_fuchsian, script


def marking_walk(seed, out_dir, pool=2800, length=8, census_pool=560):
    """Walks whose elem checks run at the start point.

    Later in a walk, vertex moves multiply twists by e^2 and the new
    curve's trace can pass 10^3, where ``moves.new_eigenvalue`` loses
    e' + 1/e' = tr to cancellation and an elem move can raise.  The census
    interleaves the elem checks where the script draws them.
    """
    rng = np.random.default_rng(seed)
    surfaces = _walk_surfaces()
    walks = [_elem_first(w) for w in _walks(surfaces, rng, pool, length)]
    wl = MarkingWalk(walks)
    wl.census = [(MarkingWalk(_walks(surfaces, rng, census_pool, length)), census_pool)]
    fixtures = [w for w in walks if w[0] in ("four_holed", "one_holed")][:5]
    wl.probe = _cli_cases(out_dir, [("act", w[1], w[2], ["--flip", str(min(w[1].graph.edges))])
                                    for w in fixtures] +
                          [("move", w[1], w[2], ["--kind", "reverse", "--target", "1"])
                           for w in fixtures] +
                          [("fn", w[1], w[2]) for w in fixtures])
    return wl


# ---------------------------------------------------------------------------
# command line: cold subprocesses


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args, env):
    """Run one cold CLI process; (exit code, stdout, seconds, peak RSS in KB)."""
    return run_python(["-m", "pantsrep.cli"] + list(args), env)


def run_python(args, env):
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable] + list(args), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                            env=env, cwd=str(ROOT))
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), perf_counter() - t0, usage.ru_maxrss


#: top-level keys of a successful reply, per command
REPLY_KEYS = {
    "example": {"surface", "params", "generators", "relation_residuals"},
    "validate": {"surface", "genus", "boundary"},
    "generators": {"generators", "relation_residuals"},
    "traces": {"traces"},
    "recover": {"recovered", "max_eigen_error_up_to_inversion"},
    "sample": {"seed", "n", "worst_residual", "points"},
    "fn": {"lengths", "twists", "meta", "roundtrip_error"},
    "shearbend": {"a", "b", "c", "z1", "z2", "trace_check"},
    "act": {"eigen", "twist"},
    "move": {"surface", "params"},
}
ERROR_KIND = {2: "schema", 3: "domain", 4: "numeric"}


class CliCase:
    def __init__(self, command, args, expected=(0,)):
        self.command = command
        self.args = args
        self.expected = expected

    def run(self, env, tally):
        """Invoke and check; (start instant, wall seconds, failed stage or None)."""
        t0 = perf_counter()
        code, out, dt, rss = run_cli(self.args, env)
        tally.cli_s.append(dt)
        tally.cli_t.append(t0)
        tally.cli_rss_kb = max(tally.cli_rss_kb, rss)
        stage = checks.cli_stage(code, out, self.expected)
        if stage:
            return t0, dt, "cli." + stage
        doc = checks.strict_json(out)
        if not isinstance(doc, dict):
            tally.broken.append("%s replied with a JSON %s" % (self.command, type(doc).__name__))
        elif code == 0:
            missing = REPLY_KEYS[self.command] - set(doc)
            if missing:
                tally.broken.append("%s reply lacks %s" % (self.command, sorted(missing)))
        elif doc.get("error") != ERROR_KIND[code]:
            tally.broken.append("%s exit %d with error %r" % (self.command, code, doc.get("error")))
        return t0, dt, None


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _cli_cases(out_dir, specs):
    """CliCase per (command, surface, params[, extra args]) with input files."""
    cases = []
    for i, spec in enumerate(specs):
        command, surf, params = spec[:3]
        extra = list(spec[3]) if len(spec) > 3 else []
        s = _write(out_dir / ("probe%d-surface.json" % i), surface.to_json(surf))
        p = _write(out_dir / ("probe%d-params.json" % i), coordinates.params_to_json(params))
        cases.append(CliCase(command, [command, "--surface", s, "--params", p] + extra))
    return cases


class CliCold:
    """A fixed command mix, cycled; each invocation is a fresh interpreter."""

    unit = "invocation"

    def __init__(self, rounds, census=None):
        self.rounds = rounds
        self.round = len(rounds[0])
        self.env = cli_env()
        self.probe = []
        self.warmup = 1
        if census:
            self.census = [(CliCold([census]), len(census))]

    def case(self, k):
        return self.rounds[(k // self.round) % len(self.rounds)][k % self.round]

    def op(self, k, tally):
        case = self.case(k)
        t0, dt, stage = case.run(self.env, tally)
        tally.point(case.command, t0, dt, [dt], stage)


def cli_cold(seed, out_dir, rounds=4):
    """The command mix without the three inputs that fail at this commit:
    ``act --epsilon`` and a string parameter value crash, and a NaN
    eigenvalue prints a bare ``NaN``.  The census is the first round with
    them put back."""
    rng = np.random.default_rng(seed)
    fixtures = {label: families.checked(make(), label) for label, make in families.FIXTURES.items()}
    hc4 = families.handle_chain(4)
    all_rounds, failing = [], []
    for r in range(rounds):
        d = out_dir / ("round%d" % r)
        surf_files = {label: _write(d / (label + "-surface.json"), surface.to_json(s))
                      for label, s in list(fixtures.items()) + [("hc4", hc4)]}

        def params_file(name, params):
            return _write(d / (name + "-params.json"), coordinates.params_to_json(params))

        p4 = params_file("four_holed", families.box_params(fixtures["four_holed"], rng))
        p1 = params_file("one_holed", families.box_params(fixtures["one_holed"], rng))
        p2 = params_file("genus_two", families.box_params(fixtures["genus_two"], rng))
        pf = params_file("genus_two_fuchsian", families.fuchsian_params(fixtures["genus_two"], rng))
        ph = params_file("hc4", families.moderate_params(hc4, rng))
        eps = [eid for eid, s in symmetry.epsilon_basis(fixtures["four_holed"])[
            rng.integers(3)].items() if s == -1]
        bad = coordinates.params_to_json(families.box_params(fixtures["four_holed"], rng))
        outside = {"eigen": dict(bad["eigen"], **{"2": [1.0, 0.0]}), "twist": bad["twist"]}
        nan = {"eigen": dict(bad["eigen"], **{"2": [float("nan"), 0.0]}), "twist": bad["twist"]}
        text = {"eigen": dict(bad["eigen"], **{"2": "x"}), "twist": bad["twist"]}
        broken_file = d / "unparsable.json"
        broken_file.write_text("{\"eigen\": ")
        sf, s1, s2 = surf_files["four_holed"], surf_files["one_holed"], surf_files["genus_two"]
        all_rounds.append([
            CliCase("example", ["example", "genus2"]),
            CliCase("validate", ["validate", "--surface", sf]),
            CliCase("validate", ["validate", "--surface", surf_files["hc4"], "--params", ph]),
            CliCase("generators", ["generators", "--surface", s2, "--params", p2]),
            CliCase("traces", ["traces", "--surface", s1, "--params", p1]),
            CliCase("recover", ["recover", "--surface", sf, "--params", p4]),
            CliCase("sample", ["sample", "--surface", s2, "--n", "5",
                               "--seed", str(int(rng.integers(2 ** 31)))]),
            CliCase("fn", ["fn", "--surface", s2, "--params", pf]),
            CliCase("shearbend", ["shearbend", "--surface", s1, "--params", p1]),
            CliCase("act", ["act", "--surface", sf, "--params", p4,
                            "--flip", str(int(rng.integers(1, 6)))]),
            CliCase("generators", ["generators", "--surface", sf, "--params", str(broken_file)],
                    expected=(2,)),
            CliCase("generators", ["generators", "--surface", sf,
                                   "--params", _write(d / "outside.json", outside)], expected=(3,)),
        ])
        failing.append([
            CliCase("act", ["act", "--surface", sf, "--params", p4,
                            "--epsilon", ",".join(map(str, eps))]),
            CliCase("generators", ["generators", "--surface", sf,
                                   "--params", _write(d / "text.json", text)], expected=(2,)),
            CliCase("generators", ["generators", "--surface", sf,
                                   "--params", _write(d / "nan.json", nan)], expected=(2, 3)),
        ])
    return CliCold(all_rounds, all_rounds[0] + failing[0])


WORKLOADS = {
    "fixtures-roundtrip": fixtures_roundtrip,
    "marking-walk": marking_walk,
    "cli-cold": cli_cold,
}
