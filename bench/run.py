"""Run one pantsrep benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixtures-roundtrip --seed 1 --seconds 12 --trace 0

The library is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from a span-traced window, together with
the tracing overhead against an untraced window of the same run, and the
failure counts of the workload's defect census.  Every
line before the last is informational; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
bench/README.md defines every metric.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("fixtures-roundtrip", "marking-walk", "cli-cold")
#: fresh-process set-ups per run, besides the run's own, for the setup_s median
SETUP_PROBES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("steps_per_s", "1/s"),
    ("step_us_p50", "us"),
    ("step_us_p90", "us"),
    ("cli_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

LADDER_LABELS = ("hc2", "hc4", "hc8", "hc16", "hc32", "cat4", "cat8", "cat16", "cat32")
MODULES = ("projective", "surface", "pants", "coordinates", "builder",
           "symmetry", "moves", "fuchsian", "shearbend", "cli")
CLI_COMMANDS = ("example", "validate", "generators", "traces", "recover",
                "sample", "fn", "shearbend", "act")
POINT_STAGES = checks.POINT_STAGES
WALK_STAGES = checks.WALK_STAGES

#: per-layer metric -> (unit, span names summed, "calls" or "self_us")
SPAN_METRICS = {
    "projective.moebius.calls": ("calls/op", ["projective.moebiusmap.init"], "calls"),
    "projective.moebius.self_us": ("us/op", ["projective.moebiusmap.init",
                                             "projective.moebiusmap.matmul",
                                             "projective.moebiusmap.inverse"], "self_us"),
    "projective.three_point_map.calls": ("calls/op", ["projective.three_point_map"], "calls"),
    "projective.three_point_map.self_us": ("us/op", ["projective.three_point_map"], "self_us"),
    "pants.pants_rep.calls": ("calls/op", ["pants.pants_rep"], "calls"),
    "pants.pants_rep.self_us": ("us/op", ["pants.pants_rep"], "self_us"),
    "surface.presentation.calls": ("calls/op", ["surface.presentation"], "calls"),
    "surface.presentation.self_us": ("us/op", ["surface.presentation"], "self_us"),
    "surface.maximal_tree.self_us": ("us/op", ["surface.maximal_tree"], "self_us"),
    "coordinates.local_picture.calls": ("calls/op", ["coordinates.local_picture"], "calls"),
    "coordinates.local_picture.self_us": ("us/op", ["coordinates.local_picture"], "self_us"),
    "coordinates.propagate.calls": ("calls/op", ["coordinates.propagate_forward",
                                                 "coordinates.propagate_backward"], "calls"),
    "coordinates.in_domain.self_us": ("us/op", ["coordinates.in_domain"], "self_us"),
    "builder.build.self_us": ("us/op", ["builder.build"], "self_us"),
    "builder.verify_relations.self_us": ("us/op", ["builder.verify_relations"], "self_us"),
    "builder.recover_coordinates.self_us": ("us/op", ["builder.recover_coordinates"], "self_us"),
    "moves.apply_move.self_us.reverse": ("us/op", ["moves.apply_move.reverse"], "self_us"),
    "moves.apply_move.self_us.twist": ("us/op", ["moves.apply_move.twist"], "self_us"),
    "moves.apply_move.self_us.vertex": ("us/op", ["moves.apply_move.vertex"], "self_us"),
    "moves.apply_move.self_us.elem": ("us/op", ["moves.apply_move.elem"], "self_us"),
    "symmetry.flip_eigenvalue.self_us": ("us/op", ["symmetry.flip_eigenvalue"], "self_us"),
    "symmetry.act_epsilon.self_us": ("us/op", ["symmetry.act_epsilon"], "self_us"),
    "fuchsian.to_fenchel_nielsen.self_us": ("us/op", ["fuchsian.to_fenchel_nielsen"], "self_us"),
    "fuchsian.from_fenchel_nielsen.self_us": ("us/op", ["fuchsian.from_fenchel_nielsen"],
                                              "self_us"),
}


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in report order."""
    out = [(name, spec[0]) for name, spec in SPAN_METRICS.items()]
    for layer in MODULES + ("bench",):
        out += [("layer.%s.calls" % layer, "calls/op"), ("layer.%s.self_us" % layer, "us/op")]
    out += [("surface.relator_letters.%s" % lab, "count") for lab in LADDER_LABELS]
    out += [("builder.point_us.%s" % lab, "us") for lab in LADDER_LABELS]
    out += [("builder.failed.%s" % st, "count") for st in POINT_STAGES]
    out += [("moves.failed.%s" % st, "count") for st in WALK_STAGES]
    out += [("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.command_ms", "ms")]
    out += [("cli.command_ms.%s" % c, "ms") for c in CLI_COMMANDS]
    out += [("cli.failed.exit_code", "count"), ("cli.failed.invalid_json", "count")]
    out += [("failed_share", "ratio"), ("tracing.overhead_us", "us/op"),
            ("tracing.overhead_share", "ratio")]
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process, print the seconds, and exit")
    return p.parse_args(argv)


def setup(name, seed):
    """Import the library, generate surfaces and inputs; (workload, seconds)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from pantsrep import builder

    if not Path(builder.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("pantsrep was imported from %s, not from %s" % (builder.__file__, SRC))
    out_dir = OUT / ("%s-%d" % (name, seed))
    wl = workloads.WORKLOADS[name](seed, out_dir)
    return wl, time.perf_counter() - t0


def setup_probe(name, seed):
    """Wall seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


#: longest traced window; a second of tracing records ~150k spans
TRACE_SECONDS = 5.0


class Window:
    """A timed closed loop: wall interval, next operation, and tally."""

    def __init__(self, tally, t0, t1, next_k):
        self.tally, self.t0, self.t1, self.next_k = tally, t0, t1, next_k


def loop(wl, tally, seconds, first, cal, rec=None):
    """Closed loop from operation `first` for `seconds`, then to the end of
    the round, so every run covers its inputs in the same proportions."""
    k = first
    t0 = time.perf_counter()
    end = t0 + seconds
    root = rec.intern("bench." + wl.unit) if rec is not None else None
    while k == first or time.perf_counter() < end or (k - first) % wl.round:
        cal.tick()
        if rec is None:
            wl.op(k, tally)
        else:
            rec.op_id = k
            idx = rec.open(root)
            wl.op(k, tally)
            rec.close(idx)
        k += 1
    return Window(tally, t0, time.perf_counter(), k)


def cli_block(probes, tally, pcal):
    """The library workloads' cold CLI invocations of their own operation,
    each after a process-reference sample.  They run after the timed loop:
    a fresh process leaves the caches cold for the operations after it."""
    import workloads

    env = workloads.cli_env()
    for case in probes:
        pcal.sample()
        _t, _dt, stage = case.run(env, tally)
        tally.attempted += 1
        if stage:
            tally.fail(stage)
    if probes:
        pcal.sample()


def warm_up(wl, tally):
    """A few untimed operations so lazy imports and caches settle first."""
    for k in range(wl.warmup):
        wl.op(k, tally)


def pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


#: fewest samples per block of block_pct
BLOCK = 1000


def block_pct(values, q, blocks=10):
    """Median over up to `blocks` consecutive blocks of each block's q-th
    percentile, so a burst of host load moves one block, not the figure.
    Values are in time order; a block holds at least BLOCK of them."""
    import numpy as np

    n = max(1, min(blocks, len(values) // BLOCK))
    return statistics.median(pct(b, q) for b in np.array_split(np.asarray(values), n))


def end_to_end(wl, win, cal, pcal, setup_samples):
    """The end-to-end metrics of an untraced window, in reference seconds."""
    tally = win.tally
    ref_s = cal.span(win.t0, win.t1)
    is_cli = wl.unit == "invocation"
    rss_kb = tally.cli_rss_kb if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    points = cal.scale(tally.point_s, tally.point_t)
    steps = cal.scale(tally.step_s, tally.step_t)
    return {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": tally.verified / ref_s,
        "point_ms_p50": 1e3 * block_pct(points, 50),
        "point_ms_p90": 1e3 * block_pct(points, 90),
        "steps_per_s": tally.verified_steps / ref_s,
        "step_us_p50": 1e6 * block_pct(steps, 50),
        "step_us_p90": 1e6 * block_pct(steps, 90),
        "cli_ms_p50": 1e3 * pct(pcal.scale(tally.cli_s, tally.cli_t), 50),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def wall_end_to_end(win):
    """The same figures in plain wall time, for the informational line."""
    tally = win.tally
    wall = win.t1 - win.t0
    return {"points_per_s": tally.verified / wall,
            "point_ms_p50": 1e3 * block_pct(tally.point_s, 50),
            "point_ms_p90": 1e3 * block_pct(tally.point_s, 90),
            "step_us_p50": 1e6 * block_pct(tally.step_s, 50),
            "step_us_p90": 1e6 * block_pct(tally.step_s, 90),
            "cli_ms_p50": 1e3 * pct(tally.cli_s, 50)}


def run_census(wl):
    """Every census operation once, untraced; the tally of what failed."""
    import workloads

    tally = workloads.Tally()
    for census, size in getattr(wl, "census", ()):
        for k in range(size):
            census.op(k, tally)
    return tally


def traced_metrics(wl, plain, traced, cal, rec, cli_split, census):
    """Per-layer metrics: spans from the traced window, times from the plain
    one, failures and the genus-scaling curve from the census."""
    import spans

    ops = max(traced.tally.attempted, 1)
    # span self times are wall seconds inside the traced window
    per_op = 1e6 * cal.span(traced.t0, traced.t1) / (traced.t1 - traced.t0) / ops
    tot = spans.totals(rec)
    out = {}
    for name, (_unit, names, kind) in SPAN_METRICS.items():
        calls = sum(tot.get(n, (0, 0.0))[0] for n in names)
        secs = sum(tot.get(n, (0, 0.0))[1] for n in names)
        out[name] = calls / ops if kind == "calls" else secs * per_op
    for layer in MODULES + ("bench",):
        picked = [v for n, v in tot.items() if n.split(".")[0] == layer]
        out["layer.%s.calls" % layer] = sum(c for c, _ in picked) / ops
        out["layer.%s.self_us" % layer] = sum(s for _, s in picked) * per_op
    letters = getattr(wl, "relator_letters", {})
    for lab in LADDER_LABELS:
        out["surface.relator_letters.%s" % lab] = letters.get(lab, 0)
        dts, ts = census.by_label[lab] if lab in letters else ([], [])
        out["builder.point_us.%s" % lab] = 1e6 * pct(cal.scale(dts, ts), 50) if dts else 0.0
    stages = census.stages
    for st in POINT_STAGES:
        out["builder.failed.%s" % st] = stages.get(st, 0)
    for st in WALK_STAGES:
        out["moves.failed.%s" % st] = stages.get(st, 0)
    for name, _unit in per_layer_metrics():
        if name.startswith("cli.") and not name.startswith("cli.failed."):
            out[name] = cli_split.get(name, 0.0)
    out["cli.failed.exit_code"] = stages.get("cli.exit_code", 0)
    out["cli.failed.invalid_json"] = stages.get("cli.invalid_json", 0)
    out["failed_share"] = census.failed / max(census.attempted, 1)
    plain_op = cal.span(plain.t0, plain.t1) / max(plain.tally.attempted, 1)
    traced_op = cal.span(traced.t0, traced.t1) / ops
    out["tracing.overhead_us"] = 1e6 * (traced_op - plain_op)
    out["tracing.overhead_share"] = (traced_op - plain_op) / plain_op
    return out


def run_cli_traced(wl, tally, seconds, first, cal):
    """cli-cold traced window: invocations with start-up split probes between them.

    ``python -c pass`` gives the interpreter start, ``python -c 'import
    pantsrep.cli'`` minus that the import, and an invocation minus the
    import probe the command itself.  At least one whole round of the mix
    runs, so every command is timed.
    """
    import workloads

    interp, imp, command = [], [], []
    k = first
    t0 = time.perf_counter()
    while k == first or time.perf_counter() < t0 + seconds or (k - first) % wl.round:
        cal.tick()
        if (k - first) % 3 == 0:
            for args, into in ((["-c", "pass"], interp), (["-c", "import pantsrep.cli"], imp)):
                t = time.perf_counter()
                code, _out, dt, _rss = workloads.run_python(args, wl.env)
                if code:
                    tally.broken.append("%s exited %d" % (" ".join(args), code))
                into.append(dt * cal.factor(t))
        wl.op(k, tally)
        command.append((wl.case(k).command, tally.point_s[-1] * cal.factor(tally.point_t[-1])))
        k += 1
    win = Window(tally, t0, time.perf_counter(), k)
    i50, m50 = statistics.median(interp), statistics.median(imp)
    split = {"cli.interp_ms": 1e3 * i50, "cli.import_ms": 1e3 * (m50 - i50),
             "cli.command_ms": 1e3 * statistics.median(dt - m50 for _, dt in command)}
    for c in CLI_COMMANDS:
        mine = [dt - m50 for name, dt in command if name == c]
        split["cli.command_ms.%s" % c] = 1e3 * statistics.median(mine) if mine else 0.0
    # the probes are not part of the mix: the window's time is the invocations'
    win.t1 = win.t0 + sum(tally.point_s[-(k - first):])
    return win, split


def machine_info(args):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "src_lines": src_lines}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pantsrep").is_dir():
        print("no library sources at %s" % (SRC / "pantsrep"), file=sys.stderr)
        return 2
    import warnings

    # overflowing builds are counted as failures; their warnings are noise
    warnings.simplefilter("ignore", RuntimeWarning)
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    import calibration
    import workloads

    pcal = calibration.Calibration(
        calibration.timed_process(workloads.run_python, workloads.cli_env()),
        calibration.PROCESS_SECONDS, spacing=1.0)
    if wl.unit == "invocation":
        cal = pcal
    else:
        cal = calibration.Calibration(calibration.timed_kernel, calibration.KERNEL_SECONDS,
                                      spacing=0.2)
    tally = workloads.Tally()
    warm_up(wl, tally)
    broken = list(tally.broken)
    if args.trace == 0:
        # set-ups start fresh processes, so the process reference scales them
        setup_wall = [own_setup]
        pcal.sample()
        for _ in range(SETUP_PROBES):
            setup_wall.append(setup_probe(args.workload, args.seed))
            pcal.sample()
        setup_samples = [w * pcal.factor(pcal.at[i]) for i, w in enumerate(setup_wall)]
        win = loop(wl, workloads.Tally(), args.seconds, 0, cal)
        cli_block(wl.probe, win.tally, pcal)
        metrics = end_to_end(wl, win, cal, pcal, setup_samples)
        units = dict(END_TO_END)
        wall = wall_end_to_end(win)
        wall["setup_s"] = statistics.median(setup_wall)
        tally = win.tally
        samples = {"points": len(tally.point_s), "steps": len(tally.step_s),
                   "cli": len(tally.cli_s), "setup": len(setup_samples)}
    else:
        import spans

        traced_s = min(args.seconds / 2, TRACE_SECONDS)
        plain = loop(wl, workloads.Tally(), args.seconds - traced_s, 0, cal)
        rec = spans.SpanRecorder()
        if wl.unit == "invocation":
            traced, split = run_cli_traced(wl, workloads.Tally(), traced_s, plain.next_k, cal)
        else:
            uninstall = spans.install(rec)
            try:
                traced = loop(wl, workloads.Tally(), traced_s, plain.next_k, cal, rec)
            finally:
                uninstall()
            split = {}
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / ("spans-%s.npz" % args.workload))
        census = run_census(wl)
        broken += census.broken
        metrics = traced_metrics(wl, plain, traced, cal, rec, split, census)
        units = dict(per_layer_metrics())
        samples = {"traced_ops": traced.tally.attempted, "spans": len(rec),
                   "census": {"attempted": census.attempted, "failed": census.failed,
                              "stages": dict(sorted(census.stages.items()))}}
        wall = {"tracing.overhead_us": 1e6 * (
            (traced.t1 - traced.t0) / max(traced.tally.attempted, 1)
            - (plain.t1 - plain.t0) / max(plain.tally.attempted, 1))}
        tally = workloads.Tally()
        for t in (plain.tally, traced.tally):
            tally.attempted += t.attempted
            tally.failed += t.failed
            tally.stages.update(t.stages)
            tally.broken.extend(t.broken)
    broken += tally.broken
    info = machine_info(args)
    info.update(attempted=tally.attempted, failed=tally.failed,
                failed_share=tally.failed / max(tally.attempted, 1),
                stages=dict(sorted(tally.stages.items())), broken=broken[:10],
                reference_ms=cal.median_ms(), process_reference_ms=pcal.median_ms() if pcal.took
                else None, wall=wall, samples=samples)
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"info": info}, sort_keys=True))
    # a NaN metric is a defect of the benchmark: fail rather than print invalid JSON
    result = {
        "correct": not broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
