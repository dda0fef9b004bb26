"""In-memory span recorder and run-time wrappers around the pantsrep modules.

A span has a name, a start, an end, the index of the span that was open
when it began (its parent, -1 for none) and the id of the benchmark
operation (point, walk step, ...) it belongs to.  Spans are kept in flat
``array`` columns so a traced run of a few hundred thousand calls stays
small, and are written out once when the run ends.

The wrappers are installed at run time by rebinding names: every public
function defined in a traced module is replaced, in every pantsrep module
namespace that holds it, by a wrapper that opens and closes a span.  The
library source is not touched.
"""

import functools
import importlib
import inspect
import time
from array import array

#: the layers, one per module of the package
MODULES = (
    "projective", "surface", "pants", "coordinates", "builder",
    "symmetry", "moves", "fuchsian", "shearbend", "cli",
)
#: methods wrapped in addition to module-level functions
METHODS = {
    ("projective", "MoebiusMap"): ("__init__", "__matmul__", "inverse"),
    ("surface", "FatGraph"): ("__init__",),
}
#: span-name suffix per move kind (the two Dehn twist directions share one)
MOVE_KIND = {"twist-r": "twist", "twist-l": "twist"}


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack = []
        self.op_id = -1

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def save(self, path):
        """Write every span to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def self_times(start, end, parent):
    """Per span: its duration minus the part of it its child spans cover.

    Children are clipped to their parent.  Siblings never overlap in a
    trace of synchronous code, so their clipped durations are summed; if
    some do overlap, their union is taken instead, so nothing is counted
    twice and no self time goes negative.
    """
    import numpy as np

    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.maximum(np.minimum(end[kids], end[par]), lo)
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    if np.any((par[1:] == par[:-1]) & (lo[1:] < hi[:-1])):
        reach = hi.copy()
        for i in range(1, len(par)):
            if par[i] == par[i - 1]:
                lo[i] = max(lo[i], reach[i - 1])
                reach[i] = max(hi[i], reach[i - 1])
        hi = np.maximum(hi, lo)
    covered = np.bincount(par, weights=hi - lo, minlength=len(start))
    return end - start - covered


def totals(rec):
    """{span name: (count, total self seconds)} over every span."""
    import numpy as np

    name = np.frombuffer(rec.name, dtype=np.int32) if len(rec) else np.zeros(0, np.int32)
    selfs = self_times(rec.start, rec.end, rec.parent)
    counts = np.bincount(name, minlength=len(rec.names))
    sums = np.bincount(name, weights=selfs, minlength=len(rec.names))
    return {n: (int(counts[i]), float(sums[i])) for i, n in enumerate(rec.names) if counts[i]}


def _wrap(fn, nid, rec):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def _wrap_apply_move(fn, rec):
    ids = {}

    @functools.wraps(fn)
    def traced(surface, params, move):
        kind = MOVE_KIND.get(move.kind, move.kind)
        nid = ids.get(kind)
        if nid is None:
            nid = ids[kind] = rec.intern("moves.apply_move.%s" % kind)
        idx = rec.open(nid)
        try:
            return fn(surface, params, move)
        finally:
            rec.close(idx)

    return traced


def install(rec):
    """Wrap the public functions of every layer; return an undo callable."""
    modules = {name: importlib.import_module("pantsrep." + name) for name in MODULES}
    replace = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if (layer, name) == ("moves", "apply_move"):
                replace[obj] = _wrap_apply_move(obj, rec)
            else:
                replace[obj] = _wrap(obj, rec.intern("%s.%s" % (layer, name)), rec)
    undo = []
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                setattr(mod, name, replace[obj])
                undo.append((mod, name, obj))
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for meth in methods:
            orig = cls.__dict__[meth]
            label = "%s.%s.%s" % (layer, cls_name.lower(), meth.strip("_"))
            setattr(cls, meth, _wrap(orig, rec.intern(label), rec))
            undo.append((cls, meth, orig))

    def uninstall():
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)

    return uninstall
