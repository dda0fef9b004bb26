"""Machine-speed calibration for a shared host.

On a host whose cores are shared with other tenants the same code runs up
to ~1.7x slower for stretches of tens of seconds, which no run length
averages out.  The benchmark therefore times a fixed reference during a
run and reports every time in *reference seconds*: a wall interval
multiplied by the reference's nominal duration over its local median
duration.  On a quiet host the two are equal.

Two references match the two kinds of work timed:

* in-process work is scaled by ``kernel``, which mixes the kinds of work
  the library does (complex arithmetic in Python, dicts and tuples, small
  numpy arrays and ``np.linalg.det``);
* fresh processes (CLI invocations, set-ups) are scaled by a fresh
  ``python -c "import numpy"``, since interpreter start and imports
  dominate them.

Neither reference runs pantsrep code, so a change to the library cannot
move them.
"""

import statistics
from time import perf_counter

import numpy as np

#: nominal durations on a quiet host (seconds)
KERNEL_SECONDS = 1.5e-3
PROCESS_SECONDS = 0.15
#: samples on each side of an instant that its factor is the median of
WINDOW = 2


def kernel(n=150):
    acc = 0j
    table = {}
    for i in range(n):
        m = np.array([[1 + 1j * i, 2.0], [0.5, 3 - 1j]], dtype=complex)
        z = complex(np.linalg.det(m))
        for k in range(8):
            acc = acc * 0.5 + z * (k + 1j)
            table[(i % 7, k)] = acc
        acc += float(np.abs(m).max())
    return acc


def timed_kernel():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def timed_process(run_python, env):
    """Wall seconds of ``python -c "import numpy"``, via the caller's runner."""
    def measure():
        code, _out, dt, _rss = run_python(["-c", "import numpy"], env)
        if code:
            raise RuntimeError("reference process exited %d" % code)
        return dt

    return measure


class Calibration:
    """Reference samples taken during a run, and the time scale they imply.

    `measure` returns the wall seconds of one reference; `nominal` is its
    duration on a quiet host; `spacing` is the wall seconds between
    samples that tick() keeps.
    """

    def __init__(self, measure, nominal, spacing):
        self.measure, self.nominal, self.spacing = measure, nominal, spacing
        self.at = []
        self.took = []
        self._next = 0.0
        self._smooth = None

    def sample(self):
        t0 = perf_counter()
        self.at.append(t0)
        self.took.append(self.measure())
        self._next = perf_counter() + self.spacing
        self._smooth = None

    def tick(self):
        """Sample when the last sample is `spacing` old."""
        if perf_counter() >= self._next:
            self.sample()

    def _factors(self, times):
        if self._smooth is None:
            self._smooth = np.array([
                statistics.median(self.took[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(self.took))])
        idx = np.searchsorted(self.at, times, side="right") - 1
        return self.nominal / self._smooth[np.clip(idx, 0, len(self._smooth) - 1)]

    def factor(self, t):
        """Reference seconds per wall second around instant t."""
        return float(self._factors([t])[0])

    def scale(self, values, times):
        """Each wall duration in values, started at the matching instant, in
        reference seconds."""
        return np.asarray(values, dtype=float) * self._factors(np.asarray(times, dtype=float))

    def span(self, t0, t1):
        """Reference seconds in the wall interval [t0, t1], less its own sampling."""
        inside = [t for t in self.at if t0 <= t <= t1] or [(t0 + t1) / 2]
        busy = sum(d for t, d in zip(self.at, self.took) if t0 <= t <= t1)
        return (t1 - t0 - busy) * float(np.mean(self._factors(inside)))

    def median_ms(self):
        return 1e3 * statistics.median(self.took)
