"""Times scaled to a fixed host speed, so that runs at different hours compare.

The benchmark runs on a few cores of a shared machine whose speed drifts
by a quarter to a half over spells of seconds to minutes, in CPU time as
much as in wall time, as other tenants come and go.  Medians within one
run cannot remove a drift that lasts the whole run.  So a fixed
calibration kernel, which never calls expfam, runs beside the timed work,
and each item's time, less the kernel's, is multiplied by the kernel's
reference time over its median time around or inside the item.  A scaled
time reads as the seconds the item would take on a host where the kernel
takes its reference time; a change to expfam moves the item and not the
kernel, so it moves the scaled time by the same share as the raw.

* Work in this process: ``in_process()``, whose kernel, ``quad_kernel``,
  runs after every item and, from a timer signal, every ``PERIOD_S``
  inside one; an item is scaled by the runs inside it and the
  ``NEIGHBOURS`` on each side.
* Short subprocesses (set-up samples, ``expfam`` commands), whose time
  goes to starting an interpreter and importing, which ``quad_kernel``
  does not follow: ``spawning()``, whose kernel starts a bare interpreter,
  one process at a time, after every item.
* ``expfam verify``, a subprocess of about ten seconds, runs through this
  file::

      python3 perfbench/hostclock.py KERNEL_TIMES.json -m MODULE ARG...

  which runs the module as ``python3 -m`` would, with ``quad_kernel``
  every ``PERIOD_S`` inside it from a timer signal once the module has
  imported scipy (this file imports only stdlib modules ahead of it), and
  writes the kernel's times to ``KERNEL_TIMES.json`` for ``scale_by``.
"""

import bisect
import contextlib
import json
import math
import runpy
import signal
import statistics
import sys
import time
from pathlib import Path

#: Kernel times at the reference speed: about their medians within
#: benchmark runs on a 2-core shared Xeon VM (Python 3.11, scipy 1.17).
QUAD_REFERENCE_S = 5e-4
SPAWN_REFERENCE_S = 0.01
#: Kernel runs taken on each side of a timed item.
NEIGHBOURS = 4
#: Seconds between kernel runs inside an item.
PERIOD_S = 0.1


def quad_kernel():
    """Fixed work of the kind most of expfam's time goes to: adaptive
    quadrature (scipy's QUADPACK) of Python integrands.  Returns a number so
    that nothing is optimized away."""
    from scipy.integrate import quad

    total = 0.0
    for k in range(32):
        rate = 1.0 + 0.05 * k
        total += quad(lambda x: math.exp(-rate * x * x) * math.log1p(x), 0.0, 3.0)[0]
    return total


def spawn_kernel():
    """Start a bare interpreter (no site packages) that does nothing."""
    import subprocess

    # with a timeout and no pipe, subprocess polls for the exit at up to
    # 50 ms steps; a pipe wakes it at the exit
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdout=subprocess.PIPE, check=True,
                   timeout=60)


def _timed(kernel, starts, costs):
    t0 = time.perf_counter()
    kernel()
    starts.append(t0)
    costs.append(time.perf_counter() - t0)


@contextlib.contextmanager
def _every(period, action):
    """Call ``action()`` every ``period`` seconds inside the block, from SIGALRM."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: action())
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class HostClock:
    """Kernel timings over a run, and item times scaled by them.

    ``sampling()`` also runs the kernel every ``period_s`` inside the timed
    block, when there is one.
    """

    def __init__(self, kernel, reference_s, period_s=None):
        self.kernel = kernel
        self.reference_s = reference_s
        self.period_s = period_s
        self.starts = []  # perf_counter at the start of each kernel run, ascending
        self.costs = []  # its duration in seconds

    def calibrate(self, repeat=NEIGHBOURS):
        if not self.costs:
            self.kernel()  # any import it needs happens outside the timing
        for _ in range(repeat):
            _timed(self.kernel, self.starts, self.costs)

    def sampling(self):
        if self.period_s is None:
            return contextlib.nullcontext()
        return _every(self.period_s, lambda: _timed(self.kernel, self.starts, self.costs))

    def scale(self, start, end):
        """Seconds from ``start`` to ``end`` less the kernel runs inside,
        scaled by the median kernel time of those runs and of the
        NEIGHBOURS runs on each side."""
        first = bisect.bisect_right(self.starts, start)
        after = bisect.bisect_left(self.starts, end)
        inside = self.costs[first:after]
        near = self.costs[max(0, first - NEIGHBOURS):after + NEIGHBOURS]
        if not near:
            raise ValueError("no kernel run near the timed item")
        return (end - start - sum(inside)) * self.reference_s / statistics.median(near)

    def median_speed(self):
        return self.reference_s / statistics.median(self.costs) if self.costs else math.nan


def in_process():
    return HostClock(quad_kernel, QUAD_REFERENCE_S, PERIOD_S)


def spawning():
    return HostClock(spawn_kernel, SPAWN_REFERENCE_S)


def scale_by(seconds, costs):
    """``seconds`` of a run through this file, less and scaled by the
    ``quad_kernel`` times ``costs`` it wrote; unscaled if there are none."""
    if not costs:
        return seconds
    return (seconds - sum(costs)) * QUAD_REFERENCE_S / statistics.median(costs)


def run_child(kernel_out, args):
    """Run ``-m MODULE ARG...`` as ``python3`` would, with ``quad_kernel``
    every PERIOD_S once scipy.integrate is imported.  Returns the exit
    code; the kernel times go to ``kernel_out``."""
    if args[:1] != ["-m"]:
        raise SystemExit("usage: python3 perfbench/hostclock.py KERNEL_TIMES.json -m MODULE ARG...")
    starts, costs = [], []

    def tick():
        # never import ahead of the module, nor from a module still importing
        if getattr(sys.modules.get("scipy.integrate"), "quad", None) is not None:
            _timed(quad_kernel, starts, costs)

    code = 0
    try:
        with _every(PERIOD_S, tick):
            sys.argv = args[1:]
            sys.path[0] = str(Path.cwd())
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        Path(kernel_out).write_text(json.dumps(costs))
    return code


if __name__ == "__main__":
    sys.exit(run_child(sys.argv[1], sys.argv[2:]))
