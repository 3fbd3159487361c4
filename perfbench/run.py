#!/usr/bin/env python3
"""expfam benchmark: one seeded workload, end to end or traced by layer.

    python3 perfbench/run.py --workload inference --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``inference``, ``intervals``, ``cli``.
Each is a closed loop with one client: the next op starts when the last
one ended, in this process or in one ``expfam`` subprocess at a time.

``--trace 0`` repeats the workload's fixed op list ("pass") for about
``--seconds``, alternating with verify suites, and prints the end-to-end
metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics; their
counts repeat exactly for a seed.  Every op's output is checked against a
closed form or a golden output.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("inference", "intervals", "cli")
#: Verify suites timed in process as ``verify_s`` by the in-process workloads.
VERIFY_SUITES = {
    "inference": ("lemma1", "equivalence", "saddlepoint"),
    "intervals": ("normalization", "coverage"),
}
VERIFY_TRIALS = 20000
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
MIN_SUITE_RUNS = 2

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"),
    ("tail_ms", "ms"), ("peak_rss_mb", "MB"), ("verify_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up, then exit (one setup_s sample)")
    return p.parse_args(argv)


def import_expfam():
    """Import expfam from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import expfam

    if Path(expfam.__file__).resolve().parent != (SRC / "expfam").resolve():
        raise ImportError(f"expfam was imported from {expfam.__file__}, not {SRC}")
    return expfam


def setup_samples(workload, clock=None):
    """(start, end) of fresh processes doing the workload's set-up, median taken later.

    With a ``clock``, its kernel runs before the first sample and after every one.
    """
    import cliwork

    if workload == "cli":
        argv = [sys.executable, "-c", "import expfam.cli"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--setup-only"]
    spans = []
    if clock is not None:
        clock.calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # a pipe, not DEVNULL: with a timeout and no pipe, subprocess polls
        # for the exit at up to 50 ms steps
        subprocess.run(argv, cwd=ROOT, env=cliwork.child_env(), check=True, timeout=170,
                       stdout=subprocess.PIPE)
        spans.append((t0, time.perf_counter()))
        if clock is not None:
            clock.calibrate(1)
    return spans


def durations(spans, clock=None):
    """Seconds of each (start, end) span, scaled to the reference host speed by ``clock``."""
    if clock is None:
        return [end - start for start, end in spans]
    return [clock.scale(start, end) for start, end in spans]


class OpRecord:
    """Latencies and outcome of one op across passes."""

    def __init__(self, op):
        self.op = op
        self.starts = []
        self.latencies = []  # raw seconds
        self.error = None
        self.oracle_err = None

    def scaled(self, clock=None):
        """Latencies scaled to the reference host speed by ``clock``; raw without one."""
        return durations([(t, t + lat) for t, lat in zip(self.starts, self.latencies)], clock)

    def latency(self, clock=None):
        return math.inf if self.error else statistics.median(self.scaled(clock))


def run_pass(records, tracer=None, clock=None):
    """Run every op once, closed loop; returns the pass wall time.

    An op marked ``once`` runs only in the first pass.  With a ``clock``,
    the host-speed kernel runs after every op, outside its timing.
    """
    t_pass = time.perf_counter()
    if clock is not None and not clock.costs:
        clock.calibrate()
    for i, rec in enumerate(records):
        if rec.op.once and rec.latencies:
            continue
        if tracer is not None:
            tracer.op_id = i
        with clock.sampling() if clock is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = rec.op.run()
            except Exception as exc:  # the benchmark records every failure and goes on
                error = type(exc).__name__
            else:
                error = None
            t1 = time.perf_counter()
        rec.starts.append(t0)
        rec.latencies.append(t1 - t0)
        if clock is not None:
            clock.calibrate(1)
        if error is not None:
            rec.error = error
            continue
        try:
            err, ok = rec.op.check(result)
        except (ArithmeticError, LookupError, TypeError, ValueError):
            err, ok = None, False  # output of the wrong shape or type
        if err is not None:
            rec.oracle_err = err if rec.oracle_err is None else max(rec.oracle_err, err)
        if not ok:
            rec.error = rec.error or "OracleMiss"
    return time.perf_counter() - t_pass


def run_passes(records, seconds, clock=None):
    """Repeat passes while the next one is expected to end within ``seconds``; at least one."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        walls.append(run_pass(records, clock=clock))
    return walls


def run_suite(E, suite, clock=None):
    """(start, end) of one in-process verify suite and whether every check passed."""
    with clock.sampling() if clock is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        reports = E.run_suite(suite, trials=VERIFY_TRIALS)
        span = (t0, time.perf_counter())
    if clock is not None:
        clock.calibrate()
    return span, all(r.passed for r in reports)


def run_cycles(E, workload, records, seconds, clock=None):
    """Alternate passes with the workload's verify suites, one suite per pass, in turn.

    Interleaving spreads the samples of both over the whole window, so a
    slow spell of the host does not land on one of them alone.  Runs at
    least ``MIN_SUITE_RUNS`` rounds of the suites, then goes on while the
    next cycle is expected to end within ``seconds``.  Returns the pass
    wall times, each suite's (start, end) spans and whether every check
    passed.
    """
    suites = VERIFY_SUITES[workload]
    walls, suite_s, passed = [], {suite: [] for suite in suites}, True
    start = time.perf_counter()
    while True:
        suite = suites[len(walls) % len(suites)]
        if len(walls) >= MIN_SUITE_RUNS * len(suites):
            expected = walls[-1] + statistics.median(durations(suite_s[suite]))
            if time.perf_counter() - start + expected > seconds:
                return walls, suite_s, passed
        walls.append(run_pass(records, clock=clock))
        span, ok = run_suite(E, suite, clock)
        suite_s[suite].append(span)
        passed = passed and ok


def latency_metrics(records, clock=None):
    lat = sorted(r.latency(clock) * 1e3 for r in records)
    n = len(lat)
    # the highest percentile with TAIL_BEYOND ops beyond it; the maximum when
    # there are too few ops for one
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return statistics.median(lat), lat[k], 100.0 * (k + 1) / n, n


def verify_in_process(E, workload):
    """Per-suite wall seconds and whether every check passed."""
    seconds, passed = {}, True
    for suite in VERIFY_SUITES[workload]:
        span, ok = run_suite(E, suite)
        seconds[suite] = span[1] - span[0]
        passed = passed and ok
    return seconds, passed


def verify_cli(timing):
    """verify as a subprocess: its wall seconds, per-suite seconds and whether it passed."""
    import cliwork

    t0 = time.perf_counter()
    code, out = cliwork.call(cliwork.VERIFY_ARGS + (["--timing"] if timing else []))
    wall = time.perf_counter() - t0
    seconds = {}
    if timing and code == 0:
        for rec in json.loads(out):
            suite = rec["check"].split("/")[0]
            seconds[suite] = seconds.get(suite, 0.0) + rec["runtime"]
    return wall, seconds, cliwork.check_verify(code, out)


def verify_cli_scaled():
    """verify as a subprocess that samples the host speed inside itself.

    Returns its wall seconds, those seconds scaled to the reference speed
    (``hostclock.scale_by``) and whether it passed.
    """
    import cliwork
    import hostclock

    OUT.mkdir(exist_ok=True)
    kernel_out = OUT / "verify-kernel.json"
    kernel_out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    code, out = cliwork.call(cliwork.VERIFY_ARGS, kernel_out=kernel_out)
    wall = time.perf_counter() - t0
    costs = json.loads(kernel_out.read_text()) if kernel_out.is_file() else []
    return wall, hostclock.scale_by(wall, costs), cliwork.check_verify(code, out)


class SpanFiles:
    """Successive span-dump paths for the traced CLI children."""

    def __init__(self, directory):
        self.dir = directory
        self.paths = []
        directory.mkdir(parents=True, exist_ok=True)

    def next(self):
        path = self.dir / f"call-{len(self.paths):03d}.npz"
        self.paths.append(path)
        return path


def build_records(E, workload, seed, tracer_dir=None):
    if workload == "cli":
        import cliwork

        ops = cliwork.cli_ops(seed, OUT / f"cli-data-{seed}", tracer_dir)
    else:
        import workloads

        ops = workloads.OP_LISTS[workload](E, seed)
    return [OpRecord(op) for op in ops]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, E):
    """End-to-end metrics, every time scaled to the reference host speed
    (``hostclock``): in-process work by a quadrature kernel run in this
    process, short subprocesses (set-up samples, cli commands) by a bare
    interpreter start, verify in cli by the quadrature kernel run inside
    it.  The raw (unscaled) values and the host speed are printed beside
    the metrics.
    """
    import hostclock

    spawns = hostclock.spawning()
    setup = setup_samples(args.workload, spawns)
    records = build_records(E, args.workload, args.seed)
    if args.workload == "cli":
        clock = spawns
        # verify runs once, then passes fill the window: each op's latency is
        # a median over passes, as in the other workloads
        verify_wall, verify_scaled, verify_ok = verify_cli_scaled()
        walls = run_passes(records, args.seconds, clock)
        rss = peak_rss_mb("cli")
        verify_runs = 1
    else:
        clock = hostclock.in_process()
        walls, suite_spans, verify_ok = run_cycles(E, args.workload, records, args.seconds,
                                                   clock)
        rss = peak_rss_mb(args.workload)
        verify_runs = {suite: len(spans) for suite, spans in suite_spans.items()}

    def measure(scaled):
        op_clock = clock if scaled else None
        # Time to complete the fixed list once: each op's median over the
        # passes, summed.  Steadier than the median pass when the host drifts.
        wall = sum(statistics.median(r.scaled(op_clock)) for r in records)
        p50, tail, _, _ = latency_metrics(records, op_clock)
        if args.workload == "cli":
            verify_s = verify_scaled if scaled else verify_wall
        else:
            verify_s = sum(statistics.median(durations(spans, op_clock))
                           for spans in suite_spans.values())
        return {
            "setup_s": statistics.median(durations(setup, spawns if scaled else None)),
            "wall_s": wall,
            "ops_per_s": succeeded / wall,
            "p50_ms": p50,
            "tail_ms": tail,
            "peak_rss_mb": rss,
            "verify_s": verify_s,
        }

    succeeded = sum(1 for r in records if math.isfinite(r.latency()))
    metrics, raw = measure(True), measure(False)
    _, _, tail_pct, n = latency_metrics(records)
    info = {
        "passes": len(walls),
        "pass_walls_s": [round(w, 3) for w in walls],
        "ops_per_pass": n,
        "tail_percentile": tail_pct,
        "setup_samples": len(setup),
        "verify_runs": verify_runs,
        "host_speed": {name: {"median": round(c.median_speed(), 4), "kernel_runs": len(c.costs)}
                       for name, c in (("in_process", clock), ("spawning", spawns))
                       if c is not spawns or name == "spawning"},
        "raw": {k: round(v, 6) for k, v in raw.items() if k != "peak_rss_mb"},
    }
    return records, metrics, info, verify_ok


def traced(args, E):
    import tracing

    records = build_records(E, args.workload, args.seed)
    if args.workload == "cli":
        import_s = statistics.median(durations(setup_samples("cli")))
        untraced_wall = run_pass(records)
        files = SpanFiles(OUT / f"spans-cli-seed{args.seed}")
        traced_wall = run_pass(build_records(E, "cli", args.seed, files))
        parts, counts = [], {}
        for path in files.paths:
            names, part_counts, spans = tracing.load_spans(path)
            parts.append(tracing.span_stats(names, spans))
            for key, value in part_counts.items():
                counts[key] = counts.get(key, 0) + value
        stats = tracing.merge_stats(parts)
        verify_wall, suite_s, verify_ok = verify_cli(timing=True)
        n_spans = sum(s[0] for s in stats.values())
    else:
        import_s = None
        untraced_wall = run_pass(records)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall = run_pass(build_records(E, args.workload, args.seed), tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        stats = tracing.span_stats(tracer.names, tracer.arrays())
        counts = tracer.counts
        n_spans = len(tracer.start)
        suite_s, verify_ok = verify_in_process(E, args.workload)
        verify_wall = None
    import layers

    metrics = layers.per_layer(stats, counts, records, suite_s, import_s, verify_wall)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = n_spans
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return records, metrics, info, verify_ok


def finite(value):
    """JSON has no infinity: a failed op's infinite latency prints as the largest double."""
    return value if math.isfinite(value) else sys.float_info.max


def report(args, records, metrics, info, verify_ok, units):
    failed = [r for r in records if r.error]
    misses = [r for r in failed if not r.op.stress]
    classes = {}
    for r in failed:
        classes[r.error] = classes.get(r.error, 0) + 1
    attempted = len(records) + 1
    n_failed = len(failed) + (0 if verify_ok else 1)
    print(f"# expfam benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name:64s} {value:>16.6g} {units.get(name, '')}")
    for key, value in info.items():
        print(f"# {key} = {value}")
    print(f"# fail_frac = {n_failed}/{attempted} = {n_failed / attempted:.4g}")
    print(f"# failures by class = {json.dumps(classes, sort_keys=True)}")
    for stress, label in ((False, "oracle_err"), (True, "oracle_err_large_n")):
        errs = [r.oracle_err for r in records
                if r.oracle_err is not None and r.op.stress == stress]
        if errs or not stress:
            print(f"# {label} = {max(errs, default=0.0):.3e} over {len(errs)} checked ops")
    print(f"# verify passed = {verify_ok}")
    for r in failed:
        size = f"n={r.op.spec['n']}" if r.op.stress else ""
        print(f"# failed op: {r.error} {r.op.kind} {r.op.family} {size}")
    correct = not misses and verify_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": finite(v), "unit": units.get(k, "count")}
                    for k, v in metrics.items()},
    }))
    return correct


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "expfam" / "__init__.py").is_file():
        print(f"perfbench: no expfam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    E = None
    if args.workload != "cli":
        import workloads

        E = import_expfam()
        workloads.warm_up(E, args.workload)
    if args.setup_only:
        return 0
    if args.trace:
        import layers

        records, metrics, info, ok = traced(args, E)
        units = layers.UNITS
    else:
        records, metrics, info, ok = end_to_end(args, E)
        units = dict(END_TO_END)
    # the result is printed either way; a failed output check also fails the exit code
    return 0 if report(args, records, metrics, info, ok, units) else 1


if __name__ == "__main__":
    sys.exit(main())
