"""In-memory span tracer around the public functions of expfam's modules.

``Tracer.install`` replaces every public module-level function and every
public method of the classes defined in the layer modules with a wrapper
that records one span (name, start, end, parent span, op id).  The same
function object is replaced wherever another module imported it, so
``expfam.core.integrate`` is traced as ``numerics.integrate``.  Nothing
under ``src/`` is edited; ``uninstall`` restores the originals.

Spans live in flat ``array`` buffers so that a pass with a million calls
stays at a few tens of MB; self time (duration minus child spans) is
computed after the run with ``numpy.bincount``.

Run as a script, this module is a tracing shim for one CLI call:
``python3 perfbench/tracing.py OUT.npz ARGS...`` runs ``expfam.cli.main``
on ARGS with the tracer installed and saves the spans to OUT.npz.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: The modules of src/expfam that the benchmark treats as layers.
LAYERS = (
    "numerics",
    "core",
    "families",
    "distributions",
    "saddlepoint",
    "prediction",
    "intervals",
    "verify",
    "cli",
)


def _fit_label(self, *args, **kwargs):
    return f".{type(self).__name__}.{type(getattr(self, 'family', None)).__name__}"


def _renormalize_label(family, *args, **kwargs):
    return f".d{family.d}"


def _confidence_label(kappa, batch, *args, **kwargs):
    return f".m1e{int(math.log10(batch.n))}"


#: Counters kept beside the spans: span name -> (counter, amount of work in a result).
COUNTERS = {
    "numerics.integrate": ("numerics.integrate.evals", lambda r: r.evaluations),
    "intervals.coverage_simulation": (
        "intervals.coverage_simulation.trials", lambda r: r.trials + r.degenerate),
}

#: Span-name refinements: the wrapper appends the label of the call's
#: arguments, so one function yields one span name per family, d or decade.
LABELS = {
    "prediction._PredictorBase.fit": _fit_label,
    "saddlepoint.renormalize": _renormalize_label,
    "intervals.poisson_exp_confidence": _confidence_label,
}


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = {key: 0 for key, _ in COUNTERS.values()}
        self.op_id = -1
        self._stack = []
        self._restore = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        nid = self._id(name)
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_id.append(
                nid if label is None else tracer._id(name + label(*args, **kwargs))
            )
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self):
        """Wrap the public callables of every layer module, everywhere bound."""
        layers = [importlib.import_module(f"expfam.{layer}") for layer in LAYERS]
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "expfam"]
        replaced = {}
        for layer, mod in zip(LAYERS, layers):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for meth, fn in list(vars(cls).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    wrapper = self.wrap(f"{layer}.{cls_name}.{meth}", fn)
                    setattr(cls, meth, wrapper)
                    self._restore.append((cls, meth, fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write the spans and the name table to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            **self.arrays(),
        )


def load_spans(path):
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name_id", "start", "end", "parent", "op")}
        return json.loads(str(data["names"])), json.loads(str(data["counts"])), spans


def span_stats(names, spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.bincount(
        parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.shape[0]
    )
    self_t = dur - child
    nid = spans["name_id"]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    selft = np.bincount(nid, weights=self_t, minlength=k)
    return {
        name: (int(calls[i]), float(total[i]), float(selft[i]))
        for i, name in enumerate(names)
    }


def merge_stats(parts):
    out = {}
    for stats in parts:
        for name, (c, t, s) in stats.items():
            c0, t0, s0 = out.get(name, (0, 0.0, 0.0))
            out[name] = (c0 + c, t0 + t, s0 + s)
    return out


def _shim(argv):
    out, args = argv[0], argv[1:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import expfam.cli

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = expfam.cli.main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(_shim(sys.argv[1:]))
