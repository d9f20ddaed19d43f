"""Out-of-program tracer: spans around the public functions of each layer.

The program is not edited.  `Tracer.install` replaces every binding of each
traced function, found by object identity, in every `crosscap4.*` module
namespace and in the class dictionaries of the classes those modules define.
That covers names imported with `from .heegaard import t0`, the lru_cache
wrappers and LaurentPoly methods.  `restore` puts the originals back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time covered by its child spans.

numtheory has no span: it does two modular inverses per pinch step, so
wrapping it (or pinch_step) would cost more than the layer it measures;
`pinch.steps` counts its work instead.
"""

import sys
import time
import tracemalloc


def _points(args, result):
    p, q = args[0], args[1]
    return max(p - 1, 0) * max(q - 1, 0)


# (span name, module, attribute path, size measure over (args, result))
TARGETS = (
    ("cli.main", "crosscap4.cli", "main", None),
    ("reports.report", "crosscap4.reports", "report", None),
    ("reports.emit", "crosscap4.reports", "emit_csv",
     lambda args, result: len(result.encode())),
    ("reports.emit", "crosscap4.reports", "emit_json",
     lambda args, result: len(result.encode())),
    ("pinch.pinch_sequence", "crosscap4.pinch", "pinch_sequence",
     lambda args, result: len(result.steps)),
    ("bounds.gamma4_lower", "crosscap4.bounds", "gamma4_lower", None),
    ("heegaard.t0", "crosscap4.heegaard", "t0", None),
    ("torus.alexander", "crosscap4.torus", "alexander",
     lambda args, result: len(result.terms)),
    ("torus.sigma_rec", "crosscap4.torus", "sigma_rec", None),
    ("torus.sigma_lattice", "crosscap4.torus", "sigma_lattice", _points),
    ("laurent.exact_div", "crosscap4.laurent", "LaurentPoly.exact_div", None),
    ("laurent.t0", "crosscap4.laurent", "LaurentPoly.t0", None),
)

# Spans whose peak traced allocation is recorded.  tracemalloc runs only
# inside these spans, so it does not slow the rest of the traced run.
PEAK_MEMORY = frozenset({"torus.sigma_lattice"})


def _resolve(module, path):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Records spans [name, parent index, start, end, child time, size,
    peak bytes] for the TARGETS functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = []
        self.absent = []

    def install(self):
        wrappers = {}
        for name, module, path, measure in TARGETS:
            fn = _resolve(module, path)
            if fn is None:
                self.absent.append("%s.%s" % (module, path))
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn, measure))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crosscap4" or
                                   mod_name.startswith("crosscap4.")):
                continue
            self._rebind(mod, wrappers)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod_name:
                    self._rebind(value, wrappers)

    def _rebind(self, namespace, wrappers):
        for attr, value in list(vars(namespace).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
                self._bindings.append((namespace, attr, value))

    def restore(self):
        for namespace, attr, value in reversed(self._bindings):
            setattr(namespace, attr, value)
        self._bindings.clear()

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        peak = name in PEAK_MEMORY

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0.0, 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            tracing = peak and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if tracing:
                    rec[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec[2], rec[3] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
            if measure is not None:
                rec[5] = measure(args, result)
            return result

        return traced

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        agg = {}
        for name, _, start, end, child, size, peak in self.spans:
            a = agg.setdefault(name, [0, 0.0, 0.0, 0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child
            a[3] += size
            a[4] = max(a[4], peak)

        def get(name, i):
            return agg.get(name, [0, 0.0, 0.0, 0, 0])[i]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("reports.report", "pinch.pinch_sequence",
                     "bounds.gamma4_lower", "heegaard.t0", "torus.alexander",
                     "torus.sigma_rec", "torus.sigma_lattice",
                     "laurent.exact_div"):
            m[name + ".calls"] = get(name, 0)
            m[name + ".self_s"] = get(name, 2)
        m["reports.emit.self_s"] = get("reports.emit", 2)
        m["reports.emit.bytes"] = get("reports.emit", 3)
        m["pinch.steps"] = get("pinch.pinch_sequence", 3)
        m["pinch.sequences_per_report"] = ratio(
            get("pinch.pinch_sequence", 0), get("reports.report", 0))
        m["heegaard.t0.miss_ratio"] = ratio(
            get("torus.alexander", 0), get("heegaard.t0", 0))
        m["torus.alexander.terms"] = get("torus.alexander", 3)
        m["torus.sigma_lattice.points"] = get("torus.sigma_lattice", 3)
        m["torus.sigma_lattice.peak_mb"] = \
            get("torus.sigma_lattice", 4) / 2 ** 20
        m["laurent.t0.self_s"] = get("laurent.t0", 2)
        m["cli.main.s"] = get("cli.main", 1)
        return m

    def span_records(self):
        """Spans as [name, parent, start, end]; parent -1 for a root."""
        return [rec[:4] for rec in self.spans]
