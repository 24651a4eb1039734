"""Layer tracing for the benchmark's traced run.

The tracer replaces public functions of each layer, at the module
attribute through which their caller reaches them, with wrappers that
record a span (name, start, end, parent span, request id) and a few
counts taken from the call's arguments and result. Spans stay in memory
and are written out when the run ends. The program itself is not
changed; `uninstall` puts every original back.

A span opened on a pool thread that has no open span of its own takes
as parent the innermost span open on the thread that runs the requests,
which is the call that started the pool.
"""

from __future__ import annotations

import importlib
import threading
import time

# Layer prefixes of span and metric names. A layer's self time is its
# spans' wall time minus the part of it their direct child spans cover.
LAYERS = ("ipm", "conic", "vva", "stat", "oep", "pipeline", "scenarios",
          "netmodel")

USEFUL_IPM = ("optimal", "primal infeasible", "dual infeasible")


def _ipm_counts(tr, args, kwargs, res):
    from bessplan import _ipm
    G, A = args[1], args[4]
    dense = G.shape[1] + A.shape[0] <= _ipm._DENSE_LIMIT
    tr.add("ipm.iters", res["iterations"])
    tr.add("ipm.dense_calls" if dense else "ipm.sparse_calls", 1)
    tr.add("ipm.unknown", res["status"] == "unknown")
    tr.add("ipm.useful", res["status"] in USEFUL_IPM)
    tr.add("ipm.nnz", G.nnz + A.nnz)


def _misocp_counts(tr, args, kwargs, res):
    from bessplan.conic import SolverConfig
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    limit = (cfg or SolverConfig()).node_limit
    tr.add("conic.bb_nodes", res.iterations)
    tr.add("conic.node_limit_hits", res.iterations >= limit)


def _vva_counts(tr, args, kwargs, sol):
    tr.add("vva.hours", len(sol.hours))
    tr.add("vva.loose_cones", len(sol.loose_cones))


def _dispatch_counts(tr, args, kwargs, day):
    tr.add("oep.infeasible_days", day.status == "infeasible")


def _event_counts(tr, args, kwargs, sset):
    tr.add("scenarios.events", sum(len(ev) for ev in sset.events or ()))


def _rows_read(tr, args, kwargs, prof):
    tr.add("netmodel.rows", prof.n_hours * len(prof.bus_ids))


def _rows_written(tr, args, kwargs, res):
    prof = args[0]
    tr.add("netmodel.rows", prof.n_hours * len(prof.bus_ids))


# (module, attribute, span name, count hook). "Class.method" attributes
# are patched on the class. Names are the ones the callers look up:
# pipeline imports most stage functions into its own namespace, conic
# reaches the kernel as _ipm.conelp, vva and oep import the solver
# entry points, stat and oep call dispatch/screening helpers directly.
WRAPS = (
    ("bessplan._ipm", "conelp", "ipm.conelp", _ipm_counts),
    ("bessplan.conic", "ConicProgram.seal", "conic.seal", None),
    ("bessplan.conic", "max_residual", "conic.residual", None),
    ("bessplan.vva", "solve_relaxation", "conic.relax", None),
    ("bessplan.oep", "solve_misocp", "conic.misocp", _misocp_counts),
    ("bessplan.pipeline", "run_vva", "vva.run", _vva_counts),
    ("bessplan.stat", "run_vva", "vva.run", _vva_counts),
    ("bessplan.pipeline", "sensitivities", "stat.sens", None),
    ("bessplan.pipeline", "daily_metrics", "stat.select", None),
    ("bessplan.pipeline", "normalize_and_score", "stat.select", None),
    ("bessplan.pipeline", "rank_windows", "stat.select", None),
    ("bessplan.pipeline", "select_worst_window", "stat.select", None),
    ("bessplan.pipeline", "peak_severity_hour", "stat.select", None),
    ("bessplan.pipeline", "node_features", "stat.select", None),
    ("bessplan.pipeline", "combined_metric", "stat.select", None),
    ("bessplan.pipeline", "cluster", "stat.select", None),
    ("bessplan.pipeline", "build_pool", "stat.select", None),
    ("bessplan.pipeline", "diversity_filter", "stat.select", None),
    ("bessplan.pipeline", "build_toep", "oep.build", None),
    ("bessplan.pipeline", "solve_plan", "oep.plan", None),
    ("bessplan.pipeline", "dispatch_day", "oep.dispatch", _dispatch_counts),
    ("bessplan.oep", "dispatch_day", "oep.dispatch", _dispatch_counts),
    ("bessplan.pipeline", "validate_plan", "pipeline.validate", None),
    ("bessplan.pipeline", "tou_dispatch", "pipeline.economics", None),
    ("bessplan.pipeline", "savings_report", "pipeline.economics", None),
    ("bessplan.pipeline", "emit_reports", "pipeline.emit", None),
    ("bessplan.pipeline", "synth_households", "scenarios.fit", None),
    ("bessplan.pipeline", "extract_ev_load", "scenarios.fit", None),
    ("bessplan.pipeline", "detect_events", "scenarios.fit", None),
    ("bessplan.pipeline", "fit_event_distributions", "scenarios.fit", None),
    ("bessplan.pipeline", "generate_annual", "scenarios.generate",
     _event_counts),
    ("bessplan.pipeline", "overlay_penetration", "scenarios.overlay", None),
    ("bessplan.pipeline", "write_scenarios", "scenarios.write", None),
    ("bessplan.pipeline", "write_distributions", "scenarios.write", None),
    ("bessplan.pipeline", "load_network", "netmodel.parse", None),
    ("bessplan.netmodel", "LoadProfileSet.from_csv", "netmodel.parse",
     _rows_read),
    ("bessplan.netmodel", "LoadProfileSet.to_csv", "netmodel.write",
     _rows_written),
)

REQUEST_SPAN = "pipeline.request"

# per-layer metric -> unit, in report order; see Tracer.metrics
PER_LAYER = {
    "ipm.calls": "count", "ipm.iters": "count", "ipm.s": "s",
    "ipm.s_per_iter": "s", "ipm.dense_calls": "count",
    "ipm.sparse_calls": "count", "ipm.unknown": "count",
    "ipm.useful_ratio": "ratio", "ipm.nnz": "nnz_computed",
    "ipm.self_s": "s",
    "conic.seal_s": "s", "conic.residual_s": "s", "conic.relax_calls": "count",
    "conic.relax_s": "s", "conic.misocp_calls": "count",
    "conic.misocp_s": "s", "conic.bb_nodes": "count",
    "conic.node_limit_hits": "count", "conic.self_s": "s",
    "vva.run_s": "s", "vva.self_s": "s", "vva.hours": "count",
    "vva.loose_cones": "count",
    "stat.sens_s": "s", "stat.sens_solves": "count", "stat.select_s": "s",
    "stat.self_s": "s",
    "oep.build_s": "s", "oep.plan_s": "s", "oep.dispatch_days": "count",
    "oep.dispatch_s": "s", "oep.infeasible_days": "count",
    "oep.self_s": "s",
    "pipeline.validate_s": "s", "pipeline.economics_s": "s",
    "pipeline.rounds": "count", "pipeline.emit_s": "s",
    "pipeline.self_s": "s",
    "scenarios.fit_s": "s", "scenarios.generate_s": "s",
    "scenarios.events": "count", "scenarios.overlay_s": "s",
    "scenarios.write_s": "s", "scenarios.self_s": "s",
    "netmodel.parse_s": "s", "netmodel.rows": "count",
    "netmodel.write_s": "s", "netmodel.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

# span-time metrics: metric -> span name whose durations it sums
SPAN_TIME = {
    "ipm.s": "ipm.conelp", "conic.seal_s": "conic.seal",
    "conic.residual_s": "conic.residual", "conic.relax_s": "conic.relax",
    "conic.misocp_s": "conic.misocp", "vva.run_s": "vva.run",
    "stat.sens_s": "stat.sens", "stat.select_s": "stat.select",
    "oep.build_s": "oep.build", "oep.plan_s": "oep.plan",
    "oep.dispatch_s": "oep.dispatch",
    "pipeline.validate_s": "pipeline.validate",
    "pipeline.economics_s": "pipeline.economics",
    "pipeline.emit_s": "pipeline.emit",
    "scenarios.fit_s": "scenarios.fit",
    "scenarios.generate_s": "scenarios.generate",
    "scenarios.overlay_s": "scenarios.overlay",
    "scenarios.write_s": "scenarios.write",
    "netmodel.parse_s": "netmodel.parse", "netmodel.write_s": "netmodel.write",
}

# span-count metrics: metric -> span name whose occurrences it counts
SPAN_COUNT = {
    "ipm.calls": "ipm.conelp", "conic.relax_calls": "conic.relax",
    "conic.misocp_calls": "conic.misocp", "oep.dispatch_days": "oep.dispatch",
    "pipeline.rounds": "pipeline.validate",
}


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, request]
        self.counts = {}
        self.request = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = None          # span stack of the requesting thread
        self._patches = []

    # -- recording -------------------------------------------------------

    def add(self, key, amount):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._main is None:
                self._main = stack
        return stack

    def call(self, name, fn, hook, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main:
            parent = self._main[-1]
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.request])
        stack.append(sid)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        finally:
            stack.pop()
            self.spans[sid][2] = time.perf_counter()

    # -- patching --------------------------------------------------------

    def install(self):
        for modname, attr, name, hook in WRAPS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(raw, name, hook))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, raw, name, hook):
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        def traced(*args, **kwargs):
            return self.call(name, fn, hook, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return classmethod(traced) if is_cm else traced

    # -- reduction -------------------------------------------------------

    def span_records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "request": r}
                for i, (n, s, e, p, r) in enumerate(self.spans)]

    def self_times(self):
        """Per-layer sum of span wall time not covered by child spans."""
        kids = {}
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                kids.setdefault(parent, []).append(i)
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered = _union(
                [(max(start, self.spans[k][1]), min(end, self.spans[k][2]))
                 for k in kids.get(i, ())])
            out[name.split(".")[0]] += (end - start) - covered
        return out

    def metrics(self):
        """{metric: value} for every PER_LAYER metric.

        trace.overhead_s needs an untraced run of the same requests and
        is left at 0 for the caller to fill in.
        """
        values = dict.fromkeys(PER_LAYER, 0)
        total = {}
        count = {}
        for name, start, end, _, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
        values.update((m, total.get(span, 0.0))
                      for m, span in SPAN_TIME.items())
        values.update((m, count.get(span, 0))
                      for m, span in SPAN_COUNT.items())
        values.update((k, v) for k, v in self.counts.items() if k in values)
        calls, iters = values["ipm.calls"], values["ipm.iters"]
        values["ipm.s_per_iter"] = values["ipm.s"] / iters if iters else 0.0
        values["ipm.useful_ratio"] = \
            self.counts.get("ipm.useful", 0) / calls if calls else 0.0
        values["stat.sens_solves"] = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "vva.run" and parent is not None
            and self.spans[parent][0] == "stat.sens")
        for layer, s in self.self_times().items():
            values[f"{layer}.self_s"] = s
        values["trace.spans"] = len(self.spans)
        return values


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    reach = None
    for s, e in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if reach is None or s > reach:
            covered += e - s
            reach = e
        elif e > reach:
            covered += e - reach
            reach = e
    return covered
