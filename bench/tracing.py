"""Spans around calls into transferspec's modules, kept in memory.

For a traced run the benchmark replaces each module's public functions,
and the letter gathers of MapWeightSystem, by wrappers that record a span:
name, start, end, parent span and thread. The originals come back when the
run ends, so the library's own files are never changed and an untraced
run pays nothing. Spans from worker threads of a parallel map get the map
as their parent.

A span's self time is its duration minus the part of it that its child
spans cover. Layer metrics sum self times, so nested calls count once;
work on two threads at once counts twice, as busy time.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from statistics import median
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "thread", "group",
                 "info")

    def __init__(self, sid, name, parent, group):
        self.id = sid
        self.name = name
        self.parent = parent
        self.group = group
        self.thread = threading.get_ident()
        self.info = {}
        self.start = perf_counter()
        self.end = None

    def to_dict(self, t0):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "group": self.group, "thread": self.thread,
                "start": self.start - t0, "end": self.end - t0,
                "info": self.info}


# (module, attribute, span name, hook filling span.info from the call)
_TARGETS = (
    ("systems", "make_gauss_system", "systems.build", None),
    ("systems", "system_from_descriptor", "systems.build", None),
    ("systems", "make_system", "systems.build", None),
    ("systems", "validate_system", "systems.validate",
     lambda sp, a, k, out: sp.info.update(grid=int(out.grid_used))),
    ("dynamics", "contraction_details", "dynamics.contraction",
     lambda sp, a, k, out: sp.info.update(evals=int(out.words * out.grid))),
    ("dynamics", "enclosing_radius", "dynamics.enclosing", None),
    ("dynamics", "batch_fixed_points", "dynamics.fixed_points",
     lambda sp, a, k, out: sp.info.update(length=int(a[1].shape[1]))),
    ("dynamics", "fixed_point", "dynamics.fixed_points",
     lambda sp, a, k, out: sp.info.update(sweeps=int(out.iterations))),
    ("dynamics", "batch_orbit", "dynamics.orbit", None),
    ("spectra", "assemble_matrix", "spectra.assemble", None),
    ("spectra", "eigenvalues", "spectra.eig", None),
    ("spectra", "spectral_sequence", "spectra.sequence", None),
    ("determinant", "trace", "determinant.trace",
     lambda sp, a, k, out: sp.info.update(words=int(out.words))),
    ("determinant", "trace_table", "determinant.trace", None),
    ("determinant", "determinant_coefficients", "determinant.newton", None),
    ("determinant", "determinant_zeros", "determinant.zeros", None),
    ("bounds", "verify_bounds", "bounds.verify", None),
)
_GATHERS = ("apply_letters", "derivative_letters", "weight_letters")


class Tracer:
    """Collects spans; `group` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.group = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        sp = Span(next(self._ids), name, parent, self.group)
        stack.append(sp)
        return sp

    def end(self, sp):
        sp.end = perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    def call(self, name, fn, args, kwargs, hook=None, parent=None):
        sp = self.begin(name, parent)
        try:
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(sp, args, kwargs, out)
            return out
        finally:
            self.end(sp)

    @contextmanager
    def span(self, name):
        sp = self.begin(name)
        try:
            yield sp
        finally:
            self.end(sp)

    # -- installing the wrappers ---------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the library's functions for the duration of the block."""
        pkg = sys.modules["transferspec"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "transferspec"
                                         or n.startswith("transferspec."))]
        try:
            for mod, attr, name, hook in _TARGETS:
                orig = getattr(getattr(pkg, mod), attr)
                self._replace(modules, orig, self._wrap(name, orig, hook))
            par = getattr(pkg, "_parallel")
            self._replace(modules, par.map_ordered,
                          self._wrap_map(par.map_ordered))
            systems = getattr(pkg, "systems")
            self._replace([systems], systems._gauss_power_tail,
                          self._wrap_tail(systems._gauss_power_tail))
            cls = systems.MapWeightSystem
            for method in _GATHERS:
                orig = getattr(cls, method)
                self._patched.append((cls, method, orig))
                setattr(cls, method, self._wrap_gather(method, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(self._patched):
                setattr(owner, attr, orig)
            self._patched.clear()

    def _replace(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return traced

    def _wrap_gather(self, method, fn):
        def traced(*args, **kwargs):
            sp = self.begin("systems.gather")
            try:
                return fn(*args, **kwargs)
            finally:
                sp.info["points"] = int(getattr(args[2], "size", 1))
                sp.info["method"] = method
                self.end(sp)
        return traced

    def _wrap_map(self, fn):
        def traced(work, items, threads=1):
            sp = self.begin("parallel.map")
            sp.info.update(threads=max(1, int(threads or 1)), items=len(items))

            def chunk(item):
                return self.call("parallel.chunk", work, (item,), {},
                                 parent=sp.id)
            try:
                return fn(chunk, items, threads)
            finally:
                self.end(sp)
        return traced

    def _wrap_tail(self, factory):
        def traced_factory(*args, **kwargs):
            tail = factory(*args, **kwargs)

            def traced_tail(*targs, **tkwargs):
                return self.call("spectra.power_tail", tail, targs, tkwargs)
            return traced_tail
        return traced_factory


# ---------------------------------------------------------------------------
# from spans to metrics


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_times(spans):
    """Self time summed per span name. A chunk of a parallel map counts
    for the span that called the map."""
    by_id = {sp.id: sp for sp in spans}
    kids = {}
    for sp in spans:
        kids.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        inside = [(max(c.start, sp.start), min(c.end, sp.end))
                  for c in kids.get(sp.id, ())]
        own = (sp.end - sp.start) - _covered(
            [iv for iv in inside if iv[1] > iv[0]])
        name = sp.name
        if name == "parallel.chunk":
            caller = by_id.get(by_id[sp.parent].parent) \
                if sp.parent in by_id else None
            name = caller.name if caller is not None else "parallel.map"
        out[name] = out.get(name, 0.0) + own
    return dict(sorted(out.items()))


def pass_metrics(spans):
    """Per-layer metrics of the spans of one pass."""
    selfs = layer_self_times(spans)

    def incl(name):
        return sum(sp.end - sp.start for sp in spans if sp.name == name)

    def info_sum(name, key):
        return sum(sp.info.get(key, 0) for sp in spans if sp.name == name)

    # a batch sweep applies every letter of the words once
    applies = {}
    for sp in spans:
        if sp.info.get("method") == "apply_letters":
            applies[sp.parent] = applies.get(sp.parent, 0) + 1
    sweeps = info_sum("dynamics.fixed_points", "sweeps") + sum(
        applies.get(sp.id, 0) // sp.info["length"]
        for sp in spans if "length" in sp.info)
    traces = [sp for sp in spans
              if sp.name == "determinant.trace" and "words" in sp.info]
    trace_wall = sum(sp.end - sp.start for sp in traces)
    words = sum(sp.info["words"] for sp in traces)
    maps = [sp for sp in spans if sp.name == "parallel.map"]
    capacity = sum((sp.end - sp.start) * sp.info["threads"] for sp in maps)
    busy = sum(sp.end - sp.start for sp in spans
               if sp.name == "parallel.chunk")
    grids = [sp.info["grid"] for sp in spans if sp.name == "systems.validate"]
    return {
        "cli.validate_s": incl("cli.validate"),
        "cli.spectrum_s": incl("cli.spectrum"),
        "cli.bounds_s": incl("cli.bounds"),
        "cli.determinant_s": incl("cli.determinant"),
        "systems.validate_s": selfs.get("systems.validate", 0.0),
        "systems.validate_grid": max(grids, default=0),
        "systems.gather_s": selfs.get("systems.gather", 0.0),
        "systems.gather_points": info_sum("systems.gather", "points"),
        "dynamics.contraction_s": selfs.get("dynamics.contraction", 0.0),
        "dynamics.contraction_evals": info_sum("dynamics.contraction",
                                               "evals"),
        "dynamics.enclosing_s": selfs.get("dynamics.enclosing", 0.0),
        "dynamics.fixed_points_s": selfs.get("dynamics.fixed_points", 0.0),
        "dynamics.fixed_point_sweeps": sweeps,
        "dynamics.orbit_s": selfs.get("dynamics.orbit", 0.0),
        "spectra.assemble_s": selfs.get("spectra.assemble", 0.0),
        "spectra.power_tail_s": selfs.get("spectra.power_tail", 0.0),
        "spectra.eig_s": selfs.get("spectra.eig", 0.0),
        "determinant.trace_s": selfs.get("determinant.trace", 0.0),
        "determinant.words": words,
        "determinant.words_per_s": words / trace_wall if trace_wall else 0.0,
        "determinant.newton_s": selfs.get("determinant.newton", 0.0),
        "determinant.zeros_s": selfs.get("determinant.zeros", 0.0),
        "bounds.verify_s": selfs.get("bounds.verify", 0.0),
        "parallel.utilization": busy / capacity if capacity else 0.0,
    }


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
