"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public entry points in FUNCTIONS and
METHODS with wrappers that record one span per call, and puts the originals
back on exit.  A function is patched under every name any lyaplab module
binds it to, because callers look it up there (`lyaplab.search.phi` is the
same function as `lyaplab.regularize.phi`).  `adaptive_quadrature` also wraps
the integrand it is handed, so quadrature self time excludes the integrand.

A span is `[name, start, end, parent, task, attrs]`: `parent` indexes the
enclosing span (-1 at the top), `task` is the task id set by the caller, and
`attrs` holds the counts taken from the call's arguments and result.  Spans
stay in memory; `layer_metrics` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# 2x2 complex128 product per factor: 8 complex multiplies (6 flops each) and
# 4 complex adds (2 flops each); one factor is 4 complex128 entries.
FLOPS_PER_STEP = 8 * 6 + 4 * 2
BYTES_PER_STEP = 4 * 16

FALLBACK_SCALE = 1e-10     # thouless_lyapunov's model-accuracy test


def _span_name(module: str, *attrs: str) -> str:
    return ".".join((module[len("lyaplab."):],) + attrs)


def _schrodinger_batch(args, kwargs, out):
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    parts = entries if isinstance(entries, list) else [entries]
    return {"lanes": int(np.shape(parts[0])[0]),
            "lane_steps": int(sum(np.size(p) for p in parts))}


def _general_batch(args, kwargs, out):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    mats = args[0].mat_ev
    if mats.kind == "periodic":
        per_lane = sum(len(m) for m in mats.orbit_mats)
    else:
        per_lane = mats.n * (mats.samples if mats.kind == "monte_carlo" else 1)
    return {"lanes": len(zs), "lane_steps": len(zs) * per_lane}


def _discriminant(args, kwargs, out):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["energy"]))}


def _ids(args, kwargs, out):
    fallback = 0
    for k in range(out.n):
        a, b = out.edges[2 * k], out.edges[2 * k + 1]
        scale = 1.0 + abs(a) + abs(b)
        if b - a >= 1e-13 and out.model_errors and out.model_errors[k] > FALLBACK_SCALE * scale:
            fallback += 1
    return {"bands": out.n, "fallback_bands": fallback}


def _search(kind):
    def attrs(args, kwargs, out):
        stages = [t["stage"] for t in out.trace]
        evals = sum(s in ("w_axis", "w_restart", "a_axis") for s in stages)
        return {"phi_evals": evals, f"phi_evals_{kind}": evals,
                "detections": int("w_found" in stages or "t_scan" in stages),
                "verify_calls": stages.count("verify"), "found": int(out.found)}
    return attrs


# (module, attribute, group, attrs): spans are named "<module>.<attribute>"
# and summed by group
FUNCTIONS = [
    ("lyaplab.cocycles", "lyapunov_periodic_exact", "cocycles.scalar", None),
    ("lyaplab.cocycles", "lyapunov_birkhoff", "cocycles.scalar", None),
    ("lyaplab.cocycles", "best_lyapunov", "cocycles.scalar", None),
    ("lyaplab.regularize", "phi", "regularize.phi", None),
    ("lyaplab.regularize", "phi_boundary", "regularize.phi", None),
    ("lyaplab.regularize", "poisson_check", "regularize.phi", None),
    ("lyaplab.regularize", "phi_general", "regularize.phi", None),
    ("lyaplab.regularize", "analyticity_probe", "regularize.probe", None),
    ("lyaplab.quadrature", "adaptive_quadrature", "quadrature", None),
    ("lyaplab.spectral", "discriminant", "spectral.discriminant", _discriminant),
    ("lyaplab.spectral", "ids", "spectral.ids", _ids),
    ("lyaplab.spectral", "thouless_lyapunov", "spectral.thouless", None),
    ("lyaplab.search", "search_positive_schrodinger", "search", _search("schrodinger")),
    ("lyaplab.search", "search_positive_general", "search", _search("general")),
    ("lyaplab.conefield", "certify_uh", "conefield.certify", None),
]

# (module, class, method, group, attrs)
METHODS = [
    ("lyaplab.cocycles", "SchrodingerFamilyEvaluator", "lyapunov_batch", "cocycles.batch", _schrodinger_batch),
    ("lyaplab.regularize", "GeneralFamilyEvaluator", "lyapunov_batch", "regularize.general_batch", _general_batch),
]

INTEGRAND = "quadrature.integrand"
GROUPS = {INTEGRAND: INTEGRAND}
GROUPS.update({_span_name(mod, attr): group for mod, attr, group, _ in FUNCTIONS})
GROUPS.update({_span_name(mod, cls, meth): group for mod, cls, meth, group, _ in METHODS})
BATCH_GROUPS = ("cocycles.batch", "regularize.general_batch")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.task = None
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()
        if attrs is not None:
            span[5] = attrs(args, kwargs, out)
        return out

    def _wrap(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_quadrature(self, name, fn):
        signature = inspect.signature(fn)

        def attrs(args, kwargs, out):
            max_panels = signature.bind(*args, **kwargs).arguments.get(
                "max_panels", signature.parameters["max_panels"].default)
            return {"nodes": out.nodes_used, "panels": out.panels,
                    "cap_hits": int(out.panels >= 2 * max_panels)}

        def wrapper(f, *args, **kwargs):
            def integrand(x):
                return self.call(INTEGRAND, f, (x,), {})
            return self.call(name, fn, (integrand,) + args, kwargs, attrs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lyaplab" or name.startswith("lyaplab."))]
        try:
            for mod, attr, group, attrs in FUNCTIONS:
                original = getattr(sys.modules[mod], attr)
                name = _span_name(mod, attr)
                wrapper = (self._wrap_quadrature(name, original) if group == "quadrature"
                           else self._wrap(name, original, attrs))
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            restore.append((m, binding, original))
                            setattr(m, binding, wrapper)
            for mod, cls_name, method, group, attrs in METHODS:
                cls = getattr(sys.modules[mod], cls_name)
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method, self._wrap(_span_name(mod, cls_name, method), original, attrs))
            yield self
        finally:
            for owner, binding, original in reversed(restore):
                setattr(owner, binding, original)


def layer_metrics(spans) -> dict:
    """Reduce one pass's spans to per-layer counts and times.

    A group's busy time `<group>.s` sums its outermost spans (those with no
    enclosing span of the same group); its self time sums, over every span,
    the duration minus the time covered by the span's direct children.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, task, attrs in spans:
        if parent >= 0:
            children[parent] += end - start
    groups = [GROUPS[span[0]] for span in spans]
    g = defaultdict(float)
    for i, (name, start, end, parent, task, attrs) in enumerate(spans):
        group = groups[i]
        g[group + ".calls"] += 1
        g[group + ".self_s"] += (end - start) - children[i]
        p = parent
        while p >= 0 and groups[p] != group:
            p = spans[p][3]
        if p < 0:
            g[group + ".s"] += end - start
        for key, value in (attrs or {}).items():
            g[group + "." + key] += value
        if group in BATCH_GROUPS and parent >= 0 and groups[parent] == "search":
            g["search.scan_lanes"] += attrs["lanes"]

    lane_steps = int(g["cocycles.batch.lane_steps"])
    batch_s = g["cocycles.batch.s"]
    search_calls = int(g["search.calls"])
    phi_evals = int(g["search.phi_evals"])
    return {
        "cocycles.batch_calls": int(g["cocycles.batch.calls"]),
        "cocycles.batch_s": batch_s,
        "cocycles.lane_steps": lane_steps,
        "cocycles.lane_steps_per_s": lane_steps / batch_s if batch_s > 0 else 0.0,
        "cocycles.flops_computed": FLOPS_PER_STEP * lane_steps,
        "cocycles.bytes_computed": BYTES_PER_STEP * lane_steps,
        "cocycles.scalar_calls": int(g["cocycles.scalar.calls"]),
        "cocycles.scalar_s": g["cocycles.scalar.s"],
        "regularize.phi_calls": int(g["regularize.phi.calls"]),
        "regularize.phi_s": g["regularize.phi.s"],
        "regularize.phi_self_s": g["regularize.phi.self_s"],
        "regularize.general_batch_calls": int(g["regularize.general_batch.calls"]),
        "regularize.general_batch_s": g["regularize.general_batch.s"],
        "regularize.general_lane_steps": int(g["regularize.general_batch.lane_steps"]),
        "quadrature.calls": int(g["quadrature.calls"]),
        "quadrature.nodes": int(g["quadrature.nodes"]),
        "quadrature.panels": int(g["quadrature.panels"]),
        "quadrature.cap_hits": int(g["quadrature.cap_hits"]),
        "quadrature.integrand_calls": int(g["quadrature.integrand.calls"]),
        "quadrature.self_s": g["quadrature.self_s"],
        "spectral.discriminant_calls": int(g["spectral.discriminant.calls"]),
        "spectral.discriminant_points": int(g["spectral.discriminant.points"]),
        "spectral.discriminant_s": g["spectral.discriminant.s"],
        "spectral.ids_calls": int(g["spectral.ids.calls"]),
        "spectral.ids_s": g["spectral.ids.s"],
        "spectral.ids_bands": int(g["spectral.ids.bands"]),
        "spectral.ids_fallback_bands": int(g["spectral.ids.fallback_bands"]),
        "spectral.thouless_calls": int(g["spectral.thouless.calls"]),
        "spectral.thouless_s": g["spectral.thouless.s"],
        "search.calls": search_calls,
        "search.self_s": g["search.self_s"],
        "search.phi_evals": phi_evals,
        "search.phi_evals_schrodinger": int(g["search.phi_evals_schrodinger"]),
        "search.phi_evals_general": int(g["search.phi_evals_general"]),
        "search.detect_hit_ratio": g["search.detections"] / phi_evals if phi_evals else 0.0,
        "search.scan_lanes": int(g["search.scan_lanes"]),
        "search.verify_calls": int(g["search.verify_calls"]),
        "search.found_ratio": g["search.found"] / search_calls if search_calls else 0.0,
        "conefield.certify_calls": int(g["conefield.certify.calls"]),
        "conefield.certify_s": g["conefield.certify.s"],
        "trace.spans": len(spans),
    }


# counts that must repeat exactly between traced passes and runs of one seed
EXACT_COUNTS = tuple(
    name for name in layer_metrics([])
    if name.endswith("calls") or name in (
        "quadrature.nodes", "quadrature.panels", "cocycles.lane_steps",
        "search.phi_evals", "spectral.ids_fallback_bands", "trace.spans"))
