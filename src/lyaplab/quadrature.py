"""Adaptive Gauss-Kronrod (G7/K15) quadrature with batched integrand evaluation.

The integrand is called with a numpy vector of nodes and returns either a
vector of values or a (values, stderrs) pair; reported per-node statistical
errors are folded into the returned error estimate.  Panel subdivision is
deterministic: the worst panel (ties broken by position) is split first.

One call evaluates the nodes of many panels, so an integrand must treat its
nodes as independent lanes: the value at a node may not depend on the other
nodes of the call.  The batched Lyapunov evaluations reduce each lane on its
own, so they meet this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and the embedded 7-point Gauss weights.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass
class QuadResult:
    value: float
    error: float        # quadrature error estimate plus folded integrand stderr
    nodes_used: int
    panels: int


def _eval_panels(f, spans) -> list[tuple[float, float, float]]:
    """(K15 value, |K15 - G7|, folded stderr) of each panel (a, b) of spans,
    from one call of f on the 15 Kronrod nodes of every panel, laid out panel
    after panel.  Each panel's sums run over its own 15 values only."""
    ab = np.asarray(spans, dtype=float)
    half = 0.5 * (ab[:, 1] - ab[:, 0])
    mid = 0.5 * (ab[:, 0] + ab[:, 1])
    out = f((mid[:, None] + half[:, None] * _XK).ravel())
    vals, errs = out if isinstance(out, tuple) else (out, None)
    # contiguous rows: a strided np.dot sums in another order
    vals = np.ascontiguousarray(vals, dtype=float).reshape(-1, 15)
    if errs is not None:
        errs = np.ascontiguousarray(errs, dtype=float).reshape(-1, 15)
    panels = []
    for i, h in enumerate(half.tolist()):
        k15 = float(np.dot(_WK, vals[i])) * h
        g7 = float(np.dot(_WG, vals[i, _GAUSS_IDX])) * h
        stderr = 0.0 if errs is None else float(np.dot(np.abs(_WK), errs[i])) * h
        # the plain |K15 - G7| difference; sharper models understate the error
        # on integrands with band-edge square-root kinks
        panels.append((k15, abs(k15 - g7), stderr))
    return panels


def _halves(lo: float, hi: float) -> list[tuple[float, float]]:
    mid = 0.5 * (lo + hi)
    return [(lo, mid), (mid, hi)]


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-9,
                        min_panels: int = 8, max_panels: int = 512,
                        break_at=()) -> QuadResult:
    """Integrate a batched integrand over [a, b] to absolute tolerance tol.

    f is called once per pass: once on the nodes of all initial panels, once
    on both children of each split, and once on the whole closing pass.  It
    must treat its nodes as independent lanes, the value at a node not
    depending on the other nodes of the call, so that the result is the one
    a call per panel would give, bit for bit.

    `break_at` lists interior points that become panel boundaries up front;
    callers pass known kink locations there, because a feature that vanishes
    identically on one side of a kink can hide between the nodes of a panel
    that straddles it, invisible to any sampling-based estimate.

    After the subdivision loop converges, every panel is split once more and
    the refined value is returned, with max(estimate, |refined - coarse|) as
    the error: the per-panel |K15 - G7| alone can understate the error near
    square-root kinks, and the a-posteriori difference bounds that honestly.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = np.linspace(a, b, min_panels + 1)
    interior = [x for x in break_at if a + 1e-14 < x < b - 1e-14]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    spans = list(zip(edges[:-1], edges[1:]))
    heap = []
    nodes = 15 * len(spans)
    for (lo, hi), (val, err, se) in zip(spans, _eval_panels(f, spans)):
        # heapq is a min-heap; negate the error to pop the worst panel first.
        heapq.heappush(heap, (-err, lo, hi, val, se))
    panels = len(spans)
    while True:
        quad_err = -sum(item[0] for item in heap)
        if quad_err <= tol or panels >= max_panels:
            break
        _, lo, hi, _, _ = heapq.heappop(heap)
        children = _halves(lo, hi)
        for (u, v), (val, err, se) in zip(children, _eval_panels(f, children)):
            heapq.heappush(heap, (-err, u, v, val, se))
        nodes += 30
        panels += 1
    coarse = sum(item[3] for item in heap)
    closing = [half for _, lo, hi, _, _ in heap for half in _halves(lo, hi)]
    nodes += 15 * len(closing)
    refined = 0.0
    est = 0.0
    stderr = 0.0
    for val, err, se in _eval_panels(f, closing):
        refined += val
        est += err
        stderr += se
    floor = 5e-14 * (1.0 + abs(refined))
    error = max(est, abs(refined - coarse), floor) + stderr
    return QuadResult(value=refined, error=error, nodes_used=nodes, panels=2 * panels)


def gauss_legendre_rule(n: int, a: float, b: float):
    """Gauss-Legendre nodes/weights scaled to [a, b] (tensor factors for the
    convolved functional)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w

