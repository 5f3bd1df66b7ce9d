import heapq
import math

import numpy as np
import pytest

from lyaplab.quadrature import (_GAUSS_IDX, _WG, _WK, _XK, QuadResult, adaptive_quadrature,
                                gauss_legendre_rule)


def test_polynomial_is_exact():
    res = adaptive_quadrature(lambda x: 3 * x ** 2, 0.0, 2.0, tol=1e-12)
    assert abs(res.value - 8.0) < 1e-13


def test_weight_style_integral():
    f = lambda t: (1 - t * t) / (t ** 4 + 6 * t * t + 1)
    res = adaptive_quadrature(f, -1.0, 1.0, tol=1e-12)
    assert abs(res.value - math.pi / 4) < 1e-12
    assert res.error >= abs(res.value - math.pi / 4)


def test_kinked_integrand_error_estimate_is_honest():
    f = lambda x: np.sqrt(np.abs(x - 0.3))
    exact = ((1 - 0.3) ** 1.5 + (0.3 + 1) ** 1.5) * 2 / 3
    res = adaptive_quadrature(f, -1.0, 1.0, tol=1e-10, max_panels=2000)
    assert abs(res.value - exact) <= max(res.error, 2e-10)


def test_log_singularity():
    res = adaptive_quadrature(lambda x: np.log(np.abs(x) + 1e-300), 0.0, 1.0,
                              tol=1e-9, max_panels=2000)
    assert abs(res.value + 1.0) < 1e-7


def test_stderr_folding():
    f = lambda x: (np.ones_like(x), 0.01 * np.ones_like(x))
    res = adaptive_quadrature(f, 0.0, 1.0, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-13
    # folded statistical error: integral of 0.01 over the interval
    assert abs(res.error - 0.01) < 1e-3


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)


def test_gauss_legendre_constants_and_moments():
    x, w = gauss_legendre_rule(8, -0.3, 0.3)
    assert abs(w.sum() - 0.6) < 1e-14
    assert abs(np.dot(w, x ** 2) - 0.3 ** 3 * 2 / 3) < 1e-15


# ---------------------------------------------------------------------------
# the batched passes against the one-panel-per-call loop


def _per_panel_quadrature(f, a, b, tol=1e-9, min_panels=8, max_panels=512, break_at=()):
    """Reference: adaptive_quadrature with one integrand call per panel."""

    def eval_panel(u, v):
        half = 0.5 * (v - u)
        mid = 0.5 * (u + v)
        out = f(mid + half * _XK)
        if isinstance(out, tuple):
            vals, errs = out
            stderr = float(np.dot(np.abs(_WK), np.asarray(errs, dtype=float))) * half
        else:
            vals = out
            stderr = 0.0
        vals = np.asarray(vals, dtype=float)
        k15 = float(np.dot(_WK, vals)) * half
        g7 = float(np.dot(_WG, vals[_GAUSS_IDX])) * half
        return k15, abs(k15 - g7), stderr

    edges = np.linspace(a, b, min_panels + 1)
    interior = [x for x in break_at if a + 1e-14 < x < b - 1e-14]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    min_panels = len(edges) - 1
    heap = []
    nodes = 0
    for i in range(min_panels):
        val, err, se = eval_panel(edges[i], edges[i + 1])
        nodes += 15
        heapq.heappush(heap, (-err, edges[i], edges[i + 1], val, se))
    panels = min_panels
    while True:
        quad_err = -sum(item[0] for item in heap)
        if quad_err <= tol or panels >= max_panels:
            break
        _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for (u, v) in ((lo, mid), (mid, hi)):
            val, err, se = eval_panel(u, v)
            nodes += 15
            heapq.heappush(heap, (-err, u, v, val, se))
        panels += 1
    coarse = sum(item[3] for item in heap)
    refined = 0.0
    est = 0.0
    stderr = 0.0
    for _, lo, hi, _, _ in heap:
        mid = 0.5 * (lo + hi)
        for (u, v) in ((lo, mid), (mid, hi)):
            val, err, se = eval_panel(u, v)
            nodes += 15
            refined += val
            est += err
            stderr += se
    floor = 5e-14 * (1.0 + abs(refined))
    error = max(est, abs(refined - coarse), floor) + stderr
    return QuadResult(value=refined, error=error, nodes_used=nodes, panels=2 * panels)


BATCH_CASES = {
    "vector": (lambda x: np.sqrt(np.abs(x - 0.3)), -1.0, 1.0,
               dict(tol=1e-10, max_panels=2000)),
    "stderrs": (lambda x: (np.exp(x) * np.sin(25 * x), 1e-3 * np.abs(np.cos(3 * x))), 0.0, 2.0,
                dict(tol=1e-11)),
    "break_at": (lambda x: np.sqrt(np.abs(x - 0.3)) + np.abs(x + 0.45), -1.0, 1.0,
                 dict(tol=1e-12, break_at=(0.3, -0.45, 1.0))),
    "panel_cap": (lambda x: np.log(np.abs(x) + 1e-300), 0.0, 1.0,
                  dict(tol=1e-12, max_panels=12)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_passes_match_per_panel_reference(case):
    f, a, b, kwargs = BATCH_CASES[case]
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    got = adaptive_quadrature(counted, a, b, **kwargs)
    want = _per_panel_quadrature(f, a, b, **kwargs)
    assert (got.value, got.error, got.nodes_used, got.panels) == \
        (want.value, want.error, want.nodes_used, want.panels)
    initial = 8 + sum(a < x < b for x in kwargs.get("break_at", ()))
    splits = got.panels // 2 - initial
    assert splits > 0
    assert len(calls) == 2 + splits
    assert sum(calls) == got.nodes_used
    assert calls[0] == 15 * initial and set(calls[1:-1]) == {30}
    if case == "panel_cap":
        assert got.panels == 2 * kwargs["max_panels"]
