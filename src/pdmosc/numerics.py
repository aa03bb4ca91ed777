"""Self-contained numerical kernel: error function, adaptive Gauss-Kronrod
quadrature on finite and semi-infinite intervals, guarded series summation,
and Richardson-extrapolated numerical differentiation.

Everything here is pure and deterministic; no shared mutable state.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainEdge, NonConvergence, NonDecaying

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for adaptive routines.

    rel/abs must not both be zero; convergence means the error estimate is
    below max(abs, rel*|result|).  max_evals caps function evaluations.
    """

    rel: float = 1e-12
    abs: float = 0.0
    max_evals: int = 200_000

    def __post_init__(self):
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.rel == 0 and self.abs == 0:
            raise ValueError("rel and abs tolerance cannot both be zero")
        if self.max_evals < 15:
            raise ValueError("max_evals must be at least 15")

    def target(self, value: float) -> float:
        return max(self.abs, self.rel * abs(value))


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its (upper-bound style) error estimate."""

    value: float
    error_estimate: float
    evals: int


# ---------------------------------------------------------------------------
# Error function family
# ---------------------------------------------------------------------------

def _erf_series(x: float) -> float:
    """erf via the all-positive-terms series, accurate for |x| <~ 3.

    erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_k (2x^2)^k / (2k+1)!!
    """
    x2 = x * x
    term = 1.0
    s = 1.0
    k = 0
    while True:
        k += 1
        term *= 2.0 * x2 / (2 * k + 1)
        s += term
        if term < 1e-17 * s:
            break
        if k > 300:  # unreachable for |x| <= 3
            break
    return (2.0 / _SQRT_PI) * x * math.exp(-x2) * s


def _erfcx_cf(x: float) -> float:
    """Scaled complementary error function via the Laplace continued fraction.

    sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    Accurate to machine precision for x >= 2.
    """
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for i in range(1, 400):
        ai = 0.5 * i
        d = x + ai * d
        if d == 0.0:
            d = tiny
        c = x + ai / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return 1.0 / (_SQRT_PI * f)


def erf(x: float) -> float:
    """Standard error function; absolute error <= 1e-14 on |x| <= 6."""
    if x != x:
        return x
    ax = abs(x)
    if ax >= 6.0:
        return 1.0 if x > 0 else -1.0
    if ax < 2.0:
        return _erf_series(x)
    v = 1.0 - math.exp(-ax * ax) * _erfcx_cf(ax)
    return v if x > 0 else -v


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x)."""
    if x >= 2.0:
        return _erfcx_cf(x)
    if x >= 0.0:
        return math.exp(x * x) * (1.0 - _erf_series(x))
    return 2.0 * math.exp(x * x) - erfcx(-x)


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x), accurate into the far tail."""
    if x >= 2.0:
        return math.exp(-x * x) * _erfcx_cf(x)
    if x >= -2.0:
        return 1.0 - erf(x)
    return 2.0 - math.exp(-x * x) * _erfcx_cf(-x)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss-Legendre, nodes on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss weights attach to the odd-index Kronrod nodes.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _one_row(f):
    """f(x) of one array-valued integrand as the row-family integrand of a
    single row; a scalar-valued f fails the reshape with ValueError."""
    return lambda x, rows: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)


_kronrod_dot = _WGK.dot


def _gk15(fx: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod panels from their node values: fx holds one panel's 15
    values per row, half the panels' half-widths.  Returns the Kronrod
    values (list) and the error estimates (array).  Each panel's results
    depend on its own row only, never on the batch it is evaluated in."""
    # Each Kronrod sum stays its own 15-term dot product.  A matrix-vector
    # product (fx @ _WGK) accumulates in another order and moves the last
    # bit of panel values; the second-difference C_s oracle magnifies that
    # by ~1e8, past the atlas tolerance.  The Gauss and |f| sums only feed
    # the error estimate, so they are vectorised, as sequential running
    # sums: BLAS gemv rounds a row differently depending on the batch size.
    resk = [h * float(_kronrod_dot(row)) for h, row in zip(half.tolist(), fx)]
    resg = half * np.add.accumulate(fx[:, 1::2] * _WG, axis=1)[:, -1]
    resabs = half * np.add.accumulate(np.abs(fx * _WGK), axis=1)[:, -1]
    diff = np.abs(np.array(resk) - resg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = 200.0 * diff / resabs
        err = resabs * np.fmin(1.0, ratio * np.sqrt(ratio))
    err = np.where(resabs > 0.0, np.maximum(err, 50.0 * _EPS * resabs), diff)
    return resk, err


def _adaptive_rows(g, nrows: int, lo: float, hi: float,
                   tol: Tolerance) -> list[QuadratureResult]:
    """Adaptive bisection with an embedded 15-point Gauss-Kronrod rule, run
    in lockstep over nrows integrands on [lo, hi].

    g(x, rows) evaluates integrand rows[j] at the nodes x[j] (rows is an
    int array, x has shape (len(rows), m)).  Each row keeps its own panel
    heap, totals and evaluation budget; every step, each unconverged row
    bisects its worst panel and all new nodes go through one call of g.
    A row that exhausts tol.max_evals raises NonConvergence.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = g(np.tile(mid + half * _XGK, (nrows, 1)), np.arange(nrows))
    vals, errs = _gk15(fx, np.full(nrows, half))
    # per row: heap of (-error, seq, lo, hi, value, error), worst panel on top
    heaps = [[(-e, 0, lo, hi, v, e)] for v, e in zip(vals, errs.tolist())]
    total_val = vals
    total_err = errs.tolist()
    evals = [15] * nrows
    tick = itertools.count(1)  # heap tie-break: insertion order within each row
    active = [r for r in range(nrows) if total_err[r] > tol.target(total_val[r])]
    while active:
        popped, ends = [], []
        for r in active:
            if evals[r] + 30 > tol.max_evals:
                raise NonConvergence(
                    f"quadrature error {total_err[r]:.3e} above tolerance "
                    f"after {evals[r]} evaluations")
            _, _, a, b, v, e = heapq.heappop(heaps[r])
            m = 0.5 * (a + b)
            popped.append((a, m, b, v, e))
            ends += (a, m, m, b)
        ends = np.array(ends).reshape(-1, 2)
        half = 0.5 * (ends[:, 1] - ends[:, 0])
        mid = 0.5 * (ends[:, 1] + ends[:, 0])
        x = (mid[:, None] + half[:, None] * _XGK).reshape(len(active), 30)
        vals, errs = _gk15(g(x, np.array(active)).reshape(-1, 15), half)
        errs = errs.tolist()
        for j, (r, (a, m, b, v, e)) in enumerate(zip(active, popped)):
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            evals[r] += 30
            total_val[r] += v1 + v2 - v
            total_err[r] += e1 + e2 - e
            heapq.heappush(heaps[r], (-e1, next(tick), a, m, v1, e1))
            heapq.heappush(heaps[r], (-e2, next(tick), m, b, v2, e2))
        active = [r for r in active if total_err[r] > tol.target(total_val[r])]
    return [QuadratureResult(v, e, n) for v, e, n in zip(total_val, total_err, evals)]


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: Tolerance = Tolerance()) -> QuadratureResult:
    """Adaptive bisection with an embedded 15-point Gauss-Kronrod rule.

    f must be array-valued: it maps an array of nodes to the array of its
    values, elementwise.
    Raises NonConvergence when tol.max_evals evaluations are exhausted
    before the summed error estimate meets the tolerance.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)
    return _adaptive_rows(_one_row(f), 1, lo, hi, tol)[0]


_TAIL_PROBES = (0.90, 0.93, 0.96, 0.99)


def integrate_semi_infinite_batch(f, nrows: int, lo: float,
                                  tol: Tolerance = Tolerance()) -> list[QuadratureResult]:
    """Integrate nrows integrands over [lo, inf) in one lockstep adaptive
    run; row r of the result is exactly integrate_semi_infinite of
    integrand r alone.

    f(n, rows) evaluates integrand rows[j] at n[j] for an int array rows
    and n of shape (len(rows), m).  Raises NonDecaying or NonConvergence
    as the single-row call of the first failing row would.
    """
    t = np.array(_TAIL_PROBES)
    probes = np.abs(f(np.tile(lo + t / (1.0 - t), (nrows, 1)), np.arange(nrows)))
    if np.all(probes[:, 1:] > probes[:, :-1], axis=1).any():
        raise NonDecaying("integrand increases along the tail of the transform")

    def g(t, rows):
        w = 1.0 - t
        return f(lo + t / w, rows) / (w * w)

    return [QuadratureResult(r.value, r.error_estimate, r.evals + len(_TAIL_PROBES))
            for r in _adaptive_rows(g, nrows, 0.0, 1.0, tol)]


def integrate_semi_infinite(f: Callable[[float], float], lo: float,
                            tol: Tolerance = Tolerance()) -> QuadratureResult:
    """Integrate f over [lo, inf) via the map n = lo + t/(1-t), t in [0, 1).

    Requires f to decay faster than 1/n^2; raises NonDecaying when the
    sampled values increase across the last decade of the map.
    """
    return integrate_semi_infinite_batch(_one_row(f), 1, lo, tol)[0]


# ---------------------------------------------------------------------------
# Guarded series summation
# ---------------------------------------------------------------------------

def sum_decaying(term: Callable[[int], float], tail_bound: Callable[[int], float],
                 tol: Tolerance = Tolerance()) -> float:
    """Sum term(0) + term(1) + ... until the caller's rigorous tail bound
    certifies the truncation error below tolerance.

    tail_bound(N) must bound sum_{n>N} term(n) from above.  Terms are
    accumulated with Kahan compensation so the rounding error stays at
    machine level regardless of term count (the derivative engine
    differentiates these sums and is sensitive to evaluation noise).
    """
    s = 0.0
    comp = 0.0
    for n in range(tol.max_evals):
        y = term(n) - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if n < 16 or (n & 7) == 7:
            if tail_bound(n) <= tol.target(s):
                return s
    raise NonConvergence(
        f"series tail bound not met within {tol.max_evals} terms")


# ---------------------------------------------------------------------------
# Numerical differentiation
# ---------------------------------------------------------------------------

def stencil(x: float, order: int, scale: float,
            positive_only: bool = False) -> tuple[float, list[float]]:
    """Step h and abscissae of the derivative stencil at x: the pairs
    x +- 4h, x +- 2h, x +- h in that order, preceded by x itself for
    order 2.

    The step is scale*eps^(1/5) (order 1) or scale*eps^(1/6) (order 2):
    the optimal truncation/roundoff balance for the twice
    Richardson-extrapolated stencil, whose truncation error is O(h^6) --
    the familiar eps^(1/3), eps^(1/4) exponents are the optima of the bare
    stencil and leave ~100x more roundoff noise here.  The two refinement
    levels extrapolate over the doubled steps 2h and 4h so the optimal h
    stays the smallest one used.  With positive_only, refuses stencils
    reaching x - 4h <= 0.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if scale <= 0:
        raise ValueError("scale must be positive")
    h = scale * (_EPS ** 0.2 if order == 1 else _EPS ** (1.0 / 6.0))
    if positive_only and x - 4.0 * h <= 0.0:
        raise DomainEdge(f"stencil of width {4 * h:.3e} leaves the positive domain at x={x:.3e}")
    h2, h4 = 2.0 * h, 4.0 * h
    xs = [x + h4, x - h4, x + h2, x - h2, x + h, x - h]
    return h, ([x] + xs if order == 2 else xs)


def richardson(fx: list[float], order: int, h: float) -> float:
    """First or second derivative from f sampled at the abscissae of
    stencil(), in its order: central differences at steps 4h, 2h and h,
    extrapolated twice."""
    steps = (4.0 * h, 2.0 * h, h)
    if order == 1:
        a0, a1, a2 = [(p - m) / (2.0 * s) for p, m, s in zip(fx[0::2], fx[1::2], steps)]
    else:
        f0 = fx[0]
        a0, a1, a2 = [(p - 2.0 * f0 + m) / (s * s)
                      for p, m, s in zip(fx[1::2], fx[2::2], steps)]
    r0 = (4.0 * a1 - a0) / 3.0
    r1 = (4.0 * a2 - a1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def derivative(f: Callable[[float], float], x: float, order: int,
               scale: float, positive_only: bool = False) -> float:
    """First or second derivative by central differences with two levels of
    Richardson extrapolation, f sampled on the stencil() abscissae."""
    h, xs = stencil(x, order, scale, positive_only)
    return richardson([f(xi) for xi in xs], order, h)
