"""Self-contained numerical kernel: the error function family (erfcx with
its derivatives), float64 error-free arithmetic (e^{-ab}, and the e^{-u}
of the level sums), adaptive Gauss-Kronrod quadrature on finite and
semi-infinite intervals.

Everything here is pure and deterministic; no shared mutable state.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from ._laguerre import NODES, WEIGHTS
from .errors import NonConvergence, NonDecaying

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)


class _Checked:
    """Base of a NamedTuple record whose fields are checked: every instance,
    also one that _make or _replace builds, passes the record's _check, which
    raises ValueError on a bad field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ToleranceFields(NamedTuple):
    rel: float = 1e-12
    abs: float = 0.0
    max_evals: int = 400_000


class Tolerance(_Checked, _ToleranceFields):
    """Accuracy request for adaptive routines.

    rel/abs are finite and must not both be zero; convergence means the
    error estimate is below max(abs, rel*|result|).  max_evals caps the
    function evaluations of each integrand (the quadrature budget).
    """

    __slots__ = ()

    def _check(self):
        if not (0 <= self.rel < math.inf and 0 <= self.abs < math.inf):
            raise ValueError("tolerances must be nonnegative and finite")
        if self.rel == 0 and self.abs == 0:
            raise ValueError("rel and abs tolerance cannot both be zero")
        if self.max_evals < 15:
            raise ValueError("max_evals must be at least 15")

    def target(self, value: float) -> float:
        return max(self.abs, self.rel * abs(value))


class QuadratureResult(NamedTuple):
    """Integrals, (upper-bound style) error estimates, evaluation counts: arrays, one per row."""

    value: np.ndarray
    error_estimate: np.ndarray
    evals: np.ndarray


# ---------------------------------------------------------------------------
# Error function family
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
#: ln 2 = _LN2_HI + _LN2_LO to ~2^-85; j _LN2_HI is exact for |j| < 2^21 (fdlibm's split)
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42feep-1"), float.fromhex("0x1.a39ef35793c76p-33")
#: rows w, wl: e^{-r} = w + wl within 2^-58 on the grid r = i/256, i = -90..90, where
#: w = 1 - r + r^2/2 is exact, with at most 18 significant bits, and wl is the Taylor tail
_R_GRID = np.arange(-90, 91) / 256.0
_EXP_GRID = np.array([(1.0 - _R_GRID) + 0.5 * _R_GRID ** 2, _R_GRID ** 3 * np.polyval(
    [(-1) ** k / math.factorial(k) for k in range(14, 2, -1)], _R_GRID)])


def _split(a):
    """Veltkamp's split a = hi + lo, exact, each half of at most 26 significant bits."""
    hi = _SPLIT * a
    hi -= hi - a
    return hi, a - hi


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and a + b = s + e exactly (Knuth's two-sum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_product(a, b, halves=None):
    """(p, e): p = fl(ab), ab = p + e exactly (Dekker's two-product, Numer. Math. 18
    (1971) 224) where no split overflows (above ~1e300); halves is _split(b) if given."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b) if halves is None else halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def exp_neg_product(a, b, b2=0.0):
    """e^{-a (b + b2)} to within ~1 ulp: b + b2 = s + e_s and a s = p + e exactly
    (_two_sum, _two_product), so e^{-p} (1 - e - a e_s) keeps the |ab| ulp that
    rounding would cost.  Where the split overflows (|a| or |b| above ~1e300),
    e^{-p}; where e^{-p} underflows, +0 (past p ~ 1e16, 1 - e may be negative).
    a, b and b2 may be arrays that broadcast together, elementwise; floats give a
    float."""
    with np.errstate(over="ignore", invalid="ignore"):
        s, e_s = _two_sum(b, b2)
        p, e = _two_product(a, s)
        e += a * e_s
        ep = np.exp(-p)
        out = np.where(np.isfinite(e) & (ep > 0.0), ep * (1.0 - e), ep)
    return out if out.ndim else out.item()


def _exp_neg_parts(p, e):
    """(j, w, wl), e^{-(p + e)} = 2^-j (w + wl) within 2^-58, elementwise, for 0 <= p
    <= 2^14 and |e| <= ulp(p) (past 2^14, j stops growing): p - j ln 2 = i/256 + s
    with |s| <= 2^-9, e^{-i/256} from _EXP_GRID, so w has at most 18 significant bits,
    times 1 + expm1(-s)."""
    j = np.rint(np.minimum(p, 2.0 ** 14) * (1.0 / math.log(2.0)))
    r = p - j * _LN2_HI  # exact
    i = np.rint(r * 256.0)
    w, wl = np.take(_EXP_GRID, (i + 90.0).astype(np.intp), axis=1, mode="clip")
    wl += (w + wl) * np.expm1((i / 256.0 - r) - (e - j * _LN2_LO))
    return j, w, wl


def _elementwise(kernel):
    """kernel, written over a 1-d float array, as an elementwise function:
    an array gives arrays of its shape, a float gives floats.  Each kernel
    below splits its argument by branch and evaluates each branch with
    numpy's elementwise ufuncs and row sums, so no element's bits depend
    on the array around it."""
    @functools.wraps(kernel)
    def call(x):
        x = np.asarray(x, dtype=float)
        out = kernel(x.ravel())
        if isinstance(out, tuple):
            return tuple(o.reshape(x.shape) if x.ndim else o.item() for o in out)
        return out.reshape(x.shape) if x.ndim else out.item()
    return call


def _stdlib(f, x: np.ndarray) -> np.ndarray:
    """math.erf or math.erfc over a 1-d array, element by element: numpy has no erf."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


#: from this x on, erfcx and its derivatives come from the Gauss-Laguerre
#: rule, whose nodes lie far enough from the branch point u = -x^2
_X_RULE = 1.4
_LAG_U = np.array(NODES)
_LAG_W = np.array(WEIGHTS)


@_elementwise
def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), within 5e-16
    relative wherever it does not overflow.  Below x = 1.4 it is
    e^{x^2} math.erfc(x), x^2 carried exactly below 0, where e^{x^2}
    reaches 1e293 by x = -26 (on [0, 1.4) rounding x^2 costs at most
    2.2e-16).  From 1.4 on, u = t^2 + 2xt in
    erfcx(x) = (2/sqrt(pi)) int_0^inf e^{-t^2 - 2xt} dt (DLMF 7.2.2) gives
        erfcx(x) = (1/(sqrt(pi) x)) int_0^inf e^{-u} (1 + u/x^2)^{-1/2} du,
    a fixed 48-point Gauss-Laguerre sum of positive terms w_i/(x^2 + u_i)^{1/2},
    one row sum per element; from 1e8 on (and at NaN) 1/(sqrt(pi) x), as
    1/(2x^2) is below rounding there and x^2 may overflow.  Elementwise
    over an array; a branch without elements costs nothing."""
    out = np.empty_like(x)
    low = x < _X_RULE
    inside = x < 1e8  # beyond, and at NaN, 1/(sqrt(pi) x)
    n_low, n_inside = np.count_nonzero(low), np.count_nonzero(inside)
    if n_low:
        xl = x[low]
        xp = np.maximum(xl, 0.0)  # x < 0, where e^{x^2} may overflow: replaced next
        ex2 = np.exp(xp * xp)
        neg = xl < 0.0
        if np.count_nonzero(neg):  # the exact product costs some 20 array operations
            ex2[neg] = exp_neg_product(-xl[neg], xl[neg])
        out[low] = ex2 * _stdlib(math.erfc, xl)
    if n_inside > n_low:
        rule = inside ^ low  # low lies inside
        xs = x[rule][:, None]
        out[rule] = (_LAG_W * (xs * xs + _LAG_U) ** -0.5).sum(axis=-1) / _SQRT_PI
    if n_inside < len(x):
        far = ~inside
        out[far] = 1.0 / (_SQRT_PI * x[far])
    return out


@_elementwise
def erfcx_derivatives(x):
    """(erfcx(x), erfcx'(x), erfcx''(x)), the first bit for bit erfcx(x).
    Below x = 1.4, erfcx' = 2x erfcx - 2/sqrt(pi) and erfcx'' = 2 erfcx
    + 2x erfcx' (DLMF 7.10); the second cancels ~70-fold near 1.4 (1e-14).
    From 1.4 on, the same rule gives erfcx^(n)(x) = (1/sqrt(pi)) sum_i w_i
    (-2 t_i)^n / r_i, r_i = sqrt(x^2 + u_i), t_i = u_i/(x + r_i):
    terms of one sign (3e-15), where the recurrence would lose ~2x^2 ulp.
    Elementwise over an array."""
    e = erfcx(x)
    with np.errstate(over="ignore", invalid="ignore"):  # x^2 overflows past 1e154
        d1 = 2.0 * x * e - 2.0 / _SQRT_PI
        d2 = 2.0 * e + 2.0 * x * d1
        rule = ~(x < _X_RULE)
        if np.count_nonzero(rule):
            xs = x[rule][:, None]
            r = np.sqrt(xs * xs + _LAG_U)
            t = _LAG_U / (xs + r)
            wt = _LAG_W * t / r
            d1[rule] = -2.0 * wt.sum(axis=-1) / _SQRT_PI
            d2[rule] = 4.0 * (wt * t).sum(axis=-1) / _SQRT_PI
    return e, d1, d2


@_elementwise
def erf(x):
    """Standard error function, math.erf on every element: within 1.5e-16
    relative of 40-digit mpmath on [-8, 8], +-1 from 6 on.  Elementwise."""
    return _stdlib(math.erf, x)


@_elementwise
def erfc(x):
    """Complementary error function 1 - erf(x), math.erfc on every element:
    within 4.4e-16 relative of 40-digit mpmath on [-8, 26.5].  Elementwise."""
    return _stdlib(math.erfc, x)


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


def _gk15(fx: np.ndarray, half: np.ndarray):
    """Kronrod values and error estimates of panels from their node values: fx
    holds each panel's 15 along its last axis, half the half-widths.  Each sum
    runs along the last axis, so each panel's results depend on its own
    values only, never on the batch it is evaluated in."""
    resk = half * (fx * _WGK).sum(axis=-1)
    resg = half * (fx[..., 1::2] * _WG).sum(axis=-1)
    resabs = half * np.abs(fx * _WGK).sum(axis=-1)
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = 200.0 * diff / resabs
        err = resabs * np.fmin(1.0, ratio * np.sqrt(ratio))
    err = np.where(resabs > 0.0, np.maximum(err, 50.0 * _EPS * resabs), diff)
    return resk, err


def _panels(g, rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """[lo, hi, GK15 value, error] per (row j, panel p) of the panels ends[j, 2p:2p + 2]
    of integrand rows[j], all nodes through one call of g (one value for all: ValueError)."""
    half = 0.5 * (ends[:, 1::2] - ends[:, ::2])
    mid = 0.5 * (ends[:, 1::2] + ends[:, ::2])
    x = mid[..., None] + half[..., None] * _XGK
    fx = np.reshape(g(x.reshape(len(rows), 15 * half.shape[1]), rows), x.shape)
    return np.dstack((ends.reshape(half.shape + (2,)), *_gk15(fx, half)))


def _adaptive_rows(g, nrows: int, lo: float, hi: float,
                   tol: Tolerance) -> QuadratureResult:
    """Adaptive bisection with an embedded 15-point Gauss-Kronrod rule, run
    in lockstep over nrows integrands on [lo, hi].

    g(x, rows) evaluates integrand rows[j] at the nodes x[j] (rows is an
    ascending int array, x has shape (len(rows), m)).  The active rows keep
    their panels in one table, oldest first; every step, each unconverged row
    bisects its worst panel (argmax: on a tie the oldest), whose error becomes
    -inf, and all new nodes go through one call of g.  The active rows share
    one evaluation count: past tol.max_evals the first raises NonConvergence.
    So does the first row whose target lies below 50 eps |value|, under the
    error floor 50 eps resabs of _gk15 (QUADPACK's roundoff exit, ier = 2)."""
    active = np.arange(nrows)
    # table[i, p] = (lo, hi, value, error) of panel p of the row at table row i
    table = _panels(g, active, np.tile((lo, hi), (nrows, 1)))
    total_val, total_err = table[:, 0, 2:].T.copy()
    evals = np.full(nrows, 15)
    slot, used = active, 1  # the table row of each active row; panels per active row
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            target = np.fmax(tol.abs, tol.rel * np.abs(total_val[active]))
        still = total_err[active] > target
        active, slot, target = active[still], slot[still], target[still]
        if not active.size:
            return QuadratureResult(total_val, total_err, evals)
        floor = 50.0 * _EPS * np.abs(total_val[active])
        roundoff = (target < floor) & (floor < np.inf)
        # the first row to fail names its reason; a spent budget fails every row at once
        if evals[active[0]] + 30 > tol.max_evals and not roundoff[0]:
            raise NonConvergence(f"quadrature error {total_err[active[0]]:.3e} above "
                                 f"tolerance after {evals[active[0]]} evaluations")
        if roundoff.any():
            i = np.argmax(roundoff)
            raise NonConvergence(f"quadrature target {target[i]:.3e} below the roundoff "
                                 f"floor {floor[i]:.3e} of its error")
        if used + 2 > table.shape[1]:  # double, keeping the active rows only
            table = np.concatenate((table[slot, :used], np.empty((active.size, used + 1, 4))), 1)
            slot = np.arange(active.size)
        worst = np.argmax(table[slot, :used, 3], axis=1)
        a, b, v, e = table[slot, worst].T
        table[slot, worst, 3] = -np.inf
        m = 0.5 * (a + b)
        new = table[slot, used:used + 2] = _panels(g, active, np.stack((a, m, m, b), 1))
        used += 2
        evals[active] += 30
        with np.errstate(over="ignore", invalid="ignore"):
            total_val[active] += (new[:, 0, 2] + new[:, 1, 2]) - v
            total_err[active] += (new[:, 0, 3] + new[:, 1, 3]) - e


_TAIL_PROBES = (0.90, 0.93, 0.96, 0.99)


def integrate_batch(f, nrows: int, lo: float, hi: float,
                    tol: Tolerance = Tolerance()) -> QuadratureResult:
    """Integrate nrows integrands over [lo, hi] in one lockstep adaptive
    run; hi = inf integrates [lo, inf) through the map n = lo + t/(1-t),
    t in [0, 1).  The result holds one array element per row, and element
    r is exactly the single-row call on integrand r alone.

    f(n, rows) evaluates integrand rows[j] at n[j] for an ascending int
    array rows and n of shape (len(rows), m); an f that returns one value for all
    nodes raises ValueError.  On [lo, inf) the integrands must decay
    faster than 1/n^2: NonDecaying is raised when a row's sampled values
    increase across the last decade of the map, or, before any node at t = 1
    is evaluated, when bisection reaches one (a row undecayed by n ~ 9e15).
    NonConvergence is raised as the single-row call of the first failing
    row would.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo == hi:
        return QuadratureResult(np.zeros(nrows), np.zeros(nrows), np.zeros(nrows, dtype=int))
    if hi < math.inf:
        return _adaptive_rows(f, nrows, lo, hi, tol)
    t = np.array(_TAIL_PROBES)
    n = np.tile(lo + t / (1.0 - t), (nrows, 1))
    probes = np.abs(np.reshape(f(n, np.arange(nrows)), n.shape))
    if np.all(probes[:, 1:] > probes[:, :-1], axis=1).any():
        raise NonDecaying("integrand increases along the tail of the transform")

    def g(t, rows):
        w = 1.0 - t
        if not w.all():  # a node at t = 1, n = inf: the map has no resolution left
            raise NonDecaying("integrand not decayed by n = 1/eps, where the map ends")
        return f(lo + t / w, rows) / (w * w)

    res = _adaptive_rows(g, nrows, 0.0, 1.0, tol)
    return QuadratureResult(res.value, res.error_estimate, res.evals + len(_TAIL_PROBES))
