"""Partition function of the deformed oscillator via three routes (level
sums to rounding, closed erf form, quadrature) and the thermodynamic
quantities U, C, S, F.

Two evaluation families coexist deliberately:

* the ground truth takes U = <E> and C = kB beta^2 Var E from exact
  Boltzmann moments in the ground-state gauge, summed over the levels
  (``thermo_sum_engine``, the physical route) or integrated over continuous
  n (``thermo_quadrature``, whose 'quad01' point is the audit's oracle for
  the closed forms).  Both carry the moments in u = beta (E - E_0), and
  both become U, C, S, F in one builder (``_columns``); the integrated ones
  reach it through one assembly (``_assemble``), and their one closed form
  over [0, inf) (``_scaled_moments``) serves the superstat engine and
  Euler-Maclaurin;
* the closed-form evaluators reproduce the typeset expressions for U, C, S,
  F.  Those expressions carry typesetting defects, so each is available in
  two transcriptions: ``verbatim`` (exactly as typeset, including suspected
  typos; may legitimately overflow) and ``corrected`` (the algebraically
  consistent reading).  Fidelity is measured by the verify module, never
  assumed.

The closed erf form of Z equals the integral of exp(-beta*E(n)) over
n in [0, 1] -- not the full sum; ``partition_sum`` is the physical route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularLimit
from .numerics import (_LAG_U, _LAG_W, _X_RULE, Tolerance, erf, erfcx, exp_neg_product,
                       integrate_batch)
from .spectrum import SpectrumCoefficients

_SQRT_PI = math.sqrt(math.pi)

#: at and below this b/a the closed forms are singular; use the sum route
#: instead (a ratio, so that it holds in natural and SI units alike)
B_MIN = 1e-8

TRANSCRIPTIONS = ("verbatim", "corrected")


#: the typeset forms overflow, divide by zero and subtract infinities
#: honestly: numpy's warnings are off inside them
_saturating = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _beta_values(beta) -> np.ndarray:
    """beta (a float or an array) as a float array of at least one
    dimension, every element checked, 0 < beta < inf (NaN fails): the
    closed forms and the batched quadrature evaluate a point as a
    one-element array, so that it rounds through the same numpy loops as a
    curve."""
    bv = np.atleast_1d(np.asarray(beta, dtype=float))
    if not ((bv > 0.0) & (bv < math.inf)).all():
        raise ValueError("beta must be positive and finite")
    return bv


def _shaped(value: np.ndarray, *params):
    """A float where every parameter (beta, q for superstat, and the
    coefficient a) is a float, else the array."""
    return value.item() if all(np.ndim(p) == 0 for p in params) else value


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic state at one beta, produced by one named method: beta
    and each quantity a float.  A point over a curve (of alpha or beta)
    holds the checked beta array and each quantity as an array."""

    beta: float | np.ndarray
    Z: float
    U: float
    C: float
    S: float
    F: float
    method: str


def _point(kind, params, method: str, *fields):
    """kind(*fields, method=method), the point of a ThermoPoint or SuperstatPoint
    builder: each field (the checked beta, q for superstat, then each quantity) a
    float where every parameter (the coefficient a, beta, and q for superstat) is a
    float, else the array.  A field given as a list, one value per transcription
    of a closed point (_transcribed), holds them along a trailing axis."""
    def shaped(f):
        if isinstance(f, list):
            return np.stack([_shaped(v, *params) for v in f], axis=-1)
        return _shaped(f, *params)
    return kind(*map(shaped, fields), method=method)


# ---------------------------------------------------------------------------
# Partition function routes
# ---------------------------------------------------------------------------

def _excitation(a, b, n):
    """D_n = E_n - E_0 = n (a + b (n + 2)), free of the cancellation in
    E_n - E_0; a, b and n may be arrays."""
    return n * (a + b * (n + 2.0))


def _tail_bounds(a, b, bv, N):
    """Upper bounds on sum_{n>N} t_n, t_n = u_n^k e^{-u_n}, u_n = beta D_n, k = 0, 1, 2
    (rows), b >= 0, elementwise, by the ratio test: r_n = t_{n+1}/t_n = (D_{n+1}/D_n)^k
    e^{-beta (D_{n+1} - D_n)} does not increase for n >= 1 (D_{n+1} - D_n = a + b (2n + 3)
    does not fall), so the tail is at most t_{N+1}/(1 - r_{N+1}), +inf where r_{N+1} >= 1.
    1 + 2^-40 covers the rounding of e^{-u_{N+1}} (745 * 4 ulp), of u_{N+1}^k and, where
    u_{N+1} >= 43.6 (_direct_rows' N), of ln r; past u_{N+1} ~ 745 the bound is +0, also
    where u_{N+1} or its square overflows."""
    d, step, k = _excitation(a, b, N + 1.0), a + b * (2.0 * N + 5.0), np.arange(3.0)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # beta ~ 1e308; r = 1
        w = np.exp(-bv * d)
        log_r = k * np.log1p(step / d) - bv * step
        bounds = (1.0 + 2.0 ** -40) * np.where(w > 0.0, bv * d, 0.0) ** k * w / -np.expm1(log_r)
    return np.where(log_r < 0.0, bounds, math.inf)


#: x^2 e^{-x} = eps at x = 43.6
_X_ROUNDING = 43.6

#: at and below this beta L (L = a + 2b) the level rows come from
#: Euler-Maclaurin; above it the levels are summed directly
_EM_THETA = 0.25

#: B_2j/(2j) for j = 1..10, the Euler-Maclaurin order p = 10 (A&S 23.1.30):
#: B_2j/(2j)! f^(2j-1)(0) is B_2j/(2j) times the Taylor coefficient of n^(2j-1)
_EM_WEIGHTS = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                        -3617 / 510, 43867 / 798, -174611 / 330]) / np.arange(2.0, 22.0, 2.0)

#: past beta D_1 = 700 the leading level weight w_1 nears the subnormal range
_X_SUBNORMAL = 700.0


def _euler_maclaurin_rows(a, b, bv) -> np.ndarray:
    """R_k = sum_{n>=1} u_n^k e^{-u_n}, k = 0, 1, 2 (rows), u_n = beta D_n
    = c n^2 + l n with l = beta L, c = beta b, elementwise, by
    Euler-Maclaurin from n = 0 (A&S 23.1.30; DLMF 2.10.1), less the n = 0
    term f_k(0) = [k = 0]:
        R_k = int_0^inf f_k - f_k(0)/2 - sum_{j=1}^{p} B_2j/(2j)! f_k^(2j-1)(0),
    f_k = u^k e^{-u}.  The integral is I_k/l (_scaled_moments).  The Taylor
    coefficients E_m of e^{-u} at n = 0 follow from (e^{-u})' = -u' e^{-u},
    u' = l + 2c n: (m + 1) E_{m+1} = -(l E_m + 2c E_{m-1}); those of
    u e^{-u} and u^2 e^{-u} are their products with l n + c n^2.  For
    l <= _EM_THETA the remainder of p = 10 is below rounding (~1e-14 at
    p = 8).  Each weighted sum runs over the last axis, so a point's bits do
    not depend on the batch."""
    lin, quad = bv * (a + 2.0 * b), bv * b
    rows = _scaled_moments(a, b, bv)[:3] / lin
    rows[0] -= 0.5
    # row 4 + m holds E_m; the four zero rows before E_0 pad the products
    taylor = np.zeros((4 + 2 * len(_EM_WEIGHTS), len(bv)))
    taylor[4] = 1.0
    step, skip = -lin, -2.0 * quad
    for i in range(4, len(taylor) - 1):
        taylor[i + 1] = (step * taylor[i] + skip * taylor[i - 1]) / (i - 3)
    odd = np.arange(5, len(taylor), 2)
    e, l, c = taylor.T, lin[:, None], quad[:, None]
    for k, coeffs in enumerate((e[:, odd], l * e[:, odd - 1] + c * e[:, odd - 2],
                                l * l * e[:, odd - 2] + 2.0 * l * c * e[:, odd - 3]
                                + c * c * e[:, odd - 4])):
        rows[k] -= (_EM_WEIGHTS * coeffs).sum(axis=-1)
    return rows


def _fsum_rows(terms, starts, counts):
    """math.fsum of terms[k, s:s + n] >= 0 for every row k and (s, n) of starts and
    counts, bit for bit: a long-double np.add.reduceat, within gamma_{n-1}/(1 - gamma_{n-1})
    of the computed sum in any order (Higham, ASNA 4.2; gamma_k = k u/(1 - k u) with the
    unit roundoff u = eps_ld/2), where that and its rounding stay inside half the gap to
    either neighbouring double; fsum elsewhere (every row of 2+ terms if longdouble is
    double).  The factor 1 + 2^-40 covers the second-order terms, and the rounding of
    the bound itself, while n < 2^20."""
    wide = np.add.reduceat(terms.astype(np.longdouble), starts, axis=1)
    sums = wide.astype(float)
    unit = np.finfo(np.longdouble).eps / 2.0
    error = abs(wide - sums) + (counts - 1) * (1.0 + 2.0 ** -40) * unit * wide
    gap = np.minimum(np.spacing(sums), np.spacing(np.nextafter(sums, 0.0)))
    for k, i in zip(*np.nonzero((wide > 0.0) & (2.0 * error >= gap))):
        sums[k, i] = math.fsum(terms[k, starts[i]:starts[i] + counts[i]].tolist())
    return sums


def _direct_rows(a, b, bv):
    """(rows, m): sum_{n=1}^{N} u_n^k w_n 2^m, k = 0, 1, 2 (rows), u_n = beta D_n,
    w_n = e^{-u_n}, elementwise, N the first level with x = u_N - u_1 >= 43.6, where
    row k's tail is near x^k e^{-x} of its sum, below rounding.  Each term is
    formed in long double (80-bit where the platform has it) and rounded once,
    since in double rounding u_n alone moves w_n by ~1e-15 at u_n ~ 10; the rows
    are exactly rounded sums (_fsum_rows).  m = 0 unless u_1 > 700, where
    2^m ~ 1/w_1 keeps the terms normal: a subnormal w_1 would cost S and C
    their digits.  The ratio test (_tail_bounds) certifies the truncation: a
    row whose bound exceeds 2^-52 of its sum raises NonConvergence.  The bound
    is compared unscaled: where m > 0 it is +0 and there is nothing left to
    certify, since u_1 > 700 puts the root of N below 1.07, so N = 2 and
    u_3 >= 3 u_1 > 2100, and the tail past level 2 is below
    (D_3/D_1)^2 e^{-(u_3 - u_1)} <= 25 e^{-1400} of its row."""
    # N: the root of b N^2 + (a + 2b) N = D_1 + 43.6/beta, rounded up
    lin, d_n = a + 2.0 * b, a + 3.0 * b + _X_ROUNDING / bv
    counts = np.ceil(2.0 * d_n / (lin + np.sqrt(lin * lin + 4.0 * b * d_n))).astype(np.int64)
    starts = np.cumsum(counts) - counts
    point = np.repeat(np.arange(len(bv)), counts)
    level = np.arange(counts.sum()) - np.repeat(starts, counts) + np.longdouble(1.0)
    with np.errstate(over="ignore"):  # at beta ~ 1e308 (u overflows where long double is double)
        x1 = bv * (a + 3.0 * b)
        u = bv[point] * _excitation(a[point], b[point], level)
    # capped where e^{-beta D} underflows in long double too
    m = np.where(x1 > _X_SUBNORMAL, np.minimum(x1, 11000.0) / math.log(2.0), 0.0
                 ).astype(np.int64)
    w = np.exp(-u)
    u = np.where(w > 0.0, u, 0.0)  # u^k w is +0 where w is, also at u = inf
    w = np.ldexp(w, m[point]) if m.any() else w  # ldexp(w, 0) is w
    rows = _fsum_rows(np.array([w, u * w, u * u * w], dtype=float), starts, counts)
    uncertified = (_tail_bounds(a, b, bv, counts.astype(float)) > np.ldexp(rows, -52)
                   ).any(axis=0)
    if uncertified.any():
        raise NonConvergence(
            f"level sum tail bound above rounding at beta={bv[uncertified][0]:.17g}")
    return rows, m


def _boltzmann_levels(a, b, bv):
    """(tail, <u>, Var u, m) of the Boltzmann distribution over the levels
    in u_n = beta D_n, D_n = E_n - E_0 the ground-state gauge, at every point
    i of equal-length arrays a, b and beta, where tail sums w_n = e^{-u_n}
    over n >= 1, so Z = exp(-beta E_0) (1 + tail); each of the three is
    scaled by 2^m (an int array): the quantity is ldexp(value, -m).  Working
    relative to E_0 keeps every quantity derived from these sums accurate
    near machine precision even where Z itself is tiny; in u they stay finite
    from beta ~ 1e-306 to 1e308.  Each point, b = 0 included, takes one of two
    fixed branches from its own inputs, so it gets the bits of its one-point
    call, always to rounding and with no level budget:

    * where beta L <= _EM_THETA (L = a + 2b) the rows sum_{n>=1} u_n^k w_n
      come from Euler-Maclaurin (_euler_maclaurin_rows), within ~1e-15;
    * elsewhere from at most 176 levels summed directly (_direct_rows)."""
    rows, m = np.zeros((3, len(bv))), np.zeros(len(bv), dtype=np.int64)
    with np.errstate(over="ignore"):  # beta L overflows at beta ~ 1e308
        em = bv * (a + 2.0 * b) <= _EM_THETA
    direct = ~em
    if direct.any():
        rows[:, direct], m[direct] = _direct_rows(a[direct], b[direct], bv[direct])
    # the rows are inf where beta L underflows (beta ~ 1e-305 in SI units): F overflows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if em.any():
            rows[:, em] = _euler_maclaurin_rows(a[em], b[em], bv[em])
        zred = 1.0 + np.ldexp(rows[0], -m)
        mean = rows[1] / zred
        var = rows[2] / zred - np.ldexp(mean, -m) * mean
    return rows[0], mean, var, m


def partition_sum(c, beta) -> float | np.ndarray:
    """Z(beta) = sum_n exp(-beta E_n) = exp(-beta E_0) (1 + tail), the tail
    summed to rounding: thermo_sum_engine's Z, at one point or along a curve."""
    return thermo_sum_engine(c, beta, 1.0).Z


def _require_regular(c: SpectrumCoefficients):
    singular = c.b <= B_MIN * c.a
    if singular.any() if isinstance(singular, np.ndarray) else singular:
        exc = SingularLimit(f"closed form singular at b/a={np.min(c.b / c.a):.3e} <= "
                            f"B_MIN={B_MIN:.3e}; use the sum route")
        exc.singular = singular
        raise exc


def _pair(kernel, x1, x2):
    """kernel(x1) and kernel(x2), arrays of one shape, from one call of the
    elementwise kernel over both: no element of a kernel's output depends on
    the rest of its batch, so each keeps the bits of its own call."""
    return kernel(np.concatenate((x1, x2))).reshape((2,) + x1.shape)


def _xargs(c: SpectrumCoefficients, beta):
    """beta as a checked array (_beta_values) and the common erf arguments
    x1 <= x2 with the stabilized difference Dx = e^{x1^2} (erf(x2) - erf(x1)),
    after the argument checks; the closed forms below take them, so a whole
    point or curve forms them once, from one erfcx call (_pair)."""
    _require_regular(c)
    bv = _beta_values(beta)
    a, b = c.a, c.b
    x1 = 0.5 * (a + 2.0 * b) * np.sqrt(bv / b)
    x2 = 0.5 * (a + 4.0 * b) * np.sqrt(bv / b)
    ex1, ex2 = _pair(erfcx, x1, x2)
    return bv, (x1, x2, ex1 - np.exp(-bv * (a + 3.0 * b)) * ex2)


@_saturating
def partition_closed(c: SpectrumCoefficients, beta) -> float | np.ndarray:
    """The closed erf form of Z, evaluated as typeset for small erf arguments
    and through the scaled complement (exact algebra) once cancellation in
    the erf difference would cost more than ~1e-13 relative.  Like every
    closed form below it takes a float beta or an array, and float
    coefficients or arrays (an alpha curve), elementwise."""
    return _shaped(_partition(c, *_xargs(c, beta)), beta, c.a)


def _partition(c: SpectrumCoefficients, bv, xa, erfs=None):
    """Z from _xargs, with erfs = _pair(erf, x1, x2) where the caller holds it."""
    a, b = c.a, c.b
    x1, x2, dx = xa
    e1, e2 = _pair(erf, x1, x2) if erfs is None else erfs
    typeset = np.exp((a * a + 2.0 * a * b + 2.0 * b * b) * bv / (4.0 * b)) \
        * _SQRT_PI / (2.0 * np.sqrt(b * bv)) * (e2 - e1)
    scaled = _SQRT_PI / (2.0 * np.sqrt(b * bv)) * np.exp(-bv * (a + b) / 2.0) * dx
    return np.where(x1 < 2.0, typeset, scaled)


@_saturating
def log_partition_closed(c: SpectrumCoefficients, beta) -> float | np.ndarray:
    """ln of the closed-form Z, stable at any erf-argument size."""
    return _shaped(_log_partition(c, *_xargs(c, beta)), beta, c.a)


def _log_partition(c: SpectrumCoefficients, bv, xa):
    a, b = c.a, c.b
    return -bv * (a + b) / 2.0 + np.log(_SQRT_PI / (2.0 * np.sqrt(b * bv))) + np.log(xa[2])


def _upper(range_: str) -> float:
    """The upper end of the n range: 1 for "quad01", inf for "quadinf"."""
    if range_ not in ("quad01", "quadinf"):
        raise ValueError("range_ must be 'quad01' or 'quadinf'")
    return 1.0 if range_ == "quad01" else math.inf


def partition_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                         tol: Tolerance = Tolerance()) -> float | np.ndarray:
    """Integral of exp(-beta E(n)) dn over [0,1] ("quad01") or [0,inf)
    ("quadinf"), E(n) the compact form with continuous n: thermo_quadrature's
    Z, at one point or along a curve."""
    return thermo_quadrature(c, beta, range_, 1.0, tol).Z


# ---------------------------------------------------------------------------
# Ground truth from exact Boltzmann moments
# ---------------------------------------------------------------------------

def _columns(c, bv, kB: float, z, log_g, mean, var, m=0):
    """(Z, U, C, S, F) of every moment route, from its Z and from ln G
    = ln Z + beta E_0, <u> and Var u over u = beta (E - E_0), the last three
    scaled by 2^m (the quantity is ldexp(value, -m)): U = E_0 + <u>/beta,
    C = kB Var u, S = kB (ln G + <u>) and F = E_0 - ln G/beta, S and C formed
    at the scale and rounded once.  The caller supplies ln G: the level sums
    log1p of their tail (thermo_sum_engine), the continuum ln(g0/(beta L))
    (_assemble).  Where F overflows (below beta ~ 1e-306), NonConvergence is
    raised, naming beta."""
    e0 = c.energy(0)
    with np.errstate(over="ignore"):  # F overflows below beta ~ 1e-306, U below 3e-309
        columns = (z, e0 + np.ldexp(mean, -m) / bv, np.ldexp(kB * var, -m),
                   np.ldexp(kB * (log_g + mean), -m), e0 - np.ldexp(log_g, -m) / bv)
    bad = ~np.isfinite(columns[4])
    if bad.any():
        raise NonConvergence(f"F overflows at beta={np.broadcast_to(bv, bad.shape)[bad][0]:.17g}")
    return columns


def thermo_sum_engine(c, beta, kB: float = 1.0) -> ThermoPoint:
    """Ground truth on the sum route: U, C, S and F (_columns) from the exact
    moments of u_n = beta (E_n - E_0) >= 0 over the Boltzmann distribution of
    the levels (_boltzmann_levels, always to rounding, so there is no
    tolerance), with ln G = ln(1 + tail) = ln Z + beta E_0 taken as
    log1p(tail): at (alpha, beta) = (0.02, 700) S = 5.2e-311 rests on the
    tail alone.  Z is partition_sum's exp(-beta E_0) (1 + tail).  Moments in
    the ground-state gauge never suffer the <E^2> - <E>^2 cancellation, so C
    stays accurate where it is exponentially small and |ln Z| is large.
    Where the level sums carry a scale 2^m (w_1 near the subnormal range), S
    and C are formed at that scale and rounded once, and ln G = tail there.

    The coefficients may be arrays (an alpha curve) and beta an array (a
    beta curve), broadcast against each other to any shape (an alpha x beta
    mesh): the point then holds beta and each quantity as arrays of it, all
    from one _boltzmann_levels call, each element bit for bit its one-point
    call."""
    a, b, bv = np.broadcast_arrays(c.a, c.b, _beta_values(beta))
    tail, mean, var, m = (x.reshape(bv.shape) for x in
                          _boltzmann_levels(a.ravel(), b.ravel(), bv.ravel()))
    unscaled = np.ldexp(tail, -m)
    z = exp_neg_product(bv, 0.5 * a, 0.5 * b) * (1.0 + unscaled)
    log_g = np.where(m > 0, tail, np.log1p(unscaled))  # at scale 2^m: tail < e^{-700} there
    return _point(ThermoPoint, (c.a, beta), "sum", bv, *_columns(c, bv, kB, z, log_g, mean, var, m))


#: row k = 0..4: the Gauss-Laguerre weights times node^k, the rule that takes
#: over from the recurrence at y = 1.4, as in erfcx (numerics._X_RULE)
_LAG_ROWS = _LAG_W * _LAG_U ** np.arange(5)[:, None]


def _scaled_moments(a, b, bv) -> np.ndarray:
    """I_k = L beta^{k+1} J_k for k = 0..4 (the leading axis) at each element
    of the broadcast of a, b and beta (floats or arrays), J_k the integral
    over n in [0, inf) of D^k e^{-beta D}, D = b n^2 + L n, L = a + 2b (with
    the spectrum's coefficients, D = E(n) - E_0).  In u = beta D,
        I_k = int_0^inf u^k e^{-u} (1 + u/y^2)^{-1/2} du,  y = L sqrt(beta/(4b)),
    so I_k = k! at b = 0, where 1/y^2 = 0 and the rule's weight is 1.  With
    b > 0, 1/y^2 is +0 where beta L^2 overflows and +inf where it underflows.

    For y >= 1.4 the 48-point Gauss-Laguerre rule integrates it, one row
    sum per element and k; the branch point u = -y^2 lies far enough from
    the nodes.  Below, the forward recurrence from integration by parts,
        I_0 = sqrt(pi) y erfcx(y),  I_1 = (1/2 - y^2) I_0 + y^2,
        I_{k+1} = (k + 1/2 - y^2) I_k + k y^2 I_{k-1},
    loses at most a few ulp.  (Backward recurrence is stable only for
    k < y^2, and the forward one loses about y^2 per step above y ~ 3.)"""
    a, b, bv = np.broadcast_arrays(a, b, bv)
    shape, a, b, bv = bv.shape, a.ravel(), b.ravel(), bv.ravel()
    lin = a + 2.0 * b
    with np.errstate(over="ignore", divide="ignore"):  # beta L^2 overflows or underflows
        inv_y2 = np.divide(4.0 * b, bv * lin * lin, out=np.zeros_like(bv), where=b > 0.0)
    rule = inv_y2 * _X_RULE * _X_RULE <= 1.0
    moments = np.empty((5, len(bv)))
    if rule.any():
        weight = 1.0 / np.sqrt(1.0 + _LAG_U * inv_y2[rule][:, None])
        moments[:, rule] = [(row * weight).sum(axis=-1) for row in _LAG_ROWS]
    slow = ~rule
    if slow.any():  # even empty, it costs an erfcx call
        y = 0.5 * lin[slow] * np.sqrt(bv[slow] / b[slow])
        y2 = y * y
        recurrence = [_SQRT_PI * y * erfcx(y)]
        recurrence.append((0.5 - y2) * recurrence[0] + y2)
        for k in range(1, 4):
            recurrence.append((k + 0.5 - y2) * recurrence[k] + k * y2 * recurrence[k - 1])
        moments[:, slow] = recurrence
    return moments.reshape((5,) + shape)


def _assemble(c: SpectrumCoefficients, bv, qv, kB: float, moments):
    """(Z, U, C, S, F) of the weight e^{-beta E}(1 + (q/2) beta^2 E^2)
    over n, from the scaled moments I_k = L beta^{k+1} J_k (k = 0..4, the
    rows of moments, _scaled_moments) of the excitation energy,
    J_k = int D^k e^{-beta D} dn with D = E - E_0 >= 0 and L = a + 2b.
    With G = e^{beta E_0} Z = int e^{-beta D} p dn, p = 1 + (q/2) beta^2 E^2,
        G'  = int e^{-beta D} (-D p + q beta E^2),
        G'' = int e^{-beta D} (D^2 p - 2 q beta D E^2 + q E^2);
    in u = beta D with e = beta E_0 each integrand is a polynomial of degree
    <= 4 in u, so beta L G, beta^2 L G' and beta^3 L G'' are dot products
    g0, g1, g2 with the scaled moments.  Then <u> = -g1/g0,
    Var u = g2/g0 - (g1/g0)^2 and ln G = ln(g0/(beta L)) give U, C, S and F
    (_columns); S and F never meet beta E_0, so they stay finite where
    Z = G e^{-beta E_0} underflows.  Moments of D
    never suffer the <E^2> - <E>^2 cancellation.  Every I_3 and I_4
    coefficient carries a factor q, so where q = 0 throughout those rows
    may be zeros.

    The coefficients of g0, g1, g2 are quadratic forms in (1, e), whose
    q e^2 terms overflow from e ~ 1e154.  Taking 1 and e as h and e h,
    h = 2^{-m} with the least m that puts e h below 2^511 (where 2 e^2 is
    finite), scales g0, g1, g2 by h^2 exactly; 2m ln 2 goes back into ln G.
    Below 2^511, m = 0 keeps every bit.

    The moments have the shape of the broadcast of the coefficients and the
    beta array bv; the q array qv broadcasts against them, and g0, g1, g2
    are assembled over the whole mesh, elementwise, so each element is bit
    for bit its point."""
    i0, i1, i2, i3, i4 = moments
    e0 = c.energy(0)
    m = np.maximum(np.frexp(bv * e0)[1] - 511, 0)
    h = np.ldexp(1.0, -m)
    e = bv * e0 * h
    qe = qv * e
    p0, p1, p2 = h * h + 0.5 * qe * e, qe * h, 0.5 * qv * h * h  # p = p0 + p1 u + p2 u^2
    g0 = p0 * i0 + p1 * i1 + p2 * i2
    g1 = qe * e * i0 + (2.0 * qe * h - p0) * i1 + qv * h * (h - e) * i2 - p2 * i3
    g2 = (qe * e * i0 + 2.0 * qe * (h - e) * i1 + (p0 - 4.0 * qe * h + qv * h * h) * i2
          + qv * h * (e - 2.0 * h) * i3 + p2 * i4)
    r1 = g1 / g0
    lin = c.a + 2.0 * c.b
    # beta L overflows at beta ~ 1e308: divide in turn; G underflows (q = 0): subtract logs
    with np.errstate(over="ignore", divide="ignore"):
        bl = bv * lin
        big_g = np.where(np.isinf(bl), g0 / bv / lin, g0 / bl)
        log_g = np.where(big_g < np.finfo(float).tiny, np.log(g0) - np.log(bv) - np.log(lin),
                         np.log(big_g)) + 2.0 * math.log(2.0) * m
        z = np.ldexp(big_g * exp_neg_product(bv, 0.5 * c.a, 0.5 * c.b), 2 * m)
        var = g2 / g0 - r1 * r1
    return _columns(c, bv, kB, z, log_g, -r1, var)


def _quadrature_moments(c: SpectrumCoefficients, bv: np.ndarray, qv, hi: float,
                        kB: float, tol: Tolerance):
    """(Z, U, C, S, F), each an array over the broadcast of c, bv and qv,
    of the weight e^{-beta E}(1 + (q/2) beta^2 E^2) over n in [0, hi]
    (q = 0: the Boltzmann weight): _assemble's columns, Z included, from
    the scaled moments as Gauss-Kronrod integrals over n = s m,
        I_k = int L beta s u^k e^{-u} dm,  u = beta D(s m).
    The moment rows do not read q: a beta x q mesh integrates one set per
    (coefficient, beta) element, and only k <= 2 where q = 0 throughout.
    They run in one integrate_batch call, whose rows each equal their
    single-row call, so each element gets the bits of its one-point call.

    The moment rows fall only once u exceeds k; at small beta that lies
    beyond the tail probes of integrate_batch, so on [0, inf) s >= 1 is the
    smallest scale that puts u = 8 at or before the probe m = 24 (s = 1 on
    [0, 1]).  From beta ~ 3e5 on e^{-u} underflows to 0 at every node, so
    the I_0 row integrates to exactly 0: that raises NonConvergence, naming
    beta.  So does a row the assembly reads below 2^-1022, where it has lost
    its digits: on [0, 1] I_k ~ beta^{k+1}, so I_2 leaves the normal range
    below beta ~ 1e-103 (alpha = 0.3).  Where F overflows too, _columns
    raises first."""
    shape = np.broadcast(c.a, c.b, bv).shape
    a, b, bvs = (np.broadcast_to(x, shape).ravel() for x in (c.a, c.b, bv))
    lin = a + 2.0 * b  # D(n) = b n^2 + L n
    s = np.ones_like(bvs)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN where 8/beta overflows
        if hi == math.inf:
            level = 8.0 / bvs
            s = np.maximum(1.0, 2.0 * level / (lin + np.sqrt(lin * lin + 4.0 * b * level)) / 24.0)
        scale = lin * bvs * s
    # where L beta s overflows (beta ~ 1e308), beta multiplies e^{-u} first:
    # e^{-u} is +0 at every node there
    late = np.where(np.isinf(scale), bvs, 1.0)
    scale = np.where(np.isinf(scale), lin * s, scale)
    k_rows = 5 if np.any(qv) else 3

    def rows(m, r):
        i, k = np.divmod(r[:, None], k_rows)  # row r is moment k of element i
        with np.errstate(over="ignore", invalid="ignore"):  # s m = inf at b = 0 gives NaN
            u = bvs[i] * _excitation(a[i], b[i], s[i] * m)
        row = scale[i] * (late[i] * np.exp(-u))
        u = np.where(row > 0.0, u, 0.0)  # u^k e^{-u} is +0 where e^{-u} is, also at u = inf
        # u^k as k products, which round alike wherever the row sits in the
        # batch; numpy's power need not
        for j in range(1, k_rows):
            row = np.where(k >= j, row * u, row)
        return row

    values = integrate_batch(rows, k_rows * bvs.size, 0.0, hi, tol).value
    moments = np.zeros((5, bvs.size))
    moments[:k_rows] = values.reshape(-1, k_rows).T
    if not moments[0].all():  # e^{-u} underflows at every node
        raise NonConvergence(f"moment rows integrate to 0 at beta={bvs[moments[0] == 0][0]:.17g}")
    columns = _assemble(c, bv, qv, kB, moments.reshape((5,) + shape))
    low = (moments[:k_rows] < np.finfo(float).tiny).any(axis=0)
    if low.any():
        raise NonConvergence(f"moment rows underflow at beta={bvs[low][0]:.17g}")
    return columns


def thermo_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                      kB: float = 1.0, tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Z, U, C, S, F of the partition_quadrature integral over [0, 1]
    ("quad01") or [0, inf) ("quadinf"), from its exact beta-moments.  A
    curve (beta or coefficient arrays) gives a point that holds beta and
    each quantity as arrays, all from one batched quadrature, each element
    bit for bit its float call."""
    bv = _beta_values(beta)
    return _point(ThermoPoint, (c.a, beta), range_, bv,
                  *_quadrature_moments(c, bv, 0.0, _upper(range_), kB, tol))


# ---------------------------------------------------------------------------
# Printed closed forms for U, C, S, F
# ---------------------------------------------------------------------------

def _check_transcription(transcription: str):
    if transcription not in TRANSCRIPTIONS:
        raise ValueError("transcription must be 'verbatim' or 'corrected'")


def _transcriptions(transcription) -> tuple[str, ...]:
    """The transcriptions a closed point evaluates, checked: one name, or
    the pair TRANSCRIPTIONS itself."""
    if transcription == TRANSCRIPTIONS:
        return TRANSCRIPTIONS
    _check_transcription(transcription)
    return (transcription,)


def _transcribed(columns: list[tuple]):
    """A closed point's quantity fields from columns, one tuple of fields per
    transcription it evaluates: one transcription's fields as they are, or,
    for the pair, each field as the list of its two values, which _point
    holds along a trailing axis."""
    return columns[0] if len(columns) == 1 else [list(f) for f in zip(*columns)]


@_saturating
def mean_energy_closed(c: SpectrumCoefficients, beta,
                       transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of U(beta).

    verbatim keeps the typeset exponents e^{-3 beta - ...} and
    e^{(a^2+2b)^2 beta/(4b)}; corrected restores e^{-3 a beta - ...} and
    e^{(a+2b)^2 beta/(4b)}, which makes the expression exactly
    -d ln Z / d beta of the closed-form Z."""
    _check_transcription(transcription)
    return _shaped(_mean_energy(c, *_xargs(c, beta), transcription), beta, c.a)


def _mean_energy(c: SpectrumCoefficients, bv, xa, transcription: str):
    a, b = c.a, c.b
    x1, x2, dx = xa
    delta = a + 3.0 * b
    if transcription == "corrected":
        K = (a * a + 2.0 * a * b + 2.0 * b * b) / (4.0 * b)
        return -K + 0.5 / bv + (x1 - x2 * np.exp(-bv * delta)) / (bv * _SQRT_PI * dx)
    # verbatim: exponents as typeset, combined against each other exactly
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    a2b = a * a + 2.0 * b
    e1 = bv * (a2b * a2b / (4.0 * b) - 3.0 - a * a / (2.0 * b) - 5.0 * b)
    t1 = 2.0 * np.sqrt(b * bv) * ((a + 2.0 * b) * np.exp(e1 + bv * delta + x1 * x1)
                                  - (a + 4.0 * b) * np.exp(e1 + x1 * x1)) \
        / (4.0 * b * bv * _SQRT_PI * dx)
    t2 = -np.exp(3.0 * (a - 1.0) * bv) * poly / (4.0 * b * bv)
    return t1 + t2


@_saturating
def heat_capacity_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                         transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of C(beta).

    The verbatim expression is transcribed literally (it lacks the
    erf(x1)*erf(x2) cross term its own square demands, so it diverges from
    the truth and can overflow).  corrected evaluates the algebraically
    consistent reading, which equals kB beta^2 d2 ln Z/d beta2 exactly."""
    _check_transcription(transcription)
    return _shaped(_heat_capacity(c, *_xargs(c, beta), kB, transcription), beta, c.a)


def _heat_capacity(c: SpectrumCoefficients, bv, xa, kB: float, transcription: str, erfs=None):
    # erfs as for _partition; coefficient powers are products, which round
    # alike as floats and arrays
    a, b = c.a, c.b
    x1, x2, dx = xa
    delta = a + 3.0 * b
    if transcription == "corrected":
        sb = np.sqrt(b)
        c1 = (a + 2.0 * b) / (2.0 * sb)
        c2 = (a + 4.0 * b) / (2.0 * sb)
        edec = np.exp(-bv * delta)
        w1 = np.sqrt(bv / math.pi) * (c2 * edec - c1) / dx
        return kB * (0.5 - 0.5 * w1 - w1 * w1
                     + bv ** 1.5 / _SQRT_PI * (c1 * c1 * c1 - c2 * c2 * c2 * edec) / dx)
    # verbatim transcription; prefactor exponent folded into each term
    e1, e2 = _pair(erf, x1, x2) if erfs is None else erfs
    d = np.exp(-x1 * x1) * dx
    sbb = np.sqrt(b * bv)
    ap2, ap4 = a + 2.0 * b, a + 4.0 * b
    t1 = 2.0 * b * bv * np.sqrt(bv / b) * (
        ap4 * ap4 * np.exp(-2.0 * x2 * x2)
        - 2.0 * ap4 * ap2 * np.exp(-(x1 * x1 + x2 * x2))
        + ap2 * ap2 * np.exp(-2.0 * x1 * x1))
    t2 = -4.0 * b * sbb * math.pi * e1 * e1
    t4 = -4.0 * b * sbb * math.pi * e2 * e2
    t6 = 8.0 * b * sbb * _SQRT_PI * e2
    # polynomial multiplying Erf[x2], split into constant and e^{delta beta} parts
    a3, b3 = a * a * a, b * b * b
    pe_sym = 6.0 * a * a * b * bv + a3 * bv + 4.0 * b * b + 8.0 * b3 * bv \
        + 2.0 * a * b + 12.0 * a * b * b * bv
    pc_sym = -12.0 * a * a * b * bv - a3 * bv - 8.0 * b * b - 64.0 * b3 * bv \
        - 2.0 * a * b - 48.0 * a * b * b * bv
    # the Erf[x1] polynomial as typeset (its 6 b beta group sits outside the 2ab factor)
    pe_asym = 6.0 * a * a * b * bv + a3 * bv + 4.0 * b * b + 8.0 * b3 * bv \
        + 2.0 * a * b + 6.0 * b * bv
    pc_asym = -12.0 * a * a * b * bv - a3 * bv - 8.0 * b * b - 64.0 * b3 * bv \
        - 2.0 * a * b - 24.0 * b * bv
    t3 = -bv * _SQRT_PI * e2 * (pc_sym * np.exp(-x2 * x2) + pe_sym * np.exp(-x1 * x1))
    t5 = bv * _SQRT_PI * e1 * (pc_asym * np.exp(-x2 * x2) + pe_asym * np.exp(-x1 * x1))
    num = bv * (t1 + t2 + t3 + t4 + t5 + t6)
    return kB * num / (8.0 * (b * bv) ** 1.5 * math.pi * d * d)


@_saturating
def entropy_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                   transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of S(beta).

    The verbatim expression follows the typeset parenthesization (the
    decaying prefactor multiplies only the first numerator group), under
    which the remaining terms keep a bare growing exponential.  No reading
    of the typeset S matches kB(lnZ - beta dlnZ/dbeta); corrected therefore
    evaluates that defining identity with the corrected U."""
    _check_transcription(transcription)
    bv, xa = _xargs(c, beta)
    u = _mean_energy(c, bv, xa, transcription) if transcription == "corrected" else None
    return _shaped(_entropy(c, bv, xa, kB, transcription, _log_partition(c, bv, xa), u),
                   beta, c.a)


def _entropy(c: SpectrumCoefficients, bv, xa, kB: float, transcription: str, lnz, u):
    """S from _xargs, ln Z and, for the corrected S, the corrected U."""
    if transcription == "corrected":
        return kB * (lnz + bv * u)
    a, b = c.a, c.b
    _, _, dx = xa
    delta = a + 3.0 * b
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    frac1 = -np.sqrt(bv / b) * 2.0 * bv \
        * ((a + 4.0 * b) * np.exp(-bv * delta) - (a + 2.0 * b)) / (4.0 * bv * math.pi * dx)
    big = bv * (3.0 * a + a * a / (2.0 * b) + 5.0 * b)
    frac2 = -np.sqrt(bv / b) * poly * np.exp(big) / (4.0 * bv * _SQRT_PI)
    return kB * (frac1 + frac2 + lnz)


@_saturating
def free_energy_closed(c: SpectrumCoefficients, beta) -> float | np.ndarray:
    """F(beta) = -ln(Z_closed)/beta; the typeset F is exactly this
    composition, so there is nothing to transcribe.  ln Z_closed is taken
    stably, so F stays finite where Z_closed underflows."""
    bv, xa = _xargs(c, beta)
    return _shaped(-_log_partition(c, bv, xa) / bv, beta, c.a)


@_saturating
def thermo_closed_point(c: SpectrumCoefficients, beta, kB: float = 1.0,
                        transcription: str | tuple[str, str] = "verbatim") -> ThermoPoint:
    """All five typeset closed forms from one _xargs and one erf pair, each
    bit for bit its single-quantity function; S takes the U of its own
    transcription.  Float coefficients and beta give a point of floats; a
    curve gives a point that holds beta and each quantity as an array.
    transcription may be the pair TRANSCRIPTIONS: Z, ln Z and F, which no
    transcription changes, are formed once, and each quantity
    holds a trailing axis, one entry per transcription, each bit for bit
    the point of that one name."""
    names = _transcriptions(transcription)
    bv, xa = _xargs(c, beta)
    erfs = _pair(erf, *xa[:2])
    lnz = _log_partition(c, bv, xa)
    z, f = _partition(c, bv, xa, erfs), -lnz / bv
    return _point(ThermoPoint, (c.a, beta), "closed", bv, *_transcribed(
        [(z, (u := _mean_energy(c, bv, xa, tr)), _heat_capacity(c, bv, xa, kB, tr, erfs),
          _entropy(c, bv, xa, kB, tr, lnz, u), f) for tr in names]))
