"""Partition function of the deformed oscillator via three routes (guarded
series, closed erf form, quadrature) and the thermodynamic quantities U, C,
S, F.

Two evaluation families coexist deliberately:

* the ground truth takes U = <E> and C = kB beta^2 Var E from exact
  Boltzmann moments in the ground-state gauge, summed over the levels
  (``thermo_sum_engine``, the physical route) or integrated over continuous
  n (``thermo_quadrature``, whose 'quad01' point is the audit's oracle for
  the closed forms).  The integrated moments of D = E - E_0 become the
  columns through ``_assemble``, the one moment assembly that the
  superstat engine and quadrature share;
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

from .errors import SingularLimit
from .numerics import Tolerance, erf, erfcx, exp_neg_product, integrate_batch, sum_decaying
from .spectrum import SpectrumCoefficients

_SQRT_PI = math.sqrt(math.pi)

#: below this b the closed forms are singular; use the sum route instead
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


def _thermo_point(c: SpectrumCoefficients, beta, bv, columns, method: str) -> ThermoPoint:
    """The ThermoPoint of the (Z, U, C, S, F) columns: floats where the
    coefficients and beta are floats, else the arrays."""
    if np.ndim(beta) == np.ndim(c.a) == 0:
        return ThermoPoint(bv.item(), *(col.item() for col in columns), method=method)
    return ThermoPoint(bv, *columns, method=method)


# ---------------------------------------------------------------------------
# Partition function routes
# ---------------------------------------------------------------------------

def _excitation(a, b, n):
    """D_n = E_n - E_0 = n (a + b (n + 2)), free of the cancellation in
    E_n - E_0; a, b and n may be arrays."""
    return n * (a + b * (n + 2.0))


def _tail_bound_reduced(a, b, bv, N):
    """Upper bound on sum_{n>N} exp(-beta D_n) for b > 0, elementwise over
    arrays.  The terms decrease, so the tail is below the integral of
    exp(-beta D(t)) over [N, inf), the Gaussian integral
        exp(-beta D_N) sqrt(pi) y erfcx(y) / (beta D'(N)),
    D'(N) = a + 2b(N + 1), y = D'(N) sqrt(beta/b) / 2; the factor
    sqrt(pi) y erfcx(y) < 1 tends to 1 as y grows (y = inf once b is
    negligible)."""
    slope = a + 2.0 * b * (N + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # y = inf: h = 1, not inf * 0
        y = 0.5 * slope * np.sqrt(bv / b)
        h = np.where(y == math.inf, 1.0, _SQRT_PI * y * erfcx(y))
    return h * np.exp(-bv * _excitation(a, b, N)) / (bv * slope)


#: x^2 e^{-x} = eps at x = 43.6
_X_ROUNDING = 43.6


def _level_series(a, b, bv):
    """sum_decaying's terms and tail_bound for the levels of the points
    (a, b, beta): series i is point i, its index k level k + 1, and its
    rows are w, D w and D^2 w."""
    def terms(k):
        a_k, b_k, bv_k = a[k[0]], b[k[0]], bv[k[0]]
        d = _excitation(a_k, b_k, k[1] + np.longdouble(1.0))
        w = np.exp(-bv_k * d)
        return np.array([w, d * w, d * d * w], dtype=float)

    def tail_bound(k):
        a_k, b_k, bv_k = a[k[0]], b[k[0]], bv[k[0]]
        n = k[1] + 1.0
        delta = np.minimum(bv_k / 2.0, 2.0 / _excitation(a_k, b_k, n))
        t = _tail_bound_reduced(a_k, b_k, bv_k - delta, n)
        return np.array([_tail_bound_reduced(a_k, b_k, bv_k, n), t / (math.e * delta),
                         t * (2.0 / (math.e * delta)) ** 2])

    return terms, tail_bound


def _boltzmann_levels(a, b, bv, tol: Tolerance):
    """(tail, <D>, Var D) of the Boltzmann distribution over the levels in
    the ground-state gauge D_n = E_n - E_0, at every point i of equal-length
    arrays a, b and beta, where tail sums w_n = exp(-beta D_n) over n >= 1,
    so Z = exp(-beta E_0) (1 + tail).  Working relative to E_0 keeps every
    quantity derived from these sums accurate near machine precision even
    where Z itself is tiny.

    b = 0 is the geometric series: with r = e^{-beta a} and 1 - r taken as
    -expm1(-beta a), tail = r/(1 - r), <D> = a r/(1 - r) and
    Var D = a^2 r/(1 - r)^2.

    For b > 0 the rows w, D w and D^2 w are summed over one ragged level
    array: point i contributes levels 1..N_i, formed in long double (80-bit
    where the platform has it) and rounded once, since in double rounding
    beta D_n alone moves w_n by ~1e-15 at beta D_n ~ 10.  Past level N,
    with x = beta (D_N - D_1), the integral bound and
    erfcx(y) <= 1/(sqrt(pi) y) (Abramowitz & Stegun 7.1.13) put row k's
    tail near x^k e^{-x} of its sum; the first guess N_i is the N with
    x = 43.6, so every row is truncated below rounding.  The exact bounds
    then certify each point against tol: one at beta for w, one at
    beta - delta for both moments through the envelope
    D^k e^{-delta D} <= (k/(e delta))^k with delta = min(beta/2, 2/D_N),
    which touches the D^2 w row at D_N.  A point that fails doubles its own
    levels (sum_decaying), so each point sums exactly the levels, and gets
    exactly the bits, of its one-point call.  Points are taken in order
    into one sum_decaying call until the next first guess would take the
    batch past tol.max_evals levels; only a point that fails its first
    bound adds levels beyond that, within its own budget."""
    tail, mean, var = (np.empty(len(bv)) for _ in range(3))
    geometric = b == 0.0
    ag, x = a[geometric], -bv[geometric] * a[geometric]
    om = -np.expm1(x)
    t = np.exp(x) / om
    tail[geometric], mean[geometric], var[geometric] = t, ag * t, ag * t * (ag / om)
    summed = np.flatnonzero(~geometric)
    a, b, bv = a[summed], b[summed], bv[summed]
    # the first guess: the root of b N^2 + (a + 2b) N = D_1 + 43.6/beta
    lin, d_n = a + 2.0 * b, a + 3.0 * b + _X_ROUNDING / bv
    level = 2.0 * d_n / (lin + np.sqrt(lin * lin + 4.0 * b * d_n))
    start = np.where(level < tol.max_evals, np.ceil(level) - 1.0,
                     tol.max_evals).astype(np.int64)

    sums = np.empty((3, len(summed)))
    counts = np.minimum(start + 1, tol.max_evals).tolist()
    first = 0
    while first < len(counts):
        last, levels = first + 1, counts[first]
        while last < len(counts) and levels + counts[last] <= tol.max_evals:
            levels += counts[last]
            last += 1
        part = slice(first, last)
        sums[:, part] = sum_decaying(*_level_series(a[part], b[part], bv[part]), tol,
                                     start[part])
        first = last
    zred = 1.0 + sums[0]
    tail[summed] = sums[0]
    mean[summed] = sums[1] / zred
    var[summed] = sums[2] / zred - mean[summed] * mean[summed]
    return tail, mean, var


def partition_sum(c, beta, tol: Tolerance = Tolerance()) -> float | np.ndarray:
    """Z(beta) = sum_n exp(-beta E_n) = exp(-beta E_0) (1 + tail), the
    reduced tail summed under rigorous tail bounds (exact geometric series
    at b = 0): thermo_sum_engine's Z, at one point or along a curve."""
    return thermo_sum_engine(c, beta, 1.0, tol).Z


def _require_regular(c: SpectrumCoefficients):
    singular = c.b <= B_MIN
    if singular.any() if isinstance(singular, np.ndarray) else singular:
        exc = SingularLimit(f"closed form singular at b={np.min(c.b):.3e} <= "
                            f"B_MIN={B_MIN:.3e}; use the sum route")
        exc.singular = singular
        raise exc


def _pair(kernel, x1, x2):
    """kernel(x1) and kernel(x2), arrays of one shape, from one call of the
    elementwise kernel over both: no element of a kernel's output depends on
    the rest of its batch, so each keeps the bits of its own call."""
    return kernel(np.concatenate((x1, x2))).reshape((2,) + x1.shape)


def _xargs(c: SpectrumCoefficients, beta, transcription: str = "verbatim"):
    """beta as a checked array (_beta_values) and the common erf arguments
    x1 <= x2 with the stabilized difference Dx = e^{x1^2} (erf(x2) - erf(x1)),
    after the argument checks; the closed forms below take them, so a whole
    point or curve forms them once, from one erfcx call (_pair)."""
    _check_transcription(transcription)
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


def _partition(c: SpectrumCoefficients, bv, xa):
    a, b = c.a, c.b
    x1, x2, dx = xa
    e1, e2 = _pair(erf, x1, x2)
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
    ("quadinf"), E(n) the compact form with continuous n.  A curve (beta
    or coefficient arrays) is one batched quadrature, each element bit for
    bit its point."""
    bv = _beta_values(beta)
    return _shaped(_weight_integrals(c, bv, 0.0, _upper(range_), tol), beta, c.a)


# ---------------------------------------------------------------------------
# Ground truth from exact Boltzmann moments
# ---------------------------------------------------------------------------

def thermo_sum_engine(c, beta, kB: float = 1.0, tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Ground truth on the sum route: U = E_0 + <D> and C = kB beta^2 Var D
    from the exact moments of D_n = E_n - E_0 >= 0 over the Boltzmann
    distribution of the levels (one guarded level-array sum, or the exact
    geometric series at b = 0), with g = ln(1 + tail) = ln Z + beta E_0
    giving S = kB (g + beta <D>) and F = E_0 - g/beta; Z is partition_sum's
    exp(-beta E_0) (1 + tail).  Moments of D never suffer the
    <E^2> - <E>^2 cancellation, so C stays accurate where it is
    exponentially small and |ln Z| is large.

    The coefficients may be arrays (an alpha curve) and beta an array (a
    beta curve), broadcast against each other: the point then holds beta
    and each quantity as arrays over the points, all from one ragged level
    sum (_boltzmann_levels), each element bit for bit its one-point call.

    The columns are not _assemble's: its ln G = ln(g0/(beta L)) takes the
    log of the rounded zeroth moment 1 + tail, where S and F need
    log1p(tail).  At (alpha, beta) = (0.02, 700) S = 5.2e-311 rests on the
    tail alone, and the shared ln G would drop it."""
    a, b, bv = np.broadcast_arrays(c.a, c.b, _beta_values(beta))
    tail, mean, var = _boltzmann_levels(a, b, bv, tol)
    g = np.log1p(tail)
    e0 = a * 0.5 + b * 0.5  # c.energy(0), bit for bit
    z = exp_neg_product(bv, 0.5 * a, 0.5 * b) * (1.0 + tail)
    columns = (z, e0 + mean, kB * bv * bv * var, kB * (g + bv * mean), e0 - g / bv)
    return _thermo_point(c, beta, bv, columns, "sum")


def _factor_q(E, bv, qv: float):
    """The deformed Boltzmann factor e^{-beta E}(1 + (q/2) beta^2 E^2),
    unchecked; bv may be an array broadcasting with E."""
    be = bv * E
    return np.exp(-be) * (1.0 + 0.5 * qv * be * be)


def _weight_rows(c: SpectrumCoefficients, bv, qv):
    """The shape of the broadcast of c, bv and qv, and integrate_batch's
    rows(n, r) of the weight e^{-beta E}(1 + (q/2) beta^2 E^2) (q = 0: the
    Boltzmann weight), row r at element r of the flattened broadcast."""
    shape = np.broadcast(c.a, c.b, bv, qv).shape
    a, b, bv, qv = (np.broadcast_to(x, shape).reshape(-1, 1) for x in (c.a, c.b, bv, qv))

    def rows(n, r):
        return _factor_q(SpectrumCoefficients(a[r], b[r]).energy(n), bv[r], qv[r])

    return shape, rows


def _weight_integrals(c: SpectrumCoefficients, bv, qv, hi: float,
                      tol: Tolerance) -> np.ndarray:
    """The integral over n in [0, hi] of the weight at each element of the
    broadcast of c, bv and qv: rows of one integrate_batch call, each equal
    to its single-row call."""
    shape, rows = _weight_rows(c, bv, qv)
    return np.array([res.value for res in integrate_batch(rows, math.prod(shape), 0.0, hi, tol)]
                    ).reshape(shape)


def _assemble(c: SpectrumCoefficients, bv, qv, kB: float, moments):
    """(Z, U, C, S, F) of the weight e^{-beta E}(1 + (q/2) beta^2 E^2)
    over n, from the scaled moments I_k = L beta^{k+1} J_k (k = 0..4, the
    rows of moments) of the excitation energy, J_k = int D^k e^{-beta D} dn
    with D = E - E_0 >= 0 and L = a + 2b.
    With G = e^{beta E_0} Z = int e^{-beta D} p dn, p = 1 + (q/2) beta^2 E^2,
        G'  = int e^{-beta D} (-D p + q beta E^2),
        G'' = int e^{-beta D} (D^2 p - 2 q beta D E^2 + q E^2);
    in u = beta D with e = beta E_0 each integrand is a polynomial of degree
    <= 4 in u, so beta L G, beta^2 L G' and beta^3 L G'' are dot products
    g0, g1, g2 with the scaled moments.  Then U = E_0 - g1/(beta g0),
    C = kB (g2/g0 - (g1/g0)^2), and with ln G = ln(g0/(beta L)),
    S = kB (ln G - g1/g0) and F = E_0 - ln(G)/beta never meet beta E_0,
    so they stay finite where Z = G e^{-beta E_0} underflows.  Moments of D
    never suffer the <E^2> - <E>^2 cancellation.  Every I_3 and I_4
    coefficient carries a factor q, so where q = 0 throughout those rows
    may be zeros.

    The moments have the shape of the broadcast of the coefficients and the
    beta array bv; the q array qv broadcasts against them, and g0, g1, g2
    are assembled over the whole mesh, elementwise, so each element is bit
    for bit its point."""
    i0, i1, i2, i3, i4 = moments
    e0 = c.energy(0)
    e = bv * e0
    qe = qv * e
    p0, p1, p2 = 1.0 + 0.5 * qe * e, qe, 0.5 * qv  # p = p0 + p1 u + p2 u^2
    g0 = p0 * i0 + p1 * i1 + p2 * i2
    g1 = qe * e * i0 + (2.0 * qe - p0) * i1 + qv * (1.0 - e) * i2 - p2 * i3
    g2 = (qe * e * i0 + 2.0 * qe * (1.0 - e) * i1 + (p0 - 4.0 * qe + qv) * i2
          + qv * (e - 2.0) * i3 + p2 * i4)
    r1 = g1 / g0
    big_g = g0 / (bv * (c.a + 2.0 * c.b))
    log_g = np.log(big_g)
    return (big_g * exp_neg_product(bv, 0.5 * c.a, 0.5 * c.b), e0 - r1 / bv,
            kB * (g2 / g0 - r1 * r1), kB * (log_g - r1), e0 - log_g / bv)


def _quadrature_moments(c: SpectrumCoefficients, bv: np.ndarray, qv, hi: float,
                        kB: float, tol: Tolerance):
    """(Z, U, C, S, F), each an array over the broadcast of c, bv and qv,
    of the weight e^{-beta E}(1 + (q/2) beta^2 E^2) over n in [0, hi]
    (q = 0: the Boltzmann weight).  Z is the quadrature of the weight
    itself (_weight_rows); U, C, S and F are _assemble's, from the scaled
    moments as Gauss-Kronrod integrals over n = s m,
        I_k = int L beta s u^k e^{-u} dm,  u = beta D(s m).
    The moment rows do not read q: a beta x q mesh integrates one set per
    (coefficient, beta) element, and only k <= 2 where q = 0 throughout.
    The weight rows, then the moment rows, run in one integrate_batch call,
    whose rows each equal their single-row call, so Z is bit for bit
    _weight_integrals and each element gets the bits of its one-point call.

    The moment rows fall only once u exceeds k; at small beta that lies
    beyond the tail probes of integrate_batch, so on [0, inf) s >= 1 is the
    smallest scale that puts u = 8 at or before the probe m = 24 (s = 1 on
    [0, 1])."""
    zshape, weight = _weight_rows(c, bv, qv)
    nz = math.prod(zshape)
    shape = np.broadcast(c.a, c.b, bv).shape
    a, b, bvs = (np.broadcast_to(x, shape).ravel() for x in (c.a, c.b, bv))
    lin = a + 2.0 * b  # D(n) = b n^2 + L n
    s = np.ones_like(bvs)
    if hi == math.inf:
        level = 8.0 / bvs
        s = np.maximum(1.0, 2.0 * level / (lin + np.sqrt(lin * lin + 4.0 * b * level)) / 24.0)
    scale = lin * bvs * s
    k_rows = 5 if np.any(qv) else 3

    def moment(m, r):
        i, k = np.divmod(r[:, None], k_rows)  # row r is moment k of element i
        u = bvs[i] * _excitation(a[i], b[i], s[i] * m)
        row = scale[i] * np.exp(-u)
        # u^k as k products, which round alike wherever the row sits in the
        # batch; numpy's power need not
        for j in range(1, k_rows):
            row = np.where(k >= j, row * u, row)
        return row

    def rows(m, r):  # r ascending: the weight rows come first
        j = np.searchsorted(r, nz)
        return np.concatenate((weight(m[:j], r[:j]), moment(m[j:], r[j:] - nz)))

    values = np.array([res.value for res in integrate_batch(
        rows, nz + k_rows * bvs.size, 0.0, hi, tol)])
    moments = np.zeros((5, bvs.size))
    moments[:k_rows] = values[nz:].reshape(-1, k_rows).T
    return ((values[:nz].reshape(zshape),)
            + _assemble(c, bv, qv, kB, moments.reshape((5,) + shape))[1:])


def thermo_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                      kB: float = 1.0, tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Z, U, C, S, F of the partition_quadrature integral over [0, 1]
    ("quad01") or [0, inf) ("quadinf"), from its exact beta-moments.  A
    curve (beta or coefficient arrays) gives a point that holds beta and
    each quantity as arrays, all from one batched quadrature, each element
    bit for bit its float call."""
    bv = _beta_values(beta)
    return _thermo_point(c, beta, bv, _quadrature_moments(c, bv, 0.0, _upper(range_), kB, tol),
                         range_)


# ---------------------------------------------------------------------------
# Printed closed forms for U, C, S, F
# ---------------------------------------------------------------------------

def _check_transcription(transcription: str):
    if transcription not in TRANSCRIPTIONS:
        raise ValueError("transcription must be 'verbatim' or 'corrected'")


@_saturating
def mean_energy_closed(c: SpectrumCoefficients, beta,
                       transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of U(beta).

    verbatim keeps the typeset exponents e^{-3 beta - ...} and
    e^{(a^2+2b)^2 beta/(4b)}; corrected restores e^{-3 a beta - ...} and
    e^{(a+2b)^2 beta/(4b)}, which makes the expression exactly
    -d ln Z / d beta of the closed-form Z."""
    return _shaped(_mean_energy(c, *_xargs(c, beta, transcription), transcription),
                   beta, c.a)


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
    return _shaped(_heat_capacity(c, *_xargs(c, beta, transcription), kB,
                                  transcription), beta, c.a)


def _heat_capacity(c: SpectrumCoefficients, bv, xa, kB: float, transcription: str):
    # coefficient powers are products, which round alike as floats and arrays
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
    e1, e2 = _pair(erf, x1, x2)
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
    bv, xa = _xargs(c, beta, transcription)
    return _shaped(_entropy(c, bv, xa, kB, transcription, _log_partition(c, bv, xa)),
                   beta, c.a)


def _entropy(c: SpectrumCoefficients, bv, xa, kB: float, transcription: str, lnz):
    if transcription == "corrected":
        return kB * (lnz + bv * _mean_energy(c, bv, xa, "corrected"))
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
                        transcription: str = "verbatim") -> ThermoPoint:
    """All five typeset closed forms from one _xargs, each bit for bit its
    single-quantity function.  Float coefficients and beta give a point of
    floats; a curve gives a point that holds beta and each quantity as an
    array."""
    bv, xa = _xargs(c, beta, transcription)
    lnz = _log_partition(c, bv, xa)
    return _thermo_point(c, beta, bv, (
        _partition(c, bv, xa), _mean_energy(c, bv, xa, transcription),
        _heat_capacity(c, bv, xa, kB, transcription),
        _entropy(c, bv, xa, kB, transcription, lnz), -lnz / bv), "closed")
