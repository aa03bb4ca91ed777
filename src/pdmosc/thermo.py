"""Partition function of the deformed oscillator via three routes (guarded
series, closed erf form, quadrature) and the thermodynamic quantities U, C,
S, F.

Two evaluation families coexist deliberately:

* the ground truth takes U = <E> and C = kB beta^2 Var E from exact
  Boltzmann moments in the ground-state gauge, summed over the levels
  (``thermo_sum_engine``, the physical route) or integrated over continuous
  n (``thermo_quadrature``, whose 'quad01' point is the audit's oracle for
  the closed forms);
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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SingularLimit
from .numerics import Tolerance, erf, erfcx, exp_neg_product, integrate_batch, \
    integrate_finite, integrate_semi_infinite, sum_decaying
from .spectrum import SpectrumCoefficients

_SQRT_PI = math.sqrt(math.pi)

#: below this b the closed forms are singular; use the sum route instead
B_MIN = 1e-8

TRANSCRIPTIONS = ("verbatim", "corrected")


#: the typeset forms overflow, divide by zero and subtract infinities
#: honestly: numpy's warnings are off inside them
_saturating = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@dataclass(frozen=True)
class Beta:
    """Inverse temperature 1/(kB*T), strictly positive and finite."""

    value: float

    def __post_init__(self):
        _check_beta(self.value)


def _check_beta(value):
    """Beta's domain rule, 0 < beta < inf, for a float or for every element
    of an array (the superstat closed forms take beta arrays)."""
    ok = (value > 0.0) & (value < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("beta must be positive and finite")


def as_beta(beta) -> Beta:
    return beta if isinstance(beta, Beta) else Beta(float(beta))


def _beta_values(beta) -> np.ndarray:
    """beta (a float, a Beta or an array) as a float array of at least one
    dimension, every element checked: the closed forms and the batched
    quadrature evaluate a point as a one-element array, so that it rounds
    through the same numpy loops as a curve."""
    bv = np.atleast_1d(np.asarray(beta.value if isinstance(beta, Beta) else beta, dtype=float))
    _check_beta(bv)
    return bv


def _shaped(value: np.ndarray, *params):
    """A float where every parameter (beta, and q for superstat) is a
    float, else the array."""
    return value.item() if all(np.ndim(p) == 0 for p in params) else value


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic state at one beta, produced by one named method.  A
    point over a curve holds beta and each quantity as arrays."""

    beta: Beta
    Z: float
    U: float
    C: float
    S: float
    F: float
    method: str


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
    for i in np.flatnonzero(geometric).tolist():
        ai, bvi = float(a[i]), float(bv[i])
        om = -math.expm1(-bvi * ai)
        t = math.exp(-bvi * ai) / om
        tail[i], mean[i], var[i] = t, ai * t, ai * t * (ai / om)
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


def _require_regular(c: SpectrumCoefficients, b_min: float):
    if c.b <= b_min:
        raise SingularLimit(
            f"closed form singular at b={c.b:.3e} <= b_min={b_min:.3e}; use the sum route")


def _xargs(c: SpectrumCoefficients, beta, b_min: float, transcription: str = "verbatim"):
    """beta as a checked array (_beta_values) and the common erf arguments
    x1 <= x2 with the stabilized difference Dx = e^{x1^2} (erf(x2) - erf(x1)),
    after the argument checks; the closed forms below take them, so a whole
    point or curve forms them once."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = _beta_values(beta)
    a, b = c.a, c.b
    x1 = 0.5 * (a + 2.0 * b) * np.sqrt(bv / b)
    x2 = 0.5 * (a + 4.0 * b) * np.sqrt(bv / b)
    return bv, (x1, x2, erfcx(x1) - np.exp(-bv * (a + 3.0 * b)) * erfcx(x2))


@_saturating
def partition_closed(c: SpectrumCoefficients, beta,
                     b_min: float = B_MIN) -> float | np.ndarray:
    """The closed erf form of Z, evaluated as typeset for small erf arguments
    and through the scaled complement (exact algebra) once cancellation in
    the erf difference would cost more than ~1e-13 relative.  Like every
    closed form below it takes a float beta or an array, elementwise."""
    return _shaped(_partition(c, *_xargs(c, beta, b_min)), beta)


def _partition(c: SpectrumCoefficients, bv, xa):
    a, b = c.a, c.b
    x1, x2, dx = xa
    typeset = np.exp((a * a + 2.0 * a * b + 2.0 * b * b) * bv / (4.0 * b)) \
        * _SQRT_PI / (2.0 * np.sqrt(b * bv)) * (erf(x2) - erf(x1))
    scaled = _SQRT_PI / (2.0 * np.sqrt(b * bv)) * np.exp(-bv * (a + b) / 2.0) * dx
    return np.where(x1 < 2.0, typeset, scaled)


@_saturating
def log_partition_closed(c: SpectrumCoefficients, beta,
                         b_min: float = B_MIN) -> float | np.ndarray:
    """ln of the closed-form Z, stable at any erf-argument size."""
    return _shaped(_log_partition(c, *_xargs(c, beta, b_min)), beta)


def _log_partition(c: SpectrumCoefficients, bv, xa):
    a, b = c.a, c.b
    return -bv * (a + b) / 2.0 + np.log(_SQRT_PI / (2.0 * np.sqrt(b * bv))) + np.log(xa[2])


def partition_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                         tol: Tolerance = Tolerance()) -> float:
    """Integral of exp(-beta E(n)) dn over [0,1] ("quad01") or [0,inf)
    ("quadinf"), E(n) the compact form with continuous n."""
    bv = as_beta(beta).value

    def f(n):
        return np.exp(-bv * c.energy(np.asarray(n, dtype=float)))

    if range_ == "quad01":
        return integrate_finite(f, 0.0, 1.0, tol).value
    if range_ == "quadinf":
        return integrate_semi_infinite(f, 0.0, tol).value
    raise ValueError("range_ must be 'quad01' or 'quadinf'")


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

    c may also be a sequence of SpectrumCoefficients (an alpha curve) and
    beta an array of floats (a beta curve), broadcast against each other:
    the point then holds beta and each quantity as arrays over the points,
    all from one ragged level sum (_boltzmann_levels), each element bit for
    bit its one-point call."""
    point = isinstance(c, SpectrumCoefficients) and np.ndim(beta) == 0
    cs = (c,) if isinstance(c, SpectrumCoefficients) else tuple(c)
    a, b, bv = np.broadcast_arrays(np.array([x.a for x in cs]), np.array([x.b for x in cs]),
                                   _beta_values(beta))
    tail, mean, var = _boltzmann_levels(a, b, bv, tol)
    g = np.array([math.log1p(t) for t in tail.tolist()])
    e0 = a * 0.5 + b * 0.5  # c.energy(0), bit for bit
    z = np.array([exp_neg_product(x, 0.5 * ai, 0.5 * bi) * (1.0 + t)
                  for x, ai, bi, t in zip(bv.tolist(), a.tolist(), b.tolist(), tail.tolist())])
    columns = (z, e0 + mean, kB * bv * bv * var, kB * (g + bv * mean), e0 - g / bv)
    if point:
        return ThermoPoint(as_beta(beta), *(float(col[0]) for col in columns), method="sum")
    return ThermoPoint(bv, *columns, method="sum")


def _factor_q(E, bv, qv: float):
    """The deformed Boltzmann factor e^{-beta E}(1 + (q/2) beta^2 E^2),
    unchecked; bv may be an array broadcasting with E."""
    be = bv * E
    return np.exp(-be) * (1.0 + 0.5 * qv * be * be)


#: row k < 3 of the moment integrand is e^{-beta D} E^k (1 + q (A_k + B_k x + x^2/2))
_ROW_A = np.array([0.0, 0.0, 1.0, 0.0])
_ROW_B = np.array([0.0, -1.0, -2.0, 0.0])


def _quadrature_moments(c: SpectrumCoefficients, bv: np.ndarray, qv: float, hi: float,
                        kB: float, tol: Tolerance):
    """(Z, U, C, S, F), each an array over the 1-d beta array bv, of the
    weight e^{-beta E}(1 + (q/2) beta^2 E^2) over n in [0, hi] (q = 0: the
    Boltzmann weight), from its exact moments M_0, M_1 = -dM_0/dbeta,
    M_2 = d^2 M_0/dbeta^2: rows of one batched quadrature in the
    ground-state gauge, e^{-beta D} with D = E - E_0 in place of e^{-beta E}.
    With x = beta E the rows are
        e^{-beta D} (1 + q x^2/2),
        e^{-beta D} E (1 - q x + q x^2/2),
        e^{-beta D} E^2 (1 + q - 2 q x + q x^2/2),
    each >= 0 for q in [0, 1], so each row's relative tolerance means
    something.  Then U = M_1/M_0 and d^2 ln Z/d beta^2 = M_2/M_0 - U^2.
    A fourth row integrates the weight itself, so that Z is bit for bit the
    single quadrature of the weight (partition_quadrature,
    superstat_partition_quadrature) and F = -ln(Z)/beta exactly; where Z
    falls below the normal range, ln Z = ln M_0 - beta E_0 keeps S and F
    finite.  Every beta contributes its four rows to one integrate_batch
    call, whose rows each equal their single-row call, so each beta gets
    the bits of its one-point call.

    The moment rows fall only once beta E exceeds about 5.3; at small beta
    that lies beyond the tail probes of integrate_batch, so on [0, inf)
    they are integrated over n = s m, with s >= 1 the smallest scale that
    puts beta D = 8 at or before the probe m = 24."""
    e0 = c.energy(0)
    s = np.ones_like(bv)
    if hi == math.inf:
        lin, level = c.a + 2.0 * c.b, 8.0 / bv  # D(n) = b n^2 + (a + 2b) n
        s = np.maximum(1.0, 2.0 * level / (lin + np.sqrt(lin * lin + 4.0 * c.b * level)) / 24.0)

    def rows(n, r):
        i, k = np.divmod(r[:, None], 4)  # row r is moment k of beta i
        b, sk = bv[i], s[i]
        e = c.energy(np.where(k == 3, n, sk * n))
        x = b * e
        # E^k as a product: numpy's power can round an element differently
        # depending on where it sits in the array
        ek = np.where(k == 0, 1.0, e) * np.where(k == 2, e, 1.0)
        moment = np.exp(-b * (e - e0)) * ek \
            * (1.0 + qv * (_ROW_A[k] + _ROW_B[k] * x + 0.5 * x * x))
        return np.where(k == 3, _factor_q(e, b, qv), sk * moment)

    values = [r.value for r in integrate_batch(rows, 4 * len(bv), 0.0, hi, tol)]
    m0, m1, m2, z = np.array(values).reshape(-1, 4).T
    lnz = np.array([math.log(zi) if zi >= sys.float_info.min else math.log(mi) - bi * e0
                    for zi, mi, bi in zip(z.tolist(), m0.tolist(), bv.tolist())])
    u = m1 / m0
    return z, u, kB * bv * bv * (m2 / m0 - u * u), kB * (lnz + bv * u), -lnz / bv


def thermo_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                      kB: float = 1.0, tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Z, U, C, S, F of the partition_quadrature integral over [0, 1]
    ("quad01") or [0, inf) ("quadinf"), from its exact beta-moments.  A
    beta array gives a point that holds it and each quantity as an array,
    all from one batched quadrature, each element bit for bit its float
    call."""
    if range_ not in ("quad01", "quadinf"):
        raise ValueError("range_ must be 'quad01' or 'quadinf'")
    bv = _beta_values(beta)
    hi = 1.0 if range_ == "quad01" else math.inf
    columns = _quadrature_moments(c, bv.ravel(), 0.0, hi, kB, tol)
    if np.ndim(beta) == 0:
        return ThermoPoint(as_beta(beta), *(col.item() for col in columns), method=range_)
    return ThermoPoint(bv, *(col.reshape(bv.shape) for col in columns), method=range_)


# ---------------------------------------------------------------------------
# Printed closed forms for U, C, S, F
# ---------------------------------------------------------------------------

def _check_transcription(transcription: str):
    if transcription not in TRANSCRIPTIONS:
        raise ValueError("transcription must be 'verbatim' or 'corrected'")


@_saturating
def mean_energy_closed(c: SpectrumCoefficients, beta, transcription: str = "verbatim",
                       b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of U(beta).

    verbatim keeps the typeset exponents e^{-3 beta - ...} and
    e^{(a^2+2b)^2 beta/(4b)}; corrected restores e^{-3 a beta - ...} and
    e^{(a+2b)^2 beta/(4b)}, which makes the expression exactly
    -d ln Z / d beta of the closed-form Z."""
    return _shaped(_mean_energy(c, *_xargs(c, beta, b_min, transcription), transcription), beta)


def _mean_energy(c: SpectrumCoefficients, bv, xa, transcription: str):
    a, b = c.a, c.b
    x1, x2, dx = xa
    delta = a + 3.0 * b
    if transcription == "corrected":
        K = (a * a + 2.0 * a * b + 2.0 * b * b) / (4.0 * b)
        return -K + 0.5 / bv + (x1 - x2 * np.exp(-bv * delta)) / (bv * _SQRT_PI * dx)
    # verbatim: exponents as typeset, combined against each other exactly
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    e1 = bv * ((a * a + 2.0 * b) ** 2 / (4.0 * b) - 3.0 - a * a / (2.0 * b) - 5.0 * b)
    t1 = 2.0 * np.sqrt(b * bv) * ((a + 2.0 * b) * np.exp(e1 + bv * delta + x1 * x1)
                                  - (a + 4.0 * b) * np.exp(e1 + x1 * x1)) \
        / (4.0 * b * bv * _SQRT_PI * dx)
    t2 = -np.exp(3.0 * (a - 1.0) * bv) * poly / (4.0 * b * bv)
    return t1 + t2


@_saturating
def heat_capacity_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                         transcription: str = "verbatim",
                         b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of C(beta).

    The verbatim expression is transcribed literally (it lacks the
    erf(x1)*erf(x2) cross term its own square demands, so it diverges from
    the truth and can overflow).  corrected evaluates the algebraically
    consistent reading, which equals kB beta^2 d2 ln Z/d beta2 exactly."""
    return _shaped(_heat_capacity(c, *_xargs(c, beta, b_min, transcription), kB,
                                  transcription), beta)


def _heat_capacity(c: SpectrumCoefficients, bv, xa, kB: float, transcription: str):
    a, b = c.a, c.b
    x1, x2, dx = xa
    delta = a + 3.0 * b
    if transcription == "corrected":
        sb = math.sqrt(b)
        c1 = (a + 2.0 * b) / (2.0 * sb)
        c2 = (a + 4.0 * b) / (2.0 * sb)
        edec = np.exp(-bv * delta)
        w1 = np.sqrt(bv / math.pi) * (c2 * edec - c1) / dx
        return kB * (0.5 - 0.5 * w1 - w1 * w1
                     + bv ** 1.5 / _SQRT_PI * (c1 ** 3 - c2 ** 3 * edec) / dx)
    # verbatim transcription; prefactor exponent folded into each term
    e1 = erf(x1)
    e2 = erf(x2)
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
    pe_sym = 6.0 * a * a * b * bv + a ** 3 * bv + 4.0 * b * b + 8.0 * b ** 3 * bv \
        + 2.0 * a * b + 12.0 * a * b * b * bv
    pc_sym = -12.0 * a * a * b * bv - a ** 3 * bv - 8.0 * b * b - 64.0 * b ** 3 * bv \
        - 2.0 * a * b - 48.0 * a * b * b * bv
    # the Erf[x1] polynomial as typeset (its 6 b beta group sits outside the 2ab factor)
    pe_asym = 6.0 * a * a * b * bv + a ** 3 * bv + 4.0 * b * b + 8.0 * b ** 3 * bv \
        + 2.0 * a * b + 6.0 * b * bv
    pc_asym = -12.0 * a * a * b * bv - a ** 3 * bv - 8.0 * b * b - 64.0 * b ** 3 * bv \
        - 2.0 * a * b - 24.0 * b * bv
    t3 = -bv * _SQRT_PI * e2 * (pc_sym * np.exp(-x2 * x2) + pe_sym * np.exp(-x1 * x1))
    t5 = bv * _SQRT_PI * e1 * (pc_asym * np.exp(-x2 * x2) + pe_asym * np.exp(-x1 * x1))
    num = bv * (t1 + t2 + t3 + t4 + t5 + t6)
    return kB * num / (8.0 * (b * bv) ** 1.5 * math.pi * d * d)


@_saturating
def entropy_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                   transcription: str = "verbatim",
                   b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of S(beta).

    The verbatim expression follows the typeset parenthesization (the
    decaying prefactor multiplies only the first numerator group), under
    which the remaining terms keep a bare growing exponential.  No reading
    of the typeset S matches kB(lnZ - beta dlnZ/dbeta); corrected therefore
    evaluates that defining identity with the corrected U."""
    bv, xa = _xargs(c, beta, b_min, transcription)
    return _shaped(_entropy(c, bv, xa, kB, transcription, _log_partition(c, bv, xa)), beta)


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
def free_energy_closed(c: SpectrumCoefficients, beta,
                       b_min: float = B_MIN) -> float | np.ndarray:
    """F(beta) = -ln(Z_closed)/beta; the typeset F is exactly this
    composition, so there is nothing to transcribe.  ln Z_closed is taken
    stably, so F stays finite where Z_closed underflows."""
    bv, xa = _xargs(c, beta, b_min)
    return _shaped(-_log_partition(c, bv, xa) / bv, beta)


@_saturating
def thermo_closed_point(c: SpectrumCoefficients, beta, kB: float = 1.0,
                        transcription: str = "verbatim", b_min: float = B_MIN) -> ThermoPoint:
    """All five typeset closed forms from one _xargs, each bit for bit its
    single-quantity function.  A float beta gives a point of floats; a beta
    array gives a point that holds it and each quantity as an array."""
    bv, xa = _xargs(c, beta, b_min, transcription)
    lnz = _log_partition(c, bv, xa)
    columns = {"Z": _partition(c, bv, xa), "U": _mean_energy(c, bv, xa, transcription),
               "C": _heat_capacity(c, bv, xa, kB, transcription),
               "S": _entropy(c, bv, xa, kB, transcription, lnz), "F": -lnz / bv}
    return ThermoPoint(as_beta(beta) if np.ndim(beta) == 0 else bv, method="closed",
                       **{qn: _shaped(v, beta) for qn, v in columns.items()})
