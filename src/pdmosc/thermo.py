"""Partition function of the deformed oscillator via three routes (level
sums to rounding, closed erf form, quadrature) and the thermodynamic
quantities U, C, S, F.

Two evaluation families coexist deliberately:

* the ground truth takes U = <E> and C = beta^2 Var E from exact
  Boltzmann moments in the ground-state gauge, summed over the levels
  (``thermo_sum_engine``, the physical route) or integrated over continuous
  n (``thermo_quadrature``, whose 'quad01' point is the audit's oracle for
  the closed forms), both from ``_moments``, which superstat shares;
* the closed-form evaluators reproduce the typeset expressions for U, C, S,
  F.  Those expressions carry typesetting defects, so each is available in
  two transcriptions: ``verbatim`` (exactly as typeset, including suspected
  typos; may legitimately overflow) and ``corrected`` (the algebraically
  consistent reading).  Fidelity is measured by the verify module, never
  assumed.

The closed erf form of Z equals the integral of exp(-beta*E(n)) over
n in [0, 1] -- not the full sum; ``thermo_sum_engine`` is the physical route.
Every C and S here is in units of kB, which routes multiplies them by.
"""

import math
from typing import NamedTuple

import numpy as np

from ._moments import (B_MIN, TRANSCRIPTIONS, _beta_values, _boltzmann_levels,
                       _check_transcription, _columns, _point, _quadrature_moments,
                       _require_regular, _saturating, _shaped, _transcribed, _transcriptions)
from .numerics import _SQRT_PI, Tolerance, erf, erfcx, exp_neg_product
from .spectrum import SpectrumCoefficients


class ThermoPoint(NamedTuple):
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


def thermo_sum_engine(c, beta, order: int = 2) -> ThermoPoint:
    """Ground truth on the sum route: Z = sum_n exp(-beta E_n) = exp(-beta
    E_0) (1 + tail), and U, C, S and F (_columns) from the exact moments of
    u_n = beta (E_n - E_0) >= 0 over the Boltzmann distribution of the
    levels (_boltzmann_levels, always to rounding, so there is no
    tolerance), with ln G = ln(1 + tail) = ln Z + beta E_0 taken as
    log1p(tail): at (alpha, beta) = (0.02, 700) S = 5.2e-311 rests on the
    tail alone.  Where the level sums carry a scale 2^m (w_1 near the
    subnormal range), S and C are formed at that scale and rounded once, and
    ln G = tail there.

    The coefficients may be arrays (an alpha curve) and beta an array (a
    beta curve), broadcast against each other to any shape (an alpha x beta
    mesh): the point then holds beta and each quantity as arrays of it, all
    from one _boltzmann_levels call, each element bit for bit its one-point
    call.

    order, the highest k of the rows sum_n u_n^k e^{-u_n} that are summed,
    limits the point to the quantities they give, each bit for bit its field
    at the default order 2: Z and F at 0, U and S too at 1, C at 2; the
    rest are NaN."""
    a, b, bv = np.broadcast_arrays(c.a, c.b, _beta_values(beta))
    tail, mean, var, m = (x.reshape(bv.shape) for x in
                          _boltzmann_levels(a.ravel(), b.ravel(), bv.ravel(), order))
    unscaled = np.ldexp(tail, -m)
    z = exp_neg_product(bv, 0.5 * a, 0.5 * b) * (1.0 + unscaled)
    log_g = np.where(m > 0, tail, np.log1p(unscaled))  # at scale 2^m: tail < e^{-700} there
    return _point(ThermoPoint, (c.a, beta), "sum", bv, *_columns(c, bv, z, log_g, mean, var, m))


def _upper(range_: str) -> float:
    """The upper end of the n range: 1 for "quad01", inf for "quadinf"."""
    if range_ not in ("quad01", "quadinf"):
        raise ValueError("range_ must be 'quad01' or 'quadinf'")
    return 1.0 if range_ == "quad01" else math.inf


def thermo_quadrature(c: SpectrumCoefficients, beta, range_: str = "quad01",
                      tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Z, U, C, S, F of Z = the integral of exp(-beta E(n)) dn, E(n) the
    compact form at continuous n, over [0, 1] ("quad01") or [0, inf)
    ("quadinf"), from its exact beta-moments.  A curve (beta or coefficient
    arrays) gives a point that holds beta and each quantity as arrays, all
    from one batched quadrature, each element bit for bit its float call."""
    bv = _beta_values(beta)
    return _point(ThermoPoint, (c.a, beta), range_, bv,
                  *_quadrature_moments(c, bv, 0.0, _upper(range_), tol))


# ---------------------------------------------------------------------------
# Typeset closed forms of Z, U, C, S, F
# ---------------------------------------------------------------------------

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
    bv = _beta_values(beta)
    _require_regular(c)
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
    """ln of the closed-form Z from the scaled difference Dx of _xargs, so
    finite at large beta, where Z underflows.  Dx cancels like 1/sqrt(b beta)
    as beta falls: at alpha = 0.3, -ln Z/beta is 5e-11 off at beta = 1e-4,
    3e-4 at 1e-8 and 380 times the truth at 1e-12, and below beta ~ 1e-32 Dx
    is 0 and ln Z is -inf.  ln(partition_closed) keeps more digits there
    (3e-12 at 1e-4, 7e-8 at 1e-8); see ROADMAP item 10."""
    return _shaped(_log_partition(c, *_xargs(c, beta)), beta, c.a)


def _log_partition(c: SpectrumCoefficients, bv, xa):
    a, b = c.a, c.b
    return -bv * (a + b) / 2.0 + np.log(_SQRT_PI / (2.0 * np.sqrt(b * bv))) + np.log(xa[2])


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
def heat_capacity_closed(c: SpectrumCoefficients, beta,
                         transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of C(beta).

    The verbatim expression is transcribed literally (it lacks the
    erf(x1)*erf(x2) cross term its own square demands, so it diverges from
    the truth and can overflow).  corrected evaluates the algebraically
    consistent reading, which equals beta^2 d2 ln Z/d beta2 exactly."""
    _check_transcription(transcription)
    return _shaped(_heat_capacity(c, *_xargs(c, beta), transcription), beta, c.a)


def _heat_capacity(c: SpectrumCoefficients, bv, xa, transcription: str, erfs=None):
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
        return (0.5 - 0.5 * w1 - w1 * w1
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
    return num / (8.0 * (b * bv) ** 1.5 * math.pi * d * d)


@_saturating
def entropy_closed(c: SpectrumCoefficients, beta,
                   transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of S(beta).

    The verbatim expression follows the typeset parenthesization (the
    decaying prefactor multiplies only the first numerator group), under
    which the remaining terms keep a bare growing exponential.  No reading
    of the typeset S matches lnZ - beta dlnZ/dbeta; corrected therefore
    evaluates that defining identity with the corrected U."""
    _check_transcription(transcription)
    bv, xa = _xargs(c, beta)
    u = _mean_energy(c, bv, xa, transcription) if transcription == "corrected" else None
    return _shaped(_entropy(c, bv, xa, transcription, _log_partition(c, bv, xa), u), beta, c.a)


def _entropy(c: SpectrumCoefficients, bv, xa, transcription: str, lnz, u):
    """S from _xargs, ln Z and, for the corrected S, the corrected U."""
    if transcription == "corrected":
        return lnz + bv * u
    a, b = c.a, c.b
    _, _, dx = xa
    delta = a + 3.0 * b
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    frac1 = -np.sqrt(bv / b) * 2.0 * bv \
        * ((a + 4.0 * b) * np.exp(-bv * delta) - (a + 2.0 * b)) / (4.0 * bv * math.pi * dx)
    big = bv * (3.0 * a + a * a / (2.0 * b) + 5.0 * b)
    frac2 = -np.sqrt(bv / b) * poly * np.exp(big) / (4.0 * bv * _SQRT_PI)
    return frac1 + frac2 + lnz


@_saturating
def thermo_closed_point(c: SpectrumCoefficients, beta,
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
        [(z, (u := _mean_energy(c, bv, xa, tr)), _heat_capacity(c, bv, xa, tr, erfs),
          _entropy(c, bv, xa, tr, lnz, u), f) for tr in names]))
