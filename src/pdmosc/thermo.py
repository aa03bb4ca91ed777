"""Partition function of the deformed oscillator via three routes (guarded
series, closed erf form, quadrature) and the thermodynamic quantities U, C,
S, F.

Two evaluation families coexist deliberately:

* the derivative engine (``thermo_from_logZ``) applies the standard
  identities to any log-partition provider by numerical differentiation --
  this is the ground-truth path;
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
from typing import Callable

import numpy as np

from .errors import SingularLimit
from .numerics import Tolerance, derivative, erf, erfcx, integrate_finite, \
    integrate_semi_infinite, sum_decaying
from .spectrum import SpectrumCoefficients

_SQRT_PI = math.sqrt(math.pi)

#: below this b the closed forms are singular; use the sum route instead
B_MIN = 1e-8

TRANSCRIPTIONS = ("verbatim", "corrected")


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising; typo'd verbatim forms
    are allowed to overflow honestly."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _div(num: float, den: float) -> float:
    """num/den with IEEE semantics: a zero denominator gives +-inf (nan for
    0/0) instead of raising, so typo'd verbatim forms overflow honestly."""
    if den != 0.0:
        return num / den
    if num == 0.0 or num != num:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


@dataclass(frozen=True)
class Beta:
    """Inverse temperature 1/(kB*T), strictly positive and finite."""

    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError("beta must be positive and finite")


def as_beta(beta) -> Beta:
    return beta if isinstance(beta, Beta) else Beta(float(beta))


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic state at one beta, produced by one named method."""

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

def _tail_bound_reduced(c: SpectrumCoefficients, beta: float, N: float) -> float:
    """Upper bound on sum_{n>N} exp(-beta (E_n - E_0)).  The terms decrease,
    so the tail is below the integral of exp(-beta (E(t) - E_0)) over
    [N, inf); Gaussian integral bound for b > 0, geometric for b = 0."""
    a, b = c.a, c.b
    e0 = c.energy(0)
    if b > 0.0:
        s = math.sqrt(b * beta)
        cc = (a + 2.0 * b) / (2.0 * b)
        return _SQRT_PI / (2.0 * s) * erfcx(s * (N + cc)) \
            * math.exp(-beta * (c.energy(N) - e0))
    r = math.exp(-beta * a)
    return math.exp(-beta * a * (N + 1.0)) / (1.0 - r)


def _reduced_sum_tail(c: SpectrumCoefficients, bv: float, tol: Tolerance) -> float:
    """sum_{n>=1} exp(-beta (E_n - E_0)), the partition sum above the ground
    state.  Working relative to E_0 keeps every quantity derived from this
    sum accurate near machine precision even when Z itself is tiny."""
    e0 = c.energy(0)
    return sum_decaying(lambda n: math.exp(-bv * (c.energy(n + 1) - e0)),
                        lambda N: _tail_bound_reduced(c, bv, N + 1), tol)


def partition_sum(c: SpectrumCoefficients, beta, tol: Tolerance = Tolerance()) -> float:
    """Z(beta) = sum_n exp(-beta E_n), truncated under a rigorous tail bound
    (Gaussian integral bound for b > 0, geometric for b = 0)."""
    bv = as_beta(beta).value
    return math.exp(-bv * c.energy(0)) * (1.0 + _reduced_sum_tail(c, bv, tol))


def log_partition_sum(c: SpectrumCoefficients, beta, tol: Tolerance = Tolerance()) -> float:
    """ln Z via the ground-state-reduced sum; immune to exp underflow."""
    bv = as_beta(beta).value
    return -bv * c.energy(0) + math.log1p(_reduced_sum_tail(c, bv, tol))


def _xargs(c: SpectrumCoefficients, bv: float):
    """Common erf arguments x1 <= x2 and the stabilized difference
    Dx = e^{x1^2} (erf(x2) - erf(x1))."""
    a, b = c.a, c.b
    x1 = 0.5 * (a + 2.0 * b) * math.sqrt(bv / b)
    x2 = 0.5 * (a + 4.0 * b) * math.sqrt(bv / b)
    dx = erfcx(x1) - math.exp(-bv * (a + 3.0 * b)) * erfcx(x2)
    return x1, x2, dx


def _require_regular(c: SpectrumCoefficients, b_min: float):
    if c.b <= b_min:
        raise SingularLimit(
            f"closed form singular at b={c.b:.3e} <= b_min={b_min:.3e}; use the sum route")


def partition_closed(c: SpectrumCoefficients, beta, b_min: float = B_MIN) -> float:
    """The closed erf form of Z, evaluated as typeset for small erf arguments
    and through the scaled complement (exact algebra) once cancellation in
    the erf difference would cost more than ~1e-13 relative."""
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    a, b = c.a, c.b
    x1, x2, dx = _xargs(c, bv)
    if x1 < 2.0:
        pref = math.exp((a * a + 2.0 * a * b + 2.0 * b * b) * bv / (4.0 * b)) \
            * _SQRT_PI / (2.0 * math.sqrt(b * bv))
        return pref * (erf(x2) - erf(x1))
    return _SQRT_PI / (2.0 * math.sqrt(b * bv)) * math.exp(-bv * (a + b) / 2.0) * dx


def log_partition_closed(c: SpectrumCoefficients, beta, b_min: float = B_MIN) -> float:
    """ln of the closed-form Z, stable at any erf-argument size."""
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    a, b = c.a, c.b
    _, _, dx = _xargs(c, bv)
    return -bv * (a + b) / 2.0 + math.log(_SQRT_PI / (2.0 * math.sqrt(b * bv))) + math.log(dx)


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


def log_partition(c: SpectrumCoefficients, method: str,
                  tol: Tolerance = Tolerance()) -> Callable[[float], float]:
    """A log-partition provider beta -> ln Z for the requested route."""
    if method == "sum":
        return lambda bv: log_partition_sum(c, bv, tol)
    if method == "closed":
        return lambda bv: log_partition_closed(c, bv)
    if method in ("quad01", "quadinf"):
        return lambda bv: math.log(partition_quadrature(c, bv, method, tol))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Derivative engine
# ---------------------------------------------------------------------------

def thermo_from_logZ(logZ: Callable[[float], float], beta, kB: float = 1.0,
                     method: str = "sum") -> ThermoPoint:
    """U, C, S, F from any smooth log-partition provider via the standard
    identities; U and C use Richardson-extrapolated numerical derivatives.
    This is the ground-truth path for every thermodynamic quantity."""
    bt = as_beta(beta)
    bv = bt.value
    dlnZ = derivative(logZ, bv, order=1, scale=bv, positive_only=True)
    d2lnZ = derivative(logZ, bv, order=2, scale=bv, positive_only=True)
    lnZ = logZ(bv)
    U = -dlnZ
    C = kB * bv * bv * d2lnZ
    S = kB * (lnZ + bv * U)
    F = -lnZ / bv
    return ThermoPoint(beta=bt, Z=math.exp(lnZ), U=U, C=C, S=S, F=F, method=method)


def thermo_sum_engine(c: SpectrumCoefficients, beta, kB: float = 1.0,
                      tol: Tolerance = Tolerance()) -> ThermoPoint:
    """Derivative engine on the sum route, differentiated in the
    ground-state-reduced gauge g(beta) = ln sum_n exp(-beta(E_n - E_0))
    = ln Z + beta E_0.

    The identities are gauge-invariant (U = E_0 - g', C = kB beta^2 g'',
    S = kB (g - beta g'), F = E_0 - g/beta); evaluating them on g instead
    of ln Z keeps C accurate even where it is exponentially small and
    |ln Z| is large, which plain finite differences of ln Z cannot do in
    double precision."""
    bt = as_beta(beta)
    bv = bt.value
    e0 = c.energy(0)
    g = lambda x: math.log1p(_reduced_sum_tail(c, x, tol))
    dg = derivative(g, bv, order=1, scale=bv, positive_only=True)
    d2g = derivative(g, bv, order=2, scale=bv, positive_only=True)
    gv = g(bv)
    U = e0 - dg
    return ThermoPoint(beta=bt, Z=math.exp(gv - bv * e0), U=U,
                       C=kB * bv * bv * d2g, S=kB * (gv - bv * dg),
                       F=e0 - gv / bv, method="sum")


def energy_moments(c: SpectrumCoefficients, beta, tol: Tolerance = Tolerance()):
    """(Z, <E>, Var E) over the Boltzmann distribution, by guarded summation.

    Mean and variance come from moments of D_n = E_n - E_0 >= 0, so the
    variance never suffers the <E^2> - <E>^2 cancellation.  Tail bounds for
    the weighted sums use the envelope
    D^k exp(-beta D) <= (2k/(e beta))^k exp(-beta D / 2)."""
    bv = as_beta(beta).value
    e0 = c.energy(0)
    zred = 1.0 + _reduced_sum_tail(c, bv, tol)

    def reduced_moment(k: int) -> float:
        cap = (2.0 * k / (math.e * bv)) ** k
        bound = lambda N: cap * _tail_bound_reduced(c, bv / 2.0, N)
        term = lambda n: (c.energy(n) - e0) ** k * math.exp(-bv * (c.energy(n) - e0))
        return sum_decaying(term, bound, tol)

    d1 = reduced_moment(1) / zred
    d2 = reduced_moment(2) / zred
    return math.exp(-bv * e0) * zred, e0 + d1, d2 - d1 * d1


# ---------------------------------------------------------------------------
# Printed closed forms for U, C, S, F
# ---------------------------------------------------------------------------

def _check_transcription(transcription: str):
    if transcription not in TRANSCRIPTIONS:
        raise ValueError("transcription must be 'verbatim' or 'corrected'")


def mean_energy_closed(c: SpectrumCoefficients, beta, transcription: str = "verbatim",
                       b_min: float = B_MIN) -> float:
    """The typeset closed form of U(beta).

    verbatim keeps the typeset exponents e^{-3 beta - ...} and
    e^{(a^2+2b)^2 beta/(4b)}; corrected restores e^{-3 a beta - ...} and
    e^{(a+2b)^2 beta/(4b)}, which makes the expression exactly
    -d ln Z / d beta of the closed-form Z."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    a, b = c.a, c.b
    x1, x2, dx = _xargs(c, bv)
    delta = a + 3.0 * b
    if transcription == "corrected":
        K = (a * a + 2.0 * a * b + 2.0 * b * b) / (4.0 * b)
        return -K + 0.5 / bv + (x1 - x2 * math.exp(-bv * delta)) / (bv * _SQRT_PI * dx)
    # verbatim: exponents as typeset, combined against each other exactly
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    e1 = bv * ((a * a + 2.0 * b) ** 2 / (4.0 * b) - 3.0 - a * a / (2.0 * b) - 5.0 * b)
    t1 = 2.0 * math.sqrt(b * bv) * ((a + 2.0 * b) * _exp(e1 + bv * delta + x1 * x1)
                                    - (a + 4.0 * b) * _exp(e1 + x1 * x1)) \
        / (4.0 * b * bv * _SQRT_PI * dx)
    t2 = -_exp(3.0 * (a - 1.0) * bv) * poly / (4.0 * b * bv)
    return t1 + t2


def heat_capacity_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                         transcription: str = "verbatim", b_min: float = B_MIN) -> float:
    """The typeset closed form of C(beta).

    The verbatim expression is transcribed literally (it lacks the
    erf(x1)*erf(x2) cross term its own square demands, so it diverges from
    the truth and can overflow).  corrected evaluates the algebraically
    consistent reading, which equals kB beta^2 d2 ln Z/d beta2 exactly."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    a, b = c.a, c.b
    x1, x2, dx = _xargs(c, bv)
    delta = a + 3.0 * b
    if transcription == "corrected":
        sb = math.sqrt(b)
        c1 = (a + 2.0 * b) / (2.0 * sb)
        c2 = (a + 4.0 * b) / (2.0 * sb)
        edec = math.exp(-bv * delta)
        w1 = math.sqrt(bv / math.pi) * (c2 * edec - c1) / dx
        return kB * (0.5 - 0.5 * w1 - w1 * w1
                     + bv ** 1.5 / _SQRT_PI * (c1 ** 3 - c2 ** 3 * edec) / dx)
    # verbatim transcription; prefactor exponent folded into each term
    e1 = erf(x1)
    e2 = erf(x2)
    d = math.exp(-x1 * x1) * dx
    sbb = math.sqrt(b * bv)
    ap2, ap4 = a + 2.0 * b, a + 4.0 * b
    t1 = 2.0 * b * bv * math.sqrt(bv / b) * (
        ap4 * ap4 * _exp(-2.0 * x2 * x2)
        - 2.0 * ap4 * ap2 * _exp(-(x1 * x1 + x2 * x2))
        + ap2 * ap2 * _exp(-2.0 * x1 * x1))
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
    t3 = -bv * _SQRT_PI * e2 * (pc_sym * _exp(-x2 * x2) + pe_sym * _exp(-x1 * x1))
    t5 = bv * _SQRT_PI * e1 * (pc_asym * _exp(-x2 * x2) + pe_asym * _exp(-x1 * x1))
    num = bv * (t1 + t2 + t3 + t4 + t5 + t6)
    return _div(kB * num, 8.0 * (b * bv) ** 1.5 * math.pi * d * d)


def entropy_closed(c: SpectrumCoefficients, beta, kB: float = 1.0,
                   transcription: str = "verbatim", b_min: float = B_MIN) -> float:
    """The typeset closed form of S(beta).

    The verbatim expression follows the typeset parenthesization (the
    decaying prefactor multiplies only the first numerator group), under
    which the remaining terms keep a bare growing exponential.  No reading
    of the typeset S matches kB(lnZ - beta dlnZ/dbeta); corrected therefore
    evaluates that defining identity with the corrected U."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    a, b = c.a, c.b
    lnz = log_partition_closed(c, bv, b_min)
    if transcription == "corrected":
        return kB * (lnz + bv * mean_energy_closed(c, bv, "corrected", b_min))
    x1, x2, dx = _xargs(c, bv)
    delta = a + 3.0 * b
    poly = a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)
    frac1 = -math.sqrt(bv / b) * 2.0 * bv \
        * ((a + 4.0 * b) * math.exp(-bv * delta) - (a + 2.0 * b)) / (4.0 * bv * math.pi * dx)
    big = bv * (3.0 * a + a * a / (2.0 * b) + 5.0 * b)
    frac2 = -math.sqrt(bv / b) * poly * _exp(big) / (4.0 * bv * _SQRT_PI)
    return kB * (frac1 + frac2 + lnz)


def free_energy_closed(c: SpectrumCoefficients, beta, b_min: float = B_MIN) -> float:
    """F(beta) = -ln(Z_closed)/beta; the typeset F is exactly this
    composition, so there is nothing to transcribe."""
    bv = as_beta(beta).value
    return -math.log(partition_closed(c, bv, b_min)) / bv


def thermo_closed_point(c: SpectrumCoefficients, beta, kB: float = 1.0,
                        transcription: str = "verbatim", b_min: float = B_MIN) -> ThermoPoint:
    """All five quantities from the typeset closed forms at once."""
    bt = as_beta(beta)
    return ThermoPoint(
        beta=bt,
        Z=partition_closed(c, bt, b_min),
        U=mean_energy_closed(c, bt, transcription, b_min),
        C=heat_capacity_closed(c, bt, kB, transcription, b_min),
        S=entropy_closed(c, bt, kB, transcription, b_min),
        F=free_energy_closed(c, bt, b_min),
        method="closed",
    )
