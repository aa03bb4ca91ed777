"""Superstatistics layer: q-deformed Boltzmann factor, the superstatistical
partition function (quadrature and typeset closed form), and the deformed
thermodynamic quantities.

Ground truth is the quadrature route; the typeset closed forms are
reproduction targets.  The typeset Z_s appears twice in the source
expressions with conflicting signs of its 2 a^3 sqrt(b) beta term;
``verbatim`` carries the standalone variant (minus), ``corrected`` the
variant restated inside the free energy (plus).  The typeset U_s and S_s
restate each other with further conflicting monomials; again both readings
are carried and the verify module adjudicates empirically.

All closed forms are arranged so that algebraically cancelling e^{x1^2}
factors never appear; genuinely non-cancelling ones (transcription defects)
are left to overflow honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Underflow
from .numerics import (Tolerance, derivative, erfcx, integrate_semi_infinite,
                       integrate_semi_infinite_batch, richardson, stencil)
from .spectrum import SpectrumCoefficients
from .thermo import (B_MIN, Beta, _check_transcription, _exp,
                     _require_regular, as_beta)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class DeformationQ:
    """Departure from Boltzmann-Gibbs statistics; q = 0 is classical."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")


def as_q(q) -> DeformationQ:
    return q if isinstance(q, DeformationQ) else DeformationQ(float(q))


@dataclass(frozen=True)
class SuperstatPoint:
    """Superstatistical state at one (beta, q), produced by one method."""

    beta: Beta
    q: DeformationQ
    Zs: float
    Us: float
    Ss: float
    Fs: float
    Cs: float
    method: str


def boltzmann_factor_q(E, beta, q) -> float:
    """Generalized Boltzmann factor e^{-beta E} (1 + (q/2) beta^2 E^2).

    Equals the classical factor at q = 0 and never falls below it.
    Accepts numpy arrays in E transparently.
    """
    return _factor_q(E, as_beta(beta).value, as_q(q).q)


def _factor_q(E, bv, qv: float):
    """boltzmann_factor_q unchecked; bv may be an array broadcasting with E."""
    be = bv * E
    return np.exp(-be) * (1.0 + 0.5 * qv * be * be)


def superstat_partition_quadrature(c: SpectrumCoefficients, beta, q,
                                   tol: Tolerance = Tolerance()) -> float:
    """Z_s = integral over n in [0, inf) of the deformed factor at E(n).

    This is the ground truth for the superstatistics layer."""
    bv = as_beta(beta).value
    qv = as_q(q).q
    return integrate_semi_infinite(lambda n: _factor_q(c.energy(n), bv, qv), 0.0, tol).value


# ---------------------------------------------------------------------------
# Typeset closed form of Z_s and its restated brackets
# ---------------------------------------------------------------------------

def _bracket_pieces(c: SpectrumCoefficients, bv: float, qv: float, sign_a3: float):
    """P (no-exponential part) and R (erf-coefficient polynomial) of the big
    bracket of the typeset Z_s; the bracket equals P + sqrt(pi) R erfcx(x1)
    because its Gaussian and erf parts cancel exactly."""
    a, b = c.a, c.b
    sb = math.sqrt(b)
    sbeta = math.sqrt(bv)
    sbb = sb * sbeta
    P = qv * (sbeta * (12.0 * a * b * sb + 24.0 * b * b * sb + sign_a3 * 2.0 * a ** 3 * sb * bv)
              - 4.0 * a * a * b * bv * sbb)
    R = (a ** 4 * bv * bv * qv + 4.0 * b ** 4 * bv * bv * qv
         + 4.0 * a * a * b * bv * (-1.0 + a * bv) * qv
         + 8.0 * b ** 3 * bv * (-1.0 + a * bv) * qv
         + 4.0 * b * b * (8.0 + (3.0 - 2.0 * a * bv + 2.0 * a * a * bv * bv) * qv))
    return P, R


def _x1(c: SpectrumCoefficients, bv: float) -> float:
    return 0.5 * (c.a + 2.0 * c.b) * math.sqrt(bv / c.b)


def _bracket(c: SpectrumCoefficients, bv: float, qv: float, sign_a3: float,
             den_b2_typo: bool = False) -> float:
    P, R = _bracket_pieces(c, bv, qv, sign_a3)
    x1 = _x1(c, bv)
    val = P + _SQRT_PI * R * erfcx(x1)
    if den_b2_typo:
        # the U_s denominator restates the bracket with 8 b^2 beta instead of
        # 8 b^3 beta, leaving an uncancelled Gaussian of this size
        a, b = c.a, c.b
        d = -8.0 * qv * b * b * bv * (b - 1.0) * (a * bv - 1.0)
        val += _SQRT_PI * d * _exp(x1 * x1)
    return val


def superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                               transcription: str = "verbatim",
                               b_min: float = B_MIN) -> float:
    """The typeset closed form of Z_s, overflow-stabilized exactly."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    qv = as_q(q).q
    sign = -1.0 if transcription == "verbatim" else 1.0
    pref = math.exp(-(c.a + c.b) * bv / 2.0) / (64.0 * c.b ** 2.5 * math.sqrt(bv))
    return pref * _bracket(c, bv, qv, sign)


def log_superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                                   transcription: str = "verbatim",
                                   b_min: float = B_MIN) -> float:
    """ln Z_s (closed form), stable at large beta."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    qv = as_q(q).q
    sign = -1.0 if transcription == "verbatim" else 1.0
    return (-(c.a + c.b) * bv / 2.0 - math.log(64.0 * c.b ** 2.5 * math.sqrt(bv))
            + math.log(_bracket(c, bv, qv, sign)))


# ---------------------------------------------------------------------------
# Typeset closed forms of U_s and S_s
# ---------------------------------------------------------------------------

def _numerator_pieces(c: SpectrumCoefficients, bv: float, qv: float, variant: str):
    """P and R of the big fraction numerator shared by the typeset U_s and
    S_s.  variant 'us' follows the U_s print (whose Gaussian/erf parts do
    NOT cancel; the residue is returned as D), variant 'ss' the S_s print
    (which cancels exactly, D = 0)."""
    a, b = c.a, c.b
    bb = b * bv
    sbb = math.sqrt(bb)
    if variant == "us":
        a4_inner = -4.0 * bb
        ab_pow = 2
        D = -8.0 * a * b ** 2.5 * bv ** 1.5 * (b - 1.0) * (
            8.0 + qv * (1.0 + 2.0 * bb + 3.0 * bb * bb))
    else:
        a4_inner = -6.0 * bb + bb
        ab_pow = 3
        D = 0.0
    P = (4.0 * a ** 3 * (-2.0 * bb ** 1.5 * sbb + bb ** 2.5 * sbb
                         + 2.0 * bb * bb - 6.0 * bb ** 3) * qv
         + 2.0 * a ** 5 * b * bv ** 3 * (-1.0) * qv
         + 2.0 * a ** 4 * b * bv * bv * a4_inner * qv
         + 8.0 * a * b ** ab_pow * bv * (-8.0 - (3.0 + 3.0 * bb + 5.0 * bb * bb) * qv)
         + 4.0 * a * a * b * b * bv * (-2.0 * bb - 10.0 * bb * bb) * qv
         + 8.0 * b ** 3 * (-6.0 * bb ** 1.5 * sbb * qv - 2.0 * bb ** 3 * qv
                           + 4.0 * bb * bb * qv - 2.0 * bb * (8.0 + 3.0 * qv)))
    R = sbb * (a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)) * (
        a ** 4 * bv * bv * qv + 4.0 * b ** 4 * bv * bv * qv
        + 4.0 * a * a * b * bv * (1.0 + a * bv) * qv
        + 8.0 * b ** 3 * bv * (1.0 + a * bv) * qv
        + 4.0 * b * b * (8.0 + (3.0 + 2.0 * a * bv + 2.0 * a * a * bv * bv) * qv))
    return P, R, D


def _numerator(c: SpectrumCoefficients, bv: float, qv: float, variant: str) -> float:
    P, R, D = _numerator_pieces(c, bv, qv, variant)
    x1 = _x1(c, bv)
    val = P + _SQRT_PI * R * erfcx(x1)
    if D != 0.0:
        val += _SQRT_PI * D * _exp(x1 * x1)
    return val


def mean_energy_superstat_closed(c: SpectrumCoefficients, beta, q,
                                 transcription: str = "verbatim",
                                 b_min: float = B_MIN) -> float:
    """The typeset closed form of U_s.

    verbatim follows the U_s print (numerator variant 'us', denominator
    bracket with the 8 b^2 beta monomial and the minus a^3 sign); corrected
    swaps every restated sub-term for its cross-stated alternative."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    qv = as_q(q).q
    if transcription == "verbatim":
        num = _numerator(c, bv, qv, "us")
        den = 4.0 * (c.b * bv) ** 1.5 * _bracket(c, bv, qv, -1.0, den_b2_typo=True)
    else:
        num = _numerator(c, bv, qv, "ss")
        den = 4.0 * (c.b * bv) ** 1.5 * _bracket(c, bv, qv, 1.0)
    return -num / den


def entropy_superstat_closed(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                             transcription: str = "verbatim",
                             b_min: float = B_MIN) -> float:
    """The typeset closed form of S_s = kB(-beta * fraction + ln Z_s)."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv = as_beta(beta).value
    qv = as_q(q).q
    if transcription == "verbatim":
        num = _numerator(c, bv, qv, "ss")
        den = 4.0 * (c.b * bv) ** 1.5 * _bracket(c, bv, qv, -1.0)
    else:
        num = _numerator(c, bv, qv, "us")
        den = 4.0 * (c.b * bv) ** 1.5 * _bracket(c, bv, qv, 1.0)
    lnzs = log_superstat_partition_closed(c, bv, qv, transcription, b_min)
    return kB * (-bv * num / den + lnzs)


def free_energy_superstat_closed(c: SpectrumCoefficients, beta, q,
                                 transcription: str = "verbatim",
                                 b_min: float = B_MIN) -> float:
    """F_s = -ln(Z_s)/beta of the same transcription's Z_s, exactly."""
    bv = as_beta(beta).value
    return -log_superstat_partition_closed(c, bv, q, transcription, b_min) / bv


def heat_capacity_superstat_closed(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                                   transcription: str = "verbatim") -> float:
    """kB beta^2 d^2 ln Z_s/d beta^2 of the closed Z_s, numerically: no
    closed C_s was ever typeset, only this defining identity."""
    bv = as_beta(beta).value
    qv = as_q(q).q
    return kB * bv * bv * derivative(
        lambda x: log_superstat_partition_closed(c, x, qv, transcription), bv, order=2,
        scale=bv, positive_only=True)


# ---------------------------------------------------------------------------
# Assembled superstatistical thermodynamics
# ---------------------------------------------------------------------------

def superstat_thermo(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                     tol: Tolerance = Tolerance(), method: str = "engine",
                     transcription: str = "verbatim") -> SuperstatPoint:
    """All superstatistical quantities at one (beta, q).

    method 'engine' differentiates ln of the quadrature Z_s (ground truth),
    integrating all 13 stencil points in one batched quadrature; its Zs is
    the quadrature value at beta itself.
    method 'closed' evaluates the typeset Z_s, U_s, S_s, F_s and
    heat_capacity_superstat_closed.
    """
    bt = as_beta(beta)
    qt = as_q(q)
    bv, qv = bt.value, qt.q
    if method == "engine":
        h1, xs1 = stencil(bv, 1, bv, positive_only=True)
        h2, xs2 = stencil(bv, 2, bv, positive_only=True)
        betas = list(dict.fromkeys(xs2 + xs1))  # bv first, 13 distinct points
        bcol = np.array(betas)[:, None]
        # row r is superstat_partition_quadrature at betas[r], bit for bit
        zs = [r.value for r in integrate_semi_infinite_batch(
            lambda n, rows: _factor_q(c.energy(n), bcol[rows], qv), len(betas), 0.0, tol)]
        for x, z in zip(betas, zs):
            if z == 0.0:
                raise Underflow(f"Z_s underflows to 0 at beta={x:.6g} in the derivative "
                                f"stencil of beta={bv:.6g}; ln Z_s is not representable")
        lnz = {x: math.log(z) for x, z in zip(betas, zs)}
        lnZs = lnz[bv]
        Us = -richardson([lnz[x] for x in xs1], 1, h1)
        d2ln = richardson([lnz[x] for x in xs2], 2, h2)
        return SuperstatPoint(beta=bt, q=qt, Zs=zs[0], Us=Us,
                              Ss=kB * (lnZs + bv * Us), Fs=-lnZs / bv,
                              Cs=kB * bv * bv * d2ln, method="engine")
    if method == "closed":
        Cs = heat_capacity_superstat_closed(c, bv, qv, kB, transcription)
        return SuperstatPoint(
            beta=bt, q=qt,
            Zs=superstat_partition_closed(c, bv, qv, transcription),
            Us=mean_energy_superstat_closed(c, bv, qv, transcription),
            Ss=entropy_superstat_closed(c, bv, qv, kB, transcription),
            Fs=free_energy_superstat_closed(c, bv, qv, transcription),
            Cs=Cs, method="closed")
    raise ValueError("method must be 'engine' or 'closed'")
