"""Superstatistics layer: q-deformed Boltzmann factor, the superstatistical
partition function (quadrature and typeset closed form), and the deformed
thermodynamic quantities.

Ground truth is the moment engine (``superstat_thermo`` with method
'engine'): E(n) is quadratic, so Z_s and its two beta-derivatives are
finite combinations of the closed-form moments J_0..J_4 of the excitation
energy, taken from erfcx and a recurrence or a fixed Gauss-Laguerre rule,
with no adaptive quadrature.  The Gauss-Kronrod quadrature of the same
integrals (method 'quadinf', ``superstat_partition_quadrature``) is the
independent numerical route; the typeset closed forms are reproduction
targets.

The typeset Z_s appears twice in the source expressions with conflicting
signs of its 2 a^3 sqrt(b) beta term; ``verbatim`` carries the standalone
variant (minus), ``corrected`` the variant restated inside the free energy
(plus).
The typeset U_s and S_s restate each other with further conflicting
monomials; again both readings are carried and the verify module
adjudicates empirically.

All closed forms are arranged so that algebraically cancelling e^{x1^2}
factors never appear; genuinely non-cancelling ones (transcription defects)
are left to overflow honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._laguerre import NODES, WEIGHTS
from .numerics import Tolerance, derivative, erfcx, integrate_semi_infinite
from .spectrum import SpectrumCoefficients
from .thermo import (B_MIN, Beta, _check_transcription, _exp, _factor_q,
                     _quadrature_moments, _require_regular, as_beta)

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


def superstat_partition_quadrature(c: SpectrumCoefficients, beta, q,
                                   tol: Tolerance = Tolerance()) -> float:
    """Z_s = integral over n in [0, inf) of the deformed factor at E(n), by
    adaptive Gauss-Kronrod quadrature: the numerical route ('quadinf')."""
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
# Moment engine: closed-form Laplace moments of the excitation energy
# ---------------------------------------------------------------------------

#: the y = x1 from which the moments come from the Gauss-Laguerre rule
#: instead of the forward recurrence
_Y_RULE = 1.4
_LAG_NODES = np.array(NODES)
#: row k = 0..4: the rule's weights times node^k
_LAG_ROWS = np.array(WEIGHTS) * _LAG_NODES ** np.arange(5)[:, None]


def _scaled_moments(c: SpectrumCoefficients, bv: float) -> list[float]:
    """I_k = L beta^{k+1} J_k for k = 0..4, where J_k is the integral over
    n in [0, inf) of D^k e^{-beta D}, D = E(n) - E_0 = b n^2 + L n and
    L = a + 2b.  In u = beta D,
        I_k = int_0^inf u^k e^{-u} (1 + u/y^2)^{-1/2} du,  y = L sqrt(beta/(4b)),
    so I_k = k! at b = 0.

    For y >= 1.4 the 48-point Gauss-Laguerre rule integrates it; the branch
    point u = -y^2 lies far enough from the nodes.  Below, the forward
    recurrence from integration by parts,
        I_0 = sqrt(pi) y erfcx(y),  I_1 = (1/2 - y^2) I_0 + y^2,
        I_{k+1} = (k + 1/2 - y^2) I_k + k y^2 I_{k-1},
    loses at most a few ulp.  (Backward recurrence is stable only for
    k < y^2, and the forward one loses about y^2 per step above y ~ 3.)
    Here erfcx is the stdlib's e^{y^2} erfc(y), within 3.2e-16 relative on
    [0, 1.4), where numerics.erfcx, formed as e^{y^2} (1 - erf y), loses up
    to 1e-14."""
    lin = c.a + 2.0 * c.b
    inv_y2 = 4.0 * c.b / (bv * lin * lin)
    if inv_y2 * _Y_RULE * _Y_RULE <= 1.0:
        return (_LAG_ROWS @ (1.0 / np.sqrt(1.0 + _LAG_NODES * inv_y2))).tolist()
    y = 0.5 * lin * math.sqrt(bv / c.b)
    y2 = y * y
    moments = [_SQRT_PI * y * math.exp(y2) * math.erfc(y)]
    moments.append((0.5 - y2) * moments[0] + y2)
    for k in range(1, 4):
        moments.append((k + 0.5 - y2) * moments[k] + k * y2 * moments[k - 1])
    return moments


def excitation_moments(c: SpectrumCoefficients, beta) -> tuple[float, ...]:
    """J_k = int_0^inf D^k e^{-beta D} dn for k = 0..4, D = E(n) - E_0,
    in closed form (erfcx and a recurrence, or a fixed Gauss-Laguerre
    rule); no adaptive quadrature."""
    bv = as_beta(beta).value
    lin = c.a + 2.0 * c.b
    return tuple(m / (lin * bv ** (k + 1))
                 for k, m in enumerate(_scaled_moments(c, bv)))


def _engine_point(c: SpectrumCoefficients, bt: Beta, qt: DeformationQ,
                  kB: float) -> SuperstatPoint:
    """The superstat point from the moments of D in the ground-state gauge.
    With G = e^{beta E_0} Z_s = int e^{-beta D} p dn, p = 1 + (q/2) beta^2 E^2,
        G'  = int e^{-beta D} (-D p + q beta E^2),
        G'' = int e^{-beta D} (D^2 p - 2 q beta D E^2 + q E^2);
    in u = beta D with e = beta E_0 each integrand is a polynomial of degree
    <= 4 in u, so beta L G, beta^2 L G' and beta^3 L G'' are dot products
    g0, g1, g2 with the scaled moments.  Then U_s = E_0 - g1/(beta g0),
    C_s = kB (g2/g0 - (g1/g0)^2), and with ln G = ln(g0/(beta L)),
    S_s = kB (ln G - g1/g0) and F_s = E_0 - ln(G)/beta never meet beta E_0,
    so they stay finite where Z_s = G e^{-beta E_0} underflows."""
    bv, qv = bt.value, qt.q
    i0, i1, i2, i3, i4 = _scaled_moments(c, bv)
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
    log_g = math.log(big_g)
    return SuperstatPoint(bt, qt, Zs=big_g * math.exp(-e), Us=e0 - r1 / bv,
                          Ss=kB * (log_g - r1), Fs=e0 - log_g / bv,
                          Cs=kB * (g2 / g0 - r1 * r1), method="engine")


# ---------------------------------------------------------------------------
# Assembled superstatistical thermodynamics
# ---------------------------------------------------------------------------

def superstat_thermo(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                     tol: Tolerance = Tolerance(), method: str = "engine",
                     transcription: str = "verbatim") -> SuperstatPoint:
    """All superstatistical quantities at one (beta, q).

    method 'engine' (ground truth) assembles Z_s, U_s, S_s, F_s and C_s
    from the closed-form moments J_0..J_4 of the excitation energy over
    n in [0, inf) (_engine_point); it runs no quadrature, and tol is unused.
    method 'quadinf' is the numerical route: the exact beta-moments of the
    deformed factor as rows of one batched Gauss-Kronrod quadrature in the
    ground-state gauge, whose Z_s is bit for bit
    superstat_partition_quadrature.
    method 'closed' evaluates the typeset Z_s, U_s, S_s, F_s and
    heat_capacity_superstat_closed.
    """
    bt = as_beta(beta)
    qt = as_q(q)
    bv, qv = bt.value, qt.q
    if method == "engine":
        return _engine_point(c, bt, qt, kB)
    if method == "quadinf":
        Zs, Us, Cs, Ss, Fs = _quadrature_moments(c, bv, qv, math.inf, kB, tol)
        return SuperstatPoint(bt, qt, Zs, Us, Ss, Fs, Cs, method="quadinf")
    if method == "closed":
        Cs = heat_capacity_superstat_closed(c, bv, qv, kB, transcription)
        return SuperstatPoint(
            beta=bt, q=qt,
            Zs=superstat_partition_closed(c, bv, qv, transcription),
            Us=mean_energy_superstat_closed(c, bv, qv, transcription),
            Ss=entropy_superstat_closed(c, bv, qv, kB, transcription),
            Fs=free_energy_superstat_closed(c, bv, qv, transcription),
            Cs=Cs, method="closed")
    raise ValueError("method must be 'engine', 'quadinf' or 'closed'")
