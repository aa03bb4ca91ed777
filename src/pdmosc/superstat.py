"""Superstatistics layer: q-deformed Boltzmann factor, the superstatistical
partition function (quadrature and typeset closed form), and the deformed
thermodynamic quantities.

Ground truth is the moment engine (``superstat_thermo``): E(n) is
quadratic, so Z_s and its two beta-derivatives are finite combinations of
the closed-form moments J_0..J_4 of the excitation energy, with no
adaptive quadrature.  The Gauss-Kronrod quadrature of the same integrals
(``superstat_quadrature``) is the independent numerical route; both take
their moments and the one assembly into Z_s..C_s from ``_moments``.  The
typeset closed forms are reproduction targets, all five at once from
``superstat_closed_point``.  Each method is one function, which
routes.POINTS names.  C_s and S_s are in units of kB, as in thermo.

The typeset Z_s appears twice in the source expressions with conflicting
signs of its 2 a^3 sqrt(b) beta term; ``verbatim`` carries the standalone
variant (minus), ``corrected`` the variant restated inside the free energy
(plus).  The typeset U_s and S_s restate each other with further
conflicting monomials; again both readings are carried and the verify
module adjudicates empirically.

All closed forms are arranged so that algebraically cancelling e^{x1^2}
factors never appear; genuinely non-cancelling ones (transcription defects)
are left to overflow honestly.
"""

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from ._moments import (_assemble, _beta_values, _check_transcription, _point,
                       _quadrature_moments, _require_regular, _saturating, _scaled_moments,
                       _shaped, _transcribed, _transcriptions)
from .numerics import _SQRT_PI, Tolerance, erfcx, erfcx_derivatives
from .spectrum import SpectrumCoefficients


class SuperstatPoint(NamedTuple):
    """Superstatistical state at one (beta, q), produced by one method:
    beta, q and each quantity a float.  A point over beta, q or coefficient
    arrays holds beta and q as the checked arrays of _mesh, and each
    quantity as an array over the broadcast."""

    beta: float | np.ndarray
    q: float | np.ndarray
    Zs: float
    Us: float
    Cs: float
    Ss: float
    Fs: float
    method: str


def boltzmann_factor_q(E, beta, q) -> float | np.ndarray:
    """Generalized Boltzmann factor e^{-beta E} (1 + (q/2) beta^2 E^2).

    Equals the classical factor at q = 0 and never falls below it.  E, beta
    and q may be arrays that broadcast together; floats give a float.  It
    is +0 wherever e^{-beta E} is, also where beta E or (beta E)^2
    overflows.
    """
    bv, qv = _mesh(beta, q)
    with np.errstate(over="ignore"):
        be = bv * E
    w = np.exp(-be)
    be = np.where(w > 0.0, be, 0.0)
    return _shaped(w * (1.0 + 0.5 * qv * be * be), E, beta, q)


# ---------------------------------------------------------------------------
# Typeset closed forms of Z_s, U_s, S_s, F_s, and the exact C_s
# ---------------------------------------------------------------------------

def _mesh(beta, q):
    """beta and q (floats, or arrays that broadcast against each other) as
    float arrays of at least one dimension, every element checked:
    0 < beta < inf and 0 <= q <= 1, NaN failing both, a point as a
    one-element array (_beta_values); only the closed forms take a
    one-element q back to a float (_closed_args)."""
    bv = _beta_values(beta)
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    if not ((qv >= 0.0) & (qv <= 1.0)).all():
        raise ValueError("q must lie in [0, 1]")
    return bv, qv


def _sign_a3(transcription: str) -> float:
    """The sign of the 2 a^3 sqrt(b) beta term of the transcription, checked:
    -1 verbatim, +1 corrected."""
    _check_transcription(transcription)
    return -1.0 if transcription == "verbatim" else 1.0


def _closed_args(c: SpectrumCoefficients, beta, q):
    """After the argument checks, beta and q before the singularity: beta
    and q as _mesh arrays, q as the forms take it, and x1.  The forms below
    take x1 and erfcx(x1) from their caller, so a grid forms them once.

    A one-element q (a point's, or a beta or alpha curve's) is taken as a
    float, so that the parameter-only algebra of _bracket_pieces runs on
    floats, not on one-element arrays.  The bits stay: the forms touch q
    only through +, -, x and products with sqrt(b), which round alike on a
    float and on a one-element array, and beta, at least one-dimensional,
    keeps the shape of every result."""
    bv, qv = _mesh(beta, q)
    _require_regular(c)
    qf = qv.item() if qv.shape == (1,) else qv
    return bv, qv, qf, 0.5 * (c.a + 2.0 * c.b) * np.sqrt(bv / c.b)


def _bracket_pieces(c: SpectrumCoefficients, bv, qv, sign_a3: float):
    """(P, P', P''), (R, R', R''): the no-exponential part P = q sqrt(b)
    (c1 s + c3 s^3), s = sqrt(beta), and the erf-coefficient polynomial
    R = r0 + r1 beta + r2 beta^2 of the big bracket of the typeset Z_s, with
    their beta-derivatives.  The bracket is P + sqrt(pi) R erfcx(x1): its
    Gaussian and erf parts cancel exactly."""
    a, b = c.a, c.b
    a2, b2 = a * a, b * b  # powers as products, see thermo._heat_capacity
    s = np.sqrt(bv)
    k = qv * np.sqrt(b)
    c1 = k * (12.0 * a * b + 24.0 * b2)
    c3 = k * (sign_a3 * 2.0 * a2 * a - 4.0 * a2 * b)
    r0 = 4.0 * b2 * (8.0 + 3.0 * qv)
    r1 = -qv * (4.0 * a2 * b + 8.0 * a * b2 + 8.0 * b2 * b)
    r2 = qv * (a2 * a2 + 4.0 * a2 * a * b + 8.0 * a2 * b2 + 8.0 * a * b2 * b
               + 4.0 * b2 * b2)
    return ((c1 + c3 * bv) * s, (c1 + 3.0 * c3 * bv) / (2.0 * s),
            (3.0 * c3 * bv - c1) / (4.0 * s * bv)), \
        (r0 + (r1 + r2 * bv) * bv, r1 + 2.0 * r2 * bv, 2.0 * r2)


def _bracket(pieces, ex):
    """The bracket P + sqrt(pi) R erfcx(x1) from _bracket_pieces."""
    (P, _, _), (R, _, _) = pieces
    return P + _SQRT_PI * R * ex


def _typeset(c: SpectrumCoefficients, beta, q, transcription: str):
    """What a single typeset form starts from: the transcription's sign
    (_sign_a3), beta, q and x1 (_closed_args), erfcx(x1) and the Z_s bracket."""
    sign = _sign_a3(transcription)
    bv, _, qv, x1 = _closed_args(c, beta, q)
    ex = erfcx(x1)
    return sign, bv, qv, x1, ex, _bracket(_bracket_pieces(c, bv, qv, sign), ex)


def _log_partition(c: SpectrumCoefficients, bv, bracket):
    return (-(c.a + c.b) * bv / 2.0 - np.log(64.0 * c.b * c.b * np.sqrt(c.b) * np.sqrt(bv))
            + np.log(bracket))


def _partition(c: SpectrumCoefficients, bv, bracket):
    scale = 64.0 * c.b * c.b * np.sqrt(c.b) * np.sqrt(bv)  # b^{5/2} as a product
    return np.exp(-(c.a + c.b) * bv / 2.0) / scale * bracket


@_saturating
def superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                               transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of Z_s, overflow-stabilized exactly."""
    _, bv, _, _, _, bracket = _typeset(c, beta, q, transcription)
    return _shaped(_partition(c, bv, bracket), beta, q, c.a)


@_saturating
def log_superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                                   transcription: str = "verbatim") -> float | np.ndarray:
    """ln Z_s (closed form), stable at large beta."""
    _, bv, _, _, _, bracket = _typeset(c, beta, q, transcription)
    return _shaped(_log_partition(c, bv, bracket), beta, q, c.a)


def _numerator(c: SpectrumCoefficients, bv, qv, x1, ex, variant: str):
    """The big fraction numerator shared by the typeset U_s and S_s,
    P + sqrt(pi) R erfcx(x1).  variant 'us' follows the U_s print, whose
    Gaussian/erf parts do NOT cancel and leave sqrt(pi) D e^{x1^2}; variant
    'ss' the S_s print, which cancels exactly (D = 0)."""
    a, b = c.a, c.b
    a2, b2 = a * a, b * b  # powers as products, see thermo._heat_capacity
    bb = b * bv
    sbb = np.sqrt(bb)
    bb15, bb3 = bb ** 1.5, bb ** 3
    if variant == "us":
        a4_inner = -4.0 * bb
        b_ab = b2
        D = -8.0 * a * (b2 * np.sqrt(b)) * bv ** 1.5 * (b - 1.0) * (
            8.0 + qv * (1.0 + 2.0 * bb + 3.0 * bb * bb))
    else:
        a4_inner = -6.0 * bb + bb
        b_ab = b2 * b
    P = (4.0 * a2 * a * (-2.0 * bb15 * sbb + bb ** 2.5 * sbb
                         + 2.0 * bb * bb - 6.0 * bb3) * qv
         + 2.0 * a2 * a2 * a * b * bv ** 3 * (-1.0) * qv
         + 2.0 * a2 * a2 * b * bv * bv * a4_inner * qv
         + 8.0 * a * b_ab * bv * (-8.0 - (3.0 + 3.0 * bb + 5.0 * bb * bb) * qv)
         + 4.0 * a * a * b * b * bv * (-2.0 * bb - 10.0 * bb * bb) * qv
         + 8.0 * b2 * b * (-6.0 * bb15 * sbb * qv - 2.0 * bb3 * qv
                           + 4.0 * bb * bb * qv - 2.0 * bb * (8.0 + 3.0 * qv)))
    R = sbb * (a * a * bv + 2.0 * b * b * bv + 2.0 * b * (-1.0 + a * bv)) * (
        a2 * a2 * bv * bv * qv + 4.0 * b2 * b2 * bv * bv * qv
        + 4.0 * a * a * b * bv * (1.0 + a * bv) * qv
        + 8.0 * b2 * b * bv * (1.0 + a * bv) * qv
        + 4.0 * b * b * (8.0 + (3.0 + 2.0 * a * bv + 2.0 * a * a * bv * bv) * qv))
    val = P + _SQRT_PI * R * ex
    if variant == "us":  # where D = 0 no Gaussian is left, not even 0 * inf
        val = np.where(D != 0.0, val + _SQRT_PI * D * np.exp(x1 * x1), val)
    return val


@_saturating
def mean_energy_superstat_closed(c: SpectrumCoefficients, beta, q,
                                 transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of U_s.

    verbatim follows the U_s print (numerator variant 'us', denominator
    bracket with the 8 b^2 beta monomial and the minus a^3 sign); corrected
    swaps every restated sub-term for its cross-stated alternative."""
    sign, bv, qv, x1, ex, bracket = _typeset(c, beta, q, transcription)
    return _shaped(_mean_energy(c, bv, qv, sign, x1, bracket,
                                partial(_numerator, c, bv, qv, x1, ex)), beta, q, c.a)


def _mean_energy(c: SpectrumCoefficients, bv, qv, sign: float, x1, bracket, numerator):
    """U_s: numerator('us') over a restatement of the Z_s bracket (verbatim),
    or numerator('ss') over the bracket itself (corrected)."""
    verbatim = sign < 0.0
    num = numerator("us" if verbatim else "ss")
    if verbatim:
        # the U_s denominator restates the bracket with 8 b^2 beta instead of
        # 8 b^3 beta, leaving an uncancelled Gaussian of this size
        a, b = c.a, c.b
        d = -8.0 * qv * b * b * bv * (b - 1.0) * (a * bv - 1.0)
        bracket = bracket + _SQRT_PI * d * np.exp(x1 * x1)
    return -num / (4.0 * (c.b * bv) ** 1.5 * bracket)


@_saturating
def entropy_superstat_closed(c: SpectrumCoefficients, beta, q,
                             transcription: str = "verbatim") -> float | np.ndarray:
    """The typeset closed form of S_s = -beta * fraction + ln Z_s (in units of kB)."""
    sign, bv, qv, x1, ex, bracket = _typeset(c, beta, q, transcription)
    return _shaped(_entropy(c, bv, sign, bracket, partial(_numerator, c, bv, qv, x1, ex),
                            _log_partition(c, bv, bracket)), beta, q, c.a)


def _entropy(c: SpectrumCoefficients, bv, sign: float, bracket, numerator, lnz):
    """S_s: numerator('ss') (verbatim) or numerator('us') (corrected) over
    the Z_s bracket, plus lnz = ln Z_s of that bracket."""
    num = numerator("ss" if sign < 0.0 else "us")
    den = 4.0 * (c.b * bv) ** 1.5 * bracket
    return -bv * num / den + lnz


@_saturating
def heat_capacity_superstat_closed(c: SpectrumCoefficients, beta, q,
                                   transcription: str = "verbatim") -> float | np.ndarray:
    """beta^2 d^2 ln Z_s/d beta^2 of the closed Z_s (in units of kB),
    exactly: no closed C_s was ever typeset, only this defining identity."""
    sign = _sign_a3(transcription)
    bv, _, qv, x1 = _closed_args(c, beta, q)
    eds = erfcx_derivatives(x1)
    pieces = _bracket_pieces(c, bv, qv, sign)
    return _shaped(_heat_capacity(bv, x1, eds, pieces, _bracket(pieces, eds[0])), beta, q, c.a)


def _heat_capacity(bv, x1, eds, pieces, big):
    """ln Z_s = -(a+b) beta/2 - ln(64 b^{5/2}) - (1/2) ln beta + ln B with the
    bracket B = P + sqrt(pi) R E, E = erfcx(x1), so C_s = 1/2 + beta^2
    (B''/B - (B'/B)^2); x1 grows as sqrt(beta), so with h = x1/(2 beta) and
    eds = erfcx_derivatives(x1), E' = erfcx'(x1) h and
    E'' = (erfcx''(x1) h - erfcx'(x1)/(2 beta)) h; pieces and big are the
    bracket's _bracket_pieces and its value."""
    (_, p1, p2), (r, r1, r2) = pieces
    e, d1, d2 = eds
    h = x1 / (2.0 * bv)
    e1 = d1 * h
    e2 = (d2 * h - d1 / (2.0 * bv)) * h
    g1 = (p1 + _SQRT_PI * (r1 * e + r * e1)) / big
    g2 = (p2 + _SQRT_PI * (r2 * e + 2.0 * r1 * e1 + r * e2)) / big
    return 0.5 + bv * bv * (g2 - g1 * g1)


@_saturating
def superstat_closed_point(c: SpectrumCoefficients, beta, q,
                           transcription: str | tuple[str, str] = "verbatim") -> SuperstatPoint:
    """The typeset Z_s, U_s, S_s, F_s and the exact C_s of the closed Z_s
    from one erfcx_derivatives(x1), both _numerator variants and one
    _bracket_pieces, each bit for bit its single-quantity function: floats
    at one (beta, q), arrays over the broadcast of the coefficients, beta
    and q otherwise.  transcription may be the pair TRANSCRIPTIONS: x1, its
    erfcx derivatives and the numerators, which no transcription changes,
    are formed once, and each quantity holds a trailing axis, one entry per
    transcription, each bit for bit the point of that one name."""
    signs = [_sign_a3(tr) for tr in _transcriptions(transcription)]
    bv, qv, qf, x1 = _closed_args(c, beta, q)
    eds = erfcx_derivatives(x1)
    ex = eds[0]
    numerator = {v: _numerator(c, bv, qf, x1, ex, v) for v in ("us", "ss")}.__getitem__

    def fields(sign: float) -> tuple:
        pieces = _bracket_pieces(c, bv, qf, sign)
        bracket = _bracket(pieces, ex)
        lnz = _log_partition(c, bv, bracket)
        return (_partition(c, bv, bracket), _mean_energy(c, bv, qf, sign, x1, bracket, numerator),
                _heat_capacity(bv, x1, eds, pieces, bracket),
                _entropy(c, bv, sign, bracket, numerator, lnz), -lnz / bv)

    return _point(SuperstatPoint, (c.a, beta, q), "closed", bv, qv,
                  *_transcribed([fields(sign) for sign in signs]))


# ---------------------------------------------------------------------------
# Assembled superstatistical thermodynamics
# ---------------------------------------------------------------------------

def superstat_thermo(c: SpectrumCoefficients, beta, q) -> SuperstatPoint:
    """The ground truth ('engine'): Z_s, U_s, S_s, F_s and C_s assembled
    (_assemble) from the closed-form moments J_0..J_4 of the
    excitation energy over n in [0, inf) (_scaled_moments), taken
    once over the broadcast of the coefficients and beta, whatever q; no
    quadrature.  The coefficients, beta and q may each be arrays, which
    broadcast against each other, and every element is bit for bit its
    point.  Below beta ~ 1e-306, where F_s overflows, NonConvergence is raised."""
    bv, qv = _mesh(beta, q)
    return _point(SuperstatPoint, (c.a, beta, q), "engine", bv, qv,
                  *_assemble(c, bv, qv, _scaled_moments(c.a, c.b, bv)))


def superstat_quadrature(c: SpectrumCoefficients, beta, q,
                         tol: Tolerance = Tolerance()) -> SuperstatPoint:
    """The numerical route ('quadinf'): superstat_thermo's assembly of the
    same moments, Z_s included, taken as rows of one batched Gauss-Kronrod
    quadrature that do not read q."""
    bv, qv = _mesh(beta, q)
    return _point(SuperstatPoint, (c.a, beta, q), "quadinf", bv, qv,
                  *_quadrature_moments(c, bv, qv, math.inf, tol))
