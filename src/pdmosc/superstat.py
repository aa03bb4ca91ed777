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

from .numerics import (_LAG_U, _LAG_W, _X_RULE, Tolerance, erfcx, erfcx_derivatives,
                       exp_neg_product, integrate_semi_infinite)
from .spectrum import SpectrumCoefficients
from .thermo import (B_MIN, Beta, _beta_values, _check_transcription, _factor_q,
                     _quadrature_moments, _require_regular, _saturating, _shaped, as_beta)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class DeformationQ:
    """Departure from Boltzmann-Gibbs statistics; q = 0 is classical."""

    q: float

    def __post_init__(self):
        _check_q(self.q)


def _check_q(value):
    """DeformationQ's domain rule, 0 <= q <= 1, for a float or for every
    element of an array."""
    ok = (value >= 0.0) & (value <= 1.0)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("q must lie in [0, 1]")


def as_q(q) -> DeformationQ:
    return q if isinstance(q, DeformationQ) else DeformationQ(float(q))


@dataclass(frozen=True)
class SuperstatPoint:
    """Superstatistical state at one (beta, q), produced by one method.  A
    closed or engine point over beta and q arrays holds the arrays, and each
    quantity as an array over their broadcast."""

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
# Typeset closed forms of Z_s, U_s, S_s, F_s, and the exact C_s
# ---------------------------------------------------------------------------

def _mesh(beta, q):
    """beta and q (floats, a Beta and a DeformationQ, or arrays that
    broadcast against each other) as checked float arrays of at least one
    dimension; a point is a one-element array, so it rounds through the
    same numpy loops as a grid."""
    bv = _beta_values(beta)
    qv = np.atleast_1d(np.asarray(q.q if isinstance(q, DeformationQ) else q, dtype=float))
    _check_q(qv)
    return bv, qv


def _closed_args(c: SpectrumCoefficients, beta, q, transcription: str, b_min: float = B_MIN):
    """After the argument checks: beta and q as _mesh arrays, the sign of
    the 2 a^3 sqrt(b) beta term (-1 verbatim, +1 corrected) and x1.  The
    forms below take x1 and erfcx(x1) from their caller, so a whole point
    or grid evaluates them once."""
    _check_transcription(transcription)
    _require_regular(c, b_min)
    bv, qv = _mesh(beta, q)
    x1 = 0.5 * (c.a + 2.0 * c.b) * np.sqrt(bv / c.b)
    return bv, qv, -1.0 if transcription == "verbatim" else 1.0, x1


def _bracket_pieces(c: SpectrumCoefficients, bv, qv, sign_a3: float):
    """(P, P', P''), (R, R', R''): the no-exponential part P = q sqrt(b)
    (c1 s + c3 s^3), s = sqrt(beta), and the erf-coefficient polynomial
    R = r0 + r1 beta + r2 beta^2 of the big bracket of the typeset Z_s, with
    their beta-derivatives.  The bracket is P + sqrt(pi) R erfcx(x1): its
    Gaussian and erf parts cancel exactly."""
    a, b = c.a, c.b
    s = np.sqrt(bv)
    k = qv * math.sqrt(b)
    c1 = k * (12.0 * a * b + 24.0 * b * b)
    c3 = k * (sign_a3 * 2.0 * a ** 3 - 4.0 * a * a * b)
    r0 = 4.0 * b * b * (8.0 + 3.0 * qv)
    r1 = -qv * (4.0 * a * a * b + 8.0 * a * b * b + 8.0 * b ** 3)
    r2 = qv * (a ** 4 + 4.0 * a ** 3 * b + 8.0 * a * a * b * b + 8.0 * a * b ** 3
               + 4.0 * b ** 4)
    return ((c1 + c3 * bv) * s, (c1 + 3.0 * c3 * bv) / (2.0 * s),
            (3.0 * c3 * bv - c1) / (4.0 * s * bv)), \
        (r0 + (r1 + r2 * bv) * bv, r1 + 2.0 * r2 * bv, 2.0 * r2)


def _bracket(pieces, ex):
    """The bracket P + sqrt(pi) R erfcx(x1) from _bracket_pieces."""
    (P, _, _), (R, _, _) = pieces
    return P + _SQRT_PI * R * ex


def _log_partition(c: SpectrumCoefficients, bv, bracket):
    return (-(c.a + c.b) * bv / 2.0 - np.log(64.0 * c.b ** 2.5 * np.sqrt(bv))
            + np.log(bracket))


def _partition(c: SpectrumCoefficients, bv, bracket):
    return np.exp(-(c.a + c.b) * bv / 2.0) / (64.0 * c.b ** 2.5 * np.sqrt(bv)) * bracket


def _free_energy(c: SpectrumCoefficients, bv, bracket):
    return -_log_partition(c, bv, bracket) / bv


@_saturating
def superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                               transcription: str = "verbatim",
                               b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of Z_s, overflow-stabilized exactly."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription, b_min)
    bracket = _bracket(_bracket_pieces(c, bv, qv, sign), erfcx(x1))
    return _shaped(_partition(c, bv, bracket), beta, q)


@_saturating
def log_superstat_partition_closed(c: SpectrumCoefficients, beta, q,
                                   transcription: str = "verbatim",
                                   b_min: float = B_MIN) -> float | np.ndarray:
    """ln Z_s (closed form), stable at large beta."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription, b_min)
    bracket = _bracket(_bracket_pieces(c, bv, qv, sign), erfcx(x1))
    return _shaped(_log_partition(c, bv, bracket), beta, q)


def _numerator(c: SpectrumCoefficients, bv, qv, variant: str, x1, ex):
    """The big fraction numerator shared by the typeset U_s and S_s,
    P + sqrt(pi) R erfcx(x1).  variant 'us' follows the U_s print, whose
    Gaussian/erf parts do NOT cancel and leave sqrt(pi) D e^{x1^2}; variant
    'ss' the S_s print, which cancels exactly (D = 0)."""
    a, b = c.a, c.b
    bb = b * bv
    sbb = np.sqrt(bb)
    if variant == "us":
        a4_inner = -4.0 * bb
        ab_pow = 2
        D = -8.0 * a * b ** 2.5 * bv ** 1.5 * (b - 1.0) * (
            8.0 + qv * (1.0 + 2.0 * bb + 3.0 * bb * bb))
    else:
        a4_inner = -6.0 * bb + bb
        ab_pow = 3
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
    val = P + _SQRT_PI * R * ex
    if variant == "us":  # where D = 0 no Gaussian is left, not even 0 * inf
        val = np.where(D != 0.0, val + _SQRT_PI * D * np.exp(x1 * x1), val)
    return val


@_saturating
def mean_energy_superstat_closed(c: SpectrumCoefficients, beta, q,
                                 transcription: str = "verbatim",
                                 b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of U_s.

    verbatim follows the U_s print (numerator variant 'us', denominator
    bracket with the 8 b^2 beta monomial and the minus a^3 sign); corrected
    swaps every restated sub-term for its cross-stated alternative."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription, b_min)
    ex = erfcx(x1)
    return _shaped(_mean_energy(c, bv, qv, sign, x1, ex,
                                _bracket(_bracket_pieces(c, bv, qv, sign), ex)), beta, q)


def _mean_energy(c: SpectrumCoefficients, bv, qv, sign: float, x1, ex, bracket):
    """U_s: numerator 'us' over a restatement of the Z_s bracket (verbatim),
    or numerator 'ss' over the bracket itself (corrected)."""
    verbatim = sign < 0.0
    num = _numerator(c, bv, qv, "us" if verbatim else "ss", x1, ex)
    if verbatim:
        # the U_s denominator restates the bracket with 8 b^2 beta instead of
        # 8 b^3 beta, leaving an uncancelled Gaussian of this size
        a, b = c.a, c.b
        d = -8.0 * qv * b * b * bv * (b - 1.0) * (a * bv - 1.0)
        bracket = bracket + _SQRT_PI * d * np.exp(x1 * x1)
    return -num / (4.0 * (c.b * bv) ** 1.5 * bracket)


@_saturating
def entropy_superstat_closed(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                             transcription: str = "verbatim",
                             b_min: float = B_MIN) -> float | np.ndarray:
    """The typeset closed form of S_s = kB(-beta * fraction + ln Z_s)."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription, b_min)
    ex = erfcx(x1)
    bracket = _bracket(_bracket_pieces(c, bv, qv, sign), ex)
    return _shaped(_entropy(c, bv, qv, sign, x1, ex, bracket, kB), beta, q)


def _entropy(c: SpectrumCoefficients, bv, qv, sign: float, x1, ex, bracket, kB: float):
    """S_s: numerator 'ss' (verbatim) or 'us' (corrected) over the Z_s bracket."""
    num = _numerator(c, bv, qv, "ss" if sign < 0.0 else "us", x1, ex)
    den = 4.0 * (c.b * bv) ** 1.5 * bracket
    return kB * (-bv * num / den + _log_partition(c, bv, bracket))


@_saturating
def free_energy_superstat_closed(c: SpectrumCoefficients, beta, q,
                                 transcription: str = "verbatim",
                                 b_min: float = B_MIN) -> float | np.ndarray:
    """F_s = -ln(Z_s)/beta of the same transcription's Z_s, exactly."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription, b_min)
    bracket = _bracket(_bracket_pieces(c, bv, qv, sign), erfcx(x1))
    return _shaped(_free_energy(c, bv, bracket), beta, q)


@_saturating
def heat_capacity_superstat_closed(c: SpectrumCoefficients, beta, q, kB: float = 1.0,
                                   transcription: str = "verbatim") -> float | np.ndarray:
    """kB beta^2 d^2 ln Z_s/d beta^2 of the closed Z_s, exactly: no closed
    C_s was ever typeset, only this defining identity."""
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription)
    eds = erfcx_derivatives(x1)
    pieces = _bracket_pieces(c, bv, qv, sign)
    return _shaped(_heat_capacity(bv, x1, eds, pieces, _bracket(pieces, eds[0]), kB), beta, q)


def _heat_capacity(bv, x1, eds, pieces, big, kB: float):
    """ln Z_s = -(a+b) beta/2 - ln(64 b^{5/2}) - (1/2) ln beta + ln B with the
    bracket B = P + sqrt(pi) R E, E = erfcx(x1), so C_s = kB (1/2 + beta^2
    (B''/B - (B'/B)^2)); x1 grows as sqrt(beta), so with h = x1/(2 beta) and
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
    return kB * (0.5 + bv * bv * (g2 - g1 * g1))


@_saturating
def _closed_point(c: SpectrumCoefficients, beta, q, kB: float,
                  transcription: str) -> SuperstatPoint:
    """The five closed forms from one erfcx_derivatives(x1) and one
    _bracket_pieces, each bit for bit its single-quantity function.  Float
    beta and q give a point of floats; arrays give a point that holds them
    and each quantity as an array over their broadcast."""
    if np.ndim(beta) == np.ndim(q) == 0:
        beta, q = as_beta(beta), as_q(q)
    bv, qv, sign, x1 = _closed_args(c, beta, q, transcription)
    eds = erfcx_derivatives(x1)
    ex = eds[0]
    pieces = _bracket_pieces(c, bv, qv, sign)
    bracket = _bracket(pieces, ex)
    columns = {"Zs": _partition(c, bv, bracket),
               "Us": _mean_energy(c, bv, qv, sign, x1, ex, bracket),
               "Ss": _entropy(c, bv, qv, sign, x1, ex, bracket, kB),
               "Fs": _free_energy(c, bv, bracket),
               "Cs": _heat_capacity(bv, x1, eds, pieces, bracket, kB)}
    return SuperstatPoint(beta, q, method="closed",
                          **{qn: _shaped(v, beta, q) for qn, v in columns.items()})


# ---------------------------------------------------------------------------
# Moment engine: closed-form Laplace moments of the excitation energy
# ---------------------------------------------------------------------------

#: row k = 0..4: the Gauss-Laguerre weights times node^k; from y = x1 = 1.4
#: on (numerics._X_RULE, where erfcx switches to the same rule) the moments
#: come from this rule instead of the forward recurrence
_LAG_ROWS = _LAG_W * _LAG_U ** np.arange(5)[:, None]


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
    [0, 1.4), written out so that the moments keep their bits."""
    lin = c.a + 2.0 * c.b
    inv_y2 = 4.0 * c.b / (bv * lin * lin)
    if inv_y2 * _X_RULE * _X_RULE <= 1.0:
        return (_LAG_ROWS @ (1.0 / np.sqrt(1.0 + _LAG_U * inv_y2))).tolist()
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


def _engine_point(c: SpectrumCoefficients, beta, q, kB: float) -> SuperstatPoint:
    """The superstat point from the moments of D in the ground-state gauge.
    With G = e^{beta E_0} Z_s = int e^{-beta D} p dn, p = 1 + (q/2) beta^2 E^2,
        G'  = int e^{-beta D} (-D p + q beta E^2),
        G'' = int e^{-beta D} (D^2 p - 2 q beta D E^2 + q E^2);
    in u = beta D with e = beta E_0 each integrand is a polynomial of degree
    <= 4 in u, so beta L G, beta^2 L G' and beta^3 L G'' are dot products
    g0, g1, g2 with the scaled moments.  Then U_s = E_0 - g1/(beta g0),
    C_s = kB (g2/g0 - (g1/g0)^2), and with ln G = ln(g0/(beta L)),
    S_s = kB (ln G - g1/g0) and F_s = E_0 - ln(G)/beta never meet beta E_0,
    so they stay finite where Z_s = G e^{-beta E_0} underflows.

    beta and q broadcast against each other (_mesh): the moments are taken
    once per beta element and g0, g1, g2 assembled over the whole mesh, with
    the float call's arithmetic, so each element is bit for bit its point."""
    bv, qv = _mesh(beta, q)
    i0, i1, i2, i3, i4 = np.array([_scaled_moments(c, b) for b in bv.ravel().tolist()]) \
        .T.reshape((5,) + bv.shape)
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
    log_g = np.array([math.log(v) for v in big_g.ravel().tolist()]).reshape(big_g.shape)
    ground = np.array([exp_neg_product(b, 0.5 * c.a, 0.5 * c.b) for b in bv.ravel().tolist()])
    columns = {"Zs": big_g * ground.reshape(bv.shape), "Us": e0 - r1 / bv,
               "Ss": kB * (log_g - r1), "Fs": e0 - log_g / bv, "Cs": kB * (g2 / g0 - r1 * r1)}
    if np.ndim(beta) == np.ndim(q) == 0:
        beta, q = as_beta(beta), as_q(q)
    return SuperstatPoint(beta, q, method="engine",
                          **{qn: _shaped(v, beta, q) for qn, v in columns.items()})


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
    It also takes beta and q arrays, which broadcast against each other.
    method 'quadinf' is the numerical route: the exact beta-moments of the
    deformed factor as rows of one batched Gauss-Kronrod quadrature in the
    ground-state gauge, whose Z_s is bit for bit
    superstat_partition_quadrature.
    method 'closed' evaluates the typeset Z_s, U_s, S_s, F_s and the exact
    C_s of the closed Z_s from one erfcx_derivatives(x1) (_closed_point);
    it also takes beta and q arrays, which broadcast against each other.
    """
    if method == "closed":
        return _closed_point(c, beta, q, kB, transcription)
    if method == "engine":
        return _engine_point(c, beta, q, kB)
    if method == "quadinf":
        bt, qt = as_beta(beta), as_q(q)
        Zs, Us, Cs, Ss, Fs = (col.item() for col in _quadrature_moments(
            c, np.array([bt.value]), qt.q, math.inf, kB, tol))
        return SuperstatPoint(bt, qt, Zs, Us, Ss, Fs, Cs, method="quadinf")
    raise ValueError("method must be 'engine', 'quadinf' or 'closed'")
