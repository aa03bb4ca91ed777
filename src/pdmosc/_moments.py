"""The Boltzmann-moment layer that thermo and superstat share: the level
rows, the continuum moments J_0..J_4 and their one assembly into Z, U, C,
S, F, and the argument, shape and point helpers of both families.  Moments
in the ground-state gauge, u = beta (E - E_0), never suffer the
<E^2> - <E>^2 cancellation, so C stays accurate where it is exponentially
small and |ln Z| is large.
"""

import math

import numpy as np

from .errors import NonConvergence, SingularLimit
from .numerics import (_LAG_U, _LAG_W, _SQRT_PI, _X_RULE, Tolerance, _exp_neg_parts, _split,
                       _two_product, _two_sum, erfcx, exp_neg_product, integrate_batch)
from .spectrum import SpectrumCoefficients

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


def _require_regular(c: SpectrumCoefficients):
    singular = c.b <= B_MIN * c.a
    if singular.any() if isinstance(singular, np.ndarray) else singular:
        exc = SingularLimit(f"closed form singular at b/a={np.min(c.b / c.a):.3e} <= "
                            f"B_MIN={B_MIN:.3e}; use the sum route")
        exc.singular = singular
        raise exc


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


# ---------------------------------------------------------------------------
# Level rows of the sum route
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
    counts, bit for bit: against a power of two sigma > (n + 1) times the row's sum,
    each term is h + l exactly, the h sum exactly to tau and the l, |l| <= u sigma
    (u = eps/2), to within gamma_{n-1} n u sigma (ExtractVector of Rump, Ogita & Oishi,
    SIAM J. Sci. Comput. 31 (2008) 189; Higham, ASNA 4.2).  tau + l rounds to the fsum
    where that bound and the rounding of tau + l stay below half the gap to the next
    double towards 0, fsum elsewhere; 1.01 covers the bound's rounding while n < 2^40,
    and its underflow is harmless, as additions err by multiples of 2^-1074."""
    sigma = np.ldexp(1.0, np.frexp((counts + 1.0) * np.add.reduceat(terms, starts, axis=1))[1])
    shift = np.repeat(sigma, counts, axis=1)
    high = (shift + terms) - shift
    tau, low = np.add.reduceat(high, starts, axis=1), np.add.reduceat(terms - high, starts, axis=1)
    sums = tau + low
    error = abs(low - (sums - tau)) + (counts - 1.0) * counts * sigma * 2.0 ** -106 * 1.01
    gap = np.spacing(np.nextafter(sums, 0.0))
    for k, i in zip(*np.nonzero((sums > 0.0) & (2.0 * error >= gap))):
        sums[k, i] = math.fsum(terms[k, starts[i]:starts[i] + counts[i]].tolist())
    return sums


@np.errstate(over="ignore", invalid="ignore")  # beta ~ 1e308: u and the splits overflow
def _level_terms(a, b, bv, point, n, m):
    """The terms u_n^k w_n 2^m, rows k = 0, 1, 2, of _direct_rows at the levels n of the
    points point: the halves of beta a and beta b times n and n(n + 2) (< 2^17) are
    exact, so u_n = p + e to ~2^-100; w_n 2^j = w + wl (_exp_neg_parts), where w has 18
    bits, so w times the halves of p, and that times p (_two_product), are exact.  A
    function of its own, so that its arrays are freed before the sums."""
    hi, lo = _two_product(bv, np.array([a, b]))
    parts = np.take(np.concatenate((*_split(hi), lo)), point, axis=1).reshape(3, 2, -1)
    parts *= [n, n * (n + 2.0)]
    p, e = _two_sum(*parts[0])
    e += parts[1:].sum(axis=(0, 1))
    p, e = p + e, e - ((p + e) - p)  # u = p + e, |e| <= ulp(p)/2
    j, w, wl = _exp_neg_parts(p, e)
    halves = _split(p)
    big_w = w + wl
    hi, lo = w * halves[0], w * halves[1] + wl * p + big_w * e  # hi + lo = u (w + wl)
    q, qe = _two_product(hi, p, halves)
    terms = np.array([big_w, hi + lo, q + (qe + lo * p + hi * e)])
    terms *= np.ldexp(1.0, np.take(m, point) - j.astype(np.int64))
    # +0 past u = 2^14, where every term underflows and e may be NaN
    return np.where(p < 2.0 ** 14, terms, 0.0)


def _direct_rows(a, b, bv):
    """(rows, m): sum_{n=1}^{N} u_n^k w_n 2^m, k = 0, 1, 2 (rows), u_n = beta D_n,
    w_n = e^{-u_n}, elementwise, N the first level with x = u_N - u_1 >= 43.6, where
    row k's tail is near x^k e^{-x} of its sum, below rounding.  Each term is formed in
    double-doubles and rounded once, as rounding u_n alone moves w_n by ~1e-15 at
    u_n ~ 10 (_level_terms).  The rows are exactly rounded sums (_fsum_rows).  m = 0
    unless u_1 > 700, where 2^m ~ 1/w_1 keeps the terms normal: a subnormal w_1 would
    cost S and C their digits.  The ratio test (_tail_bounds) certifies the truncation:
    a row whose bound exceeds 2^-52 of its sum raises NonConvergence.  The bound
    is compared unscaled: where m > 0 it is +0 and there is nothing left to
    certify, since u_1 > 700 puts the root of N below 1.07, so N = 2 and
    u_3 >= 3 u_1 > 2100, and the tail past level 2 is below
    (D_3/D_1)^2 e^{-(u_3 - u_1)} <= 25 e^{-1400} of its row."""
    # N: the root of b N^2 + (a + 2b) N = D_1 + 43.6/beta, rounded up
    lin, d_n = a + 2.0 * b, a + 3.0 * b + _X_ROUNDING / bv
    counts = np.ceil(2.0 * d_n / (lin + np.sqrt(lin * lin + 4.0 * b * d_n))).astype(np.int64)
    starts = np.cumsum(counts) - counts
    point = np.repeat(np.arange(len(bv)), counts)
    n = np.arange(counts.sum()) - np.repeat(starts, counts) + 1.0
    with np.errstate(over="ignore"):  # at beta ~ 1e308
        x1 = bv * (a + 3.0 * b)
    # capped where the terms underflow all the same
    m = np.where(x1 > _X_SUBNORMAL, np.minimum(x1, 11000.0) / math.log(2.0), 0.0
                 ).astype(np.int64)
    rows = _fsum_rows(_level_terms(a, b, bv, point, n, m), starts, counts)
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
    scaled by 2^m (an int array): the quantity is ldexp(value, -m).  In u
    they stay finite from beta ~ 1e-306 to 1e308, accurate even where Z is
    tiny.  Each point, b = 0 included, takes one of two fixed branches from
    its own inputs, so it gets the bits of its one-point call, always to
    rounding and with no level budget:

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


# ---------------------------------------------------------------------------
# Continuum moments and the one assembly into Z, U, C, S, F
# ---------------------------------------------------------------------------

def _columns(c, bv, z, log_g, mean, var, m=0):
    """(Z, U, C, S, F) of every moment route, from its Z and from ln G
    = ln Z + beta E_0, <u> and Var u over u = beta (E - E_0), the last three
    scaled by 2^m (the quantity is ldexp(value, -m)): U = E_0 + <u>/beta,
    C = Var u, S = ln G + <u> (in units of kB) and F = E_0 - ln G/beta, S
    formed at the scale and rounded once.  The caller supplies ln G: the
    level sums log1p of their tail (thermo_sum_engine), the continuum
    ln(g0/(beta L)) (_assemble).  Where F overflows (below beta ~ 1e-306),
    NonConvergence is raised, naming beta."""
    e0 = c.energy(0)
    with np.errstate(over="ignore"):  # F overflows below beta ~ 1e-306, U below 3e-309
        columns = (z, e0 + np.ldexp(mean, -m) / bv, np.ldexp(var, -m),
                   np.ldexp(log_g + mean, -m), e0 - np.ldexp(log_g, -m) / bv)
    bad = ~np.isfinite(columns[4])
    if bad.any():
        raise NonConvergence(f"F overflows at beta={np.broadcast_to(bv, bad.shape)[bad][0]:.17g}")
    return columns


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


def _assemble(c: SpectrumCoefficients, bv, qv, moments):
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
    Z = G e^{-beta E_0} underflows.  Every I_3 and I_4 coefficient carries
    a factor q, so where q = 0 throughout those rows may be zeros.

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
    return _columns(c, bv, z, log_g, -r1, var)


def _quadrature_moments(c: SpectrumCoefficients, bv: np.ndarray, qv, hi: float, tol: Tolerance):
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
    columns = _assemble(c, bv, qv, moments.reshape((5,) + shape))
    low = (moments[:k_rows] < np.finfo(float).tiny).any(axis=0)
    if low.any():
        raise NonConvergence(f"moment rows underflow at beta={bvs[low][0]:.17g}")
    return columns
