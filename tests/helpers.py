"""Shared independent oracles: high-precision series, brute-force sums and
quadratures, Richardson differentiation and the per-row heap form of the
adaptive quadrature, none of which touch the library's own evaluation
paths."""

import heapq
import itertools

import mpmath as mp
import numpy as np

from pdmosc import NonConvergence, QuadratureResult
from pdmosc.numerics import _XGK, _gk15

_EPS = float(np.finfo(float).eps)


def erf_maclaurin(x, dps: int = 40) -> float:
    """erf via its Maclaurin series summed at high precision:
    erf(x) = (2/sqrt(pi)) sum_k (-1)^k x^(2k+1) / (k! (2k+1))."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        power = xm        # (-1)^k x^(2k+1) / k!
        total = xm
        k = 0
        limit = mp.mpf(10) ** (-(dps - 5))
        while True:
            k += 1
            power *= -xm * xm / k
            term = power / (2 * k + 1)
            total += term
            if abs(term) < limit * max(abs(total), mp.mpf(1)) and k > 8:
                break
        return float(2 / mp.sqrt(mp.pi) * total)


def brute_sum(term, n_terms: int) -> float:
    """Plain brute-force partial sum at high precision."""
    with mp.workdps(40):
        return float(mp.fsum(mp.mpf(term(n)) for n in range(n_terms)))


def brute_boltzmann_moments(energies, beta):
    """(Z, <E>, Var E) by direct high-precision summation over the supplied
    energy list (long enough that the tail is negligible)."""
    with mp.workdps(50):
        b = mp.mpf(beta)
        ws = [mp.e ** (-b * mp.mpf(e)) for e in energies]
        z = mp.fsum(ws)
        m1 = mp.fsum(w * mp.mpf(e) for w, e in zip(ws, energies)) / z
        m2 = mp.fsum(w * mp.mpf(e) ** 2 for w, e in zip(ws, energies)) / z
        return float(z), float(m1), float(m2 - m1 * m1)


def mp_quad(f, points) -> float:
    """High-precision quadrature oracle (tanh-sinh, mpmath)."""
    with mp.workdps(40):
        return float(mp.quad(f, points))


def mp_weight_moments(c, beta, q, hi, dps: int = 40):
    """(Z, U, C) of the weight w = e^{-beta E}(1 + (q/2) beta^2 E^2) over
    n in [0, hi], E(n) = a(n+1/2) + b(n^2+2n+1/2): high-precision
    quadratures of w, dw/dbeta and d^2w/dbeta^2 (product rule, written out),
    then U = -Z'/Z and C = beta^2 (Z''/Z - (Z'/Z)^2).  The integrals run
    over u = beta (E - E_0), dn = du / (beta sqrt(L^2 + 4 b u/beta)) with
    L = a + 2b, where the integrands keep their width whatever beta is; the
    constant factor e^{-beta E_0}/beta is applied after the quadratures."""
    with mp.workdps(dps):
        bt, qm = mp.mpf(beta), mp.mpf(q)
        a, b = mp.mpf(c.a), mp.mpf(c.b)
        e0, lin = (a + b) / 2, a + 2 * b

        def w(u, k):
            e = e0 + u / bt
            g = mp.exp(-u) / mp.sqrt(lin * lin + 4 * b * u / bt)
            p, dp, d2p = 1 + qm * bt * bt * e * e / 2, qm * bt * e * e, qm * e * e
            return (g * p, -e * g * p + g * dp, e * e * g * p - 2 * e * g * dp + g * d2p)[k]

        top = mp.inf if hi == mp.inf else bt * (a + 3 * b)  # u at n = 1
        points = [0] + [p for p in (1, 10, 100) if p < top] + [top]
        z, z1, z2 = (mp.quad(lambda u: w(u, k), points) for k in range(3))
        mean = -z1 / z
        return (float(z * mp.exp(-bt * e0) / bt), float(mean),
                float(bt * bt * (z2 / z - mean * mean)))


def brute_thermo(c, beta, dps: int = 50):
    """(Z, U, C, S, F) at kB = 1 by direct high-precision summation over the
    levels in the ground-state gauge D_n = E_n - E_0 (exact in mpmath from
    the float a, b), until beta D_n exceeds 100; S and F come from
    ln(1 + tail) so that they keep their digits where Z is tiny."""
    with mp.workdps(dps):
        a, b, bt = mp.mpf(c.a), mp.mpf(c.b), mp.mpf(beta)
        e0 = (a + b) / 2
        tail = m1 = m2 = mp.mpf(0)
        n = 0
        while True:
            n += 1
            d = a * n + b * (n * n + 2 * n)
            w = mp.exp(-bt * d)
            tail, m1, m2 = tail + w, m1 + d * w, m2 + d * d * w
            if bt * d > 100:
                break
        mean = m1 / (1 + tail)
        g = mp.log1p(tail)
        return tuple(float(v) for v in (mp.exp(-bt * e0) * (1 + tail), e0 + mean,
                                        bt * bt * (m2 / (1 + tail) - mean * mean),
                                        g + bt * mean, e0 - g / bt))


def derivative(f, x: float, order: int, scale: float, positive_only: bool = False) -> float:
    """First or second derivative by central differences at steps 4h, 2h
    and h with two levels of Richardson extrapolation.

    h = scale*eps^(1/5) (order 1) or scale*eps^(1/6) (order 2) balances
    roundoff against the O(h^6) truncation of the extrapolated stencil
    (the bare stencil's eps^(1/3), eps^(1/4) leave ~100x more noise).  With
    positive_only, refuses stencils reaching x - 4h <= 0 (ValueError).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if scale <= 0:
        raise ValueError("scale must be positive")
    h = scale * (_EPS ** 0.2 if order == 1 else _EPS ** (1.0 / 6.0))
    if positive_only and x - 4.0 * h <= 0.0:
        raise ValueError(f"stencil of width {4 * h:.3e} leaves the positive domain at x={x:.3e}")

    if order == 1:
        def d0(step):
            return (f(x + step) - f(x - step)) / (2.0 * step)
    else:
        f0 = f(x)

        def d0(step):
            return (f(x + step) - 2.0 * f0 + f(x - step)) / (step * step)

    a0, a1, a2 = d0(4.0 * h), d0(2.0 * h), d0(h)
    r0 = (4.0 * a1 - a0) / 3.0
    r1 = (4.0 * a2 - a1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def mp_log_superstat_closed(c, beta, q, sign_a3: float):
    """ln of the typeset closed Z_s at mpmath's working precision, with its
    bracket as printed, P + sqrt(pi) R e^{x1^2} erfc(x1); sign_a3 is the
    sign of its 2 a^3 sqrt(b) beta term (-1 verbatim, +1 corrected)."""
    a, b, qm, bt = mp.mpf(c.a), mp.mpf(c.b), mp.mpf(q), mp.mpf(beta)
    sb, sbeta = mp.sqrt(b), mp.sqrt(bt)
    p = qm * (sbeta * (12 * a * b * sb + 24 * b * b * sb + sign_a3 * 2 * a ** 3 * sb * bt)
              - 4 * a * a * b * bt * sb * sbeta)
    r = (a ** 4 * bt ** 2 * qm + 4 * b ** 4 * bt ** 2 * qm
         + 4 * a * a * b * bt * (-1 + a * bt) * qm + 8 * b ** 3 * bt * (-1 + a * bt) * qm
         + 4 * b * b * (8 + (3 - 2 * a * bt + 2 * a * a * bt * bt) * qm))
    x1 = (a + 2 * b) * mp.sqrt(bt / (4 * b))
    bracket = p + mp.sqrt(mp.pi) * r * mp.erfc(x1) * mp.exp(x1 * x1)
    return -(a + b) * bt / 2 - mp.log(64 * b ** mp.mpf(2.5) * sbeta) + mp.log(bracket)


def mp_closed_heat_capacity_superstat(c, beta, q, sign_a3: float, dps: int = 50) -> float:
    """beta^2 d^2/dbeta^2 of mp_log_superstat_closed at dps digits, by
    mpmath's numerical differentiation (which raises its own precision)."""
    with mp.workdps(dps):
        bt = mp.mpf(beta)
        return float(bt * bt * mp.diff(lambda x: mp_log_superstat_closed(c, x, q, sign_a3), bt, 2))


def mp_level_rows(a, b, beta, dps: int = 40, p: int = 12, levels: int = 40):
    """S_k = sum_{n>=1} D_n^k e^{-beta D_n}, k = 0, 1, 2, D_n = n (a + b (n + 2)),
    at dps digits: levels 1 .. levels - 1 summed directly, the rest by
    Euler-Maclaurin from N = levels to order p,
        sum_{n>=N} f(n) = int_N^inf f + f(N)/2 - sum_{j=1}^{p} B_2j/(2j)! f^(2j-1)(N).
    In t = N + s, D = D_N + L s + b s^2 (L = a + 2b (N + 1)).  The integral
    is e^{-beta D_N} times binomial sums of K_i = int_0^inf s^i e^{-beta (L s + b s^2)}
    ds, K_0 = sqrt(pi/(4 beta b)) erfcx(y), y = L sqrt(beta/(4b)), and by
    parts K_{i+1} = (i K_{i-1} + [i = 0] - beta L K_i)/(2 beta b), which loses
    about y^2 per step: the working precision grows to match.  The
    derivatives f^(m)(N) = m! [s^m] of the product of the power series of
    (D_N + L s + b s^2)^k, e^{-beta L s} and e^{-beta b s^2}.  b = 0 is the
    geometric series in closed form.  mpmath's nsum is wrong at beta = 1e-8,
    so this is the reference for the level sums."""
    with mp.workdps(dps):
        a, b, bt = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        if b == 0:  # 1 - r as -expm1, which keeps its digits at beta ~ 1e-300
            r, om = mp.exp(-bt * a), -mp.expm1(-bt * a)
            return [r / om, a * r / om ** 2, a * a * r * (1 + r) / om ** 3]
        rows = [mp.mpf(0)] * 3
        for n in range(1, levels):
            d = n * (a + b * (n + 2))
            w = mp.exp(-bt * d)
            rows = [rows[k] + d ** k * w for k in range(3)]
        d_n = levels * (a + b * (levels + 2))
        lin = a + 2 * b * (levels + 1)
        y2 = lin * lin * bt / (4 * b)
    with mp.workdps(dps + 10 + int(4 * mp.log10(1 + y2))):
        y = mp.sqrt(y2)
        ks = [mp.sqrt(mp.pi / (4 * bt * b)) * mp.erfc(y) * mp.exp(y2)]
        for i in range(4):
            ks.append(((i * ks[i - 1] if i else 1) - bt * lin * ks[i]) / (2 * bt * b))
        moments = [ks[0], lin * ks[1] + b * ks[2],
                   lin * lin * ks[2] + 2 * lin * b * ks[3] + b * b * ks[4]]
        integrals = [sum(mp.binomial(k, j) * d_n ** (k - j) * moments[j] for j in range(k + 1))
                     for k in range(3)]
        order = 2 * p
        lin_series = [(-bt * lin) ** i / mp.factorial(i) for i in range(order)]
        gauss = [(-bt * b) ** (i // 2) / mp.factorial(i // 2) if i % 2 == 0 else mp.mpf(0)
                 for i in range(order)]
        base = [sum(lin_series[i] * gauss[m - i] for i in range(m + 1)) for m in range(order)]
        series, poly = [], [mp.mpf(1)]
        for k in range(3):
            series.append([sum(poly[i] * base[m - i] for i in range(min(m, len(poly) - 1) + 1))
                           for m in range(order)])
            poly = [sum(c * [d_n, lin, b][j - i] for i, c in enumerate(poly) if 0 <= j - i <= 2)
                    for j in range(len(poly) + 2)]
        tails = [integrals[k] + series[k][0] / 2
                 - sum(mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.factorial(2 * j - 1)
                       * series[k][2 * j - 1] for j in range(1, p + 1))
                 for k in range(3)]
        return [+(rows[k] + mp.exp(-bt * d_n) * tails[k]) for k in range(3)]


def heap_adaptive_rows(g, nrows: int, lo: float, hi: float, tol) -> list:
    """Reference for numerics._adaptive_rows: the same adaptive GK15
    bisection with one panel heap of (-error, seq, lo, hi, value, error) per
    row, worst panel on top, ties to the oldest, totals and evaluation
    counts as Python scalars; one QuadratureResult of floats per row."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = np.tile(mid + half * _XGK, (nrows, 1))
    fx = np.reshape(g(x, np.arange(nrows)), x.shape)
    vals, errs = _gk15(fx, np.full(nrows, half))
    vals = vals.tolist()
    heaps = [[(-e, 0, lo, hi, v, e)] for v, e in zip(vals, errs.tolist())]
    total_val = vals
    total_err = errs.tolist()
    evals = [15] * nrows
    tick = itertools.count(1)
    active = [r for r in range(nrows) if total_err[r] > tol.target(total_val[r])]
    while active:
        popped, ends = [], []
        for r in active:
            if evals[r] + 30 > tol.max_evals:
                raise NonConvergence(
                    f"quadrature error {total_err[r]:.3e} above tolerance "
                    f"after {evals[r]} evaluations")
            _, _, a, b, v, e = heapq.heappop(heaps[r])
            m = 0.5 * (a + b)
            popped.append((a, m, b, v, e))
            ends += (a, m, m, b)
        ends = np.array(ends).reshape(-1, 2)
        half = 0.5 * (ends[:, 1] - ends[:, 0])
        mid = 0.5 * (ends[:, 1] + ends[:, 0])
        x = (mid[:, None] + half[:, None] * _XGK).reshape(len(active), 30)
        vals, errs = _gk15(g(x, np.array(active)).reshape(-1, 15), half)
        vals, errs = vals.tolist(), errs.tolist()
        for j, (r, (a, m, b, v, e)) in enumerate(zip(active, popped)):
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            evals[r] += 30
            total_val[r] += v1 + v2 - v
            total_err[r] += e1 + e2 - e
            heapq.heappush(heaps[r], (-e1, next(tick), a, m, v1, e1))
            heapq.heappush(heaps[r], (-e2, next(tick), m, b, v2, e2))
        active = [r for r in active if total_err[r] > tol.target(total_val[r])]
    return [QuadratureResult(v, e, n) for v, e, n in zip(total_val, total_err, evals)]
