"""Partition-function routes and thermodynamic quantities.

Hard assertions cover provable facts only (identities, limits,
oracle-vs-oracle agreement); fidelity of the typeset closed forms is the
verify module's business and is only sanity-checked here."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdmosc import _moments
from pdmosc import (NonConvergence, OscillatorParams, SingularLimit, SpectrumCoefficients,
                    Tolerance, coefficients, entropy_closed, heat_capacity_closed,
                    log_partition_closed, mean_energy_closed, partition_closed, routes,
                    thermo, thermo_closed_point, thermo_quadrature, thermo_sum_engine)
from pdmosc.superstat import (entropy_superstat_closed, heat_capacity_superstat_closed,
                              superstat_closed_point, superstat_partition_closed,
                              superstat_quadrature, superstat_thermo)
from pdmosc.sweeps import PRESETS, figure_preset
from pdmosc.thermo import TRANSCRIPTIONS
from pdmosc.verify import DEFAULT_ALPHAS, DEFAULT_BETAS, DEFAULT_QS, audit_columns

from helpers import (brute_boltzmann_moments, brute_sum, brute_thermo, derivative,
                     mp_level_rows, mp_weight_moments)

TOL = Tolerance()

C01 = coefficients(OscillatorParams(alpha=0.1))
C03 = coefficients(OscillatorParams(alpha=0.3))
C09 = coefficients(OscillatorParams(alpha=0.9))
C00 = coefficients(OscillatorParams(alpha=0.0))


def test_beta_validation():
    # 0 < beta < inf, NaN refused, at every route's entry point
    for beta in (0.0, -2.0, math.inf, math.nan):
        for route in (partition_closed, log_partition_closed, thermo_closed_point,
                      thermo_quadrature, thermo_sum_engine):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                route(C03, beta)


def test_points_hold_float_beta_and_curves_checked_float_arrays():
    for point in (thermo_sum_engine, thermo_closed_point, thermo_quadrature):
        pt = point(C03, 2)
        assert type(pt.beta) is float and pt.beta == 2.0
        curve = point(C03, [0.5, 2.0])
        assert isinstance(curve.beta, np.ndarray) and curve.beta.dtype == np.float64
        assert curve.beta.tolist() == [0.5, 2.0]


# -- the Z of the sum route --------------------------------------------------

def test_partition_sum_geometric_limit():
    # b = 0: Z = e^{-beta/2} / (1 - e^{-beta})
    z = thermo_sum_engine(C00, 1.0).Z
    assert abs(z - 0.95951737566747186) < 1e-13


def test_partition_sum_bracket_and_brute_force():
    beta = 5.0
    z = thermo_sum_engine(C01, beta).Z
    e0, e1 = C01.energy(0), C01.energy(1)
    lower = math.exp(-beta * e0)
    upper = lower / (1.0 - math.exp(-beta * (e1 - e0)))
    assert lower < z < upper
    zbrute = brute_sum(lambda n: math.exp(-beta * C01.energy(n)), 200)
    assert abs(z - zbrute) / zbrute < 1e-12


def test_partition_sum_ground_state_dominance():
    c = C03
    beta = 50.0
    z = thermo_sum_engine(c, beta).Z
    assert abs(z / math.exp(-beta * c.energy(0)) - 1.0) < 1e-6


def test_partition_sum_monotonicity():
    betas = np.logspace(-1, 1, 15)
    zs = [thermo_sum_engine(C03, b).Z for b in betas]
    assert all(z2 < z1 for z1, z2 in zip(zs, zs[1:]))
    for beta in (0.5, 2.0):
        vals = [thermo_sum_engine(coefficients(OscillatorParams(alpha=a)), beta).Z
                for a in np.linspace(0.02, 0.95, 12)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_log_partition_sum_underflow_safe():
    # beta*E_0 ~ 770: Z underflows, but F = -ln Z/beta and S must not
    pt = thermo_sum_engine(C09, 1000.0)
    assert pt.Z == 0.0
    assert math.isfinite(pt.F) and math.isfinite(pt.S)
    assert abs(1000.0 * (pt.F - C09.energy(0))) < 1e-9
    assert 0.0 <= pt.S < 1e-9


# -- closed form vs quadrature -----------------------------------------------

def test_partition_closed_equals_unit_interval_quadrature():
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 2.6, 10.0):
            zc = partition_closed(c, beta)
            zq = thermo_quadrature(c, beta, "quad01", TOL).Z
            assert abs(zc - zq) / zq < 1e-10


def test_partition_closed_decreasing_in_beta():
    z1 = partition_closed(C09, 1.0)
    z2 = partition_closed(C09, 2.0)
    assert 0.0 < z2 < z1 < math.inf


def test_singular_limit_guard():
    tiny = SpectrumCoefficients(a=1.0, b=5e-9)
    with pytest.raises(SingularLimit):
        partition_closed(tiny, 1.0)
    with pytest.raises(SingularLimit):
        mean_energy_closed(tiny, 1.0)
    with pytest.raises(SingularLimit):
        log_partition_closed(tiny, 1.0)


def test_partition_quadrature_routes():
    # b=0, semi-infinite: int_0^inf e^{-(n+1/2)} dn = e^{-1/2}
    z = thermo_quadrature(C00, 1.0, "quadinf", TOL).Z
    assert abs(z - 0.60653065971263342) < 1e-12
    # nested domains
    for c in (C01, C09):
        z01 = thermo_quadrature(c, 1.3, "quad01", TOL).Z
        zinf = thermo_quadrature(c, 1.3, "quadinf", TOL).Z
        assert z01 < zinf
    with pytest.raises(ValueError):
        thermo_quadrature(C01, 1.0, "everything").Z


def test_sum_vs_integral_sandwich():
    # int_0^inf term <= sum <= term(0) + int_0^inf term for decreasing terms
    for c in (C01, C09):
        for beta in (0.4, 2.0):
            s = thermo_sum_engine(c, beta).Z
            integral = thermo_quadrature(c, beta, "quadinf", TOL).Z
            assert integral <= s <= math.exp(-beta * c.energy(0)) + integral


# -- ground truth from exact moments ----------------------------------------

def test_engine_standard_oscillator():
    pt = thermo_sum_engine(C00, 1.0)
    assert abs(pt.U - 1.0819767068693264) / 1.0819767068693264 < 1e-7
    assert abs(pt.C - 0.92067359420779232) / 0.92067359420779232 < 1e-6
    assert pt.F == -math.log(pt.Z) / 1.0 or abs(pt.F + math.log(pt.Z)) < 1e-12


def test_engine_identities():
    for c in (C01, C09):
        for beta in (0.3, 1.0, 4.0):
            pt = thermo_sum_engine(c, beta)
            assert abs(pt.S - (math.log(pt.Z) + beta * pt.U)) <= 1e-9 * max(abs(pt.S), 1.0)
            assert abs(pt.F + math.log(pt.Z) / beta) <= 1e-12 * max(abs(pt.F), 1.0)
    # every moment route on the atlas grid, where all form U, C, S and F in
    # one builder: beta (F - U) = -S/kB and ln Z = -beta F to rounding of
    # beta U (5.1e-16 at worst, the superstat quadinf point)
    betas, qs = np.array(DEFAULT_BETAS), np.array(DEFAULT_QS)
    for alpha in DEFAULT_ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        thermo_points = [thermo_sum_engine(c, betas), thermo_quadrature(c, betas, "quad01"),
                         thermo_quadrature(c, betas, "quadinf")]
        superstat_points = [superstat_thermo(c, betas[:, None], qs),
                            superstat_quadrature(c, betas[:, None], qs)]
        for beta, (z, u, s, f) in ([(betas, (p.Z, p.U, p.S, p.F)) for p in thermo_points]
                                   + [(betas[:, None], (p.Zs, p.Us, p.Ss, p.Fs))
                                      for p in superstat_points]):
            bound = 1e-14 * (1.0 + beta * abs(u))
            assert (abs(beta * (f - u) + s) <= bound).all(), alpha
            assert (abs(np.log(z) + beta * f) <= bound).all(), alpha


def test_engine_gauge_equivalence():
    # the reduced-gauge moments and Richardson derivatives of ln of the
    # plain sum agree where both are well conditioned
    def logz(x):
        return math.log(thermo_sum_engine(C03, x).Z)

    for beta in (0.2, 1.0, 3.0):
        a = thermo_sum_engine(C03, beta)
        u = -derivative(logz, beta, 1, beta, positive_only=True)
        c = beta * beta * derivative(logz, beta, 2, beta, positive_only=True)
        assert abs(a.U - u) / abs(u) < 1e-9
        assert abs(a.C - c) / abs(c) < 1e-6
        assert a.Z == thermo_sum_engine(C03, beta).Z


def test_energy_moments_against_brute_force():
    for c in (C01, C09):
        for beta in (0.3, 1.0, 5.0):
            pt = thermo_sum_engine(c, beta)
            energies = [c.energy(n) for n in range(400)]
            zb, mb, vb = brute_boltzmann_moments(energies, beta)
            assert abs(pt.Z - zb) / zb < 1e-12
            assert abs(pt.U - mb) / mb < 1e-12
            assert abs(pt.C / (beta * beta) - vb) / vb < 1e-10


def test_engine_vs_moments():
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 10.0):
            pt = thermo_sum_engine(c, beta)
            energies = [c.energy(n) for n in range(400)]
            _, mean, var = brute_boltzmann_moments(energies, beta)
            assert abs(pt.U - mean) / abs(mean) < 1e-12
            assert abs(pt.C - beta * beta * var) / (beta * beta * var) < 1e-12


def test_engine_heat_capacity_exponentially_small():
    # alpha = 0 at beta = 700: C = beta^2 e^{-beta} / (1 - e^{-beta})^2 ~ 5e-299,
    # far below the roundoff of any finite difference of ln Z
    beta = 700.0
    pt = thermo_sum_engine(C00, beta)
    want = beta * beta * math.exp(-beta) / (1.0 - math.exp(-beta)) ** 2
    assert abs(pt.C - want) / want < 1e-12


def _within(got, want, rel=1e-11):
    # below the normal range (|x| < 2.2e-308) a float has the fixed spacing
    # 5e-324; a subnormal w_1 = e^{-beta D_1} carries that spacing into S
    # times 1 + beta D_1, so allow 1e3 spacings there
    return abs(got - want) <= rel * abs(want) + 1e3 * 5e-324


@pytest.mark.parametrize("alpha", [0.02, 0.3, 0.95])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 10.0, 700.0])
def test_sum_engine_against_brute_force(alpha, beta):
    c = coefficients(OscillatorParams(alpha=alpha))
    pt = thermo_sum_engine(c, beta)
    want = brute_thermo(c, beta)
    got = (pt.Z, pt.U, pt.C, pt.S, pt.F)
    assert all(_within(g, w) for g, w in zip(got, want)), (got, want)
    assert thermo_sum_engine(c, beta).Z == pt.Z


@pytest.mark.parametrize("alpha,beta", [(0.02, 700.0), (0.3, 480.0), (0.0, 720.0)])
def test_sum_engine_keeps_digits_where_w1_nears_the_subnormal_range(alpha, beta):
    # beta D_1 > 700: the levels are summed at the scale 2^m ~ 1/w_1, so S
    # (5.2e-311 at (0.02, 700), which once carried w_1's 34 subnormal bits)
    # and C stay within 1e-12 of 50-digit brute force, at alpha = 0 too
    c = coefficients(OscillatorParams(alpha=alpha))
    pt = thermo_sum_engine(c, beta)
    _, _, c_want, s_want, _ = brute_thermo(c, beta)
    assert abs(pt.S - s_want) <= 1e-12 * s_want and abs(pt.C - c_want) <= 1e-12 * c_want


@pytest.mark.parametrize("alpha,beta", [(0.95, 700.0), (0.95, 300.0), (0.3, 500.0)])
def test_sum_route_z_carries_beta_e0_exactly(alpha, beta):
    # beta E_0 ~ 550 here: rounding E_0 or beta E_0 in double cost 4.9e-14
    c = coefficients(OscillatorParams(alpha=alpha))
    want = brute_thermo(c, beta)[0]
    z = thermo_sum_engine(c, beta).Z
    assert abs(z - want) <= 1e-15 * want
    assert thermo_sum_engine(c, beta).Z == z


@pytest.mark.parametrize("beta", [1e-4, 1.0, 700.0])
def test_sum_engine_geometric_series_at_alpha_zero(beta):
    # b = 0: r = e^{-beta}, Z = e^{-beta/2}/(1 - r), <D> = r/(1 - r),
    # Var D = r/(1 - r)^2; at beta = 1e-4 a level sum would need ~4e5 terms
    with mp.workdps(50):
        bt = mp.mpf(beta)
        r = mp.exp(-bt)
        mean, g = r / (1 - r), -mp.log1p(-r)
        want = [float(v) for v in (mp.exp(-bt / 2) / (1 - r), mp.mpf(0.5) + mean,
                                   bt * bt * r / (1 - r) ** 2, g + bt * mean,
                                   mp.mpf(0.5) - g / bt)]
    pt = thermo_sum_engine(C00, beta)
    got = (pt.Z, pt.U, pt.C, pt.S, pt.F)
    assert all(_within(g, w) for g, w in zip(got, want)), (got, want)
    assert thermo_sum_engine(C00, beta).Z == pt.Z


#: beta a at 400 log-spaced points over [1e-6, 740], and where w_1 is subnormal
_GEOMETRIC_X = np.concatenate((np.logspace(-6.0, math.log10(740.0), 400), [745.0, 760.0]))


@pytest.mark.parametrize("units", ["natural", "si"])
def test_sum_engine_is_the_geometric_series_to_rounding_at_alpha_zero(units):
    # b = 0 takes the level sums of every alpha: Euler-Maclaurin up to
    # beta a = 0.25, the direct levels above, at the scale 2^m past 700.
    # Against the 60-digit geometric series r = e^{-beta a} each normal Z,
    # U, C and S lies within 1e-15, F (which crosses zero) within 1e-14, and
    # each value whose reference is subnormal within 2 spacings of it; in SI
    # units C and S carry the kB of the route's State
    c = routes.state({}, units=units).c
    betas = _GEOMETRIC_X / c.a
    s = routes.state({"beta": betas}, units=units)
    pt = routes.POINTS["thermo"]["sum"](s)
    with mp.workdps(60):
        a, kB = mp.mpf(c.a), mp.mpf(s.kB)
        for i, beta in enumerate(betas.tolist()):
            bt = mp.mpf(beta)
            x = bt * a
            r, om = mp.exp(-x), -mp.expm1(-x)
            mean, lg = r / om, mp.log1p(-r)
            want = (mp.exp(-x / 2) / om, a / 2 + a * mean, kB * x * x * r / om ** 2,
                    kB * (x * mean - lg), a / 2 + lg / bt)
            for got, w, rel in zip((pt.Z[i], pt.U[i], pt.C[i], pt.S[i], pt.F[i]), want,
                                   (1e-15,) * 4 + (1e-14,)):
                if abs(w) >= np.finfo(float).tiny:
                    assert abs(got - w) <= rel * abs(w), (beta, got, float(w))
                else:
                    assert abs(got - w) <= 2 * 5e-324, (beta, got, float(w))


_log_beta = st.floats(min_value=-4.0, max_value=4.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=0.99), u1=_log_beta, u2=_log_beta)
@example(alpha=0.0, u1=-4.0, u2=4.0)
@example(alpha=1e-9, u1=-4.0, u2=0.0)
def test_sum_engine_properties(alpha, u1, u2):
    # never raises over alpha in [0, 0.99] and beta in [1e-4, 1e4]; Z
    # falls with beta (up to a few ulps of rounding); C, S >= 0 and U >= E_0
    b1, b2 = sorted((10.0 ** u1, 10.0 ** u2))
    assume(b1 < b2)
    c = coefficients(OscillatorParams(alpha=alpha))
    p1 = thermo_sum_engine(c, b1)
    p2 = thermo_sum_engine(c, b2)
    assert p2.Z <= p1.Z * (1.0 + 8 * np.finfo(float).eps)
    for pt in (p1, p2):
        assert pt.C >= 0.0 and pt.S >= 0.0 and pt.U >= c.energy(0)


def test_quadrature_point_against_mpmath():
    # at beta = 0.001 the moment rows peak past the tail probes at n ~ 9..99
    for c, beta in [(C01, 0.1), (C01, 10.0), (C09, 0.1), (C09, 10.0), (C00, 0.001)]:
        for range_, hi in (("quad01", 1.0), ("quadinf", math.inf)):
            pt = thermo_quadrature(c, beta, range_, Tolerance(rel=1e-13))
            z, u, cv = mp_weight_moments(c, beta, 0.0, hi)
            assert pt.method == range_
            assert abs(pt.Z - z) / z < 1e-13
            assert abs(pt.U - u) / u < 1e-13
            assert abs(pt.C - cv) / cv < 1e-12
            # ln Z carries the moments' relative error as an absolute one
            lnz = math.log(z)
            assert abs(pt.S - (lnz + beta * u)) <= 1e-13 * (1.0 + beta * u)
            assert abs(pt.F + lnz / beta) * beta <= 1e-13
    with pytest.raises(ValueError):
        thermo_quadrature(C01, 1.0, "everything")


# -- typeset closed forms ----------------------------------------------------

def test_free_energy_closed_is_composition():
    for c in (C01, C09):
        for beta in (0.2, 1.0, 7.0):
            f = thermo_closed_point(c, beta).F
            assert f == -log_partition_closed(c, beta) / beta
            assert f == pytest.approx(-math.log(partition_closed(c, beta)) / beta, rel=1e-13)
    # Z_closed underflows to 0 here; F stays finite
    assert partition_closed(C03, 2000.0) == 0.0
    assert math.isfinite(thermo_closed_point(C03, 2000.0).F)


def test_corrected_mean_energy_matches_engine():
    want = -derivative(partial(log_partition_closed, C03), 2.0, 1, 2.0, positive_only=True)
    u = mean_energy_closed(C03, 2.0, "corrected")
    assert abs(u - want) / abs(want) < 1e-5
    # verbatim is a different expression; record that it deviates here
    uv = mean_energy_closed(C03, 2.0, "verbatim")
    assert math.isfinite(uv) and abs(uv - want) / abs(want) > 1e-3


def test_corrected_heat_capacity_matches_engine():
    for beta in (0.5, 2.0, 8.0):
        want = beta * beta * derivative(partial(log_partition_closed, C01), beta, 2, beta,
                                        positive_only=True)
        cc = heat_capacity_closed(C01, beta, "corrected")
        assert abs(cc - want) <= 2e-5 * max(abs(want), 1e-3)


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_point_equals_single_closed_functions(tr):
    # one _xargs per point, bit for bit the five single routes
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 8.0, 800.0):
            pt = thermo_closed_point(c, beta, tr)
            singles = (partition_closed(c, beta), mean_energy_closed(c, beta, tr),
                       heat_capacity_closed(c, beta, tr),
                       entropy_closed(c, beta, tr), -log_partition_closed(c, beta) / beta)
            # verbatim forms may overflow to inf or nan, which equal themselves here
            assert np.array_equal([pt.Z, pt.U, pt.C, pt.S, pt.F], singles, equal_nan=True)


#: the audit grid and two betas where verbatim forms overflow
_CURVE_BETAS = np.array(DEFAULT_BETAS + (800.0, 2000.0))

#: name -> one closed form as f(c, beta, transcription)
_CLOSED_FORMS = {
    "Z": lambda c, beta, tr: partition_closed(c, beta),
    "lnZ": lambda c, beta, tr: log_partition_closed(c, beta),
    "U": lambda c, beta, tr: mean_energy_closed(c, beta, tr),
    "C": lambda c, beta, tr: heat_capacity_closed(c, beta, tr),
    "S": lambda c, beta, tr: entropy_closed(c, beta, tr),
    "F": lambda c, beta, tr: -log_partition_closed(c, beta) / beta,
}


@pytest.mark.parametrize("tr", TRANSCRIPTIONS)
def test_closed_forms_over_beta_equal_their_points(tr):
    # a beta array runs the float call's arithmetic elementwise: each element
    # is bit for bit its float call (nan equals nan here), through the
    # verbatim forms' overflow at beta = 800 and 2000
    for c in (C01, C03, C09):
        curve = thermo_closed_point(c, _CURVE_BETAS, tr)
        assert np.array_equal(curve.beta, _CURVE_BETAS) and curve.method == "closed"
        for name, form in _CLOSED_FORMS.items():
            column = form(c, _CURVE_BETAS, tr)
            points = [form(c, beta, tr) for beta in _CURVE_BETAS.tolist()]
            assert all(type(v) is float for v in points)
            assert np.array_equal(column, points, equal_nan=True), (c, name)
            if name != "lnZ":
                assert np.array_equal(getattr(curve, name), column, equal_nan=True)
        for beta in (0.5, 2000.0):
            pt = thermo_closed_point(c, beta, tr)
            assert pt.beta == beta
            assert all(type(getattr(pt, qn)) is float for qn in "ZUCSF")
    # the verbatim overflow is kept: inf, not an exception
    assert math.isinf(heat_capacity_closed(C03, np.array([2000.0]), "verbatim")[0])
    assert math.isinf(mean_energy_closed(C09, 2000.0, "verbatim"))


@pytest.mark.parametrize("tr", TRANSCRIPTIONS)
def test_closed_routes_make_one_kernel_call_per_curve(tr, monkeypatch):
    # x1 and x2 go through one erfcx call, and where a form needs erf (Z and
    # the verbatim C), through one erf call, which the whole point shares: no
    # element of a kernel's output depends on the rest of its batch, so this
    # keeps every bit
    calls = {"erfcx": 0, "erf": 0}

    def counted(name):
        kernel = getattr(thermo, name)

        def call(x):
            calls[name] += 1
            return kernel(x)
        return call

    for name in calls:
        monkeypatch.setattr(thermo, name, counted(name))
    erf_calls = {"Z": 1, "U": 0, "C": 1 if tr == "verbatim" else 0, "S": 0, "F": 0}
    for c in (C03, coefficients(OscillatorParams(alpha=np.array([0.1, 0.3, 0.9])))):
        for qn in "ZUCSF":
            calls.update(erfcx=0, erf=0)
            assert _CLOSED_FORMS[qn](c, _CURVE_BETAS[:3], tr).shape == (3,)
            assert calls == {"erfcx": 1, "erf": erf_calls[qn]}, (qn, c)
        calls.update(erfcx=0, erf=0)
        thermo_closed_point(c, _CURVE_BETAS[:3], tr)
        assert calls == {"erfcx": 1, "erf": 1}
        calls.update(erfcx=0, erf=0)
        thermo_closed_point(c, _CURVE_BETAS[:3], TRANSCRIPTIONS)
        assert calls == {"erfcx": 1, "erf": 1}


def test_closed_curves_raise_where_their_points_do():
    tiny = SpectrumCoefficients(a=1.0, b=thermo.B_MIN)  # b <= B_MIN: singular
    for form in _CLOSED_FORMS.values():
        for beta in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(SingularLimit):
                form(tiny, beta, "corrected")
            with pytest.raises(ValueError, match="beta must be positive"):
                form(C03, beta * np.array([1.0, -1.0]), "verbatim")
            # an invalid beta is named before the singularity
            with pytest.raises(ValueError, match="beta must be positive"):
                form(tiny, beta * np.array([1.0, -1.0]), "verbatim")
    with pytest.raises(SingularLimit):
        thermo_closed_point(tiny, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="beta must be positive"):
        thermo_closed_point(tiny, np.array([0.5, math.nan]))
    for form in (superstat_partition_closed, entropy_superstat_closed,
                 heat_capacity_superstat_closed, superstat_closed_point):
        with pytest.raises(ValueError, match="beta must be positive"):
            form(tiny, np.array([0.5, -1.0]), 0.5)
        with pytest.raises(ValueError, match="q must lie in"):
            form(tiny, 1.0, np.array([0.5, 2.0]))


def test_singular_limit_is_scale_free():
    # b is an energy, so the closed forms are singular at b <= B_MIN a: an
    # SI oscillator with b/a = 1 (omega = 1e-10) has them, though b ~ 3e-39 J,
    # and at beta a = 1 they agree with the quad01 oracle; the default SI
    # oscillator (b/a ~ 3e-19) stays singular
    with pytest.raises(SingularLimit, match=r"b/a=7\.500e-09 <= B_MIN"):
        partition_closed(SpectrumCoefficients(a=2.0, b=1.5 * thermo.B_MIN), 1.0)
    assert partition_closed(SpectrumCoefficients(a=1.0, b=1.5 * thermo.B_MIN), 1.0) > 0.0
    p = OscillatorParams.si(alpha=0.5, omega=1e-10)
    c = coefficients(p)
    assert c.b < thermo.B_MIN and abs(c.b / c.a - 1.0) < 1e-9
    closed = thermo_closed_point(c, 1.0 / c.a, "corrected")
    oracle = thermo_quadrature(c, 1.0 / c.a, "quad01")
    for qn in "ZUCSF":
        want = getattr(oracle, qn)
        assert abs(getattr(closed, qn) - want) <= 1e-13 * abs(want), qn
    assert math.isfinite(superstat_partition_closed(c, 1.0 / c.a, 0.5, "corrected"))
    with pytest.raises(SingularLimit, match=r"b/a=2\.894e-19 <= B_MIN=1\.000e-08"):
        partition_closed(coefficients(OscillatorParams.si(alpha=0.5)), 1e20)


@pytest.mark.parametrize("range_", ["quad01", "quadinf"])
def test_quadrature_over_beta_equals_its_points(range_):
    # every beta's four moment rows in one integrate_batch: each element bit
    # for bit its float call, at the audit tolerance and at the default one
    for tol in (Tolerance(rel=3e-13, abs=0.0, max_evals=400_000), TOL):
        for c in (C01, C09):
            curve = thermo_quadrature(c, _CURVE_BETAS, range_, tol)
            assert np.array_equal(curve.beta, _CURVE_BETAS) and curve.method == range_
            for i, beta in enumerate(_CURVE_BETAS.tolist()):
                pt = thermo_quadrature(c, beta, range_, tol)
                assert pt.beta == beta
                got = [getattr(pt, qn) for qn in "ZUCSF"]
                assert all(type(v) is float for v in got)
                assert got == [getattr(curve, qn)[i] for qn in "ZUCSF"], (c, beta)


def test_corrected_entropy_is_identity_composition():
    for beta in (0.5, 3.0):
        s = entropy_closed(C03, beta, "corrected")
        want = log_partition_closed(C03, beta) + beta * mean_energy_closed(
            C03, beta, "corrected")
        assert abs(s - want) < 1e-12 * max(1.0, abs(want))


def test_verbatim_entropy_finite_at_moderate_beta():
    s = entropy_closed(C03, 0.5, "verbatim")
    assert math.isfinite(s)


def test_verbatim_heat_capacity_overflows_honestly():
    # the squared erf difference in the denominator underflows to 0 here;
    # the typeset form then overflows instead of raising ZeroDivisionError
    c = heat_capacity_closed(C03, 800.0, "verbatim")
    assert math.isinf(c)
    assert math.isfinite(heat_capacity_closed(C03, 800.0, "corrected"))


def test_transcription_validation():
    with pytest.raises(ValueError):
        mean_energy_closed(C01, 1.0, "fixed")


def test_alpha_to_zero_consistency():
    c = coefficients(OscillatorParams(alpha=1e-6))
    for beta in np.logspace(-1, 1, 9):
        z = thermo_sum_engine(c, beta).Z
        z0 = math.exp(-beta * 0.5) / (1.0 - math.exp(-beta))
        assert abs(z - z0) / z0 < 1e-4


# -- the batched level sum ----------------------------------------------------

def _assert_points(cs, betas, curve):
    for i, (c, beta) in enumerate(zip(cs, betas)):
        pt = thermo_sum_engine(c, beta)
        assert [getattr(pt, qn) for qn in "ZUCSF"] == [getattr(curve, qn)[i] for qn in "ZUCSF"]
        assert thermo_sum_engine(c, beta).Z == curve.Z[i]


def test_sum_high_temperature_curve_equals_its_points():
    # Euler-Maclaurin rows where a level sum took ~73k-109k levels per point,
    # and a curve across beta L = 0.25, where the branch changes: every
    # point is its own call
    c = coefficients(OscillatorParams(alpha=1e-6))
    betas = [0.4e-3, 0.45e-3, 0.5e-3, 0.55e-3, 0.6e-3]
    curve = thermo_sum_engine(c, np.array(betas))
    _assert_points([c] * len(betas), betas, curve)
    assert curve.beta.tolist() == betas
    edge = 0.25 / (C09.a + 2.0 * C09.b)
    betas = [0.5 * edge, edge, math.nextafter(edge, 1.0), 2.0 * edge]
    _assert_points([C09] * 4, betas, thermo_sum_engine(C09, np.array(betas)))


def _curve(cs):
    """The coefficients cs of an alpha curve as one SpectrumCoefficients of
    arrays."""
    return SpectrumCoefficients(np.array([c.a for c in cs]), np.array([c.b for c in cs]))


def test_sum_alpha_curve_equals_its_points():
    # coefficient arrays with one beta: an alpha curve, through the
    # geometric series at alpha = 0, in SI units
    p = [OscillatorParams.si(alpha=alpha) for alpha in (0.0, 0.3, 0.9)]
    cs = [coefficients(x) for x in p]
    beta = 1.0 / (p[0].kB * 300.0)
    curve = thermo_sum_engine(_curve(cs), beta)
    _assert_points(cs, [beta] * 3, curve)
    assert thermo_sum_engine(_curve(cs), beta).Z.tolist() == curve.Z.tolist()


def test_sum_batch_raises_where_its_point_does():
    # beta is checked at every element; where F overflows (beta below
    # ~1e-306) a point and a curve through it raise NonConvergence
    with pytest.raises(ValueError, match="beta must be positive"):
        thermo_sum_engine(C03, np.array([1.0, 0.0]))
    c = coefficients(OscillatorParams(alpha=1e-9))
    for cs in (c, C00):
        with pytest.raises(NonConvergence, match="F overflows at beta=1e-306"):
            thermo_sum_engine(cs, 1e-306)
    with pytest.raises(NonConvergence, match="F overflows"):
        thermo_sum_engine(_curve((C03, c, C09)), np.array([1.0, 1e-307, 2.0]))


def _mp_sum_point(c, beta):
    """(Z, U, C, S, F) with kB = 1 from the 40-digit level sums, as floats."""
    s0, s1, s2 = mp_level_rows(c.a, c.b, beta)
    with mp.workdps(40):
        bt, e0 = mp.mpf(beta), (mp.mpf(c.a) + mp.mpf(c.b)) / 2
        z, mean, g = 1 + s0, s1 / (1 + s0), mp.log1p(s0)
        return [float(x) for x in (mp.exp(-bt * e0) * z, e0 + mean,
                                   bt * bt * (s2 / z - mean * mean), g + bt * mean, e0 - g / bt)]


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3])
def test_sum_route_where_var_d_overflows(alpha):
    # below beta ~ 1e-150 Var D would overflow, but C = Var u (u = beta D)
    # -> kB/2 for b > 0 and kB at b = 0: the moments of u give all five
    # within 1e-13 of the 40-digit level sums, and a curve through these
    # points and an ordinary one is bit for bit its points
    c = coefficients(OscillatorParams(alpha=alpha))
    betas = [1e-160, 1e-200, 1e-300]
    for beta in betas:
        want = _mp_sum_point(c, beta)
        pt = thermo_sum_engine(c, beta)
        for got, w in zip((pt.Z, pt.U, pt.C, pt.S, pt.F), want):
            assert abs(got - w) <= 1e-13 * abs(w), (alpha, beta, got, w)
        assert abs(pt.C - (1.0 if alpha == 0.0 else 0.5)) < 1e-13
    _assert_points([c] * 4, betas + [2.0],
                   thermo_sum_engine(_curve([c] * 4), np.array(betas + [2.0])))


def test_sum_engine_sums_the_levels_once(monkeypatch):
    # the moments of u = beta D stay finite from beta = 1e-300 to 1e308, so
    # a curve through every branch takes one _boltzmann_levels call
    calls = []
    real = thermo._boltzmann_levels
    monkeypatch.setattr(thermo, "_boltzmann_levels",
                        lambda a, b, bv: calls.append(len(bv)) or real(a, b, bv))
    betas = np.array([1e-300, 1e-200, 1e-152, 1e-10, 0.5, 1e3, 1e308])
    for alpha in (0.0, 0.3):
        pt = thermo_sum_engine(coefficients(OscillatorParams(alpha=alpha)), betas)
        assert all(np.isfinite(getattr(pt, qn)).all() for qn in "ZUCSF")
    assert calls == [len(betas)] * 2


def test_sum_point_is_the_ground_state_where_beta_a_overflows():
    # omega = 4 at beta = 1e308: beta a overflows on the geometric branch
    # and u^k e^{-u} is +0 there, not inf * 0, without a warning
    c = coefficients(OscillatorParams(alpha=0.0, omega=4.0))
    pt = thermo_sum_engine(c, 1e308)
    assert (pt.Z, pt.U, pt.C, pt.S, pt.F) == (0.0, c.energy(0), 0.0, 0.0, c.energy(0))


def test_routes_scale_c_and_s_by_kb_and_nothing_else():
    # the kernels give C and S in units of kB; on an SI state (b/a ~ 1, so
    # the closed forms hold) every POINTS builder and each closed C/S route
    # is its kernel with C, S, C_s and S_s times kB, bit for bit, and every
    # other field the kernel's own
    tol = Tolerance(rel=1e-10)
    values = {"alpha": 0.5, "omega": 1e-10, "q": np.array([0.0, 0.5, 1.0])}
    c = routes.state(values, units="si").c
    values["beta"] = np.array([0.5, 1.0, 2.0]) / c.a
    kernels = {
        "thermo": {"sum": lambda s: thermo_sum_engine(s.c, s.beta),
                   "engine": lambda s: thermo_sum_engine(s.c, s.beta),
                   "closed": lambda s: thermo_closed_point(s.c, s.beta, s.transcription),
                   "quad01": lambda s: thermo_quadrature(s.c, s.beta, "quad01", s.tol),
                   "quadinf": lambda s: thermo_quadrature(s.c, s.beta, "quadinf", s.tol)},
        "superstat": {"sum": lambda s: superstat_thermo(s.c, s.beta, s.q),
                      "engine": lambda s: superstat_thermo(s.c, s.beta, s.q),
                      "quadinf": lambda s: superstat_quadrature(s.c, s.beta, s.q, s.tol),
                      "closed": lambda s: superstat_closed_point(s.c, s.beta, s.q,
                                                                 s.transcription)}}
    closed = {"C": lambda s: heat_capacity_closed(s.c, s.beta, s.transcription),
              "S": lambda s: entropy_closed(s.c, s.beta, s.transcription),
              "Cs": lambda s: heat_capacity_superstat_closed(s.c, s.beta, s.q, s.transcription),
              "Ss": lambda s: entropy_superstat_closed(s.c, s.beta, s.q, s.transcription)}
    for tr in TRANSCRIPTIONS:
        s = routes.state(values, units="si", transcription=tr, tol=tol)
        assert s.kB == OscillatorParams.si().kB
        for family, builders in kernels.items():
            assert builders.keys() == routes.POINTS[family].keys()
            for method, kernel in builders.items():
                got, want = routes.POINTS[family][method](s), kernel(s)
                for qn in routes.FIELDS[family]:
                    w = getattr(want, qn)
                    w = s.kB * w if qn in ("C", "S", "Cs", "Ss") else w
                    assert np.array_equal(getattr(got, qn), w), (family, method, qn)
        for qn, kernel in closed.items():
            assert np.array_equal(routes.ROUTES[(qn, "closed")](s), s.kB * kernel(s)), qn


def test_si_heat_capacity_at_high_temperature_is_kb():
    # at alpha = 0 C = kB Var u -> kB, where kB beta^2 Var D underflowed to 0
    # in kB beta^2 (beta = 1e-154) or lost digits (1e-150, 1e-145)
    for beta in (1e-154, 1e-150, 1e-145):
        s = routes.state({"beta": beta}, units="si")
        assert abs(routes.POINTS["thermo"]["sum"](s).C - s.kB) <= 1e-15 * s.kB, beta


@pytest.mark.parametrize("alpha,beta", [(1e-9, 5e-5), (1e-9, 1e-8), (0.02, 1e-8)])
def test_sum_route_is_finite_past_the_old_level_budget(alpha, beta):
    # these points once exhausted a 400k-level budget: C is within 1e-12 of
    # the 40-digit reference, and the point and its curve agree
    c = coefficients(OscillatorParams(alpha=alpha))
    pt = thermo_sum_engine(c, beta)
    assert all(math.isfinite(getattr(pt, qn)) for qn in "ZUCSF")
    s0, s1, s2 = mp_level_rows(c.a, c.b, beta)
    mean = s1 / (1 + s0)
    want = float(beta * beta * (s2 / (1 + s0) - mean * mean))
    assert abs(pt.C - want) <= 1e-12 * want, (pt.C, want)
    _assert_points([c] * 2, [beta, 1.0], thermo_sum_engine(c, np.array([beta, 1.0])))


def test_sum_alpha_by_beta_mesh_equals_its_points():
    # coefficients shaped (A, 1) against a beta array broadcast to an
    # (A, B) mesh: one ragged level sum, every element its one-point call
    cs = (C00, C03, C09)
    betas = [1e-3, 0.5, 2.0, 700.0]
    c = _curve(cs)
    mesh = thermo_sum_engine(SpectrumCoefficients(c.a[:, None], c.b[:, None]),
                             np.array(betas))
    assert mesh.beta.shape == mesh.Z.shape == (3, 4)
    for i, ci in enumerate(cs):
        for j, beta in enumerate(betas):
            pt = thermo_sum_engine(ci, beta)
            assert [getattr(pt, qn) for qn in "ZUCSF"] == \
                [getattr(mesh, qn)[i, j] for qn in "ZUCSF"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [C00, C03], ids=["geometric", "summed"])
def test_sum_heat_capacity_is_zero_where_beta_squared_overflows(c):
    # beta^2 = inf while Var D has underflowed to exactly 0: C is +0, not nan
    pt = thermo_sum_engine(c, 1e155)
    assert pt.C == 0.0 and not math.copysign(1.0, pt.C) < 0.0
    assert pt.Z == 0.0 and not math.copysign(1.0, pt.Z) < 0.0
    assert math.isfinite(pt.U) and pt.S == 0.0


# -- the level-sum tail bounds -------------------------------------------------

def _mp_tail(a, b, beta, N):
    """Rows k = 0, 1, 2 of (the ratio bound t_{N+1}/(1 - r) and its ratio to
    e^{-beta D_{N+1}}, or None where r >= 1, and the sum over n > N) of
    t_n = u^k e^{-u}, u = beta D, at 40 digits, r = t_{N+2}/t_{N+1}; the sum
    stops once a term, past the peak of every row, falls below 1e-45 of its
    row."""
    with mp.workdps(40):
        a, b, bt = mp.mpf(a), mp.mpf(b), mp.mpf(beta)

        def d(n):
            return n * (a + b * (n + 2))

        def t(n):
            return [(bt * d(n)) ** k * mp.exp(-bt * d(n)) for k in range(3)]

        ratios = [y / x for x, y in zip(t(N + 1), t(N + 2))]
        bounds = [(x / (1 - r), x / (1 - r) * mp.exp(bt * d(N + 1))) if r < 1 else None
                  for x, r in zip(t(N + 1), ratios)]
        sums, n = [mp.mpf(0)] * 3, N + 1
        while True:
            terms = t(n)
            sums = [s + x for s, x in zip(sums, terms)]
            if all(x < mp.mpf(10) ** -45 * s for x, s in zip(terms, sums)):
                return bounds, sums
            n += 1


def test_tail_bounds_are_the_ratio_bound_and_bound_the_tail_sum():
    # the ratio test, elementwise in doubles: row k is t_{N+1}/(1 - r) times
    # 1 + 2^-40 (the stated rounding cover) within 1e-13, lies above the sum
    # it bounds, and is +inf where r >= 1 (at 12 of the 48 points row 2, at
    # 7 of them row 1 too); where e^{-beta D_{N+1}} is subnormal it carries an error
    # of up to half its last place, and past beta D_{N+1} ~ 745 it is +0
    finite = infinite = 0
    for alpha in (1e-6, 0.02, 0.3, 0.9):
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in (0.05, 0.5, 3.0, 40.0):
            for n in (2, 5, 20):
                bounds = _moments._tail_bounds(np.array([c.a]), np.array([c.b]),
                                               np.array([beta]), np.array([float(n)]))
                bounds = bounds[:, 0].tolist()
                refs, sums = _mp_tail(c.a, c.b, beta, n)
                for bound, ref, total in zip(bounds, refs, sums):
                    if ref is None:
                        assert bound == math.inf, (alpha, beta, n)
                        infinite += 1
                        continue
                    want, scale = float(ref[0] * (1 + mp.mpf(2) ** -40)), float(ref[1])
                    assert abs(bound - want) <= 1e-13 * want + 5e-324 * scale, (alpha, beta, n)
                    assert bound >= float(total), (alpha, beta, n)
                    finite += 1
    assert (finite, infinite) == (3 * 48 - 19, 19)


def test_tail_bound_is_inf_where_the_terms_still_rise():
    # at N = 2 row k's ratio r = (D_4/D_3)^k e^{-beta (D_4 - D_3)} reaches 1 at
    # beta = k ln(D_4/D_3)/(D_4 - D_3): below, the tail is not certified
    d3, d4 = 3.0 * (C03.a + 5.0 * C03.b), 4.0 * (C03.a + 6.0 * C03.b)
    bv = np.array([0.5, 1.5, 2.5]) * math.log(d4 / d3) / (d4 - d3)
    bounds = _moments._tail_bounds(np.full(3, C03.a), np.full(3, C03.b), bv, np.full(3, 2.0))
    assert np.isfinite(bounds[0]).all()
    assert bounds[1, 0] == math.inf and np.isfinite(bounds[1, 1:]).all()
    assert (bounds[2, :2] == math.inf).all() and math.isfinite(bounds[2, 2])


def _fsum_reference(terms, starts, counts):
    return [[math.fsum(row[s:s + n]) for s, n in zip(starts.tolist(), counts.tolist())]
            for row in terms.tolist()]


def _fsum_calls(monkeypatch):
    """The argument lists of every math.fsum call from here on, as tuples."""
    calls, real = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(tuple(xs)) or real(xs))
    return calls


def test_vectorised_row_sums_are_math_fsum_bit_for_bit(monkeypatch):
    # random rows of up to 176 levels, an all-zero row, and rows built next to
    # a rounding midpoint of the double: the exact split resolves those whose
    # distance from it exceeds the bound on the low parts' sum, [1, 2^-53, 2^-73]
    # among them (exact sum above the midpoint 1 + 2^-53, where a double sum
    # in order rounds to 1 and the exactly rounded sum is 1 + 2^-52), and the
    # fallback fires on each of the others and on no random row
    rng = np.random.default_rng(7)
    resolved = [[1.0, 2.0 ** -53, 2.0 ** -73], [0.75, 2.0 ** -54, 2.0 ** -70],
                [0.5, 0.5 - 2.0 ** -54, 2.0 ** -80], [0.0] * 4]
    fallback = [[1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -110],
                [0.75, 2.0 ** -54, 2.0 ** -110], [3.0 * 2.0 ** -600, 2.0 ** -652, 2.0 ** -700]]
    built = resolved + fallback
    counts = np.concatenate((rng.integers(1, 177, 400), [len(row) for row in built]))
    starts = np.cumsum(counts) - counts
    terms = np.exp(-rng.uniform(0.0, 40.0, (3, counts.sum()))) * 2.0 ** rng.integers(-600, 600)
    for start, row in zip(starts[-len(built):], built):
        terms[:, start:start + len(row)] = row
    want = _fsum_reference(terms, starts, counts)
    assert want[0][-len(built)] == 1.0 + 2.0 ** -52
    assert 1.0 + 2.0 ** -53 + 2.0 ** -73 == 1.0
    calls = _fsum_calls(monkeypatch)
    assert _moments._fsum_rows(terms, starts, counts).tolist() == want
    assert sorted(calls) == sorted(tuple(row) for row in fallback for _ in range(3))


def test_level_rows_are_math_fsum_of_their_terms(monkeypatch):
    # from beta = 1e-10 to 1e300, every direct level row is math.fsum of the
    # double terms it sums, and math.fsum runs on no row
    seen = []
    real = _moments._fsum_rows
    monkeypatch.setattr(_moments, "_fsum_rows", lambda *args: seen.append(args) or real(*args))
    betas = np.concatenate((_GATE_BETAS, 10.0 ** np.arange(3.5, 300.5, 0.5)))
    c = coefficients(OscillatorParams(alpha=np.repeat(_GATE_ALPHAS, len(betas))))
    calls = _fsum_calls(monkeypatch)
    _moments._boltzmann_levels(c.a, c.b, np.tile(betas, len(_GATE_ALPHAS)))
    assert calls == []
    (terms, starts, counts), = seen
    assert real(terms, starts, counts).tolist() == _fsum_reference(terms, starts, counts)


def test_sums_where_long_double_is_double(monkeypatch):
    # the level sums use no long double: with np.longdouble double (as on
    # Windows and arm64 macOS) _boltzmann_levels gives the same bits,
    # _fsum_rows stays bit for bit math.fsum without a fallback, and every
    # direct sum point is within 4 2^-52 of the 40-digit level sums, where the
    # reference is normal; at beta = 1e200 and 1e308, where u^2 or u
    # overflows, the point is the ground state
    betas = np.concatenate((_GATE_BETAS, 10.0 ** np.arange(3.5, 300.5, 0.5), [1e308]))
    c = coefficients(OscillatorParams(alpha=np.repeat(_GATE_ALPHAS, len(betas))))
    args = c.a, c.b, np.tile(betas, len(_GATE_ALPHAS))
    unpatched = _moments._boltzmann_levels(*args)
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert all(np.array_equal(x, y) for x, y in zip(_moments._boltzmann_levels(*args), unpatched))
    rng = np.random.default_rng(3)
    counts = np.concatenate((rng.integers(1, 177, 200), [1] * 20))
    starts = np.cumsum(counts) - counts
    terms = np.exp(-rng.uniform(0.0, 40.0, (3, counts.sum())))
    want = _fsum_reference(terms, starts, counts)
    calls = _fsum_calls(monkeypatch)
    assert _moments._fsum_rows(terms, starts, counts).tolist() == want
    assert calls == []
    for alpha in _GATE_ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in _GATE_BETAS[_GATE_BETAS * (c.a + 2.0 * c.b) > _moments._EM_THETA].tolist():
            pt = thermo_sum_engine(c, beta)
            for got, w in zip((pt.Z, pt.U, pt.C, pt.S, pt.F), _mp_sum_point(c, beta)):
                if abs(w) >= np.finfo(float).tiny:
                    assert abs(got - w) <= 4.0 * 2.0 ** -52 * abs(w), (alpha, beta)
        for beta in (1e200, 1e308):
            pt = thermo_sum_engine(c, beta)
            e0 = c.energy(0)
            assert (pt.Z, pt.U, pt.C, pt.S, pt.F) == (0.0, e0, 0.0, 0.0, e0)


def test_sum_presets_and_audit_certify_every_series_at_its_first_guess(monkeypatch):
    # one level-sum call per sum preset and one for the sum-basis audit, each
    # certified by at most one tail-bound call, at its first guess
    # each patched where it is looked up: _boltzmann_levels by
    # thermo_sum_engine in thermo, _tail_bounds by _direct_rows in _moments
    owners = {"_boltzmann_levels": thermo, "_tail_bounds": _moments}
    calls = dict.fromkeys(owners, 0)

    def counted(name):
        real = getattr(owners[name], name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name))
    for figure_id in ("Fig2a", "Fig2b", "Fig3a", "Fig3b", "Fig4a", "Fig4b", "Fig5a", "Fig5b"):
        figure_preset(figure_id)
    audit_columns(oracle_basis="sum")
    assert calls == {"_boltzmann_levels": 9, "_tail_bounds": 9}


# -- the level sums against a 40-digit Euler-Maclaurin reference --------------

_GATE_ALPHAS = (0.0, 1e-9, 0.02, 0.3, 0.9, 0.999)
#: a quarter-decade grid over [1e-10, 1e3]
_GATE_BETAS = 10.0 ** (np.arange(-40, 13) / 4.0)


def _mp_direct_rows(a, b, beta):
    """S_k = sum_{n>=1} D_n^k e^{-beta D_n}, k = 0, 1, 2, at 40 digits, until
    beta D_n exceeds 130."""
    with mp.workdps(40):
        a, b, bt = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        rows, n = [mp.mpf(0)] * 3, 1
        while True:
            d = n * (a + b * (n + 2))
            w = mp.exp(-bt * d)
            rows = [r + d ** k * w for k, r in enumerate(rows)]
            if bt * d > 130:
                return rows
            n += 1


def test_level_reference_equals_direct_sums():
    # where beta >= 1e-3 keeps a direct sum short, the Euler-Maclaurin
    # reference (p = 12 from level 40) agrees with it far below rounding
    for alpha in (0.02, 0.3, 0.9):
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in (1e-3, 0.1, 3.0):
            for ref, direct in zip(mp_level_rows(c.a, c.b, beta), _mp_direct_rows(c.a, c.b, beta)):
                assert abs(ref - direct) <= mp.mpf(10) ** -30 * direct, (alpha, beta)


def _levels(c, betas):
    n = len(betas)
    return _moments._boltzmann_levels(np.full(n, c.a), np.full(n, c.b), np.asarray(betas))


@pytest.mark.parametrize("alpha", _GATE_ALPHAS)
def test_level_sums_against_the_euler_maclaurin_reference(alpha):
    # tail, <u> and C = Var u (u = beta D) within 1e-13 of the 40-digit
    # reference at every beta, Euler-Maclaurin rows and direct levels alike,
    # compared at the scale 2^m of the sums (so the subnormal w_1 of large
    # beta keeps its digits)
    c = coefficients(OscillatorParams(alpha=alpha))
    tail, mean, var, scale = _levels(c, _GATE_BETAS)
    for i, beta in enumerate(_GATE_BETAS.tolist()):
        with mp.workdps(40):
            # row k of the reference in D, times beta^k: in u
            s0, s1, s2 = (s * mp.mpf(beta) ** k
                          for k, s in enumerate(mp_level_rows(c.a, c.b, beta)))
            m = mp.mpf(2) ** int(scale[i])
            mean_u = s1 / (1 + s0)
            want = [float(x * m) for x in (s0, mean_u, s2 / (1 + s0) - mean_u * mean_u)]
        got = [tail[i], mean[i], var[i]]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w, (alpha, beta, got, want)


def test_level_sums_stay_short_and_certified(monkeypatch):
    # no point sums more than 256 levels, from beta = 1e-10 to 1e300, and the
    # direct levels' certificate never fires there; summed past too few
    # levels, it does
    levels = []
    real = _moments._tail_bounds
    monkeypatch.setattr(_moments, "_tail_bounds", lambda a, b, bv, n: levels.append(n.max())
                        or real(a, b, bv, n))
    betas = np.concatenate((_GATE_BETAS, 10.0 ** np.arange(3.5, 300.5, 0.5)))
    alphas = np.repeat(_GATE_ALPHAS, len(betas))
    c = coefficients(OscillatorParams(alpha=alphas))
    tail, mean, var, _ = _moments._boltzmann_levels(c.a, c.b, np.tile(betas, len(_GATE_ALPHAS)))
    assert np.isfinite(tail).all() and np.isfinite(mean).all() and np.isfinite(var).all()
    assert len(levels) == 1 and 1 <= levels[0] <= 256
    monkeypatch.setattr(_moments, "_X_ROUNDING", 20.0)
    with pytest.raises(NonConvergence, match="tail bound above rounding"):
        thermo_sum_engine(C03, 1.0)


def test_direct_terms_are_rounded_once(monkeypatch):
    # every direct term u_n^k e^{-u_n} 2^m is within 0.55 ulp of its 40-digit
    # value, at u_1 from 0.7 to 5e3 (m > 0 from 700): formed to ~2^-58 in
    # double-doubles and rounded once; two roundings would reach 1 ulp
    seen = []
    real = _moments._fsum_rows
    monkeypatch.setattr(_moments, "_fsum_rows", lambda *args: seen.append(args) or real(*args))
    betas = np.tile([0.5, 3.0, 40.0, 562.0, 1e3, 5e3], 4)
    c = coefficients(OscillatorParams(alpha=np.repeat([0.0, 1e-9, 0.3, 0.9], 6)))
    _, m = _moments._direct_rows(c.a, c.b, betas)
    (terms, starts, counts), = seen
    with mp.workdps(40):
        for i, (a, b, beta) in enumerate(zip(c.a.tolist(), c.b.tolist(), betas.tolist())):
            for n in range(1, counts[i] + 1):
                u = mp.mpf(beta) * n * (mp.mpf(a) + mp.mpf(b) * (n + 2))
                for k, got in enumerate(terms[:, starts[i] + n - 1].tolist()):
                    want = u ** k * mp.exp(-u) * mp.mpf(2) ** int(m[i])
                    if want > np.finfo(float).tiny:
                        assert abs(got - want) <= 0.55 * np.spacing(got), (a, beta, n, k)


def test_sum_presets_against_the_level_reference():
    # 8 seeded rows of each of Fig2a-Fig5b within 2^-51 of the 40-digit level
    # sums (the worst of the sample is C's 3.1e-16; Z and S stay below 2e-16),
    # F also within 2^-52 E_0, as it crosses zero (there 1.3e-14 relative, 7.7e-17
    # E_0 absolute)
    rng = np.random.default_rng(11)
    for figure_id in ("Fig2a", "Fig2b", "Fig3a", "Fig3b", "Fig4a", "Fig4b", "Fig5a", "Fig5b"):
        pr = PRESETS[figure_id]
        ys = figure_preset(figure_id)[2]
        for i in rng.choice(len(ys), 8, replace=False).tolist():
            point = {pr.curve_param: pr.curve_values[i // len(pr.values)],
                     pr.vary: pr.values[i % len(pr.values)]}
            c = coefficients(OscillatorParams(alpha=point["alpha"]))
            z, _, cv, sv, fv = _mp_sum_point(c, point["beta"])
            want = {"Z": z, "C": cv, "S": sv, "F": fv}[pr.quantity]
            floor = 2.0 ** -52 * c.energy(0) if pr.quantity == "F" else 0.0
            assert abs(ys[i] - want) <= 2.0 ** -51 * abs(want) + floor, (figure_id, point)


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3, 0.9999])
def test_scaled_direct_rows_stop_at_level_two(alpha, monkeypatch):
    # where beta D_1 > 700 the terms carry a scale 2^m (m > 0) and the
    # certificate's bound is +0: there N = 2, and the 40-digit tail past
    # level 2 is below 2^-52 of each row, so nothing is left to certify
    levels = []
    real = _moments._tail_bounds
    monkeypatch.setattr(_moments, "_tail_bounds", lambda a, b, bv, n: levels.append(n)
                        or real(a, b, bv, n))
    c = coefficients(OscillatorParams(alpha=alpha))
    betas = np.array([701.0, 1e3, 1e5]) / (c.a + 3.0 * c.b)
    rows, m = _moments._direct_rows(np.full(3, c.a), np.full(3, c.b), betas)
    assert (m > 0).all() and levels[0].tolist() == [2.0] * 3
    assert (real(np.full(3, c.a), np.full(3, c.b), betas, levels[0]) == 0.0).all()
    with mp.workdps(40):
        a, b = mp.mpf(c.a), mp.mpf(c.b)
        for beta in betas.tolist():
            d = [n * (a + b * (n + 2)) for n in range(1, 13)]
            t = [[x ** k * mp.exp(-mp.mpf(beta) * x) for x in d] for k in range(3)]
            for row in t:
                assert sum(row[2:]) < mp.mpf(2) ** -52 * sum(row[:2]), (alpha, beta)
