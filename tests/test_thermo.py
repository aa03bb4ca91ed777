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

from pdmosc import (NonConvergence, OscillatorParams, SingularLimit, SpectrumCoefficients,
                    Tolerance, coefficients, entropy_closed,
                    free_energy_closed, heat_capacity_closed, log_partition_closed,
                    mean_energy_closed, partition_closed, partition_quadrature,
                    partition_sum, thermo, thermo_closed_point, thermo_quadrature)
from pdmosc.thermo import TRANSCRIPTIONS, thermo_sum_engine
from pdmosc.verify import DEFAULT_BETAS

from helpers import (brute_boltzmann_moments, brute_sum, brute_thermo, derivative,
                     mp_weight_moments)

TOL = Tolerance()
TIGHT = Tolerance(rel=1e-15, abs=0.0, max_evals=100_000)
CLI_TOL = Tolerance(rel=1e-10, abs=0.0, max_evals=400_000)

C01 = coefficients(OscillatorParams(alpha=0.1))
C03 = coefficients(OscillatorParams(alpha=0.3))
C09 = coefficients(OscillatorParams(alpha=0.9))
C00 = coefficients(OscillatorParams(alpha=0.0))


def test_beta_validation():
    # 0 < beta < inf, NaN refused, at every route's entry point
    for beta in (0.0, -2.0, math.inf, math.nan):
        for route in (partition_sum, partition_closed, partition_quadrature,
                      thermo_closed_point, thermo_quadrature, thermo_sum_engine):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                route(C03, beta)


def test_points_hold_float_beta_and_curves_checked_float_arrays():
    for point in (thermo_sum_engine, thermo_closed_point, thermo_quadrature):
        pt = point(C03, 2)
        assert type(pt.beta) is float and pt.beta == 2.0
        curve = point(C03, [0.5, 2.0])
        assert isinstance(curve.beta, np.ndarray) and curve.beta.dtype == np.float64
        assert curve.beta.tolist() == [0.5, 2.0]


# -- partition_sum -----------------------------------------------------------

def test_partition_sum_geometric_limit():
    # b = 0: Z = e^{-beta/2} / (1 - e^{-beta})
    z = partition_sum(C00, 1.0, TOL)
    assert abs(z - 0.95951737566747186) < 1e-13


def test_partition_sum_bracket_and_brute_force():
    beta = 5.0
    z = partition_sum(C01, beta, TOL)
    e0, e1 = C01.energy(0), C01.energy(1)
    lower = math.exp(-beta * e0)
    upper = lower / (1.0 - math.exp(-beta * (e1 - e0)))
    assert lower < z < upper
    zbrute = brute_sum(lambda n: math.exp(-beta * C01.energy(n)), 200)
    assert abs(z - zbrute) / zbrute < 1e-12


def test_partition_sum_ground_state_dominance():
    c = C03
    beta = 50.0
    z = partition_sum(c, beta, TOL)
    assert abs(z / math.exp(-beta * c.energy(0)) - 1.0) < 1e-6


def test_partition_sum_monotonicity():
    betas = np.logspace(-1, 1, 15)
    zs = [partition_sum(C03, b, TOL) for b in betas]
    assert all(z2 < z1 for z1, z2 in zip(zs, zs[1:]))
    for beta in (0.5, 2.0):
        vals = [partition_sum(coefficients(OscillatorParams(alpha=a)), beta, TOL)
                for a in np.linspace(0.02, 0.95, 12)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_log_partition_sum_underflow_safe():
    # beta*E_0 ~ 770: Z underflows, but F = -ln Z/beta and S must not
    pt = thermo_sum_engine(C09, 1000.0, 1.0, TOL)
    assert pt.Z == 0.0
    assert math.isfinite(pt.F) and math.isfinite(pt.S)
    assert abs(1000.0 * (pt.F - C09.energy(0))) < 1e-9
    assert 0.0 <= pt.S < 1e-9


# -- closed form vs quadrature -----------------------------------------------

def test_partition_closed_equals_unit_interval_quadrature():
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 2.6, 10.0):
            zc = partition_closed(c, beta)
            zq = partition_quadrature(c, beta, "quad01", TOL)
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
    z = partition_quadrature(C00, 1.0, "quadinf", TOL)
    assert abs(z - 0.60653065971263342) < 1e-12
    # nested domains
    for c in (C01, C09):
        z01 = partition_quadrature(c, 1.3, "quad01", TOL)
        zinf = partition_quadrature(c, 1.3, "quadinf", TOL)
        assert z01 < zinf
    with pytest.raises(ValueError):
        partition_quadrature(C01, 1.0, "everything")


def test_sum_vs_integral_sandwich():
    # int_0^inf term <= sum <= term(0) + int_0^inf term for decreasing terms
    for c in (C01, C09):
        for beta in (0.4, 2.0):
            s = partition_sum(c, beta, TOL)
            integral = partition_quadrature(c, beta, "quadinf", TOL)
            assert integral <= s <= math.exp(-beta * c.energy(0)) + integral


# -- ground truth from exact moments ----------------------------------------

def test_engine_standard_oscillator():
    pt = thermo_sum_engine(C00, 1.0, 1.0, TIGHT)
    assert abs(pt.U - 1.0819767068693264) / 1.0819767068693264 < 1e-7
    assert abs(pt.C - 0.92067359420779232) / 0.92067359420779232 < 1e-6
    assert pt.F == -math.log(pt.Z) / 1.0 or abs(pt.F + math.log(pt.Z)) < 1e-12


def test_engine_identities():
    for c in (C01, C09):
        for beta in (0.3, 1.0, 4.0):
            pt = thermo_sum_engine(c, beta, 1.0, TIGHT)
            assert abs(pt.S - (math.log(pt.Z) + beta * pt.U)) <= 1e-9 * max(abs(pt.S), 1.0)
            assert abs(pt.F + math.log(pt.Z) / beta) <= 1e-12 * max(abs(pt.F), 1.0)


def test_engine_gauge_equivalence():
    # the reduced-gauge moments and Richardson derivatives of ln of the
    # plain sum agree where both are well conditioned
    def logz(x):
        return math.log(partition_sum(C03, x, TIGHT))

    for beta in (0.2, 1.0, 3.0):
        a = thermo_sum_engine(C03, beta, 1.0, TIGHT)
        u = -derivative(logz, beta, 1, beta, positive_only=True)
        c = beta * beta * derivative(logz, beta, 2, beta, positive_only=True)
        assert abs(a.U - u) / abs(u) < 1e-9
        assert abs(a.C - c) / abs(c) < 1e-6
        assert a.Z == partition_sum(C03, beta, TIGHT)


def test_energy_moments_against_brute_force():
    for c in (C01, C09):
        for beta in (0.3, 1.0, 5.0):
            pt = thermo_sum_engine(c, beta, 1.0, TIGHT)
            energies = [c.energy(n) for n in range(400)]
            zb, mb, vb = brute_boltzmann_moments(energies, beta)
            assert abs(pt.Z - zb) / zb < 1e-12
            assert abs(pt.U - mb) / mb < 1e-12
            assert abs(pt.C / (beta * beta) - vb) / vb < 1e-10


def test_engine_vs_moments():
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 10.0):
            pt = thermo_sum_engine(c, beta, 1.0, TIGHT)
            energies = [c.energy(n) for n in range(400)]
            _, mean, var = brute_boltzmann_moments(energies, beta)
            assert abs(pt.U - mean) / abs(mean) < 1e-12
            assert abs(pt.C - beta * beta * var) / (beta * beta * var) < 1e-12


def test_engine_heat_capacity_exponentially_small():
    # alpha = 0 at beta = 700: C = beta^2 e^{-beta} / (1 - e^{-beta})^2 ~ 5e-299,
    # far below the roundoff of any finite difference of ln Z
    beta = 700.0
    pt = thermo_sum_engine(C00, beta, 1.0, TOL)
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
    pt = thermo_sum_engine(c, beta, 1.0, TOL)
    want = brute_thermo(c, beta)
    got = (pt.Z, pt.U, pt.C, pt.S, pt.F)
    assert all(_within(g, w) for g, w in zip(got, want)), (got, want)
    assert partition_sum(c, beta, TOL) == pt.Z


@pytest.mark.parametrize("alpha,beta", [(0.95, 700.0), (0.95, 300.0), (0.3, 500.0)])
def test_sum_route_z_carries_beta_e0_exactly(alpha, beta):
    # beta E_0 ~ 550 here: rounding E_0 or beta E_0 in double cost 4.9e-14
    c = coefficients(OscillatorParams(alpha=alpha))
    want = brute_thermo(c, beta)[0]
    z = partition_sum(c, beta, TOL)
    assert abs(z - want) <= 1e-15 * want
    assert thermo_sum_engine(c, beta, 1.0, TOL).Z == z


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
    pt = thermo_sum_engine(C00, beta, 1.0, TOL)
    got = (pt.Z, pt.U, pt.C, pt.S, pt.F)
    assert all(_within(g, w) for g, w in zip(got, want)), (got, want)
    assert partition_sum(C00, beta, TOL) == pt.Z


_log_beta = st.floats(min_value=-4.0, max_value=4.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=0.99), u1=_log_beta, u2=_log_beta)
@example(alpha=0.0, u1=-4.0, u2=4.0)
@example(alpha=1e-9, u1=-4.0, u2=0.0)
def test_sum_engine_properties(alpha, u1, u2):
    # never raises at the CLI tolerance over alpha in [0, 0.99] and
    # beta in [1e-4, 1e4]; Z falls with beta (up to a few ulps of
    # rounding); C, S >= 0 and U >= E_0
    b1, b2 = sorted((10.0 ** u1, 10.0 ** u2))
    assume(b1 < b2)
    c = coefficients(OscillatorParams(alpha=alpha))
    p1 = thermo_sum_engine(c, b1, 1.0, CLI_TOL)
    p2 = thermo_sum_engine(c, b2, 1.0, CLI_TOL)
    assert p2.Z <= p1.Z * (1.0 + 8 * np.finfo(float).eps)
    for pt in (p1, p2):
        assert pt.C >= 0.0 and pt.S >= 0.0 and pt.U >= c.energy(0)


def test_quadrature_point_against_mpmath():
    # at beta = 0.001 the moment rows peak past the tail probes at n ~ 9..99
    for c, beta in [(C01, 0.1), (C01, 10.0), (C09, 0.1), (C09, 10.0), (C00, 0.001)]:
        for range_, hi in (("quad01", 1.0), ("quadinf", math.inf)):
            pt = thermo_quadrature(c, beta, range_, 1.0, Tolerance(rel=1e-13))
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
            f = free_energy_closed(c, beta)
            assert f == -log_partition_closed(c, beta) / beta
            assert f == pytest.approx(-math.log(partition_closed(c, beta)) / beta, rel=1e-13)
    # Z_closed underflows to 0 here; F stays finite
    assert partition_closed(C03, 2000.0) == 0.0
    assert math.isfinite(free_energy_closed(C03, 2000.0))


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
        cc = heat_capacity_closed(C01, beta, 1.0, "corrected")
        assert abs(cc - want) <= 2e-5 * max(abs(want), 1e-3)


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_point_equals_single_closed_functions(tr):
    # one _xargs per point, bit for bit the five single routes
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 8.0, 800.0):
            pt = thermo_closed_point(c, beta, 1.0, tr)
            singles = (partition_closed(c, beta), mean_energy_closed(c, beta, tr),
                       heat_capacity_closed(c, beta, 1.0, tr),
                       entropy_closed(c, beta, 1.0, tr), free_energy_closed(c, beta))
            # verbatim forms may overflow to inf or nan, which equal themselves here
            assert np.array_equal([pt.Z, pt.U, pt.C, pt.S, pt.F], singles, equal_nan=True)


#: the audit grid and two betas where verbatim forms overflow
_CURVE_BETAS = np.array(DEFAULT_BETAS + (800.0, 2000.0))

#: name -> one closed form as f(c, beta, transcription)
_CLOSED_FORMS = {
    "Z": lambda c, beta, tr: partition_closed(c, beta),
    "lnZ": lambda c, beta, tr: log_partition_closed(c, beta),
    "U": lambda c, beta, tr: mean_energy_closed(c, beta, tr),
    "C": lambda c, beta, tr: heat_capacity_closed(c, beta, 1.0, tr),
    "S": lambda c, beta, tr: entropy_closed(c, beta, 1.0, tr),
    "F": lambda c, beta, tr: free_energy_closed(c, beta),
}


@pytest.mark.parametrize("tr", TRANSCRIPTIONS)
def test_closed_forms_over_beta_equal_their_points(tr):
    # a beta array runs the float call's arithmetic elementwise: each element
    # is bit for bit its float call (nan equals nan here), through the
    # verbatim forms' overflow at beta = 800 and 2000
    for c in (C01, C03, C09):
        curve = thermo_closed_point(c, _CURVE_BETAS, 1.0, tr)
        assert np.array_equal(curve.beta, _CURVE_BETAS) and curve.method == "closed"
        for name, form in _CLOSED_FORMS.items():
            column = form(c, _CURVE_BETAS, tr)
            points = [form(c, beta, tr) for beta in _CURVE_BETAS.tolist()]
            assert all(type(v) is float for v in points)
            assert np.array_equal(column, points, equal_nan=True), (c, name)
            if name != "lnZ":
                assert np.array_equal(getattr(curve, name), column, equal_nan=True)
        for beta in (0.5, 2000.0):
            pt = thermo_closed_point(c, beta, 1.0, tr)
            assert pt.beta == beta
            assert all(type(getattr(pt, qn)) is float for qn in "ZUCSF")
    # the verbatim overflow is kept: inf, not an exception
    assert math.isinf(heat_capacity_closed(C03, np.array([2000.0]), 1.0, "verbatim")[0])
    assert math.isinf(mean_energy_closed(C09, 2000.0, "verbatim"))


@pytest.mark.parametrize("tr", TRANSCRIPTIONS)
def test_closed_routes_make_one_kernel_call_per_curve(tr, monkeypatch):
    # x1 and x2 go through one erfcx call, and where a form needs erf (Z and
    # the verbatim C), through one erf call: no element of a kernel's output
    # depends on the rest of its batch, so this keeps every bit
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
        thermo_closed_point(c, _CURVE_BETAS[:3], 1.0, tr)
        assert calls == {"erfcx": 1, "erf": 1 + erf_calls["C"]}


def test_closed_curves_raise_where_their_points_do():
    tiny = SpectrumCoefficients(a=1.0, b=thermo.B_MIN)  # b <= B_MIN: singular
    for form in _CLOSED_FORMS.values():
        for beta in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(SingularLimit):
                form(tiny, beta, "corrected")
            with pytest.raises(ValueError, match="beta must be positive"):
                form(C03, beta * np.array([1.0, -1.0]), "verbatim")
    with pytest.raises(SingularLimit):
        thermo_closed_point(tiny, np.array([0.5, 1.0]))


@pytest.mark.parametrize("range_", ["quad01", "quadinf"])
def test_quadrature_over_beta_equals_its_points(range_):
    # every beta's four moment rows in one integrate_batch: each element bit
    # for bit its float call, at the audit tolerance and at the default one
    for tol in (Tolerance(rel=3e-13, abs=0.0, max_evals=400_000), TOL):
        for c in (C01, C09):
            curve = thermo_quadrature(c, _CURVE_BETAS, range_, 1.0, tol)
            assert np.array_equal(curve.beta, _CURVE_BETAS) and curve.method == range_
            for i, beta in enumerate(_CURVE_BETAS.tolist()):
                pt = thermo_quadrature(c, beta, range_, 1.0, tol)
                assert pt.beta == beta
                got = [getattr(pt, qn) for qn in "ZUCSF"]
                assert all(type(v) is float for v in got)
                assert got == [getattr(curve, qn)[i] for qn in "ZUCSF"], (c, beta)


def test_corrected_entropy_is_identity_composition():
    for beta in (0.5, 3.0):
        s = entropy_closed(C03, beta, 1.0, "corrected")
        want = log_partition_closed(C03, beta) + beta * mean_energy_closed(
            C03, beta, "corrected")
        assert abs(s - want) < 1e-12 * max(1.0, abs(want))


def test_verbatim_entropy_finite_at_moderate_beta():
    s = entropy_closed(C03, 0.5, 1.0, "verbatim")
    assert math.isfinite(s)


def test_verbatim_heat_capacity_overflows_honestly():
    # the squared erf difference in the denominator underflows to 0 here;
    # the typeset form then overflows instead of raising ZeroDivisionError
    c = heat_capacity_closed(C03, 800.0, 1.0, "verbatim")
    assert math.isinf(c)
    assert math.isfinite(heat_capacity_closed(C03, 800.0, 1.0, "corrected"))


def test_transcription_validation():
    with pytest.raises(ValueError):
        mean_energy_closed(C01, 1.0, "fixed")


def test_alpha_to_zero_consistency():
    c = coefficients(OscillatorParams(alpha=1e-6))
    for beta in np.logspace(-1, 1, 9):
        z = partition_sum(c, beta, TOL)
        z0 = math.exp(-beta * 0.5) / (1.0 - math.exp(-beta))
        assert abs(z - z0) / z0 < 1e-4


# -- the batched level sum ----------------------------------------------------

def _sum_calls(monkeypatch):
    """Record, per sum_decaying call of the level sum, the term count of
    each round."""
    calls = []

    def counted(terms, tail_bound, tol, n):
        rounds = []
        calls.append(rounds)
        return real(lambda k: rounds.append(k.shape[1]) or terms(k), tail_bound, tol, n)

    real = thermo.sum_decaying
    monkeypatch.setattr(thermo, "sum_decaying", counted)
    return calls


def _assert_points(cs, betas, kB, tol, curve):
    for i, (c, beta) in enumerate(zip(cs, betas)):
        pt = thermo_sum_engine(c, beta, kB, tol)
        assert [getattr(pt, qn) for qn in "ZUCSF"] == [getattr(curve, qn)[i] for qn in "ZUCSF"]
        assert partition_sum(c, beta, tol) == curve.Z[i]


def test_sum_batch_chunks_past_the_level_budget(monkeypatch):
    # five first guesses of ~36k-54k levels exceed max_evals = 200k
    # together: the batch splits in order, and every point stays its own call
    c = coefficients(OscillatorParams(alpha=1e-6))
    betas = [0.8e-3, 0.9e-3, 1e-3, 1.1e-3, 1.2e-3]
    calls = _sum_calls(monkeypatch)
    curve = thermo_sum_engine(c, np.array(betas), 1.0, TOL)
    assert len(calls) > 1
    assert all(rounds[0] <= TOL.max_evals for rounds in calls)
    _assert_points([c] * len(betas), betas, 1.0, TOL, curve)
    assert curve.beta.tolist() == betas


def _curve(cs):
    """The coefficients cs of an alpha curve as one SpectrumCoefficients of
    arrays."""
    return SpectrumCoefficients(np.array([c.a for c in cs]), np.array([c.b for c in cs]))


def test_sum_alpha_curve_equals_its_points():
    # coefficient arrays with one beta: an alpha curve, through the
    # geometric series at alpha = 0, in SI units with their kB
    p = [OscillatorParams.si(alpha=alpha) for alpha in (0.0, 0.3, 0.9)]
    cs = [coefficients(x) for x in p]
    beta = 1.0 / (p[0].kB * 300.0)
    curve = thermo_sum_engine(_curve(cs), beta, p[0].kB, TOL)
    _assert_points(cs, [beta] * 3, p[0].kB, TOL, curve)
    assert partition_sum(_curve(cs), beta, TOL).tolist() == curve.Z.tolist()


def test_sum_batch_raises_where_its_point_does():
    c = coefficients(OscillatorParams(alpha=1e-9))
    with pytest.raises(NonConvergence):
        thermo_sum_engine(c, 1e-4, 1.0, TOL)
    with pytest.raises(NonConvergence):
        thermo_sum_engine(_curve((C03, c, C09)), np.array([1.0, 1e-4, 2.0]), 1.0, TOL)
    with pytest.raises(ValueError, match="beta must be positive"):
        thermo_sum_engine(C03, np.array([1.0, 0.0]), 1.0, TOL)
