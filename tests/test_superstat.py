"""Superstatistics layer: deformed factor, its quadrature, the closed-form
moment engine (ground truth), typeset closed forms, assembled points."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdmosc import (B_MIN, NonConvergence, OscillatorParams, SingularLimit, SpectrumCoefficients,
                    Tolerance, boltzmann_factor_q, coefficients, entropy_superstat_closed,
                    heat_capacity_superstat_closed, integrate_batch,
                    log_superstat_partition_closed, mean_energy_superstat_closed, routes,
                    superstat_closed_point, superstat_partition_closed, superstat_quadrature,
                    superstat_thermo, thermo_quadrature, thermo_sum_engine)

from pdmosc._moments import TRANSCRIPTIONS, _assemble, _scaled_moments
from pdmosc.verify import DEFAULT_ALPHAS, DEFAULT_BETAS, DEFAULT_QS

from helpers import derivative, mp_closed_heat_capacity_superstat, mp_quad, mp_weight_moments

TOL = Tolerance()

C00 = coefficients(OscillatorParams(alpha=0.0))
C01 = coefficients(OscillatorParams(alpha=0.1))
C03 = coefficients(OscillatorParams(alpha=0.3))
C09 = coefficients(OscillatorParams(alpha=0.9))

#: the point builder of each superstat method: engine, quadinf, closed
BUILDERS = (superstat_thermo, superstat_quadrature, superstat_closed_point)


def test_q_validation():
    # 0 <= q <= 1, NaN refused, at every entry point that takes q
    for q in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError, match="q must lie in"):
            boltzmann_factor_q(1.0, 1.0, q)
        with pytest.raises(ValueError, match="q must lie in"):
            superstat_quadrature(C03, 1.0, q).Zs
        for point in BUILDERS:
            with pytest.raises(ValueError, match="q must lie in"):
                point(C03, 1.0, q)
    for q in (0.0, 1.0):
        assert boltzmann_factor_q(1.0, 1.0, q) >= boltzmann_factor_q(1.0, 1.0, 0.0)
        assert superstat_thermo(C03, 1.0, q).q == q


def test_points_hold_floats_or_checked_float_arrays():
    for point in BUILDERS:
        pt = point(C03, 2, 1)
        assert type(pt.beta) is float and type(pt.q) is float
        assert (pt.beta, pt.q) == (2.0, 1.0)
        curve = point(C03, [0.5, 2.0], [0.0, 1.0])
        for got, given in ((curve.beta, [0.5, 2.0]), (curve.q, [0.0, 1.0])):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.tolist() == given
    # beta and q arrays: each element is its float call
    energies = np.array([0.0, 0.7, 3.0])
    betas, qs = np.array([0.5, 1.0, 7.0]), np.array([0.0, 0.3, 1.0])
    points = [boltzmann_factor_q(e, b, q) for e, b, q in
              zip(energies.tolist(), betas.tolist(), qs.tolist())]
    assert all(type(v) is float for v in points)
    assert boltzmann_factor_q(energies, betas, qs).tolist() == points
    assert boltzmann_factor_q(0.7, betas, qs).tolist() == [
        boltzmann_factor_q(0.7, b, q) for b, q in zip(betas.tolist(), qs.tolist())]


def test_boltzmann_factor_values():
    assert boltzmann_factor_q(0.0, 1.0, 0.7) == 1.0
    assert abs(boltzmann_factor_q(1.0, 1.0, 0.0) - 0.36787944117144233) < 1e-16
    assert abs(boltzmann_factor_q(1.0, 1.0, 1.0) - 0.55181916175716348) < 1e-15


@pytest.mark.filterwarnings("error")
def test_boltzmann_factor_is_zero_where_beta_e_squared_overflows():
    # e^{-beta E} is +0 from beta E ~ 745, long before (beta E)^2 overflows
    # at beta E ~ 1.3e154: the factor is +0 there, not 0 * inf = nan
    for beta in (1e154, 1e155, 1e300):
        v = boltzmann_factor_q(0.6, beta, 0.5)
        assert v == 0.0 and math.copysign(1.0, v) > 0.0
    # every moment row underflows there too: Z_s raises the point's error, naming beta
    with pytest.raises(NonConvergence) as point:
        superstat_quadrature(C03, 1e155, 0.5)
    with pytest.raises(NonConvergence) as zs:
        superstat_quadrature(C03, 1e155, 0.5).Zs
    assert str(zs.value) == str(point.value) == "moment rows integrate to 0 at beta=1e+155"
    # where the weight is positive, every bit of the unguarded product stays
    energies = np.array([0.0, 0.3, 2.0, 700.0, 1e150])
    got = boltzmann_factor_q(energies, 1.0, 0.5).tolist()
    assert got[:4] == [math.exp(-e) * (1.0 + 0.25 * e * e) for e in energies[:4].tolist()]
    assert got[4] == 0.0

def test_boltzmann_factor_dominates_classical():
    rng = np.random.default_rng(11)
    for _ in range(100):
        e = rng.uniform(0, 20)
        beta = rng.uniform(0.05, 5)
        q = rng.uniform(0, 1)
        assert boltzmann_factor_q(e, beta, q) >= math.exp(-beta * e)


def test_quadrature_q0_is_classical_integral_bitwise():
    for c in (C00, C01, C09):
        for beta in (0.2, 1.0, 5.0):
            zs = superstat_quadrature(c, beta, 0.0, TOL).Zs
            z = thermo_quadrature(c, beta, "quadinf", TOL).Z
            assert zs == z


def test_quadrature_undeformed_frozen_values():
    # b = 0, q = 0: e^{-beta/2}/beta at beta=1
    assert abs(superstat_quadrature(C00, 1.0, 0.0, TOL).Zs
               - 0.60653065971263342) < 1e-12
    # b = 0, q = 1: the integral reduces to e^{-1/2} * 21/8
    zs = superstat_quadrature(C00, 1.0, 1.0, TOL).Zs
    assert abs(zs - 1.5921429817456627) < 1e-11


def test_quadrature_against_mpmath_oracle():
    def make(c, beta, q):
        return lambda n: math.exp(-beta * c.energy(n)) * (
            1.0 + 0.5 * q * (beta * c.energy(n)) ** 2)
    for c, beta, q in [(C01, 1.3, 0.6), (C09, 0.37, 1.0), (C03, 2.2, 0.25)]:
        want = mp_quad(make(c, beta, q), [0, 20, math.inf])
        got = superstat_quadrature(c, beta, q, TOL).Zs
        assert abs(got - want) / want < 1e-11


def test_zs_monotone_in_q():
    for c in (C01, C09):
        for beta in (0.5, 2.0):
            vals = [superstat_quadrature(c, beta, q, TOL).Zs
                    for q in np.linspace(0, 1, 9)]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_integrand_tail_negligible():
    # the transformed tail is far below the integrand's peak
    for c in (C01, C09):
        for beta, q in [(0.5, 1.0), (2.0, 0.5)]:
            peak = max(boltzmann_factor_q(c.energy(n), beta, q)
                       for n in np.linspace(0, 5, 200))
            tail = boltzmann_factor_q(c.energy(99.0), beta, q)
            assert tail < 1e-12 * peak


# -- typeset closed form -----------------------------------------------------

def test_closed_verbatim_matches_quadrature():
    # the standalone typeset Z_s is exactly the defining integral
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 4.0, 10.0):
            for q in (0.0, 0.5, 1.0):
                zc = superstat_partition_closed(c, beta, q, "verbatim")
                zq = superstat_quadrature(c, beta, q, TOL).Zs
                assert abs(zc - zq) / zq < 1e-9


def test_closed_transcriptions_split_at_positive_q():
    # both variants coincide at q = 0 and differ once q > 0
    for c in (C01, C09):
        assert superstat_partition_closed(c, 1.0, 0.0, "verbatim") == \
            superstat_partition_closed(c, 1.0, 0.0, "corrected")
        v = superstat_partition_closed(c, 1.0, 0.8, "verbatim")
        w = superstat_partition_closed(c, 1.0, 0.8, "corrected")
        assert v != w and w > v > 0.0


def test_closed_singular_guard():
    tiny = SpectrumCoefficients(a=1.0, b=1e-9)
    with pytest.raises(SingularLimit):
        superstat_partition_closed(tiny, 1.0, 0.5)
    with pytest.raises(SingularLimit):
        mean_energy_superstat_closed(tiny, 1.0, 0.5)
    # b = B_MIN is singular and b = 2 B_MIN is not, for a float beta and an array
    at_limit = SpectrumCoefficients(a=1.0, b=B_MIN)
    above = SpectrumCoefficients(a=1.0, b=2.0 * B_MIN)
    forms = (log_superstat_partition_closed,
             lambda c, beta, q: -log_superstat_partition_closed(c, beta, q) / beta,
             heat_capacity_superstat_closed)
    for beta in (1.0, np.array([0.5, 1.0])):
        for form in forms + (superstat_closed_point,):
            with pytest.raises(SingularLimit):
                form(at_limit, beta, 0.5)
        for form in forms:
            assert np.isfinite(form(above, beta, 0.5)).all()
        # the typeset U_s and S_s keep a Gaussian e^{x1^2}, x1 ~ 3500 here,
        # that overflows honestly; the other three fields stay finite in
        # both transcriptions
        pt = superstat_closed_point(above, beta, 0.5)
        assert np.isfinite([pt.Zs, pt.Fs, pt.Cs]).all()


def test_log_closed_consistency():
    for beta in (0.5, 3.0, 12.0):
        z = superstat_partition_closed(C03, beta, 0.5, "verbatim")
        lz = log_superstat_partition_closed(C03, beta, 0.5, "verbatim")
        assert abs(lz - math.log(z)) < 1e-12 * max(1.0, abs(lz))


def test_closed_forms_finite_both_transcriptions():
    for tr in ("verbatim", "corrected"):
        u = mean_energy_superstat_closed(C03, 1.0, 0.5, tr)
        s = entropy_superstat_closed(C03, 1.0, 0.5, tr)
        f = -log_superstat_partition_closed(C03, 1.0, 0.5, tr) / 1.0
        assert math.isfinite(u) and math.isfinite(s) and math.isfinite(f)


# -- assembled thermodynamics ------------------------------------------------

def test_engine_undeformed_spot_values():
    # b=0 route: Zs(q=0, beta=1) = e^{-1/2}, Us = 1/2 + 1/beta = 1.5
    pt = superstat_thermo(C00, 1.0, 0.0)
    assert abs(pt.Zs - 0.60653065971263342) / 0.60653065971263342 < 1e-6
    assert abs(pt.Us - 1.5) / 1.5 < 1e-6


def test_engine_entropy_identity():
    for c in (C01, C09):
        for beta, q in [(0.5, 0.0), (1.0, 0.5), (3.0, 1.0)]:
            pt = superstat_thermo(c, beta, q)
            lnzs = math.log(superstat_quadrature(c, beta, q, TOL).Zs)
            assert abs(pt.Ss - (lnzs + beta * pt.Us)) <= \
                1e-7 * max(abs(pt.Ss), abs(lnzs) + beta * abs(pt.Us))


def test_free_energy_compositional_per_method():
    pt = superstat_thermo(C03, 2.0, 0.5)
    lnzs = math.log(superstat_quadrature(C03, 2.0, 0.5, TOL).Zs)
    assert abs(pt.Fs + lnzs / 2.0) < 1e-9
    ptc = superstat_closed_point(C03, 2.0, 0.5)
    want = -log_superstat_partition_closed(C03, 2.0, 0.5, "corrected") / 2.0
    assert ptc.Fs[TRANSCRIPTIONS.index("corrected")] == want


def test_closed_point_has_finite_cs():
    # in both transcriptions
    assert np.isfinite(superstat_closed_point(C01, 1.0, 0.5).Cs).all()


SIGNS = {"verbatim": -1.0, "corrected": 1.0}


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_cs_is_the_exact_second_derivative(tr):
    """The closed C_s is beta^2 d^2 ln Z_s/d beta^2 (in units of kB) of the
    same closed Z_s exactly: against 50-digit differentiation of the printed bracket
    (a Richardson stencil is 2.6e-6 off at alpha = 0.1, beta = 8.25)."""
    for alpha in (0.02, 0.1, 0.3, 0.9):
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in np.logspace(-1.0, 3.0, 9).tolist():
            for q in (0.0, 0.25, 1.0):
                want = mp_closed_heat_capacity_superstat(c, beta, q, SIGNS[tr])
                got = heat_capacity_superstat_closed(c, beta, q, tr)
                assert abs(got - want) <= 1e-10 * abs(want), (alpha, beta, q)
    want = mp_closed_heat_capacity_superstat(C03, 1e4, 0.5, SIGNS[tr])
    assert abs(heat_capacity_superstat_closed(C03, 1e4, 0.5, tr) - want) \
        <= 1e-13 * abs(want)


@pytest.mark.parametrize("alpha,beta,q", [(0.1, 8.2540418526801815, 1.0), (0.1, 10.0, 0.5),
                                          (0.3, 1.0, 0.5), (0.9, 0.3, 0.25)])
def test_richardson_agrees_with_closed_cs_within_its_spread(alpha, beta, q):
    # the stencil at step scales beta and beta/3 brackets its own error
    c = coefficients(OscillatorParams(alpha=alpha))
    for tr in ("verbatim", "corrected"):
        def lnzs(x):
            return log_superstat_partition_closed(c, x, q, tr)

        r1, r3 = (beta * beta * derivative(lnzs, beta, 2, scale, positive_only=True)
                  for scale in (beta, beta / 3.0))
        exact = heat_capacity_superstat_closed(c, beta, q, tr)
        assert abs(r1 - exact) <= abs(r1 - r3) + 1e-12 * abs(exact)


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_point_equals_single_closed_functions(tr):
    # one x1 and one erfcx per point, its entry of tr bit for bit the five
    # single routes
    j = TRANSCRIPTIONS.index(tr)
    for c in (C01, C03, C09):
        for beta in (0.1, 1.0, 8.25, 300.0):
            for q in (0.0, 0.5, 1.0):
                pt = superstat_closed_point(c, beta, q)
                singles = (superstat_partition_closed(c, beta, q, tr),
                           mean_energy_superstat_closed(c, beta, q, tr),
                           entropy_superstat_closed(c, beta, q, tr),
                           -log_superstat_partition_closed(c, beta, q, tr) / beta,
                           heat_capacity_superstat_closed(c, beta, q, tr))
                # a verbatim U_s may overflow to nan, which equals itself here
                assert np.array_equal([pt.Zs[j], pt.Us[j], pt.Ss[j], pt.Fs[j], pt.Cs[j]],
                                      singles, equal_nan=True)


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_columns_equal_single_closed_functions_on_the_mesh(tr):
    # the audit's beta x q mesh in one call per alpha: each column is bit for
    # bit its single-quantity function called with the same arrays, and each
    # element bit for bit the closed point at its own (beta, q); the closed
    # point holds the entry of tr at j on its trailing axis
    betas, qs = np.array(DEFAULT_BETAS)[:, None], np.array(DEFAULT_QS)
    j = TRANSCRIPTIONS.index(tr)
    for alpha in DEFAULT_ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        mesh = superstat_closed_point(c, betas, qs)
        assert mesh.beta is betas and mesh.q is qs
        columns = {qn: getattr(mesh, qn)[..., j] for qn in ("Zs", "Us", "Ss", "Fs", "Cs")}
        singles = {"Zs": superstat_partition_closed(c, betas, qs, tr),
                   "Us": mean_energy_superstat_closed(c, betas, qs, tr),
                   "Ss": entropy_superstat_closed(c, betas, qs, tr),
                   "Fs": -log_superstat_partition_closed(c, betas, qs, tr) / betas,
                   "Cs": heat_capacity_superstat_closed(c, betas, qs, tr)}
        for qn, single in singles.items():
            assert single.shape == (len(DEFAULT_BETAS), len(DEFAULT_QS))
            assert np.array_equal(columns[qn], single, equal_nan=True), (alpha, qn)
        for i, k in ((0, 0), (7, 2), (24, 4)):
            pt = superstat_closed_point(c, float(betas[i, 0]), float(qs[k]))
            assert np.array_equal([getattr(pt, qn)[j] for qn in columns],
                                  [columns[qn][i, k] for qn in columns], equal_nan=True)


@pytest.mark.parametrize("tr", ["verbatim", "corrected"])
def test_closed_forms_with_a_float_q_equal_a_q_array(tr):
    # a one-element q runs the closed forms' parameter-only algebra on
    # floats, a q array on arrays: both round alike, through the verbatim
    # overflow at beta = 800 and 2000
    betas = np.array(DEFAULT_BETAS + (800.0, 2000.0))
    forms = (superstat_partition_closed, log_superstat_partition_closed,
             mean_energy_superstat_closed,
             lambda c, beta, q, tr: -log_superstat_partition_closed(c, beta, q, tr) / beta,
             lambda c, beta, q, tr: entropy_superstat_closed(c, beta, q, tr),
             lambda c, beta, q, tr: heat_capacity_superstat_closed(c, beta, q, tr))
    for c in (C01, C03, C09):
        for q in (0.0, 0.5, 1.0):
            for form in forms:
                assert np.array_equal(form(c, betas, q, tr),
                                      form(c, betas, np.full(len(betas), q), tr),
                                      equal_nan=True), (c, q, form)


def test_engine_mesh_equals_its_points():
    # the moments once per beta, g0, g1, g2 over the whole beta x q mesh:
    # each element bit for bit its float call, Z_s underflowing at
    # beta = 2000 and the geometric case b = 0 included
    betas, qs = np.array(DEFAULT_BETAS + (2000.0,))[:, None], np.array(DEFAULT_QS)
    fields = ("Zs", "Us", "Ss", "Fs", "Cs")
    for c in (C00, C01, C03, C09):
        mesh = superstat_thermo(c, betas, qs)
        assert mesh.beta is betas and mesh.q is qs and mesh.method == "engine"
        columns = [getattr(mesh, qn) for qn in fields]
        assert all(col.shape == (len(betas), len(qs)) for col in columns)
        for i, j in np.ndindex(len(betas), len(qs)):
            pt = superstat_thermo(c, float(betas[i, 0]), float(qs[j]))
            got = [getattr(pt, qn) for qn in fields]
            assert all(type(v) is float for v in got)
            assert got == [col[i, j] for col in columns], (c, i, j)
        # a float beta against a q array, and paired beta and q arrays
        row = superstat_thermo(c, float(betas[3, 0]), qs)
        pairs = superstat_thermo(c, betas[:5, 0], qs)
        for k, qn in enumerate(fields):
            assert getattr(row, qn).tolist() == columns[k][3].tolist()
            assert getattr(pairs, qn).tolist() == [columns[k][j, j] for j in range(5)]
    with pytest.raises(ValueError, match="q must lie in"):
        superstat_thermo(C03, betas, np.array([0.5, 1.5]))


def test_closed_forms_check_every_grid_value():
    betas = np.array([0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        superstat_partition_closed(C03, np.array([0.5, 0.0]), 0.5)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        heat_capacity_superstat_closed(C03, np.array([1.0, math.nan]), 0.5)
    with pytest.raises(ValueError, match="q must lie in"):
        mean_energy_superstat_closed(C03, betas, np.array([0.5, 1.5]))
    with pytest.raises(SingularLimit):
        entropy_superstat_closed(C00, betas, 0.5)
    assert isinstance(-log_superstat_partition_closed(C03, 1.0, 0.5) / 1.0, float)


def _falls(z1: float, z2: float) -> bool:
    """z1 > z2 within 1e-12 relative slack; both may underflow to 0."""
    return z1 > z2 * (1.0 - 1e-12) or z1 == z2 == 0.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.99),
       u1=st.floats(min_value=-3.0, max_value=3.0), u2=st.floats(min_value=-3.0, max_value=3.0),
       q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_partition_functions_fall_with_beta_and_rise_with_q(alpha, u1, u2, q):
    """E > 0 on every level, and the deformed factor e^{-x} (1 + q x^2/2)
    of x = beta E decreases in x for q <= 1 and is never below e^{-x}: so
    the sum-route Z and the engine Z_s fall with beta, and Z_s(q) >= Z_s(0)."""
    b1, b2 = sorted((10.0 ** u1, 10.0 ** u2))
    assume(b1 < b2)
    c = coefficients(OscillatorParams(alpha=alpha))
    assert _falls(thermo_sum_engine(c, b1).Z, thermo_sum_engine(c, b2).Z)
    zs1, zs2 = (superstat_thermo(c, b, q).Zs for b in (b1, b2))
    assert _falls(zs1, zs2)
    for beta, zs in ((b1, zs1), (b2, zs2)):
        assert zs >= superstat_thermo(c, beta, 0.0).Zs * (1.0 - 1e-12)


def _single_row_moments(c, beta, q, s, hi):
    """I_0..I_4 (a column each) as single-row integrate_batch calls of the
    moment rows L beta s u^k e^{-u}, u = beta D(s m), m in [0, hi]; I_3 and
    I_4 are 0 where q = 0."""
    lin = c.a + 2.0 * c.b

    def row(k):
        def f(m, rows):
            n = s * m
            u = beta * (n * (c.a + c.b * (n + 2.0)))
            value = lin * beta * s * np.exp(-u)
            for _ in range(k):
                value = value * u
            return value
        return f

    return np.array([[integrate_batch(row(k), 1, 0.0, hi, TOL).value.item()]
                     if q or k < 3 else [0.0] for k in range(5)])


def test_engine_rows_equal_single_quadratures():
    """The quadinf point assembles Z_s, U_s, C_s, S_s and F_s
    (_moments._assemble) from Gauss-Kronrod moment rows L beta s u^k e^{-u},
    u = beta D(s m), each bit for bit its single-row integrate_batch call;
    q = 0 needs only k <= 2.
    The rows do not read q, so a beta x q mesh equals its per-q calls."""
    for c, beta, q in [(C01, 0.1, 0.0), (C03, 1.0, 0.5), (C09, 7.5, 1.0)]:
        pt = superstat_quadrature(c, beta, q, TOL)
        assert pt.method == "quadinf"
        lin, level = c.a + 2.0 * c.b, 8.0 / beta
        s = max(1.0, 2.0 * level / (lin + math.sqrt(lin * lin + 4.0 * c.b * level)) / 24.0)
        assert (s > 1.0) == (beta == 0.1)
        want = _assemble(c, np.array([beta]), np.array([q]),
                         _single_row_moments(c, beta, q, s, math.inf))
        assert [pt.Zs, pt.Us, pt.Cs, pt.Ss, pt.Fs] == [col.item() for col in want]
        assert pt.Zs == superstat_quadrature(c, beta, q, TOL).Zs

    betas, qs = np.array([0.1, 7.5])[:, None], np.array([0.0, 0.5, 1.0])
    fields = ("Zs", "Us", "Ss", "Fs", "Cs")
    mesh = superstat_quadrature(C03, betas, qs, TOL)
    for i, j in np.ndindex(len(betas), len(qs)):
        pt = superstat_quadrature(C03, float(betas[i, 0]), float(qs[j]), TOL)
        assert [getattr(pt, qn) for qn in fields] == [getattr(mesh, qn)[i, j] for qn in fields]


def test_quadrature_partitions_are_the_z_of_their_points():
    """The Z of thermo_quadrature and the Z_s of superstat_quadrature, at a
    point and over a curve or mesh: each element is bit for bit its float
    call, and the quad01 Z is _assemble's from the point's own moment rows
    (s = 1)."""
    betas, qs = np.array([0.05, 1.0, 40.0]), np.array([0.0, 0.5, 1.0])
    curve = coefficients(OscillatorParams(alpha=np.array([0.1, 0.9, 0.3])))
    for c in (C01, C09):
        for range_ in ("quad01", "quadinf"):
            zs = thermo_quadrature(c, betas, range_, TOL).Z
            for i, beta in enumerate(betas.tolist()):
                z = thermo_quadrature(c, beta, range_, TOL).Z
                assert type(z) is float
                assert z == zs[i]
        mesh = superstat_quadrature(c, betas[:, None], qs, TOL).Zs
        for i, j in np.ndindex(len(betas), len(qs)):
            beta, q = float(betas[i]), float(qs[j])
            assert superstat_quadrature(c, beta, q, TOL).Zs == mesh[i, j]
    assert np.array_equal(thermo_quadrature(curve, betas, "quadinf", TOL).Z,
                          [thermo_quadrature(coefficients(OscillatorParams(alpha=al)), bt,
                                             "quadinf", TOL).Z
                           for al, bt in zip((0.1, 0.9, 0.3), betas.tolist())])
    for beta in betas.tolist():
        moments = _single_row_moments(C03, beta, 0.0, 1.0, 1.0)
        want = _assemble(C03, np.array([beta]), 0.0, moments)[0].item()
        assert thermo_quadrature(C03, beta, "quad01", TOL).Z == want


def test_engine_against_mpmath_at_regime_corners():
    # U_s and C_s against 40-digit quadratures of the weight's beta-derivatives
    corners = [(c, beta, q) for c in (C01, C09) for beta in (0.1, 10.0) for q in (0.0, 0.5, 1.0)]
    for c, beta, q in corners + [(C00, 0.01, 0.5), (C01, 0.001, 1.0)]:
        pt = superstat_thermo(c, beta, q)
        z, u, cv = mp_weight_moments(c, beta, q, math.inf)
        assert abs(pt.Zs - z) / z < 1e-12
        assert abs(pt.Us - u) / abs(u) < 1e-12
        assert abs(pt.Cs - cv) / abs(cv) < 1e-12


@pytest.mark.parametrize("beta", [1e2, 1e3, 1e4])
def test_engine_u_and_c_at_large_beta(beta):
    # the E_0^2 cancellation of M_2/M_0 - U^2 in the Gauss-Kronrod moment
    # rows cost C_s 1.5e-10 at beta = 1e3 and 1.3e-8 at 1e4; the engine's
    # ground-state moments keep U_s and C_s near rounding
    pt = superstat_thermo(C03, beta, 0.5)
    _, u, cv = mp_weight_moments(C03, beta, 0.5, math.inf, dps=50)
    assert abs(pt.Us - u) / abs(u) < 1e-13
    assert abs(pt.Cs - cv) / abs(cv) < 1e-13


@pytest.mark.parametrize("beta,q", [(1e4, 0.5), (1e3, 1.0)])
def test_quadinf_cs_is_the_engine_at_large_beta(beta, q):
    # M_2/M_0 - U^2 of rows in E^k cancels to 3.3e-9 and 2.6e-10 of the
    # engine here; quadinf's moments of D go through the engine's algebra
    engine = superstat_thermo(C03, beta, q).Cs
    quadinf = superstat_quadrature(C03, beta, q).Cs
    assert abs(quadinf - engine) <= 1e-14 * abs(engine)


@pytest.mark.parametrize("alpha", [1e-9, 0.3])
def test_engine_zs_carries_beta_e0_exactly(alpha):
    # Z_s = G e^{-beta E_0} with beta E_0 ~ 650: rounded in double, 4.9e-14 off
    c = coefficients(OscillatorParams(alpha=alpha))
    zs = superstat_thermo(c, 1e3, 0.5).Zs
    want = mp_weight_moments(c, 1e3, 0.5, math.inf, dps=50)[0]
    assert abs(zs - want) <= 1e-15 * want


def _mp_engine_columns(c, beta, q, dps=40):
    """(U_s, S_s, F_s, C_s) of the continuum integral over n in [0, inf) at
    40 digits, through G = e^{beta E_0} Z_s and its beta-derivatives in
    u = beta D with e = beta E_0, so no digit is spent on beta E_0:
        G = int e^{-u} p w du,  beta G' = int e^{-u} (q (e+u)^2 - u p) w du,
        beta^2 G'' = int e^{-u} (u^2 p - 2 q u (e+u)^2 + q (e+u)^2) w du,
    p = 1 + (q/2)(e+u)^2 and w = 1/(beta sqrt(L^2 + 4 b u/beta)); then
    U_s = E_0 - G'/G, C_s = beta^2 (G''/G - (G'/G)^2), S_s = ln G - beta G'/G
    and F_s = E_0 - ln(G)/beta.  The integrands are taken without their
    constant factor 1/(beta p(0)), which keeps them of order one at any e:
    mpmath's quadrature stops on an absolute error estimate."""
    with mp.workdps(dps):
        a, b, bt, qm = mp.mpf(c.a), mp.mpf(c.b), mp.mpf(beta), mp.mpf(q)
        e0, lin = (a + b) / 2, a + 2 * b
        e = bt * e0
        p0 = 1 + qm * e * e / 2

        def integrand(k):
            def f(u):
                p, qe2 = (1 + qm * (e + u) ** 2 / 2) / p0, qm * (e + u) ** 2 / p0
                poly = (p, qe2 - u * p, u * u * p - 2 * u * qe2 + qe2)[k]
                return mp.exp(-u) * poly / mp.sqrt(lin * lin + 4 * b * u / bt)
            return f

        g, g1, g2 = (mp.quad(integrand(k), [0, 1, 10, 100, mp.inf]) for k in range(3))
        r1, r2 = g1 / g, g2 / g
        log_g = mp.log(p0 * g / bt)
        return (float(e0 - r1 / bt), float(log_g - r1), float(e0 - log_g / bt),
                float(r2 - r1 * r1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("beta", [2e154, 1e155, 1e300])
def test_engine_is_finite_where_beta_e0_squared_overflows(alpha, beta):
    # q (beta E_0)^2 overflows from beta ~ 1e154; the assembly scales g0,
    # g1, g2 by an exact power of two, so U_s, S_s, F_s and C_s stay the
    # continuum integrals' values and Z_s underflows to +0
    c = coefficients(OscillatorParams(alpha=alpha))
    for q in (0.5, 1.0):
        pt = superstat_thermo(c, beta, q)
        assert pt.Zs == 0.0 and math.copysign(1.0, pt.Zs) > 0.0
        want = _mp_engine_columns(c, beta, q)
        for got, w in zip((pt.Us, pt.Ss, pt.Fs, pt.Cs), want):
            assert abs(got - w) <= 1e-14 * abs(w), (q, got, w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("beta", [1e250, 1e300, 1e308])
def test_engine_at_q0_where_g_underflows(alpha, beta):
    # at q = 0 the power-of-two scale of the assembly makes g0 ~ 2^{-2m} and
    # G = g0/(beta L) underflows from beta ~ 1e250: ln G is taken as a
    # difference of logs, so S_s = 1 - ln(beta L) and F_s = E_0 to rounding,
    # as the 40-digit continuum integrals give; a q mesh through these
    # points keeps every element's bits
    c = coefficients(OscillatorParams(alpha=alpha))
    pt = superstat_thermo(c, beta, 0.0)
    with mp.workdps(40):
        lin = mp.mpf(c.a) + 2 * mp.mpf(c.b)
        s_want = float(1 - mp.log(mp.mpf(beta) * lin))
        f_want = float((mp.mpf(c.a) + mp.mpf(c.b)) / 2 + mp.log(mp.mpf(beta) * lin) / beta)
    assert pt.Zs == 0.0 and pt.Cs == 1.0
    assert abs(pt.Ss - s_want) <= 1e-15 * abs(s_want) and pt.Fs == f_want == pt.Us
    for got, w in zip((pt.Us, pt.Ss, pt.Fs, pt.Cs), _mp_engine_columns(c, beta, 0.0)):
        assert abs(got - w) <= 1e-14 * abs(w), (got, w)
    qs = np.array([0.0, 0.5, 1.0])
    mesh = superstat_thermo(c, np.array([[2.0], [beta]]), qs)
    for i, bt in enumerate((2.0, beta)):
        for j, q in enumerate(qs.tolist()):
            one = superstat_thermo(c, bt, q)
            assert [getattr(mesh, f)[i, j] for f in ("Zs", "Us", "Ss", "Fs", "Cs")] == \
                [one.Zs, one.Us, one.Ss, one.Fs, one.Cs]


@pytest.mark.parametrize("beta", [3e5, 1e6])
def test_quadrature_moments_raise_where_no_node_resolves_the_weight(beta):
    # e^{-u} underflows at every Gauss-Kronrod node, so each moment row
    # integrates to 0: every quadrature route raises, naming beta, Z and
    # Z_s included, since they are fields of these points
    message = f"moment rows integrate to 0 at beta={beta:.17g}"
    for route in (partial(thermo_quadrature, C03, beta, "quad01"),
                  partial(thermo_quadrature, C03, np.array([1.0, beta]), "quadinf"),
                  partial(superstat_quadrature, C03, beta, 0.5)):
        with pytest.raises(NonConvergence) as exc:
            route()
        assert str(exc.value) == message


def _mp_excitation_moments(a, b, beta, dps=50):
    """J_k = int_0^inf D^k e^{-beta D} dn, k = 0..4, at 50 digits from the
    Tricomi function: J_k = k! (L^2/4b)^{k+1} U(k+1, k+3/2, y^2)/L with
    L = a + 2b and y^2 = beta L^2/(4b) (DLMF 13.4.4); k!/(L beta^{k+1}) at b = 0."""
    with mp.workdps(dps):
        a, b, bt = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        lin = a + 2 * b
        if b == 0:
            return [mp.factorial(k) / (lin * bt ** (k + 1)) for k in range(5)]
        scale = lin * lin / (4 * b)
        return [mp.factorial(k) * scale ** (k + 1) * mp.hyperu(k + 1, k + 1.5, bt * scale) / lin
                for k in range(5)]


def _mp_scaled_moments(a, b, beta, dps=50):
    """I_k = L beta^{k+1} J_k (_mp_excitation_moments), k = 0..4, at 50 digits."""
    with mp.workdps(dps):
        lin, bt = mp.mpf(a) + 2 * mp.mpf(b), mp.mpf(beta)
        return [lin * bt ** (k + 1) * j
                for k, j in enumerate(_mp_excitation_moments(a, b, beta, dps))]


def _mp_partition_01(a, b, beta, dps=40):
    """int_0^1 e^{-beta E(n)} dn at dps digits, the erf form in scaled
    complements: e^{-beta E_0} e^{x1^2} sqrt(pi)/(2 sqrt(beta b)) (erfc x1 - erfc x2),
    x1 = (a + 2b)/2 sqrt(beta/b), x2 = (a + 4b)/2 sqrt(beta/b)."""
    with mp.workdps(dps):
        a, b, bt = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        x1, x2 = (a + 2 * b) / 2 * mp.sqrt(bt / b), (a + 4 * b) / 2 * mp.sqrt(bt / b)
        return float(mp.exp(-bt * (a + b) / 2 + x1 * x1) * mp.sqrt(mp.pi) / (2 * mp.sqrt(bt * b))
                     * (mp.erfc(x1) - mp.erfc(x2)))


def _mp_superstat_partition(a, b, beta, q, dps=40):
    """Z_s = e^{-beta E_0} int_0^inf e^{-beta D} (1 + (q/2) beta^2 (D + E_0)^2) dn
    at dps digits, from the moments J_0..J_2 of _mp_excitation_moments."""
    with mp.workdps(dps):
        j0, j1, j2 = _mp_excitation_moments(a, b, beta, dps)[:3]
        bt, e0, q = mp.mpf(beta), (mp.mpf(a) + mp.mpf(b)) / 2, mp.mpf(q)
        return float(mp.exp(-bt * e0) * (j0 + q / 2 * bt * bt * (e0 * e0 * j0 + 2 * e0 * j1 + j2)))


def test_quadrature_partitions_against_mpmath():
    # the Z of the quad01 point and the Z_s of the quadinf point, both
    # _assemble's from their own moment rows, at seeded (alpha, beta, q)
    rng = np.random.default_rng(35)
    worst = [0.0, 0.0]
    for alpha, beta, q in zip(rng.uniform(0.02, 0.95, 40), np.exp(rng.uniform(
            math.log(1e-3), math.log(500.0), 40)), rng.choice([0.0, 0.5, 1.0], 40)):
        c = coefficients(OscillatorParams(alpha=float(alpha)))
        for i, (got, want) in enumerate((
                (thermo_quadrature(c, float(beta), "quad01").Z, _mp_partition_01(c.a, c.b, beta)),
                (superstat_quadrature(c, float(beta), float(q)).Zs,
                 _mp_superstat_partition(c.a, c.b, beta, q)))):
            worst[i] = max(worst[i], abs(got - want) / want)
    assert max(worst) <= 1e-13, worst


@pytest.mark.parametrize("y", [0.015, 0.47, 1.38, 1.39, 1.41, 2.9, 5.35, 7.8, 24.6, 169.0,
                               2.2e6])
def test_excitation_moments_against_mpmath(y):
    # the scaled moments I_k of the excitation energy on both sides of the
    # recurrence / Gauss-Laguerre switch at y = 1.4, the y where
    # e^{y^2} (1 - erf y) would cost I_0 1.4e-14, and the y where Miller's
    # backward recurrence failed (2.9..7.7)
    for c in (C01, C09):
        lin = c.a + 2.0 * c.b
        beta = 4.0 * c.b * y * y / (lin * lin)
        got = _scaled_moments(c.a, c.b, beta)
        want = _mp_scaled_moments(c.a, c.b, beta)
        assert all(abs(g - w) <= 2e-15 * w for g, w in zip(got, want)), (got, want)


@pytest.mark.parametrize("b", [0.0, 5e-324, 1e-310])
def test_excitation_moments_at_vanishing_b(b):
    # at b = 0 the rule's weight (1 + u/y^2)^{-1/2} is exactly 1, and
    # I_k = k!; a subnormal b must not overflow y^2
    got = _scaled_moments(1.0, b, 2.5)
    want = _mp_scaled_moments(1.0, b, 2.5)
    assert all(abs(g - w) <= 2e-15 * w for g, w in zip(got, want)), (got, want)


def test_excitation_moments_are_elementwise():
    # the scaled moments over an alpha curve, a beta curve and an
    # alpha x beta mesh: every element is bit for bit its float point; at
    # alpha = (0.1, 0.9) and beta = 1 the curve's I_0 is (0.9324, 0.8534)
    alphas, betas = np.array([0.1, 0.9, 0.3]), np.array([1.0, 0.05, 40.0])
    curve = coefficients(OscillatorParams(alpha=alphas))
    points = []
    for x in alphas.tolist():
        c = coefficients(OscillatorParams(alpha=x))
        points.append([_scaled_moments(c.a, c.b, beta).tolist() for beta in betas.tolist()])
    mesh = _scaled_moments(curve.a[:, None], curve.b[:, None], betas)
    assert mesh.tolist() == [[[p[k] for p in row] for row in points] for k in range(5)]
    along_alpha = _scaled_moments(curve.a, curve.b, 1.0)
    assert along_alpha.tolist() == [[row[0][k] for row in points] for k in range(5)]
    assert abs(along_alpha[0][0] - 0.9324) < 1e-4 and abs(along_alpha[0][1] - 0.8534) < 1e-4
    along_beta = _scaled_moments(C03.a, C03.b, betas)
    assert along_beta.tolist() == [[p[k] for p in points[2]] for k in range(5)]


def test_engine_agrees_with_quadinf_on_atlas_grid():
    # at the audit tolerance the two [0, inf) routes agree to the audit's
    # precision; the Gauss-Kronrod side is the less accurate one
    tol = Tolerance(rel=3e-13, abs=0.0, max_evals=400_000)
    worst = dict.fromkeys(("Zs", "Us", "Ss", "Fs", "Cs"), 0.0)
    for alpha in DEFAULT_ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in DEFAULT_BETAS:
            for q in DEFAULT_QS:
                e = superstat_thermo(c, beta, q)
                g = superstat_quadrature(c, beta, q, tol)
                for name in worst:
                    x, y = getattr(e, name), getattr(g, name)
                    worst[name] = max(worst[name], abs(x - y) / abs(y))
    print(f"  engine vs quadinf, worst relative: {worst}")
    assert worst["Zs"] < 1e-13 and worst["Us"] < 1e-13
    assert worst["Ss"] < 5e-12 and worst["Fs"] < 5e-12 and worst["Cs"] < 5e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       log_beta=st.floats(min_value=-4.0, max_value=4.0),
       q=st.floats(min_value=0.0, max_value=1.0))
@example(alpha=0.0, log_beta=-4.0, q=1.0)
@example(alpha=1e-9, log_beta=4.0, q=0.0)
def test_engine_never_raises_and_stays_finite(alpha, log_beta, q):
    c = coefficients(OscillatorParams(alpha=alpha))
    pt = superstat_thermo(c, 10.0 ** log_beta, q)
    assert pt.Zs >= 0.0
    assert all(math.isfinite(v) for v in (pt.Us, pt.Ss, pt.Fs, pt.Cs))


def test_engine_finite_where_zs_underflows():
    # beta E_0 ~ 5800: Z_s underflows, its moments in the ground-state gauge
    # do not; for q > 0, ln Z_s ~ ln beta - beta E_0, so U_s -> E_0, C_s -> -1
    pt = superstat_thermo(C03, 1e4, 0.5)
    assert pt.Zs == 0.0
    assert all(math.isfinite(v) for v in (pt.Us, pt.Ss, pt.Fs, pt.Cs))
    assert abs(pt.Us - C03.energy(0)) < 1e-3
    assert abs(pt.Cs + 1.0) < 1e-2


def test_quadinf_point_is_the_engine_at_q0():
    # the thermo and superstat quadinf points run the same Gauss-Kronrod
    # moment rows, so at q = 0 they agree bit for bit
    for c, beta in [(C01, 0.1), (C03, 2.0), (C09, 10.0)]:
        pt = thermo_quadrature(c, beta, "quadinf", TOL)
        spt = superstat_quadrature(c, beta, 0.0, TOL)
        assert (pt.Z, pt.U, pt.C, pt.S, pt.F) == (spt.Zs, spt.Us, spt.Cs, spt.Ss, spt.Fs)


def test_each_point_builder_takes_what_it_reads_and_is_its_route():
    # no builder accepts a parameter it would ignore
    for point, unread in ((superstat_thermo, {"tol": TOL}),
                          (superstat_thermo, {"transcription": "corrected"}),
                          (superstat_quadrature, {"transcription": "corrected"}),
                          (superstat_closed_point, {"tol": TOL}),
                          (superstat_closed_point, {"transcription": "corrected"})):
        with pytest.raises(TypeError):
            point(C03, 1.0, 0.5, **unread)
    # each routes.POINTS entry is its one function, bit for bit, on an
    # alpha x beta x q mesh and at a float point, with C_s and S_s times kB
    tol = Tolerance(rel=1e-10, abs=0.0, max_evals=100_000)
    builders = {"engine": superstat_thermo,
                "quadinf": partial(superstat_quadrature, tol=tol),
                "closed": superstat_closed_point}
    assert builders.keys() == routes.POINTS["superstat"].keys()
    mesh = (coefficients(OscillatorParams(alpha=np.array([0.1, 0.3, 0.9])[:, None, None])),
            np.array([0.5, 2.0, 10.0])[:, None], np.array([0.0, 0.5, 1.0]))
    for c, beta, q in (mesh, (C03, 2.0, 0.5)):
        s = routes.State(c, 1.5, beta, q, transcription="corrected", tol=tol)
        for method, build in builders.items():
            got, want = routes.POINTS["superstat"][method](s), build(c, beta, q)
            assert got.method == want.method
            for field in ("beta", "q") + routes.SUPERSTAT:
                g, w = getattr(got, field), getattr(want, field)
                w = 1.5 * w if field in ("Cs", "Ss") else w
                assert type(g) is type(w) and np.array_equal(g, w, equal_nan=True), (method, field)


def test_cs_sign_reported_not_asserted():
    """The deformed weight's beta-dependence breaks log-convexity, so C_s
    can genuinely go negative at large beta and q; that is reported (and
    visible in the audit atlas), never failed.  Only finiteness is hard."""
    violations = []
    for c, alpha in ((C01, 0.1), (C09, 0.9)):
        for beta in (0.5, 2.0, 10.0):
            for q in (0.5, 1.0):
                pt = superstat_thermo(c, beta, q)
                assert math.isfinite(pt.Cs)
                if pt.Cs < -1e-6:
                    violations.append((alpha, beta, q, pt.Cs))
    for alpha, beta, q, cs in violations:
        print(f"  C_s floor violation: alpha={alpha} beta={beta} q={q} C_s={cs:.4f}")
    print(f"  C_s < -1e-6 at {len(violations)}/12 sampled points (reported, not failed)")
