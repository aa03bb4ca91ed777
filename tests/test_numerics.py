"""Kernel tests: error function, quadrature, guarded summation,
differentiation.  Expected values are frozen from independent oracles
(high-precision Maclaurin series, closed forms, brute-force sums)."""

import math

import numpy as np
import pytest

from pdmosc import (DomainEdge, NonConvergence, NonDecaying, Tolerance,
                    derivative, erf, erfc, erfcx, integrate_finite,
                    integrate_semi_infinite, integrate_semi_infinite_batch,
                    richardson, stencil, sum_decaying)
from pdmosc.numerics import _XGK, _gk15

from helpers import erf_maclaurin

TOL = Tolerance()


# -- error function ----------------------------------------------------------

def test_erf_trivial_and_frozen():
    assert erf(0.0) == 0.0
    # Maclaurin-series oracle values
    assert abs(erf(1.0) - 0.84270079294971487) < 1e-15
    assert abs(erf(-2.0) + 0.99532226501895273) < 1e-15


def test_erf_against_series_oracle():
    for x in np.linspace(-6, 6, 121):
        assert abs(erf(float(x)) - erf_maclaurin(x)) < 1e-14


def test_erf_oddness_exact():
    for x in np.linspace(0.0, 7.0, 200):
        assert erf(-float(x)) == -erf(float(x))


def test_erf_bounds_and_saturation():
    xs = np.linspace(-8, 8, 400)
    ys = [erf(float(x)) for x in xs]
    assert all(abs(y) <= 1.0 for y in ys)
    assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))  # monotone nondecreasing
    assert erf(6.0) == 1.0 and erf(-6.0) == -1.0
    assert erf(37.5) == 1.0


def test_erfc_erfcx_cross_consistency():
    import mpmath as mp
    with mp.workdps(60):
        for x in [0.1, 0.7, 1.9, 2.0, 2.7, 4.0, 8.5, 15.0]:
            assert abs(erfc(x) / float(mp.erfc(x)) - 1) < 5e-14
        for x in [0.1, 0.7, 1.9, 2.0, 2.7, 4.0, 8.5, 15.0, 30.0, 200.0]:
            assert abs(erfcx(x) / float(mp.erfc(x) * mp.e ** (x * x)) - 1) < 5e-14
        assert abs(erfc(-1.3) / float(mp.erfc(mp.mpf('-1.3'))) - 1) < 5e-14


# -- finite quadrature -------------------------------------------------------

def test_integrate_constant():
    res = integrate_finite(lambda x: np.ones_like(x), 0.0, 1.0, TOL)
    assert abs(res.value - 1.0) < 1e-14
    assert res.evals >= 15


def test_integrate_empty_interval():
    res = integrate_finite(lambda x: x, 2.0, 2.0, TOL)
    assert res.value == 0.0 and res.error_estimate == 0.0 and res.evals == 0


def test_integrate_gaussian_frozen():
    # equals (sqrt(pi)/2) erf(1), via the series oracle
    res = integrate_finite(lambda x: np.exp(-x * x), 0.0, 1.0, TOL)
    assert abs(res.value - 0.74682413281242702) < 1e-12
    assert res.error_estimate < 1e-10


def test_rule_polynomial_exactness():
    # the 15-point Kronrod rule is exact to degree 22
    for k in range(23):
        (val,), _ = _gk15(np.array([_XGK ** k]), np.array([1.0]))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(val - exact) < 5e-14


def test_rule_rows_independent_of_batch():
    # a panel's value and error must not depend on the panels batched with
    # it; smooth panels make the error estimate hinge on the Gauss sum's bits
    rng = np.random.default_rng(3)
    rate = rng.uniform(0.0, 8.0, size=(40, 1))
    fx = np.exp(-rate * (1.0 + _XGK)) * (1.0 + rng.uniform(-1, 1, size=(40, 1)) * _XGK)
    half = rng.uniform(1e-6, 1.0, size=40)
    vals, errs = _gk15(fx, half)
    for i in range(40):
        for j in (i + 1, i + 2):
            v, e = _gk15(fx[i:j], half[i:j])
            assert v[0] == vals[i] and e[0] == errs[i]


def test_integrate_additivity():
    rng = np.random.default_rng(42)
    f = lambda x: np.sin(3.0 * x) * np.exp(-0.5 * x)
    for _ in range(20):
        a, b, c = np.sort(rng.uniform(-2, 3, size=3))
        if b - a < 1e-3 or c - b < 1e-3:
            continue
        whole = integrate_finite(f, a, c, TOL)
        left = integrate_finite(f, a, b, TOL)
        right = integrate_finite(f, b, c, TOL)
        tol3 = 3.0 * max(TOL.abs, TOL.rel * abs(whole.value)) + 3e-15
        assert abs(whole.value - left.value - right.value) < tol3 + 1e-13


def test_integrate_nonconvergence():
    with pytest.raises(NonConvergence):
        integrate_finite(lambda x: np.exp(-x * x), 0.0, 1.0,
                         Tolerance(rel=1e-30, abs=0.0, max_evals=200))


def test_integrate_rejects_scalar_integrand():
    # integrands must be array-valued; one value for all nodes is refused
    with pytest.raises(ValueError):
        integrate_finite(lambda x: 1.0, 0.0, 1.0, TOL)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda n: 0.5, 0.0, TOL)


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 0.0, TOL)


# -- semi-infinite quadrature ------------------------------------------------

def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda n: np.exp(-n), 0.0, TOL)
    assert abs(res.value - 1.0) < 1e-11


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(lambda n: np.exp(-n * n), 0.0, TOL)
    assert abs(res.value - 0.88622692545275801) < 1e-12


def test_semi_infinite_completed_square():
    # int_0^inf exp(-(n^2+n)) dn = e^{1/4} (sqrt(pi)/2) erfc(1/2)
    res = integrate_semi_infinite(lambda n: np.exp(-(n * n + n)), 0.0, TOL)
    assert abs(res.value - 0.54564136076504704) < 1e-12


def test_semi_infinite_nondecaying():
    with pytest.raises(NonDecaying):
        integrate_semi_infinite(lambda n: n * n, 0.0, TOL)


# -- batched semi-infinite quadrature ----------------------------------------

def _damped_family(w):
    """Row r integrates exp(-n) (1 + cos(w[r] n)^2); larger w converges later."""
    w = np.asarray(w, dtype=float)
    family = lambda n, rows: np.exp(-n) * (1.0 + np.cos(w[rows][:, None] * n) ** 2)
    single = [lambda n, wr=wr: np.exp(-n) * (1.0 + np.cos(wr * n) ** 2) for wr in w]
    return family, single


def test_batch_rows_equal_single_calls():
    w = [0.5, 3.0, 1.0, 7.5, 0.0, 12.0]
    family, single = _damped_family(w)
    for lo in (0.0, 0.7):
        for tol in (TOL, Tolerance(rel=1e-8)):
            rows = integrate_semi_infinite_batch(family, len(w), lo, tol)
            assert len({r.evals for r in rows}) > 1  # rows really run different step counts
            for row, f in zip(rows, single):
                assert row == integrate_semi_infinite(f, lo, tol)


def test_batch_nondecaying_row_raises_like_single():
    rate = np.array([1.0, -1.0, 2.0])  # row 1 grows along the tail
    family = lambda n, rows: np.exp(-rate[rows][:, None] * n)
    with pytest.raises(NonDecaying) as alone:
        integrate_semi_infinite(lambda n: np.exp(n), 0.0, TOL)
    with pytest.raises(NonDecaying) as batch:
        integrate_semi_infinite_batch(family, 3, 0.0, TOL)
    assert str(batch.value) == str(alone.value)


def test_batch_over_budget_row_raises_like_single():
    w = [1.0, 40.0, 2.0]
    family, single = _damped_family(w)
    tol = Tolerance(rel=1e-12, max_evals=1000)
    assert integrate_semi_infinite(single[0], 0.0, tol).evals < 1000
    with pytest.raises(NonConvergence) as alone:
        integrate_semi_infinite(single[1], 0.0, tol)
    with pytest.raises(NonConvergence) as batch:
        integrate_semi_infinite_batch(family, 3, 0.0, tol)
    assert str(batch.value) == str(alone.value)


# -- guarded summation -------------------------------------------------------

def test_sum_geometric():
    s = sum_decaying(lambda n: 0.5 ** (n + 1), lambda N: 0.5 ** (N + 1), TOL)
    assert abs(s - 1.0) < 1e-12


def test_sum_shifted_exponential():
    # sum_{n>=0} e^{-(n+1/2)} = e^{-1/2}/(1-e^{-1}); geometric tail bound
    r = math.exp(-1.0)
    s = sum_decaying(lambda n: math.exp(-(n + 0.5)),
                     lambda N: math.exp(-(N + 1.5)) / (1.0 - r), TOL)
    assert abs(s - 0.95951737566747186) < 1e-13


def test_sum_gaussian_terms():
    # brute-force oracle value of sum_{n>=0} e^{-n^2}
    bound = lambda N: math.sqrt(math.pi) / 2.0 * erfc(float(N))
    s = sum_decaying(lambda n: math.exp(-float(n) ** 2), bound, TOL)
    assert abs(s - 1.3863186024133261) < 1e-12


def test_sum_nonconvergence():
    with pytest.raises(NonConvergence):
        sum_decaying(lambda n: math.exp(-n), lambda N: 1.0,
                     Tolerance(rel=1e-10, abs=0.0, max_evals=100))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0, abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(max_evals=10)
    with pytest.raises(ValueError):
        Tolerance(rel=-1e-3)


# -- differentiation ---------------------------------------------------------

def test_derivative_polynomials_exact():
    assert abs(derivative(lambda x: x * x, 3.0, 1, 1.0) - 6.0) < 6e-10
    rng = np.random.default_rng(7)
    for _ in range(25):
        c3, c2, c1, c0 = rng.uniform(-2, 2, size=4)
        x0 = rng.uniform(0.5, 4.0)
        f = lambda x: ((c3 * x + c2) * x + c1) * x + c0
        want = 3 * c3 * x0 * x0 + 2 * c2 * x0 + c1
        got = derivative(f, x0, 1, max(abs(x0), 1.0))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_derivative_second_order():
    assert abs(derivative(math.exp, 0.0, 2, 1.0) - 1.0) < 1e-5


def test_derivative_log_partition_frozen():
    # analytic: d/dx ln(1/(2 sinh(x/2))) = -coth(x/2)/2
    f = lambda x: math.log(1.0 / (2.0 * math.sinh(x / 2.0)))
    assert abs(derivative(f, 1.0, 1, 1.0) + 1.0819767068693264) < 1e-7


def test_derivative_domain_edge():
    with pytest.raises(DomainEdge):
        derivative(math.log, 1e-9, 2, 1.0, positive_only=True)
    # large x with the same scale is fine
    derivative(math.log, 5.0, 2, 1.0, positive_only=True)


def test_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        derivative(math.exp, 0.0, 3, 1.0)


def test_stencil_is_the_derivative_step_rule():
    f = lambda x: math.log(x) * math.sin(3.0 * x)
    for order in (1, 2):
        h, xs = stencil(2.0, order, 2.0)
        assert len(xs) == (6 if order == 1 else 7)
        assert xs[-2:] == [2.0 + h, 2.0 - h]
        assert richardson([f(x) for x in xs], order, h) == derivative(f, 2.0, order, 2.0)
    with pytest.raises(DomainEdge):
        stencil(1e-9, 1, 1.0, positive_only=True)
