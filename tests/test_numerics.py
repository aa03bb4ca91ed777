"""Kernel tests: error function, exact e^{-ab}, quadrature, guarded
summation, and the suite's Richardson differentiation oracle.  Expected
values are frozen from independent oracles (high-precision Maclaurin
series, closed forms, brute-force sums)."""

import math

import mpmath as mp
import numpy as np
import pytest

from pdmosc import (NonConvergence, NonDecaying, QuadratureResult, Tolerance, erf, erfc,
                    erfcx, erfcx_derivatives, exp_neg_product, integrate_batch)
from pdmosc import numerics
from pdmosc.numerics import _XGK, _gk15

from helpers import derivative, erf_maclaurin, heap_adaptive_rows

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


def test_erf_against_mpmath_on_the_math_erf_band():
    # |x| < 2 is math.erf: within 5e-16 relative of 40-digit values
    xs = np.concatenate([np.linspace(-2.0, 2.0, 4001), [1e-300, -1e-12, 3e-8,
                                                        np.nextafter(2.0, 0.0)]])
    with mp.workdps(40):
        for x in xs.tolist():
            if x:
                ref = mp.erf(mp.mpf(x))
                assert abs((mp.mpf(erf(x)) - ref) / ref) <= 5e-16, x


def test_erf_and_erfc_arrays_equal_float_calls():
    # one elementwise path: no element depends on the batch around it, so
    # every element of an array is bit for bit its float call, signed zeros
    # and nan included
    edges = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(6.0, 0.0), 6.0]
    xs = np.concatenate([np.linspace(-8.0, 8.0, 1601), edges, np.negative(edges),
                         [math.nan, math.inf, -math.inf, -0.0, 37.5, -1e-300]])
    for f in (erf, erfc):
        got = f(xs.reshape(-1, 5))
        assert got.shape == (len(xs) // 5, 5)
        want = np.array([f(x) for x in xs.tolist()])
        assert all(type(f(x)) is float for x in xs.tolist())
        assert np.array_equal(got.ravel(), want, equal_nan=True)
        assert np.array_equal(np.signbit(got.ravel()), np.signbit(want))
        assert f(np.array([])).shape == (0,)


def test_erf_and_erfc_skip_erfcx_on_an_empty_band(monkeypatch):
    # erf's 2 <= |x| < 6 band and erfc's |x| >= 2 tail are empty here, so
    # neither pays the fixed cost of an erfcx call
    def unreachable(x):
        raise AssertionError("erfcx called")

    monkeypatch.setattr(numerics, "erfcx", unreachable)
    xs = np.linspace(-1.99, 1.99, 25)
    for f in (erf, erfc):
        assert f(xs).shape == xs.shape
        assert type(f(0.5)) is float
    assert erf(np.array([-7.0, 6.0, 40.0])).tolist() == [-1.0, 1.0, 1.0]


def test_erf_bounds_and_saturation():
    xs = np.linspace(-8, 8, 400)
    ys = [erf(float(x)) for x in xs]
    assert all(abs(y) <= 1.0 for y in ys)
    assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))  # monotone nondecreasing
    assert erf(6.0) == 1.0 and erf(-6.0) == -1.0
    assert erf(37.5) == 1.0


def test_erfc_erfcx_cross_consistency():
    import mpmath as mp
    # on [-2, 2) erfc is math.erfc; 1 - erf(x) was 2.1e-13 off at x = 1.997
    dense = np.arange(-2000, 2000) / 1000.0
    with mp.workdps(60):
        for x in [0.1, 0.7, 1.9, 2.0, 2.7, 4.0, 8.5, 15.0] + dense.tolist():
            assert abs(erfc(x) / float(mp.erfc(x)) - 1) < 1e-15, x
        for x in [0.1, 0.7, 1.9, 2.0, 2.7, 4.0, 8.5, 15.0, 30.0, 200.0]:
            assert abs(erfcx(x) / float(mp.erfc(x) * mp.e ** (x * x)) - 1) < 1e-15
        assert abs(erfc(-1.3) / float(mp.erfc(mp.mpf('-1.3'))) - 1) < 1e-15


def _mp_erfcx(x):
    """50-digit e^{x^2} erfc(x); from x = 1e4 on, its asymptotic series
    (DLMF 7.12.1), whose twelve terms are exact to far beyond 50 digits
    there."""
    with mp.workdps(50):
        xm = mp.mpf(x)
        if x < 1e4:
            return float(mp.erfc(xm) * mp.exp(xm * xm))
        total = term = mp.mpf(1)
        for n in range(1, 12):
            term *= -(2 * n - 1) / (2 * xm * xm)
            total += term
        return float(total / (mp.sqrt(mp.pi) * xm))


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 3.0, 601),      # both branches and the switch at 1.4
    np.logspace(-3.0, 300.0, 400),   # far into the tail
    np.linspace(-26.0, 0.0, 261),    # e^{x^2} up to 1e293
], ids=["dense-0-3", "log-to-1e300", "negative"])
def test_erfcx_against_mpmath(xs):
    for x in xs.tolist():
        assert abs(erfcx(x) / _mp_erfcx(x) - 1) <= 1e-15, x


def test_erfcx_derivatives_against_mpmath():
    # E'' from the recurrence below x = 1.4 cancels ~70-fold near the switch
    xs = np.concatenate([np.linspace(0.0, 3.0, 121), np.logspace(0.5, 4.0, 60)])
    with mp.workdps(50):
        for x in xs.tolist():
            e, d1, d2 = erfcx_derivatives(x)
            assert e == erfcx(x)
            ref1, ref2 = (float(mp.diff(lambda t: mp.erfc(t) * mp.exp(t * t), mp.mpf(x), n))
                          for n in (1, 2))
            assert abs(d1 / ref1 - 1) <= 3e-15, x
            assert abs(d2 / ref2 - 1) <= (3e-15 if x >= 1.4 else 1e-14), x


def test_erfcx_arrays_equal_float_calls():
    # one elementwise path whose branches (below 1.4, the Gauss-Laguerre
    # rule up to 1e8, 1/(sqrt(pi) x) beyond) are elementwise ufuncs and row
    # sums: no element depends on its batch
    xs = np.concatenate([np.linspace(-26.0, 3.0, 581), np.logspace(-3.0, 300.0, 200),
                         [np.nextafter(1.4, 0.0), 1.4, np.nextafter(1e8, 0.0), 1e8]])
    got = erfcx(xs.reshape(-1, 5))
    assert got.shape == (len(xs) // 5, 5)
    assert got.ravel().tolist() == [erfcx(x) for x in xs.tolist()]
    columns = erfcx_derivatives(xs)
    rows = [erfcx_derivatives(x) for x in xs.tolist()]
    for k in range(3):
        assert columns[k].tolist() == [row[k] for row in rows], k


#: erfcx's branches: below 1.4 (math.erfc, negatives through the exact
#: product), the Gauss-Laguerre rule up to 1e8, 1/(sqrt(pi) x) from 1e8
#: and at nan; erf's: math.erf, and erfcx on 2 <= |x| < 6
_BRANCH_MIXES = {
    "empty": [],
    "low-only": [-0.0, 0.0, 0.3, 1.39, np.nextafter(1.4, 0.0)],
    "negative-only": [-30.0, -26.7, -1.0, -1e-300, -0.0],
    "rule-only": [1.4, 2.0, 5.5, 7e7, np.nextafter(1e8, 0.0)],
    "far-only": [1e8, 3e150, 1e300, math.inf, math.nan],
    "erf-mid-only": [2.0, -2.5, 5.9, -np.nextafter(6.0, 0.0)],
    "all": [math.nan, -math.inf, -40.0, -5.0, -2.0, -0.0, 0.0, 1e-300, 1.0, 1.4, 2.0,
            3.0, 6.0, 1e7, 1e8, 1e200, math.inf],
}


@pytest.mark.parametrize("mix", list(_BRANCH_MIXES))
def test_kernels_on_arrays_of_any_branch_mix_equal_float_calls(mix):
    # a branch is evaluated only where it has elements; whichever branches
    # an array hits, each element is bit for bit its float call, signed
    # zeros and nan included
    xs = np.array(_BRANCH_MIXES[mix], dtype=float)
    for kernel in (erfcx, erf, lambda x: erfcx_derivatives(x)[1],
                   lambda x: erfcx_derivatives(x)[2]):
        got = kernel(xs)
        assert got.shape == xs.shape
        want = np.array([kernel(x) for x in xs.tolist()], dtype=float)
        assert np.array_equal(got, want, equal_nan=True), mix
        assert np.array_equal(np.signbit(got), np.signbit(want)), mix
    assert np.array_equal(erfcx_derivatives(xs)[0], erfcx(xs), equal_nan=True)


def test_erfcx_skips_its_stdlib_branch_without_elements(monkeypatch):
    # from x = 1.4 on no element needs math.erfc, so erfcx does not pay for
    # the (empty) conversion
    def unreachable(f, x):
        raise AssertionError("stdlib branch evaluated")

    monkeypatch.setattr(numerics, "_stdlib", unreachable)
    xs = np.array([1.4, 3.0, 1e9, math.nan])
    assert np.isfinite(erfcx(xs)[:3]).all()
    assert np.isfinite(erfcx_derivatives(xs)[2][:3]).all()


def test_exp_neg_product_against_mpmath():
    rng = np.random.default_rng(5)
    samples = []
    with mp.workdps(50):
        for _ in range(200):
            a, b = rng.uniform(0.0, 700.0), rng.uniform(0.0, 1.0)
            lo = b * 1e-17 * rng.uniform(-1.0, 1.0)
            want = float(mp.exp(-mp.mpf(a) * (mp.mpf(b) + mp.mpf(lo))))
            got = exp_neg_product(a, b, lo)
            assert type(got) is float
            assert abs(got / want - 1) <= 1e-15
            samples.append((a, b, lo, got, want))
    assert exp_neg_product(1e305, 1.0) == 0.0  # the split overflows; e^{-p} remains
    # one array call: every element is its float call, within the same bound
    a, b, lo, got, want = (np.array(col) for col in zip(*samples))
    batch = exp_neg_product(a, b, lo)
    assert batch.tolist() == got.tolist()
    assert (abs(batch / want - 1) <= 1e-15).all()
    assert exp_neg_product(np.array([1e305, a[0]]), np.array([1.0, b[0]]))[0] == 0.0


def test_exp_neg_product_underflows_to_positive_zero():
    # past p ~ 1e16 the two-product error e of a b can exceed 1, so e^{-p}
    # (1 - e) would be -0.0 where e^{-p} underflows
    a = np.linspace(1e16, 1e18, 500)
    b = np.full_like(a, 0.58059371040391705)
    for lo in (0.0, 3e-17):
        out = exp_neg_product(a, b, lo)
        assert (out == 0.0).all() and not np.signbit(out).any()
    assert not math.copysign(1.0, exp_neg_product(1e17, 0.3, 0.28059371040391705)) < 0.0


# -- finite quadrature -------------------------------------------------------

def _rows(res):
    """A batch result as one QuadratureResult of Python scalars per row."""
    return [QuadratureResult(*row) for row in zip(
        res.value.tolist(), res.error_estimate.tolist(), res.evals.tolist())]


def _single(f, lo, hi, tol):
    """The one-row integrate_batch call on the array-valued integrand f."""
    return _rows(integrate_batch(lambda n, rows: f(n), 1, lo, hi, tol))[0]


def test_integrate_constant():
    res = _single(lambda x: np.ones_like(x), 0.0, 1.0, TOL)
    assert abs(res.value - 1.0) < 1e-14
    assert res.evals >= 15


def test_integrate_empty_interval():
    res = _single(lambda x: x, 2.0, 2.0, TOL)
    assert res.value == 0.0 and res.error_estimate == 0.0 and res.evals == 0


def test_integrate_gaussian_frozen():
    # equals (sqrt(pi)/2) erf(1), via the series oracle
    res = _single(lambda x: np.exp(-x * x), 0.0, 1.0, TOL)
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
        whole = _single(f, a, c, TOL)
        left = _single(f, a, b, TOL)
        right = _single(f, b, c, TOL)
        tol3 = 3.0 * max(TOL.abs, TOL.rel * abs(whole.value)) + 3e-15
        assert abs(whole.value - left.value - right.value) < tol3 + 1e-13


def test_integrate_nonconvergence():
    with pytest.raises(NonConvergence):
        _single(lambda x: np.exp(-x * x), 0.0, 1.0,
                Tolerance(rel=1e-30, abs=0.0, max_evals=200))


def test_integrate_rejects_scalar_integrand():
    # integrands must be array-valued; one value for all nodes is refused
    with pytest.raises(ValueError):
        _single(lambda x: 1.0, 0.0, 1.0, TOL)
    with pytest.raises(ValueError):
        _single(lambda n: 0.5, 0.0, math.inf, TOL)


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        _single(lambda x: x, 1.0, 0.0, TOL)


# -- semi-infinite quadrature ------------------------------------------------

def test_semi_infinite_exponential():
    res = _single(lambda n: np.exp(-n), 0.0, math.inf, TOL)
    assert abs(res.value - 1.0) < 1e-11


def test_semi_infinite_gaussian():
    res = _single(lambda n: np.exp(-n * n), 0.0, math.inf, TOL)
    assert abs(res.value - 0.88622692545275801) < 1e-12


def test_semi_infinite_completed_square():
    # int_0^inf exp(-(n^2+n)) dn = e^{1/4} (sqrt(pi)/2) erfc(1/2)
    res = _single(lambda n: np.exp(-(n * n + n)), 0.0, math.inf, TOL)
    assert abs(res.value - 0.54564136076504704) < 1e-12


def test_semi_infinite_nondecaying():
    with pytest.raises(NonDecaying):
        _single(lambda n: n * n, 0.0, math.inf, TOL)


def test_semi_infinite_undecayed_at_the_end_of_the_map():
    # flat across the tail probes and decaying only near n = 1e18, beyond
    # the last node of the map below t = 1 (n ~ 9e15): NonDecaying, raised
    # before any node at t = 1 (n = inf) reaches the integrand
    seen = []

    def f(n):
        seen.append(n.max())
        return np.exp(-1e-18 * n)

    with pytest.raises(NonDecaying):
        _single(f, 0.0, math.inf, TOL)
    assert 1e14 < max(seen) < math.inf


# -- batched quadrature ------------------------------------------------------

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
            rows = _rows(integrate_batch(family, len(w), lo, math.inf, tol))
            assert len({r.evals for r in rows}) > 1  # rows really run different step counts
            for row, f in zip(rows, single):
                assert row == _single(f, lo, math.inf, tol)
            # a finite upper limit
            rows = _rows(integrate_batch(family, len(w), lo, 6.0, tol))
            assert len({r.evals for r in rows}) > 1
            for row, f in zip(rows, single):
                assert row == _single(f, lo, 6.0, tol)


def test_batch_nondecaying_row_raises_like_single():
    rate = np.array([1.0, -1.0, 2.0])  # row 1 grows along the tail
    family = lambda n, rows: np.exp(-rate[rows][:, None] * n)
    with pytest.raises(NonDecaying) as alone:
        _single(lambda n: np.exp(n), 0.0, math.inf, TOL)
    with pytest.raises(NonDecaying) as batch:
        integrate_batch(family, 3, 0.0, math.inf, TOL)
    assert str(batch.value) == str(alone.value)


def test_batch_over_budget_row_raises_like_single():
    w = [1.0, 40.0, 2.0]
    family, single = _damped_family(w)
    tol = Tolerance(rel=1e-12, max_evals=1000)
    assert _single(single[0], 0.0, math.inf, tol).evals < 1000
    with pytest.raises(NonConvergence) as alone:
        _single(single[1], 0.0, math.inf, tol)
    with pytest.raises(NonConvergence) as batch:
        integrate_batch(family, 3, 0.0, math.inf, tol)
    assert str(batch.value) == str(alone.value)


def _bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _assert_heap_bits(f, nrows, lo, hi, tol):
    """integrate_batch equals the per-row heap reference (helpers) bit for
    bit in value, error_estimate and evals, or raises the same
    NonConvergence.  [lo, inf) goes to the reference through the map of
    integrate_batch.  numpy's warnings are off: the rows may hold +-inf and
    NaN."""
    g, a, b, probes = f, lo, hi, 0
    if hi == math.inf:
        g, a, b, probes = (lambda t, rows: f(lo + t / (1.0 - t), rows) / ((1.0 - t) * (1.0 - t)),
                           0.0, 1.0, len(numerics._TAIL_PROBES))
    with np.errstate(all="ignore"):
        try:
            ref = heap_adaptive_rows(g, nrows, a, b, tol)
        except NonConvergence as exc:
            with pytest.raises(NonConvergence) as new:
                integrate_batch(f, nrows, lo, hi, tol)
            assert str(new.value) == str(exc)
            return exc
        res = integrate_batch(f, nrows, lo, hi, tol)
    assert _bits(res.value) == _bits([r.value for r in ref])
    assert _bits(res.error_estimate) == _bits([r.error_estimate for r in ref])
    assert res.evals.tolist() == [r.evals + probes for r in ref]
    return res


def test_columns_equal_the_heap_on_random_batches():
    rng = np.random.default_rng(29)
    tols = (TOL, Tolerance(rel=1e-7), Tolerance(rel=0.0, abs=1e-9))
    for _ in range(40):
        nrows = int(rng.integers(1, 10))
        amp, rate = rng.uniform(-3.0, 3.0, nrows), rng.uniform(0.2, 4.0, nrows)
        w, phase = rng.uniform(0.0, 25.0, nrows), rng.uniform(0.0, 3.0, nrows)

        def f(n, rows):
            r = rows[:, None]
            return amp[r] * np.exp(-rate[r] * n) * (1.0 + np.cos(w[r] * n + phase[r]) ** 2)

        lo, hi = np.sort(rng.uniform(-1.0, 5.0, 2))
        tol = tols[rng.integers(len(tols))]
        _assert_heap_bits(f, nrows, lo, hi, tol)
        _assert_heap_bits(f, nrows, lo, math.inf, tol)


def test_columns_equal_the_heap_on_equal_error_ties():
    # a step function of period 1 whose sign alternates by period: each panel
    # of [0, 1) ties in error with its translate in [1, 2), of opposite value,
    # so the total depends on which the heap bisects first (the older, as
    # argmax takes the first maximum)
    steps = np.array([4.0, 7.0, 3.0])

    def f(n, rows):
        sign = 1.0 - 2.0 * np.mod(np.floor(n), 2.0)
        return sign * np.floor(steps[rows][:, None] * np.mod(n, 1.0))

    (_, _, v0, e0), (_, _, v1, e1) = numerics._panels(f, np.array([0]),
                                                      np.array([[0.0, 1.0, 1.0, 2.0]]))[0]
    assert e0 == e1 > 0.0 and v0 == -v1 != 0.0
    for tol in (Tolerance(rel=0.0, abs=10.0 ** -k) for k in range(2, 9)):
        _assert_heap_bits(f, 3, 0.0, 2.0, tol)
        _assert_heap_bits(f, 3, 0.0, 4.0, tol)
    # symmetric integrands on symmetric ranges
    even = lambda n, rows: np.exp(-steps[rows][:, None] * n * n) * np.cos(3.0 * n) ** 2
    _assert_heap_bits(even, 3, -2.0, 2.0, TOL)
    _assert_heap_bits(lambda n, rows: np.abs(n) * steps[rows][:, None], 3, -1.0, 1.0, TOL)


def test_columns_equal_the_heap_with_inf_and_nan_values():
    # rows that meet a pole, +-inf, NaN, or overflow at some node
    def f(n, rows):
        r = rows[:, None]
        return np.select(
            [r == 0, r == 1, r == 2, r == 3, r == 4, r == 5],
            [1.0 / (n - 0.25), np.where(n > 0.6, np.inf, n), np.where(n > 0.3, np.nan, 1.0),
             np.where(n < 0.1, -np.inf, n * n), 1e308 * (n + 1.0), np.sin(9.0 * n) + 1.0],
            np.exp(-n))

    for tol in (TOL, Tolerance(rel=0.0, abs=1e-8), Tolerance(rel=1e-3, abs=1.0)):
        _assert_heap_bits(f, 7, 0.0, 1.0, tol)
        _assert_heap_bits(f, 7, 0.0, 3.0, tol)


def test_columns_equal_the_heap_where_a_row_exhausts_its_budget():
    w = np.array([1.0, 60.0, 2.0, 90.0])
    f = lambda n, rows: np.exp(-n) * (1.0 + np.cos(w[rows][:, None] * n) ** 2)
    tol = Tolerance(rel=1e-13, max_evals=600)
    for hi in (20.0, math.inf):
        assert isinstance(_assert_heap_bits(f, 4, 0.0, hi, tol), NonConvergence)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0, abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(max_evals=10)
    with pytest.raises(ValueError):
        Tolerance(rel=-1e-3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Tolerance(rel=bad)
        with pytest.raises(ValueError):
            Tolerance(abs=bad)


# -- differentiation (the Richardson oracle in tests/helpers.py) ---------------

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
    for order in (1, 2):
        with pytest.raises(ValueError, match="positive domain"):
            derivative(math.log, 1e-9, order, 1.0, positive_only=True)
    # large x with the same scale is fine
    derivative(math.log, 5.0, 2, 1.0, positive_only=True)


def test_stencil_is_the_derivative_step_rule():
    # derivative samples f at x +- {4h, 2h, h} (and x for order 2), with
    # h = scale*eps^(1/5) or scale*eps^(1/6), and extrapolates twice.
    eps = float(np.finfo(float).eps)
    for order in (1, 2):
        xs = []

        def f(x):
            xs.append(x)
            return math.log(x) * math.sin(3.0 * x)

        d = derivative(f, 2.0, order, 2.0)
        h = 2.0 * (eps ** 0.2 if order == 1 else eps ** (1.0 / 6.0))
        assert len(xs) == (6 if order == 1 else 7)
        assert xs[-2:] == [2.0 + h, 2.0 - h]
        fx = [math.log(x) * math.sin(3.0 * x) for x in xs]
        if order == 1:
            a = [(fx[2 * i] - fx[2 * i + 1]) / (2.0 * s)
                 for i, s in enumerate((4.0 * h, 2.0 * h, h))]
        else:
            a = [(fx[2 * i + 1] - 2.0 * fx[0] + fx[2 * i + 2]) / (s * s)
                 for i, s in enumerate((4.0 * h, 2.0 * h, h))]
        r0 = (4.0 * a[1] - a[0]) / 3.0
        r1 = (4.0 * a[2] - a[1]) / 3.0
        assert d == (16.0 * r1 - r0) / 15.0
    with pytest.raises(ValueError, match="positive domain"):
        derivative(math.log, 1e-9, 1, 1.0, positive_only=True)


def test_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        derivative(math.exp, 0.0, 3, 1.0)

