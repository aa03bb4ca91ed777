"""Spectrum tests: compact coefficients and level structure."""

import math

import numpy as np
import pytest

from pdmosc import OscillatorParams, SpectrumCoefficients, coefficients, energy_level


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(alpha=-0.1)
    with pytest.raises(ValueError):
        OscillatorParams(alpha=1.0)
    with pytest.raises(ValueError):
        OscillatorParams(m0=0.0)
    OscillatorParams(alpha=0.0)  # undeformed limit admitted


def test_nan_and_inf_parameters_are_refused():
    # written as 0 < x < inf, the checks fail NaN and inf as they fail 0
    for bad in (dict(m0=math.nan), dict(omega=math.inf, kB=math.inf), dict(hbar=-math.inf),
                dict(alpha=math.nan)):
        with pytest.raises(ValueError):
            OscillatorParams(**bad)
    for a, b in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf),
                 (np.array([1.0, math.nan]), np.array([0.1, 0.1])),
                 (np.array([1.0, 1.0]), np.array([0.1, math.inf]))):
        with pytest.raises(ValueError):
            SpectrumCoefficients(a=a, b=b)
    SpectrumCoefficients(a=1.0, b=0.0)


def test_coefficients_frozen_values():
    c = coefficients(OscillatorParams())
    assert c.a == 1.0 and c.b == 0.0
    c = coefficients(OscillatorParams(alpha=0.1))
    assert abs(c.a - 1.0012492197250393) < 1e-15
    assert c.b == 0.05
    c = coefficients(OscillatorParams(alpha=0.9))
    assert abs(c.a - 1.0965856099730654) < 1e-15
    assert abs(c.b - 0.45) < 1e-15


def test_coefficients_invariants():
    for alpha in np.linspace(0.0, 0.99, 34):
        p = OscillatorParams(alpha=float(alpha))
        c = coefficients(p)
        assert c.a >= p.hbar * p.omega
        assert (c.a == p.hbar * p.omega) == (alpha == 0.0)
        assert c.b >= 0.0 and (c.b == 0.0) == (alpha == 0.0)


def test_b_conventions():
    p = OscillatorParams(alpha=0.4, omega=2.0)
    assert coefficients(p, "spectrum").b == 0.4 / 2.0
    assert coefficients(p, "compact").b == 0.4 / (2.0 * 2.0)
    # identical in natural units (omega = 1)
    pn = OscillatorParams(alpha=0.4)
    assert coefficients(pn, "spectrum") == coefficients(pn, "compact")
    with pytest.raises(ValueError):
        coefficients(p, "other")


@pytest.mark.parametrize("b_convention", ["spectrum", "compact"])
def test_alpha_array_coefficients_equal_float_calls(b_convention):
    alphas = np.concatenate([[0.0, 5e-324, 1e-9, 0.02], np.linspace(0.0, 0.999, 97),
                             [np.nextafter(1.0, 0.0)]])
    for make in (lambda al: OscillatorParams(alpha=al),
                 lambda al: OscillatorParams(m0=0.7, omega=2.5, alpha=al),
                 lambda al: OscillatorParams.si(alpha=al)):
        curve = coefficients(make(alphas), b_convention)
        points = [coefficients(make(al), b_convention) for al in alphas.tolist()]
        assert all(type(c.a) is float and type(c.b) is float for c in points)
        # a > 0 and b >= 0 (b = +0.0 only at alpha = 0): equal means same bits
        assert curve.a.tolist() == [c.a for c in points]
        assert curve.b.tolist() == [c.b for c in points]
    for bad in (1.0, -0.1):
        for make in (OscillatorParams, OscillatorParams.si):
            with pytest.raises(ValueError, match="alpha"):
                make(alpha=np.array([0.1, bad, 0.3]))


def test_params_and_coefficients_compare_and_hash_with_arrays():
    # == compares field by field and gives a plain bool; an instance that
    # holds an array is unhashable and says which class it is
    alphas = np.array([0.1, 0.2])
    p = OscillatorParams(alpha=alphas)
    for x, same, other in ((p, OscillatorParams(alpha=alphas.copy()),
                            OscillatorParams(alpha=np.array([0.1, 0.3]))),
                           (coefficients(p), coefficients(OscillatorParams(alpha=alphas)),
                            coefficients(OscillatorParams(alpha=0.1)))):
        assert (x == same) is True and (x != same) is False
        assert (x == other) is False and (x != other) is True
        assert (x == 0.1) is False
        with pytest.raises(TypeError, match=type(x).__name__):
            hash(x)


def test_float_params_and_coefficients_compare_and_hash_as_field_tuples():
    p = OscillatorParams(alpha=0.3)
    c = coefficients(p)
    assert p == OscillatorParams(alpha=0.3) and p != OscillatorParams(alpha=0.2)
    assert c == SpectrumCoefficients(c.a, c.b) and c != SpectrumCoefficients(c.a, 0.0)
    assert hash(p) == hash((1.0, 1.0, 1.0, 0.3, 1.0))
    assert hash(c) == hash((c.a, c.b))
    assert len({p, OscillatorParams(alpha=0.3), c, SpectrumCoefficients(c.a, c.b)}) == 2


def test_energy_frozen_values():
    assert energy_level(OscillatorParams(), 0) == 0.5
    p = OscillatorParams(alpha=0.1)
    assert abs(energy_level(p, 0) - 0.52562460986251964) < 1e-15
    assert abs(energy_level(p, 2) - 2.9281230493125982) < 1e-14


def test_energy_monotone_in_n():
    for alpha in (0.0, 0.1, 0.3, 0.9):
        p = OscillatorParams(alpha=alpha)
        energies = [energy_level(p, n) for n in range(40)]
        assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))


def test_energy_monotone_in_alpha():
    for n in (0, 1, 3, 5, 12):
        vals = [energy_level(OscillatorParams(alpha=a), n)
                for a in np.linspace(0.0, 0.95, 30)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_level_spacing_growth():
    c = coefficients(OscillatorParams(alpha=0.3))
    spacings = [c.energy(n + 1) - c.energy(n) for n in range(25)]
    assert all(s2 > s1 for s1, s2 in zip(spacings, spacings[1:]))
    # spacing is a + b(2n+3)
    for n, s in enumerate(spacings):
        assert abs(s - (c.a + c.b * (2 * n + 3))) < 1e-12


def test_alpha_zero_reduction_exact():
    p = OscillatorParams(alpha=0.0)
    for n in range(20):
        assert energy_level(p, n) == n + 0.5


def test_level_at_alpha_zero_and_past_the_float_range():
    # the quadratic term is 0 at b = 0, also where n^2 overflows; an int n
    # whose square leaves the float range gives inf, as a float n does
    p0, p3 = OscillatorParams(alpha=0.0), OscillatorParams(alpha=0.3)
    assert energy_level(p0, 10 ** 200) == 1e200
    assert coefficients(p0).level(np.array([0.0, 1e200])).tolist() == [0.5, 1e200]
    for p in (p0, p3):
        assert energy_level(p, 10 ** 400) == math.inf
    assert energy_level(p3, 10 ** 200) == math.inf
    c = coefficients(OscillatorParams(alpha=np.array([0.0, 0.3])))
    assert c.level(10 ** 200).tolist() == [1e200, math.inf]
    # below n = 2^512 an int is squared exactly, as before
    c3 = coefficients(p3)
    for n in (2 ** 53 + 1, 10 ** 100, 2 ** 512 - 2 ** 460):
        assert energy_level(p3, n) == c3.a * (n + 0.5) + c3.b * (n * n + 2.0 * n + 0.5)
    for bad in (-(10 ** 400), math.inf, 2.5):
        with pytest.raises(ValueError):
            energy_level(p3, bad)


def test_energy_rejects_bad_n():
    with pytest.raises(ValueError):
        energy_level(OscillatorParams(), -1)


def test_spectrum_coefficients_validation():
    with pytest.raises(ValueError):
        SpectrumCoefficients(a=0.0, b=0.1)
    with pytest.raises(ValueError):
        SpectrumCoefficients(a=1.0, b=-0.1)


def test_si_mode_constants():
    p = OscillatorParams.si(alpha=0.0)
    assert p.hbar == 1.054571817e-34
    assert p.kB == 1.380649e-23
    assert energy_level(p, 0) == 0.5 * p.hbar * p.omega
