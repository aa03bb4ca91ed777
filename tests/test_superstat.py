"""Superstatistics layer: deformed factor, quadrature ground truth, typeset
closed forms, assembled points."""

import math

import numpy as np
import pytest

from pdmosc import (DeformationQ, DomainEdge, OscillatorParams, PdmoscError,
                    SingularLimit, SpectrumCoefficients, Tolerance, Underflow,
                    boltzmann_factor_q, coefficients, entropy_superstat_closed,
                    free_energy_superstat_closed, log_superstat_partition_closed,
                    mean_energy_superstat_closed, numerics, partition_quadrature,
                    richardson, stencil, superstat, superstat_partition_closed,
                    superstat_partition_quadrature, superstat_thermo)

from helpers import mp_quad

TOL = Tolerance()

C00 = coefficients(OscillatorParams(alpha=0.0))
C01 = coefficients(OscillatorParams(alpha=0.1))
C03 = coefficients(OscillatorParams(alpha=0.3))
C09 = coefficients(OscillatorParams(alpha=0.9))


def test_q_validation():
    with pytest.raises(ValueError):
        DeformationQ(-0.01)
    with pytest.raises(ValueError):
        DeformationQ(1.01)
    DeformationQ(0.0)
    DeformationQ(1.0)


def test_boltzmann_factor_values():
    assert boltzmann_factor_q(0.0, 1.0, 0.7) == 1.0
    assert abs(boltzmann_factor_q(1.0, 1.0, 0.0) - 0.36787944117144233) < 1e-16
    assert abs(boltzmann_factor_q(1.0, 1.0, 1.0) - 0.55181916175716348) < 1e-15


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
            zs = superstat_partition_quadrature(c, beta, 0.0, TOL)
            z = partition_quadrature(c, beta, "quadinf", TOL)
            assert zs == z


def test_quadrature_undeformed_frozen_values():
    # b = 0, q = 0: e^{-beta/2}/beta at beta=1
    assert abs(superstat_partition_quadrature(C00, 1.0, 0.0, TOL)
               - 0.60653065971263342) < 1e-12
    # b = 0, q = 1: the integral reduces to e^{-1/2} * 21/8
    zs = superstat_partition_quadrature(C00, 1.0, 1.0, TOL)
    assert abs(zs - 1.5921429817456627) < 1e-11


def test_quadrature_against_mpmath_oracle():
    def make(c, beta, q):
        return lambda n: math.exp(-beta * c.energy(n)) * (
            1.0 + 0.5 * q * (beta * c.energy(n)) ** 2)
    for c, beta, q in [(C01, 1.3, 0.6), (C09, 0.37, 1.0), (C03, 2.2, 0.25)]:
        want = mp_quad(make(c, beta, q), [0, 20, math.inf])
        got = superstat_partition_quadrature(c, beta, q, TOL)
        assert abs(got - want) / want < 1e-11


def test_zs_monotone_in_q():
    for c in (C01, C09):
        for beta in (0.5, 2.0):
            vals = [superstat_partition_quadrature(c, beta, q, TOL)
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
                zq = superstat_partition_quadrature(c, beta, q, TOL)
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


def test_log_closed_consistency():
    for beta in (0.5, 3.0, 12.0):
        z = superstat_partition_closed(C03, beta, 0.5, "verbatim")
        lz = log_superstat_partition_closed(C03, beta, 0.5, "verbatim")
        assert abs(lz - math.log(z)) < 1e-12 * max(1.0, abs(lz))


def test_closed_forms_finite_both_transcriptions():
    for tr in ("verbatim", "corrected"):
        u = mean_energy_superstat_closed(C03, 1.0, 0.5, tr)
        s = entropy_superstat_closed(C03, 1.0, 0.5, 1.0, tr)
        f = free_energy_superstat_closed(C03, 1.0, 0.5, tr)
        assert math.isfinite(u) and math.isfinite(s) and math.isfinite(f)


# -- assembled thermodynamics ------------------------------------------------

def test_engine_undeformed_spot_values():
    # b=0 route: Zs(q=0, beta=1) = e^{-1/2}, Us = 1/2 + 1/beta = 1.5
    pt = superstat_thermo(C00, 1.0, 0.0, method="engine")
    assert abs(pt.Zs - 0.60653065971263342) / 0.60653065971263342 < 1e-6
    assert abs(pt.Us - 1.5) / 1.5 < 1e-6


def test_engine_entropy_identity():
    for c in (C01, C09):
        for beta, q in [(0.5, 0.0), (1.0, 0.5), (3.0, 1.0)]:
            pt = superstat_thermo(c, beta, q, method="engine")
            lnzs = math.log(superstat_partition_quadrature(c, beta, q, TOL))
            assert abs(pt.Ss - (lnzs + beta * pt.Us)) <= \
                1e-7 * max(abs(pt.Ss), abs(lnzs) + beta * abs(pt.Us))


def test_free_energy_compositional_per_method():
    pt = superstat_thermo(C03, 2.0, 0.5, method="engine")
    lnzs = math.log(superstat_partition_quadrature(C03, 2.0, 0.5, TOL))
    assert abs(pt.Fs + lnzs / 2.0) < 1e-9
    ptc = superstat_thermo(C03, 2.0, 0.5, method="closed", transcription="corrected")
    want = -log_superstat_partition_closed(C03, 2.0, 0.5, "corrected") / 2.0
    assert ptc.Fs == want


def test_closed_point_has_finite_cs():
    for tr in ("verbatim", "corrected"):
        pt = superstat_thermo(C01, 1.0, 0.5, method="closed", transcription=tr)
        assert math.isfinite(pt.Cs)


def test_engine_stencil_rows_equal_single_quadratures():
    """The engine's batched rows are bit for bit the single quadratures:
    Zs directly, and every stencil row through the exact U_s and C_s."""
    for c, beta, q in [(C01, 0.1, 0.0), (C03, 1.0, 0.5), (C09, 7.5, 1.0)]:
        pt = superstat_thermo(c, beta, q, 1.0, TOL, method="engine")
        assert pt.Zs == superstat_partition_quadrature(c, beta, q, TOL)
        lnzs = lambda x: math.log(superstat_partition_quadrature(c, x, q, TOL))
        h1, xs1 = stencil(beta, 1, beta, positive_only=True)
        h2, xs2 = stencil(beta, 2, beta, positive_only=True)
        assert len(set(xs1 + xs2)) == 13
        assert pt.Us == -richardson([lnzs(x) for x in xs1], 1, h1)
        assert pt.Cs == beta * beta * richardson([lnzs(x) for x in xs2], 2, h2)


def test_engine_domain_edge_before_any_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the stencil check")

    monkeypatch.setattr(superstat, "integrate_semi_infinite_batch", no_quadrature)
    monkeypatch.setattr(numerics, "_EPS", 0.01)  # h = 0.4 beta, so beta - 4h < 0
    with pytest.raises(DomainEdge):
        superstat_thermo(C03, 1.0, 0.5, method="engine")


def test_engine_underflow_is_typed():
    with pytest.raises(Underflow, match="underflows"):
        superstat_thermo(C03, 1e4, 0.5, method="engine")
    assert issubclass(Underflow, PdmoscError)


def test_method_validation():
    with pytest.raises(ValueError):
        superstat_thermo(C01, 1.0, 0.5, method="quad")


def test_cs_sign_reported_not_asserted():
    """The deformed weight's beta-dependence breaks log-convexity, so C_s
    can genuinely go negative at large beta and q; that is reported (and
    visible in the audit atlas), never failed.  Only finiteness is hard."""
    violations = []
    for c, alpha in ((C01, 0.1), (C09, 0.9)):
        for beta in (0.5, 2.0, 10.0):
            for q in (0.5, 1.0):
                pt = superstat_thermo(c, beta, q, method="engine")
                assert math.isfinite(pt.Cs)
                if pt.Cs < -1e-6:
                    violations.append((alpha, beta, q, pt.Cs))
    for alpha, beta, q, cs in violations:
        print(f"  C_s floor violation: alpha={alpha} beta={beta} q={q} C_s={cs:.4f}")
    print(f"  C_s < -1e-6 at {len(violations)}/12 sampled points (reported, not failed)")
