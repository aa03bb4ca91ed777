"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from pathlib import Path

import numpy as np

from pdmosc import (OscillatorParams, Tolerance, cli, coefficients, erf, partition_closed,
                    superstat_quadrature, superstat_thermo, thermo_quadrature,
                    thermo_sum_engine)
from pdmosc.sweeps import FIGURE_IDS, PRESETS
from pdmosc.thermo import thermo_sum_engine
from pdmosc.routes import SUPERSTAT, THERMO
from pdmosc.verify import DEFAULT_BETAS, trend_check

from helpers import brute_boltzmann_moments, erf_maclaurin

ALPHAS = (0.1, 0.3, 0.9)
QTOL = Tolerance(rel=1e-12, abs=0.0, max_evals=400_000)

FIXTURE = Path(__file__).parent / "fixtures" / "audit_atlas.csv"


def _report(n, ok, detail=""):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_standard_oscillator_reduction():
    """alpha=0 sum path: Z vs geometric closed form at 1e-10, engine U vs
    (1/2)coth(beta/2) at 1e-6, in under a second."""
    c = coefficients(OscillatorParams(alpha=0.0))
    t0 = time.perf_counter()
    worst_z = worst_u = 0.0
    for beta in np.logspace(-1, 1, 25):
        z = thermo_sum_engine(c, beta).Z
        z_ref = math.exp(-beta / 2) / (1.0 - math.exp(-beta))
        worst_z = max(worst_z, abs(z - z_ref) / z_ref)
        u = thermo_sum_engine(c, beta).U
        u_ref = 0.5 / math.tanh(beta / 2)
        worst_u = max(worst_u, abs(u - u_ref) / u_ref)
    dt = time.perf_counter() - t0
    ok = worst_z <= 1e-10 and worst_u <= 1e-6 and dt < 1.0
    _report(1, ok, f"Z rel {worst_z:.2e} (<=1e-10), U rel {worst_u:.2e} (<=1e-6), {dt:.2f}s (<1s)")


def test_criterion_2_closed_form_identification():
    """The typeset erf expression is the n in [0,1] integral: closed equals
    quad01 to 1e-10 on the full audit grid, in under two seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in DEFAULT_BETAS:
            zc = partition_closed(c, beta)
            zq = thermo_quadrature(c, beta, "quad01", QTOL).Z
            worst = max(worst, abs(zc - zq) / zq)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 2.0
    _report(2, ok, f"worst rel {worst:.2e} (<=1e-10), {dt:.2f}s (<2s)")


def test_criterion_3_thermodynamic_identities():
    """Sum path on the audit grid: S identity to 1e-7, F identity to 1e-12,
    engine C vs beta^2 Var(E) from 50-digit brute-force sums to 1e-12.

    The S identity is measured against its own scale |lnZ| + beta|U|, the
    standard metric for a cancelling identity: where S itself vanishes
    exponentially while lnZ stays at O(beta E_0), a bare ratio to S is not
    representable in doubles."""
    worst_s = worst_f = worst_c = 0.0
    for alpha in ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in DEFAULT_BETAS:
            pt = thermo_sum_engine(c, beta)
            lnz = math.log(pt.Z)
            s_scale = max(abs(pt.S), abs(lnz) + beta * abs(pt.U))
            worst_s = max(worst_s, abs(pt.S - (lnz + beta * pt.U)) / s_scale)
            worst_f = max(worst_f, abs(pt.F - (-lnz / beta)) / max(abs(pt.F), 1e-30))
            _, _, var = brute_boltzmann_moments([c.energy(n) for n in range(400)], beta)
            c_direct = beta * beta * var
            worst_c = max(worst_c, abs(pt.C - c_direct) / c_direct)
    ok = worst_s <= 1e-7 and worst_f <= 1e-12 and worst_c <= 1e-12
    _report(3, ok, f"S id {worst_s:.2e} (<=1e-7), F id {worst_f:.2e} (<=1e-12), "
                   f"C vs brute force {worst_c:.2e} (<=1e-12)")


def test_criterion_4_positivity_and_monotonicity():
    """Sum path: C >= -1e-9; Z and S strictly decreasing in beta; Z strictly
    decreasing in alpha; E_n strictly increasing in n and alpha; level
    spacings increasing for b > 0."""
    ok = True
    notes = []
    for alpha in ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        pts = [thermo_sum_engine(c, beta) for beta in DEFAULT_BETAS]
        if not all(pt.C >= -1e-9 for pt in pts):
            ok, _ = False, notes.append(f"C<-1e-9 at alpha={alpha}")
        z_curve = list(zip(DEFAULT_BETAS, (pt.Z for pt in pts)))
        s_curve = list(zip(DEFAULT_BETAS, (pt.S for pt in pts)))
        ok &= trend_check(z_curve, "decreasing").passed
        ok &= trend_check(s_curve, "decreasing").passed
    alphas = np.linspace(0.02, 0.95, 20)
    for beta in (0.5, 2.0, 8.0):
        zs = [(a, thermo_sum_engine(coefficients(OscillatorParams(alpha=float(a))), beta).Z)
              for a in alphas]
        ok &= trend_check(zs, "decreasing").passed
    for alpha in ALPHAS:
        p = OscillatorParams(alpha=alpha)
        ok &= trend_check([(n, coefficients(p).level(n)) for n in range(11)],
                          "increasing").passed
        c = coefficients(p)
        spacings = [(n, c.energy(n + 1) - c.energy(n)) for n in range(11)]
        ok &= trend_check(spacings, "increasing").passed
    for n in (0, 1, 5):
        ok &= trend_check([(a, coefficients(OscillatorParams(alpha=float(a))).level(n))
                           for a in alphas], "increasing").passed
    _report(4, bool(ok), "; ".join(notes) if notes else
            "C>=-1e-9, Z/S down in beta, Z down in alpha, E up in n and alpha, spacings up")


def test_criterion_5_superstat_q0_limit_and_identity():
    """q->0 reduction exact; engine S_s identity to 1e-7; Z_s nondecreasing
    in q pointwise."""
    worst_q0 = 0.0
    worst_id = 0.0
    mono_ok = True
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    for alpha in ALPHAS:
        c = coefficients(OscillatorParams(alpha=alpha))
        for beta in DEFAULT_BETAS[::6]:
            zs0 = superstat_quadrature(c, beta, 0.0, QTOL).Zs
            zinf = thermo_quadrature(c, beta, "quadinf", QTOL).Z
            worst_q0 = max(worst_q0, abs(zs0 - zinf) / zinf)
            vals = [superstat_quadrature(c, beta, q, QTOL).Zs for q in qs]
            mono_ok &= all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
            for q in (0.0, 0.5, 1.0):
                pt = superstat_thermo(c, beta, q)
                lnzs = math.log(superstat_quadrature(c, beta, q, QTOL).Zs)
                scale = max(abs(pt.Ss), abs(lnzs) + beta * abs(pt.Us))
                worst_id = max(worst_id, abs(pt.Ss - (lnzs + beta * pt.Us)) / scale)
    ok = worst_q0 <= 1e-14 and worst_id <= 1e-7 and mono_ok
    _report(5, ok, f"q=0 reduction {worst_q0:.1e} (working precision), "
                   f"S_s identity {worst_id:.2e} (<=1e-7), q-monotone={mono_ok}")


def test_criterion_6_superstat_spot_values():
    """b=0 route at beta=1: Z_s(q=0) = e^{-1/2}, U_s(q=0) = 3/2 via the
    moment engine, both to 1e-6."""
    c = coefficients(OscillatorParams(alpha=0.0))
    pt = superstat_thermo(c, 1.0, 0.0)
    z_ref = math.exp(-0.5)
    rz = abs(pt.Zs - z_ref) / z_ref
    ru = abs(pt.Us - 1.5) / 1.5
    ok = rz <= 1e-6 and ru <= 1e-6
    _report(6, ok, f"Z_s rel {rz:.2e}, U_s rel {ru:.2e} (<=1e-6)")


def _parse_atlas(text):
    rows = []
    lines = text.strip().split("\n")
    assert lines[0].startswith("quantity,")
    for line in lines[1:]:
        parts = line.split(",")
        rows.append((parts[0], float(parts[1]), float(parts[2]),
                     float(parts[3]) if parts[3] else None, parts[4],
                     float(parts[5]), float(parts[6]), float(parts[7]), parts[8]))
    return rows


def _close(a, b, rel=1e-9):
    if a is None or b is None:
        return a is b
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def test_criterion_7_audit_atlas(tmp_path):
    """Full audit: all 10 quantities x grid x both transcriptions, zero
    non-finite oracles, byte-stable across runs, matching the archived
    fixture."""
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert cli.main(["audit", "--out", str(out1)]) == 0
    assert cli.main(["audit", "--out", str(out2)]) == 0
    text1, text2 = out1.read_text(), out2.read_text()
    byte_stable = text1 == text2
    rows = _parse_atlas(text1)
    expected = 2 * (5 * 3 * 25 + 5 * 3 * 25 * 5)
    coverage = {q for q, *_ in rows} == set(THERMO + SUPERSTAT) and len(rows) == expected
    oracle_finite = all(math.isfinite(r[6]) for r in rows)
    no_oracle_flag = all(r[8] != "OracleNonFinite" for r in rows)
    fixture_rows = _parse_atlas(FIXTURE.read_text())
    fixture_match = len(fixture_rows) == len(rows) and all(
        a[0] == b[0] and a[4] == b[4] and a[8] == b[8]
        and all(_close(x, y) for x, y in zip(a[1:4] + a[5:8], b[1:4] + b[5:8]))
        for a, b in zip(rows, fixture_rows))
    ok = byte_stable and coverage and oracle_finite and no_oracle_flag and fixture_match
    _report(7, ok, f"{len(rows)} rows, byte_stable={byte_stable}, "
                   f"coverage={coverage}, oracle finite={oracle_finite}, "
                   f"fixture match={fixture_match}")


def test_criterion_8_erf_kernel():
    """|erf - series oracle| <= 1e-14 on 1000 points in [-6, 6]."""
    xs = np.linspace(-6.0, 6.0, 1000)
    worst = max(abs(erf(float(x)) - erf_maclaurin(float(x), dps=35)) for x in xs)
    ok = worst <= 1e-14
    _report(8, ok, f"worst abs err {worst:.2e} (<=1e-14) on 1000 points")


def test_criterion_9_figure_presets(tmp_path):
    """All 20 presets produce CSV in under 10 s total; embedded trends hold
    per curve; presets without a provable trend are finite everywhere."""
    t0 = time.perf_counter()
    for fid in FIGURE_IDS:
        assert cli.main(["figure", fid, "--out", str(tmp_path / f"{fid}.csv")]) == 0
    dt = time.perf_counter() - t0
    trends_ok = True
    for fid in FIGURE_IDS:
        lines = (tmp_path / f"{fid}.csv").read_text().strip().split("\n")[1:]
        curves: dict[str, list[tuple[float, float]]] = {}
        for line in lines:
            label, x, y, warning = line.split(",")
            assert warning == "" and y != "", f"{fid}: null row {line!r}"
            curves.setdefault(label, []).append((float(x), float(y)))
        for label, pts in curves.items():
            assert all(math.isfinite(y) for _, y in pts), f"{fid}/{label} non-finite"
            expected = PRESETS[fid].trend
            if expected is not None:
                res = trend_check(pts, expected)
                if not res.passed:
                    trends_ok = False
                    print(f"  trend violation: {fid} {label} at {res.first_violation}")
    ok = dt < 10.0 and trends_ok
    _report(9, ok, f"20 presets in {dt:.2f}s (<10s), embedded trends hold={trends_ok}")
