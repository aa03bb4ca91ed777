"""Audit harness: classification rules, determinism, coverage, trends."""

import json
import math

import numpy as np
import pytest

from pdmosc import OscillatorParams, cli, energy_level
from pdmosc.verify import (AUDIT_CSV_HEADER, DEFAULT_BETAS, QUANTITIES,
                           DiscrepancyReport, audit_grid, render_audit_csv, trend_check,
                           _classify)

SMALL_GRID = dict(params_grid=(0.1, 0.3), beta_grid=DEFAULT_BETAS[::8],
                  q_grid=(0.0, 0.5))


def test_classify_thresholds():
    # one column per call: the same cases, classified elementwise
    printed = np.array([1.0, 1.0 + 5e-7, 1.001, 1.5, math.inf, math.nan, 1.0, 1e-10])
    oracle = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.inf, 0.0])
    rel, cls = _classify(printed, oracle)
    assert cls.tolist() == ["Agree", "Agree", "Close", "Disagree", "PrintedNonFinite",
                            "PrintedNonFinite", "OracleNonFinite", "Disagree"]
    assert rel[0] == 0.0 and math.isnan(rel[6])
    # floor keeps zero oracles well defined
    assert math.isfinite(rel[7])


def test_audit_coverage_and_order():
    reports = audit_grid(**SMALL_GRID)
    quantities = [r.quantity for r in reports]
    assert set(quantities) == set(QUANTITIES)
    # sorted by quantity (in enum order), grid indices, transcription
    order = {q: i for i, q in enumerate(QUANTITIES)}
    assert all(order[a] <= order[b] for a, b in zip(quantities, quantities[1:]))
    thermo_n = 5 * 2 * len(DEFAULT_BETAS[::8]) * 2
    superstat_n = 5 * 2 * len(DEFAULT_BETAS[::8]) * 2 * 2
    assert len(reports) == thermo_n + superstat_n


def test_audit_determinism():
    a = audit_grid(**SMALL_GRID)
    b = audit_grid(**SMALL_GRID)
    assert a == b


def test_audit_known_agreements():
    reports = audit_grid(**SMALL_GRID)
    for r in reports:
        if r.quantity == "F":
            assert r.classification == "Agree"
        if r.quantity == "Z":
            assert r.classification == "Agree"
        if r.quantity == "Zs" and r.transcription == "verbatim":
            assert r.classification == "Agree"
        assert math.isfinite(r.oracle)
        if r.quantity in ("Z", "U", "C", "S", "F"):
            assert r.q is None
        else:
            assert r.q is not None


def test_audit_rel_diff_definition():
    reports = audit_grid(**SMALL_GRID)
    for r in reports[::7]:
        if math.isfinite(r.printed) and math.isfinite(r.oracle):
            want = abs(r.printed - r.oracle) / max(abs(r.oracle), 1e-300)
            assert r.rel_diff == want


def test_audit_grid_validation():
    with pytest.raises(ValueError):
        audit_grid(params_grid=(), beta_grid=(1.0,), q_grid=(0.0,))
    with pytest.raises(ValueError):
        audit_grid(oracle_basis="quadrature")


def test_sum_basis_runs():
    reports = audit_grid(params_grid=(0.3,), beta_grid=(0.5, 2.0, 8.0),
                         q_grid=(0.0,), oracle_basis="sum")
    assert all(math.isfinite(r.oracle) for r in reports)
    # the typeset Z is the [0,1] integral, so against the sum it disagrees
    z_rows = [r for r in reports if r.quantity == "Z"]
    assert all(r.classification == "Disagree" for r in z_rows)


def test_csv_rendering():
    reports = audit_grid(params_grid=(0.1,), beta_grid=(1.0, 2.0, 3.0), q_grid=(0.0,))
    text = render_audit_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == AUDIT_CSV_HEADER
    assert len(lines) == len(reports) + 1
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "Z" and first[4] in ("verbatim", "corrected")
    # q column empty for thermo rows, filled for superstat rows
    assert first[3] == ""
    last = lines[-1].split(",")
    assert last[0] == "Cs" and last[3] == "0"


def test_csv_rendering_keeps_signed_zeros():
    rows = [DiscrepancyReport("Zs", 0.5, 1.0, q, "verbatim", 1.0, 1.0, 0.0, "Agree")
            for q in (0.0, -0.0, 0.0)]
    assert [line.split(",")[3] for line in render_audit_csv(rows).split("\n")[1:4]] == \
        ["0", "-0", "0"]


def _same(json_value, csv_text: str) -> bool:
    if json_value is None or isinstance(json_value, str):
        return csv_text == ("" if json_value is None else json_value)
    value = float(csv_text)
    return value == json_value or (math.isnan(value) and math.isnan(json_value))


def test_cli_audit_json_matches_csv(tmp_path):
    # the JSON records are the report fields in order, each equal to the
    # CSV row of the same audit
    out_json, out_csv = tmp_path / "atlas.json", tmp_path / "atlas.csv"
    assert cli.main(["audit", "--format", "json", "--out", str(out_json)]) == 0
    assert cli.main(["audit", "--out", str(out_csv)]) == 0
    records = json.loads(out_json.read_text())
    header, *lines = out_csv.read_text().rstrip("\n").split("\n")
    assert len(records) == len(lines) == 4500
    assert header.split(",") == list(DiscrepancyReport._fields)
    for record, line in zip(records, lines):
        assert list(record) == list(DiscrepancyReport._fields)
        assert all(_same(v, text) for v, text in zip(record.values(), line.split(","))), line


# -- trend checks ------------------------------------------------------------

def test_trend_examples():
    assert trend_check([(1, 1), (2, 2), (3, 3)], "increasing").passed
    res = trend_check([(1, 3), (2, 2), (3, 2.5)], "decreasing")
    assert not res.passed and res.first_violation == 2
    assert trend_check([(0, 0.0), (1, 5.0), (2, 1.0)], "nonnegative").passed
    res = trend_check([(0, 0.0), (1, -5.0), (2, 1.0)], "nonnegative")
    assert not res.passed and res.first_violation == 1


def test_trend_energy_curve():
    p = OscillatorParams(alpha=0.9)
    curve = [(n, energy_level(p, n)) for n in range(11)]
    assert trend_check(curve, "increasing").passed


def test_trend_validation():
    with pytest.raises(ValueError):
        trend_check([(0, 1), (1, 2)], "increasing")
    with pytest.raises(ValueError):
        trend_check([(0, 1), (0, 2), (1, 3)], "increasing")
    with pytest.raises(ValueError):
        trend_check([(0, 1), (1, 2), (2, 3)], "wiggly")
