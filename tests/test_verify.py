"""Audit harness: classification rules, determinism, coverage, trends."""

import collections
import inspect
import json
import math

import numpy as np
import pytest

from pdmosc import OscillatorParams, cli, energy_level, superstat, thermo
from pdmosc.verify import (AUDIT_CSV_HEADER, DEFAULT_BETAS, QUANTITIES, audit_columns,
                           render_audit_csv, render_audit_json, trend_check, _classify)

SMALL_GRID = dict(params_grid=(0.1, 0.3), beta_grid=DEFAULT_BETAS[::8],
                  q_grid=(0.0, 0.5))

#: one audit row, its fields the CSV columns
Row = collections.namedtuple("Row", AUDIT_CSV_HEADER)


def _rows(blocks) -> list[Row]:
    """The reference row-by-row reading of audit_columns' blocks: by
    quantity, grid row, transcription, each value a Python float or str."""
    return [Row(b.quantity, *row, tr, b.printed[i, j].item(), b.oracle[i].item(),
                b.rel_diff[i, j].item(), b.classification[i, j])
            for b in blocks for i, row in enumerate(b.grid)
            for j, tr in enumerate(thermo.TRANSCRIPTIONS)]


def _audit_rows(**kwargs) -> list[Row]:
    return _rows(audit_columns(**kwargs))


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
    reports = _audit_rows(**SMALL_GRID)
    quantities = [r.quantity for r in reports]
    assert set(quantities) == set(QUANTITIES)
    # sorted by quantity (in enum order), grid indices, transcription
    order = {q: i for i, q in enumerate(QUANTITIES)}
    assert all(order[a] <= order[b] for a, b in zip(quantities, quantities[1:]))
    thermo_n = 5 * 2 * len(DEFAULT_BETAS[::8]) * 2
    superstat_n = 5 * 2 * len(DEFAULT_BETAS[::8]) * 2 * 2
    assert len(reports) == thermo_n + superstat_n


def test_audit_determinism():
    a = _audit_rows(**SMALL_GRID)
    b = _audit_rows(**SMALL_GRID)
    # repr tells nan, -0.0 and every float apart
    assert repr(a) == repr(b)


def test_audit_known_agreements():
    reports = _audit_rows(**SMALL_GRID)
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
    reports = _audit_rows(**SMALL_GRID)
    for r in reports[::7]:
        if math.isfinite(r.printed) and math.isfinite(r.oracle):
            want = abs(r.printed - r.oracle) / max(abs(r.oracle), 1e-300)
            assert r.rel_diff == want


def test_audit_grid_validation():
    with pytest.raises(ValueError):
        audit_columns(params_grid=(), beta_grid=(1.0,), q_grid=(0.0,))
    with pytest.raises(ValueError):
        audit_columns(oracle_basis="quadrature")


def test_sum_basis_runs():
    reports = _audit_rows(params_grid=(0.3,), beta_grid=(0.5, 2.0, 8.0),
                          q_grid=(0.0,), oracle_basis="sum")
    assert all(math.isfinite(r.oracle) for r in reports)
    # the typeset Z is the [0,1] integral, so against the sum it disagrees
    z_rows = [r for r in reports if r.quantity == "Z"]
    assert all(r.classification == "Disagree" for r in z_rows)


@pytest.mark.parametrize("basis", ["closed", "sum"])
def test_audit_grid_is_the_merge_of_its_one_alpha_audits(basis):
    grid = dict(beta_grid=DEFAULT_BETAS[::6], q_grid=(0.0, 0.5, 1.0), oracle_basis=basis)
    alphas = (0.1, 0.3, 0.9)
    whole = _audit_rows(params_grid=alphas, **grid)
    parts = [_audit_rows(params_grid=(alpha,), **grid) for alpha in alphas]
    # each quantity's rows, alpha-major: the one-alpha audits' rows in turn
    merged = [r for qn in QUANTITIES for part in parts for r in part if r.quantity == qn]
    # bit for bit: repr tells nan, -0.0 and every float apart
    assert list(map(repr, whole)) == list(map(repr, merged))


@pytest.mark.parametrize("alphas", [(0.3,), (0.1, 0.3, 0.9)])
@pytest.mark.parametrize("basis", ["closed", "sum"])
def test_audit_grid_calls_each_route_once(alphas, basis, monkeypatch, capsys):
    calls = []

    def counted(module, name, key):
        """Record each call of module.name as name + key(its arguments by
        parameter name, defaults filled in), whether routes.POINTS passes
        them by position or by keyword."""
        original = getattr(module, name)
        sig = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name,) + key(bound.arguments))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(thermo, "thermo_quadrature", lambda a: (a["range_"],))
    counted(thermo, "thermo_sum_engine", lambda a: ())
    counted(thermo, "thermo_closed_point", lambda a: (a["transcription"],))
    counted(superstat, "superstat_thermo",
            lambda a: (a["method"],) + ((a["transcription"],) if a["method"] == "closed"
                                        else ()))
    oracle = ("thermo_quadrature", "quad01") if basis == "closed" else ("thermo_sum_engine",)
    six = sorted([
        oracle, ("thermo_closed_point", "verbatim"), ("thermo_closed_point", "corrected"),
        ("superstat_thermo", "engine"), ("superstat_thermo", "closed", "verbatim"),
        ("superstat_thermo", "closed", "corrected")])
    audit_columns(params_grid=alphas, beta_grid=DEFAULT_BETAS[::8], q_grid=(0.0, 0.5),
                  oracle_basis=basis)
    assert sorted(calls) == six
    # the CLI's CSV and JSON paths, on the default grid
    calls.clear()
    assert cli.main(["audit", "--method", basis]) == 0
    assert capsys.readouterr().out.count("\n") == 4501
    assert sorted(calls) == six
    calls.clear()
    assert cli.main(["audit", "--format", "json", "--method", basis]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4500
    assert sorted(calls) == six


def test_csv_rendering():
    grid = dict(params_grid=(0.1,), beta_grid=(1.0, 2.0, 3.0), q_grid=(0.0,))
    reports = _audit_rows(**grid)
    text = render_audit_csv(audit_columns(**grid))
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
    # 0.0 and -0.0 are one key of the grid-value cache but two strings
    text = render_audit_csv(audit_columns(params_grid=(0.5,), beta_grid=(1.0,),
                                          q_grid=(0.0, -0.0, 0.0)))
    rows = [line.split(",") for line in text.split("\n")[1:-1]]
    assert [r[3] for r in rows if r[0] == "Zs" and r[4] == "verbatim"] == ["0", "-0", "0"]


def _report_line(r: Row) -> str:
    """The reference CSV record: each field of the row, floats at 17
    significant digits, None empty."""
    return ",".join("" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in r)


@pytest.mark.parametrize("grid", [SMALL_GRID, {}], ids=["small", "default"])
@pytest.mark.parametrize("basis", ["closed", "sum"])
def test_csv_of_the_columns_is_the_csv_of_the_reports(grid, basis):
    blocks = audit_columns(**grid, oracle_basis=basis)
    # one oracle value per grid row, printed and rel_diff per transcription
    assert [b.quantity for b in blocks] == list(QUANTITIES)
    assert all(b.oracle.shape == (len(b.grid),) and
               b.printed.shape == b.rel_diff.shape == b.classification.shape ==
               (len(b.grid), 2) for b in blocks)
    lines = render_audit_csv(blocks).split("\n")
    reports = _rows(blocks)
    assert lines == [AUDIT_CSV_HEADER] + list(map(_report_line, reports)) + [""]
    # the JSON text: one record per row, keyed by the CSV columns
    assert render_audit_json(blocks) == json.dumps([r._asdict() for r in reports],
                                                   indent=1) + "\n"


def _same(json_value, csv_text: str) -> bool:
    if json_value is None or isinstance(json_value, str):
        return csv_text == ("" if json_value is None else json_value)
    value = float(csv_text)
    return value == json_value or (math.isnan(value) and math.isnan(json_value))


def test_cli_audit_json_matches_csv(tmp_path):
    # the JSON records are the CSV columns in order, each equal to the CSV
    # row of the same audit
    out_json, out_csv = tmp_path / "atlas.json", tmp_path / "atlas.csv"
    assert cli.main(["audit", "--format", "json", "--out", str(out_json)]) == 0
    assert cli.main(["audit", "--out", str(out_csv)]) == 0
    records = json.loads(out_json.read_text())
    header, *lines = out_csv.read_text().rstrip("\n").split("\n")
    assert len(records) == len(lines) == 4500
    assert header == AUDIT_CSV_HEADER
    for record, line in zip(records, lines):
        assert list(record) == AUDIT_CSV_HEADER.split(",")
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
