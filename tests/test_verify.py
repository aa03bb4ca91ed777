"""Audit harness: classification rules, determinism, coverage, trends."""

import collections
import inspect
import json
import math

import numpy as np
import pytest

from pdmosc import (OscillatorParams, SingularLimit, cli, coefficients, routes,
                    superstat, thermo)
from pdmosc.spectrum import SpectrumCoefficients
from pdmosc.thermo import TRANSCRIPTIONS
from pdmosc.verify import (AUDIT_CSV_HEADER, DEFAULT_ALPHAS, DEFAULT_BETAS, DEFAULT_QS,
                           AuditBlock, audit_columns, render_audit_csv,
                           render_audit_json, trend_check, _classify)

#: the audited quantities, in the order of audit_columns' blocks
QUANTITIES = routes.THERMO + routes.SUPERSTAT

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
    # one column per call: the same cases, classified elementwise; each bound
    # is met exactly once (|1000001 - 1e6| / 1e6 == 1e-6, |101 - 100| / 100 ==
    # 1e-2) and belongs to the better class; a non-finite oracle wins over a
    # non-finite printed value
    cases = [(1.0, 1.0, "Agree"), (1.0 + 5e-7, 1.0, "Agree"), (1.001, 1.0, "Close"),
             (1.5, 1.0, "Disagree"), (math.inf, 1.0, "PrintedNonFinite"),
             (math.nan, 1.0, "PrintedNonFinite"), (1.0, math.inf, "OracleNonFinite"),
             (1e-10, 0.0, "Disagree"), (1000001.0, 1e6, "Agree"), (101.0, 100.0, "Close"),
             (-math.inf, 2.0, "PrintedNonFinite"), (math.inf, -2.0, "PrintedNonFinite"),
             (math.nan, math.nan, "OracleNonFinite"), (math.inf, -math.inf, "OracleNonFinite"),
             (-math.inf, math.nan, "OracleNonFinite"), (0.0, 0.0, "Agree")]
    printed, oracle, want = zip(*cases)
    rel, cls = _classify(np.array(printed), np.array(oracle))
    assert cls.tolist() == list(want)
    assert rel[0] == 0.0 and math.isnan(rel[6])
    assert rel[8] == 1e-6 and rel[9] == 1e-2 and rel[15] == 0.0
    # rel_diff is nan wherever the oracle is not finite or the printed value
    # is nan, and inf for a printed infinity
    assert all(math.isnan(r) for r in rel[[5, 6, 12, 13, 14]])
    assert all(r == math.inf for r in rel[[4, 10, 11]])
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
    # alpha = 0 has b = 0, where every closed form is singular
    alphas = (0.1, 0.0, 0.3, 0.9)
    whole = _audit_rows(params_grid=alphas, **grid)
    parts = [_audit_rows(params_grid=(alpha,), **grid) for alpha in alphas]
    # each quantity's rows, alpha-major: the one-alpha audits' rows in turn
    merged = [r for qn in QUANTITIES for part in parts for r in part if r.quantity == qn]
    # bit for bit: repr tells nan, -0.0 and every float apart
    assert list(map(repr, whole)) == list(map(repr, merged))
    singular = [r for r in whole if r.alpha == 0.0]
    assert len(singular) == len(whole) // len(alphas)
    assert all(math.isnan(r.printed) and math.isnan(r.rel_diff) and math.isfinite(r.oracle)
               and r.classification == "PrintedNonFinite" for r in singular)
    # an audit of singular alphas only prints nan in every closed column
    assert list(map(repr, _audit_rows(params_grid=(0.0,), **grid))) == \
        list(map(repr, singular))


def test_evaluate_retries_the_regular_alphas_of_a_mesh():
    # alpha shaped (A, 1) against a beta array of the same length A: the one
    # more call indexes alpha alone, and beta broadcasts whole
    closed = routes.ROUTES[("U", "closed")]
    values = {"alpha": np.array([[0.3], [0.0], [0.9]]), "beta": np.array([0.5, 2.0, 9.0])}
    got, regular = routes.evaluate(closed, values)
    assert regular.tolist() == [True, False, True]
    want = closed(routes.state({"alpha": values["alpha"][[0, 2]], "beta": values["beta"]}))
    assert got.shape == (2, 3) and np.array_equal(got, want)
    # no singular alpha: one call and no mask; no regular alpha: no result
    assert routes.evaluate(closed, {"alpha": 0.3, "beta": 2.0}) == \
        (closed(routes.state({"alpha": 0.3, "beta": 2.0})), None)
    got, regular = routes.evaluate(closed, {"alpha": np.zeros(2), "beta": np.ones(2)})
    assert got is None and regular.tolist() == [False, False]


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
    counted(superstat, "superstat_thermo", lambda a: ())
    counted(superstat, "superstat_closed_point", lambda a: (a["transcription"],))
    oracle = ("thermo_quadrature", "quad01") if basis == "closed" else ("thermo_sum_engine",)
    # one closed call per family, for both transcriptions
    four = sorted([oracle, ("thermo_closed_point", TRANSCRIPTIONS), ("superstat_thermo",),
                   ("superstat_closed_point", TRANSCRIPTIONS)])
    audit_columns(params_grid=alphas, beta_grid=DEFAULT_BETAS[::8], q_grid=(0.0, 0.5),
                  oracle_basis=basis)
    assert sorted(calls) == four
    # the CLI's CSV and JSON paths, on the default grid
    calls.clear()
    assert cli.main(["audit", "--method", basis]) == 0
    assert capsys.readouterr().out.count("\n") == 4501
    assert sorted(calls) == four
    calls.clear()
    assert cli.main(["audit", "--format", "json", "--method", basis]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4500
    assert sorted(calls) == four


def _audit_states(alphas) -> dict[str, routes.State]:
    """family -> the audit's State of the default beta (and q) grid, the
    coefficients shaped (A, 1), and (A, 1, 1) for superstat."""
    c = coefficients(OscillatorParams(alpha=np.array(alphas)[:, None]))
    betas = np.array(DEFAULT_BETAS)
    return {"thermo": routes.State(c, beta=betas),
            "superstat": routes.State(SpectrumCoefficients(c.a[..., None], c.b[..., None]),
                                      beta=betas[:, None], q=np.array(DEFAULT_QS))}


@pytest.mark.parametrize("family", ["thermo", "superstat"])
def test_closed_point_of_both_transcriptions_is_its_one_name_points(family):
    # the pair forms the transcription-free pieces once; each field's
    # trailing entry j is bit for bit the point of TRANSCRIPTIONS[j], on the
    # audit's grids and at a float point (repr tells nan and -0.0 apart)
    closed = routes.POINTS[family]["closed"]
    point = routes.State(coefficients(OscillatorParams(alpha=0.3)), beta=2.0, q=0.5)
    for s in (_audit_states(DEFAULT_ALPHAS)[family], point):
        pair = closed(s._replace(transcription=TRANSCRIPTIONS))
        for j, tr in enumerate(TRANSCRIPTIONS):
            one = closed(s._replace(transcription=tr))
            assert repr(pair.beta) == repr(one.beta) and pair.method == one.method
            for qn in routes.FIELDS[family]:
                field, want = getattr(pair, qn), np.asarray(getattr(one, qn))
                assert field.shape == want.shape + (2,)
                assert repr(field[..., j].tolist()) == repr(want.tolist()), (qn, tr)


@pytest.mark.parametrize("family", ["thermo", "superstat"])
def test_closed_point_of_both_transcriptions_raises_where_one_name_does(family):
    closed = routes.POINTS[family]["closed"]
    singular = {"alphas": (0.1, 0.0), "point": 0.0}  # alpha = 0: b = 0 <= B_MIN
    for s in (_audit_states(singular["alphas"])[family],
              routes.State(coefficients(OscillatorParams(alpha=singular["point"])), beta=2.0)):
        for tr in TRANSCRIPTIONS + (TRANSCRIPTIONS,):
            with pytest.raises(SingularLimit):
                closed(s._replace(transcription=tr))
    s = _audit_states(DEFAULT_ALPHAS)[family]
    for tr in TRANSCRIPTIONS + (TRANSCRIPTIONS,):
        with pytest.raises(ValueError, match="beta must be positive"):
            closed(s._replace(beta=-s.beta, transcription=tr))
    # only the pair itself, in its order, or one name
    for tr in ("typo", TRANSCRIPTIONS[::-1], TRANSCRIPTIONS[:1], list(TRANSCRIPTIONS)):
        with pytest.raises(ValueError, match="transcription must be"):
            closed(s._replace(transcription=tr))


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


#: float values the default grid never prints, each with its own text
_EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                -2.2250738585072014e-308, 0.1, 1e22)


def test_csv_of_blocks_with_edge_values_is_the_csv_of_the_reports():
    # synthetic blocks, thermo rows (q None) and superstat rows, whose
    # printed, oracle and rel_diff columns cycle through _EDGE_VALUES
    n = len(_EDGE_VALUES)
    values = np.array(_EDGE_VALUES)
    thermo_grid = tuple((a, b, None) for a, b in zip(_EDGE_VALUES, _EDGE_VALUES[3:] * 2))
    superstat_grid = tuple((0.5, b, q) for b, q in zip(_EDGE_VALUES, _EDGE_VALUES[::-1]))
    cls = np.array(["Agree", "Close", "Disagree", "PrintedNonFinite", "OracleNonFinite"] * 4,
                   dtype=object).reshape(n, 2)
    blocks = [AuditBlock(qn, grid, np.roll(np.c_[values, values[::-1]], k, axis=0),
                         np.roll(values, 2 * k), np.roll(np.c_[values[::-1], values], 3 * k,
                                                         axis=0), np.roll(cls, k, axis=0))
              for k, (qn, grid) in enumerate([("Z", thermo_grid), ("U", thermo_grid),
                                              ("Zs", superstat_grid), ("Cs", superstat_grid)])]
    lines = render_audit_csv(blocks).split("\n")
    assert lines == [AUDIT_CSV_HEADER] + list(map(_report_line, _rows(blocks))) + [""]
    assert len(lines) == 2 + 4 * 2 * n
    assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
            "1.7976931348623157e+308"} <= {f for line in lines for f in line.split(",")}
    # the JSON text: a value that is not finite is the string the CSV prints,
    # which strict parsers read; every other value keeps its JSON number
    text = render_audit_json(blocks)
    assert text == json.dumps([{k: f"{v:.17g}" if isinstance(v, float) and not math.isfinite(v)
                                else v for k, v in r._asdict().items()} for r in _rows(blocks)],
                              indent=1) + "\n"
    records = json.loads(text, parse_constant=lambda token: pytest.fail(f"not JSON: {token}"))
    assert {"nan", "inf", "-inf"} <= {v for r in records for v in r.values()}


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


def test_trend_result_is_its_verdict_in_a_condition():
    assert bool(trend_check([(1, 1), (2, 2), (3, 3)], "increasing")) is True
    res = trend_check([(1, 1), (2, 3), (3, 2)], "increasing")
    assert bool(res) is False and res.first_violation == 2


def test_trend_energy_curve():
    p = OscillatorParams(alpha=0.9)
    curve = [(n, coefficients(p).level(n)) for n in range(11)]
    assert trend_check(curve, "increasing").passed


def test_trend_validation():
    with pytest.raises(ValueError):
        trend_check([(0, 1), (1, 2)], "increasing")
    with pytest.raises(ValueError):
        trend_check([(0, 1), (0, 2), (1, 3)], "increasing")
    with pytest.raises(ValueError):
        trend_check([(0, 1), (1, 2), (2, 3)], "wiggly")
