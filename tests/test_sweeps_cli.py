"""Sweeps, figure presets, and the command-line interface."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import random
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdmosc import (OscillatorParams, SingularLimit, cli, coefficients, routes, superstat,
                    sweeps, thermo)
from pdmosc.sweeps import FigurePreset, PRESETS, SweepSpec, figure_preset, run_sweep


def test_sweepspec_validation():
    with pytest.raises(ValueError):
        SweepSpec(quantity="Q", vary="beta", values=(1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSpec(quantity="Z", vary="beta", values=(1.0, 2.0), fixed={"beta": 1.0})
    with pytest.raises(ValueError):
        SweepSpec(quantity="Z", vary="beta", values=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(quantity="Z", vary="temperature", values=(1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSpec(quantity="U", vary="beta", values=(1.0, 2.0), method="bogus")
    with pytest.raises(ValueError, match="no method 'quad01'"):
        SweepSpec(quantity="Us", vary="beta", values=(1.0, 2.0), method="quad01")
    with pytest.raises(ValueError, match="units must be 'natural' or 'si'"):
        SweepSpec(quantity="Z", vary="beta", values=(1.0, 2.0), units="imperial")
    # routes.state, which builds every State, refuses an entry it does not
    # read and a unit system it does not know, where it once dropped them
    with pytest.raises(ValueError, match="no parameter 'alhpa' in natural units"):
        run_sweep(SweepSpec("Z", "beta", (1.0, 2.0), fixed={"alhpa": 0.3}))
    with pytest.raises(ValueError, match="no parameter 'm0', 'omega' in natural units"):
        routes.state({"alpha": 0.3, "m0": 2.0, "omega": 1.0})
    with pytest.raises(ValueError, match="units must be 'natural' or 'si', not 'SI'"):
        routes.state({"alpha": 0.3}, units="SI")


def test_energy_sweep_increasing():
    spec = SweepSpec(quantity="Energy", vary="n",
                     values=tuple(float(n) for n in range(11)),
                     fixed={"alpha": 0.1})
    _, ys, _ = run_sweep(spec)
    assert len(ys) == 11
    assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))


def test_z_sweep_decreasing():
    spec = SweepSpec(quantity="Z", vary="beta", values=sweeps.log_range(0.5, 8, 16),
                     fixed={"alpha": 0.3}, method="sum")
    _, ys, _ = run_sweep(spec)
    assert all(y2 < y1 for y1, y2 in zip(ys, ys[1:]))


def test_zs_sweep_finite_positive():
    spec = SweepSpec(quantity="Zs", vary="alpha", values=sweeps.linear_range(0.1, 0.9, 9),
                     fixed={"beta": 1.0, "q": 0.5}, method="quadinf")
    for y in run_sweep(spec)[1]:
        assert y is not None and math.isfinite(y) and y > 0


def test_singular_limit_becomes_warning_row():
    # closed form at alpha=0 has b=0: every row degrades to a null + warning,
    # on the thermo and the superstat route's one call over the grid
    for quantity, fixed in (("Z", {}), ("Cs", {"q": 0.5})):
        spec = SweepSpec(quantity=quantity, vary="beta", values=(0.5, 1.0, 2.0),
                         fixed={"alpha": 0.0, **fixed}, method="closed")
        xs, ys, warnings = run_sweep(spec)
        assert xs == [0.5, 1.0, 2.0]
        assert all(y is None and w == "SingularLimit" for y, w in zip(ys, warnings))


_SUM_CURVES = [("beta", (0.1, 0.5, 2.0, 9.0), {"alpha": 0.0}, "natural"),
               ("beta", (0.1, 0.5, 2.0, 9.0), {"alpha": 0.3}, "natural"),
               ("alpha", (0.0, 0.02, 0.3, 0.9), {"beta": 0.1}, "natural"),
               ("alpha", (0.0, 0.02, 0.3, 0.9), {"beta": 2.0}, "natural"),
               ("alpha", (0.0, 0.3), {"beta": 1.0 / (1.380649e-23 * 300.0)}, "si")]


@pytest.mark.parametrize("method", ["sum"])
@pytest.mark.parametrize("quantity", routes.THERMO)
def test_sum_route_sweep_rows_equal_points(quantity, method, monkeypatch):
    # one batched level sum per curve, each row bit for bit the route at its
    # own point, through the geometric series at alpha = 0, the
    # Euler-Maclaurin rows (alpha = 0.02 at beta = 0.1) and the direct levels
    calls = []
    real = thermo._boltzmann_levels
    for vary, values, fixed, units in _SUM_CURVES:
        spec = SweepSpec(quantity=quantity, vary=vary, values=values, fixed=fixed,
                         method=method, units=units)
        calls.clear()
        monkeypatch.setattr(thermo, "_boltzmann_levels",
                            lambda *args: calls.append(len(args[2])) or real(*args))
        xs, ys, _ = run_sweep(spec)
        monkeypatch.undo()
        assert calls == [len(values)]
        for x, y in zip(xs, ys):
            s = routes.state({**fixed, vary: x}, units)
            assert y is not None and y == routes.ROUTES[(quantity, method)](s)


_ORDER_RNG = random.Random(43)
#: (alpha, beta) of the order-limited sum routes: the Euler-Maclaurin rows,
#: the direct levels, their 2^m-scaled branch and beta = 1e300, four seeded
#: betas over [1e-300, 1e300] at each alpha, and the CI's high-temperature
#: sum points
_ORDER_POINTS = [(alpha, beta) for alpha in ("0", "1e-9", "0.02", "0.3", "0.999")
                 for beta in ["0.1", "3", "1e3", "1e300"]
                 + ["%.6g" % 10.0 ** _ORDER_RNG.uniform(-300.0, 300.0) for _ in range(4)]]
_ORDER_POINTS += [("1e-9", "5e-5"), ("0.02", "1e-8")]


@pytest.mark.parametrize("method", ["sum"])
def test_cli_sum_sweeps_print_their_point_fields(method, capsys):
    # each thermo sum route sums only the moment rows its quantity reads, and
    # a sweep of it prints the digits of the field of point --method sum,
    # which sums them all, with the same exit code and message
    for alpha, beta in _ORDER_POINTS:
        code = cli.main(["point", "--alpha", alpha, "--beta", beta, "--method", "sum"])
        out, err = capsys.readouterr()
        fields = dict(line.split("=", 1) for line in out.split())
        for qn in routes.THERMO:
            got = cli.main(["sweep", qn, "--vary", "beta", "--range", f"{beta},{beta}",
                            "--alpha", alpha, "--method", method])
            sweep_out, sweep_err = capsys.readouterr()
            assert (got, sweep_err) == (code, err), (alpha, beta, qn)
            if code == 0:
                row = f"{fields['beta']},{fields[qn]},\n"
                assert sweep_out == f"beta,{qn},warning\n" + 2 * row, (alpha, beta, qn)


@pytest.mark.parametrize("argv", [["Z", "--vary", "q", "--range", "0,0.5", "--alpha", "0.3"],
                                  ["C", "--vary", "n", "--range", "0,1,2"],
                                  ["Us", "--vary", "n", "--range", "0,1,2", "--q", "0.5"],
                                  ["Energy", "--vary", "beta", "--range", "0.5,1,2",
                                   "--alpha", "0.3", "--n", "2"],
                                  ["Energy", "--vary", "q", "--range", "0,0.5"]])
def test_sweep_refuses_a_parameter_the_quantity_does_not_read(argv, capsys):
    # Energy reads n and alpha, thermo quantities alpha and beta, superstat
    # ones also q
    assert cli.main(["sweep"] + argv) == 2
    assert f"{argv[0]} does not depend on '{argv[2]}'" in capsys.readouterr().err


#: the grids of every varied parameter: alpha = 0 is singular for the closed
#: forms, so an alpha curve mixes null and regular rows; past beta = 800
#: the verbatim closed forms overflow; at beta = 0.5 the engine's moments
#: of alpha 0.02 come from the Laguerre rule, of 0.3 and 0.9 from the
#: recurrence
_GRIDS = {"alpha": (0.0, 0.02, 0.3, 0.9), "beta": (0.1, 0.5, 2.0, 9.0, 800.0, 2000.0),
          "q": (0.0, 0.25, 1.0), "n": (0.0, 1.0, 2.0, 5.0)}
#: alpha = 0 again in mid-grid: the retry on the regular points keeps their order
_MID_ZERO_ALPHAS = (0.0, 0.02, 0.3, 0.0, 0.9)
_FIXED = {"alpha": 0.3, "beta": 0.5, "q": 0.5, "n": 2.0}
_CURVE_CASES = [(qn, m, vary) for qn, m in sorted(itertools.product(routes.QUANTITIES,
                                                                    routes.METHODS))
                for vary in sweeps.DEPENDS_ON[qn]]


@pytest.mark.parametrize("quantity,method,vary", _CURVE_CASES)
def test_every_route_sweep_row_equals_its_point(quantity, method, vary):
    # one route call per curve (and one more for the regular points of a
    # mixed alpha curve): each row is bit for bit the route at its own
    # routes.state point, and null with SingularLimit exactly where that
    # point raises SingularLimit; in natural units and along an SI alpha
    # curve, with every other parameter the quantity reads fixed, and along
    # an alpha grid with a zero in mid-grid; a pair without a route (thermo
    # engine, superstat sum and quad01) is refused along every parameter
    if (quantity, method) not in routes.ROUTES:
        with pytest.raises(ValueError, match=f"^{quantity} has no method '{method}'$"):
            SweepSpec(quantity=quantity, vary=vary, values=_GRIDS[vary], method=method)
        return
    cases = [({k: v for k, v in _FIXED.items() if k != vary}, "natural")]
    if vary != "alpha":
        cases.append(({**cases[0][0], "alpha": 0.0}, "natural"))
    else:
        cases.append(({"beta": 1.0 / (1.380649e-23 * 300.0), "q": 0.5, "n": 2.0}, "si"))
    route = routes.ROUTES[(quantity, method)]
    reads = sweeps.DEPENDS_ON[quantity]
    cases = [({k: v for k, v in fixed.items() if k in reads}, units) for fixed, units in cases]
    grids = [_GRIDS[vary]] + ([_MID_ZERO_ALPHAS] if vary == "alpha" else [])
    for (fixed, units), tr, grid in itertools.product(cases, thermo.TRANSCRIPTIONS, grids):
        spec = SweepSpec(quantity=quantity, vary=vary, values=grid, fixed=fixed,
                         method=method, units=units, transcription=tr)
        xs, ys, warnings = run_sweep(spec)
        assert xs == list(grid)
        for x, y, warning in zip(xs, ys, warnings):
            s = routes.state({**fixed, vary: x}, units, transcription=tr,
                             tol=sweeps.SWEEP_TOL)
            try:
                want = route(s)
            except SingularLimit:
                assert y is None and warning == "SingularLimit"
                continue
            assert type(y) is float and warning == ""
            assert y == want or math.isnan(y) and math.isnan(want)


def test_closed_superstat_beta_sweep_matches_points():
    # one closed call over the whole beta grid, thermo and superstat, each
    # row bit for bit the route at its own point: numpy rounds each element
    # alike whatever the array length; past beta = 800 verbatim forms overflow
    betas = sweeps.log_range(0.05, 40.0, 31) + (800.0, 2000.0)
    for alpha, q, tr in [(0.1, 0.5, "verbatim"), (0.3, 1.0, "corrected"), (0.9, 0.0, "verbatim")]:
        for quantity in routes.THERMO + routes.SUPERSTAT:
            fixed = {"alpha": alpha, "q": q} if quantity in routes.SUPERSTAT else {"alpha": alpha}
            spec = SweepSpec(quantity=quantity, vary="beta", values=betas,
                             fixed=fixed, method="closed", transcription=tr)
            route = routes.ROUTES[(quantity, "closed")]
            for x, y, beta in zip(*run_sweep(spec)[:2], betas):
                s = routes.state({"alpha": alpha, "q": q, "beta": beta}, transcription=tr)
                want = route(s)
                assert type(y) is float and x == beta
                assert y == want or math.isnan(y) and math.isnan(want)


def _reference_csv(header: list[str], rows: list[tuple]) -> str:
    """The CSV of rows formatted one row and one field at a time: %.17g for
    a number, a string as it is, None as the empty field."""
    return "\n".join([",".join(header)] + [
        ",".join("" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row)
        for row in rows]) + "\n"


def _reference_json(header: list[str], rows: list[tuple]) -> str:
    """The JSON of rows, one record per row, a float that is not finite as
    its CSV text."""
    return json.dumps([dict(zip(header, (v if not isinstance(v, float) or math.isfinite(v)
                                         else f"{v:.17g}" for v in row))) for row in rows],
                      indent=1, allow_nan=False) + "\n"


def _strict_json(text: str):
    """text parsed as RFC 8259 JSON: NaN, Infinity and -Infinity raise."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def _outputs(argv: list[str], tmp_path, capsys) -> list[str]:
    """argv's CSV and JSON text, each on stdout and through --out."""
    texts = []
    for fmt in ("csv", "json"):
        code, out = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0
        path = tmp_path / f"out.{fmt}"
        assert cli.main(argv + ["--format", fmt, "--out", str(path)]) == 0
        texts += [out, path.read_text()]
    return texts


#: y values the column writer must print as the row-by-row reference does
_EDGE_YS = [None, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
            1.0 / 3.0, 0.0]


def test_csv_rows_print_each_value_as_17_digits(monkeypatch, tmp_path, capsys):
    # the sweep and figure columns print, as CSV and JSON, on stdout and
    # through --out, the bytes of the row-by-row reference: %.17g for a
    # number, None as the empty field (a column holding None is formatted
    # field by field), a value that is not finite as its CSV text in JSON
    for ys in (_EDGE_YS, [y for y in _EDGE_YS if y is not None]):
        xs = [-0.0, 0.5, 5e-324, 1.7976931348623157e308, 1e-300, 2.0, 3.0, 1.0 / 3.0,
              7.0][:len(ys)]
        warnings = ["SingularLimit" if y is None else "" for y in ys]
        monkeypatch.setattr(sweeps, "run_sweep", lambda spec, tol: (xs, ys, warnings))
        rows = list(zip(xs, ys, warnings))
        header = ["beta", "Z", "warning"]
        want = [_reference_csv(header, rows)] * 2 + [_reference_json(header, rows)] * 2
        texts = _outputs(["sweep", "Z", "--vary", "beta", "--range", "1,2"], tmp_path, capsys)
        assert texts == want
        if None in ys:
            assert texts[0].split("\n")[1:3] == ["-0,,SingularLimit", "0.5,-0,"]
        labels = ["alpha=0.1", "alpha=0.3"]
        curves = (labels, xs[:4], ys[:8], warnings[:8])
        monkeypatch.setattr(sweeps, "figure_preset", lambda figure_id: curves)
        rows = [(*row, y, w) for row, y, w in zip(itertools.product(labels, xs[:4]), ys, warnings)]
        header = ["curve", "x", "y", "warning"]
        want = [_reference_csv(header, rows)] * 2 + [_reference_json(header, rows)] * 2
        assert _outputs(["figure", "Fig1a"], tmp_path, capsys) == want


@pytest.mark.parametrize("figure_id", list(PRESETS))
def test_figure_output_is_the_row_by_row_reference(figure_id, tmp_path, capsys):
    # every preset prints, as CSV and JSON, on stdout and through --out, the
    # bytes of its columns formatted row by row
    labels, xs, ys, warnings = figure_preset(figure_id)
    rows = [(*row, y, w) for row, y, w in zip(itertools.product(labels, xs), ys, warnings)]
    header = ["curve", "x", "y", "warning"]
    want = [_reference_csv(header, rows)] * 2 + [_reference_json(header, rows)] * 2
    assert _outputs(["figure", figure_id], tmp_path, capsys) == want
    assert len(_strict_json(want[2])) == len(rows)


@pytest.mark.parametrize("argv,column,texts", [
    (["U", "--vary", "beta", "--range", "10,100,700,2000", "--alpha", "0.9"], "U",
     [None, None, None, "inf"]),
    (["Us", "--vary", "alpha", "--range", "1e-7,0.3", "--beta", "1", "--q", "1"], "Us",
     ["nan", None])])
def test_cli_json_of_non_finite_values_parses_strictly(argv, column, texts, capsys):
    # the typeset forms overflow honestly inside their domain; the JSON
    # carries such a value as the string the CSV prints, not as a bare
    # NaN or Infinity token that RFC 8259 parsers refuse
    argv = ["sweep", *argv, "--method", "closed"]
    code, csv = run_cli(argv, capsys)
    assert code == 0
    printed = [line.split(",")[1] for line in csv.strip().split("\n")[1:]]
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    records = _strict_json(out)
    for record, text, value in zip(records, texts, printed, strict=True):
        if text is None:
            assert type(record[column]) is float and f"{record[column]:.17g}" == value
        else:
            assert record[column] == text == value


def test_presets_complete():
    assert len(PRESETS) == 20
    ids = {f"Fig{i}{s}" for i in range(1, 11) for s in "ab"}
    assert set(PRESETS) == ids


def test_figure_preset_shapes():
    labels, xs, ys, warnings = figure_preset("Fig1a")
    assert len(xs) == 11 and len(ys) == len(warnings) == 3 * 11
    assert labels == ["alpha=0.1", "alpha=0.3", "alpha=0.9"]
    assert figure_preset("Fig2b")[0] == ["beta=2", "beta=5", "beta=8"]
    with pytest.raises(ValueError):
        figure_preset("Fig11a")


@pytest.mark.parametrize("figure_id", list(PRESETS))
def test_figure_preset_rows_equal_one_sweep_per_curve(figure_id, monkeypatch, capsys):
    # a preset is one route call over its whole (curve x x) grid, and each
    # row must be bit for bit the row of its curve's own sweep, as a loop of
    # one run_sweep per curve value builds it; the CLI's JSON carries the
    # same values
    pr = PRESETS[figure_id]
    want = []
    for cv in pr.curve_values:
        label = f"n={int(cv)}" if pr.curve_param == "n" else f"{pr.curve_param}={cv:g}"
        spec = SweepSpec(quantity=pr.quantity, vary=pr.vary, values=pr.values,
                         fixed={**pr.fixed, pr.curve_param: cv}, method=pr.method)
        want += [(label, *row) for row in zip(*run_sweep(spec))]
    assert len(want) == len(pr.values) * len(pr.curve_values)
    route, calls = routes.ROUTES[(pr.quantity, pr.method)], []
    monkeypatch.setitem(routes.ROUTES, (pr.quantity, pr.method),
                        lambda s: calls.append(s) or route(s))
    labels, xs, ys, warnings = figure_preset(figure_id)
    assert len(ys) == len(warnings) == len(labels) * len(xs)
    got = [(*row, y, w) for row, y, w in zip(itertools.product(labels, xs), ys, warnings)]
    assert list(map(repr, got)) == list(map(repr, want))
    assert len(calls) == 1
    code, out = run_cli(["figure", figure_id, "--format", "json"], capsys)
    assert code == 0
    assert [repr(tuple(row.values())) for row in json.loads(out)] == list(map(repr, want))


def test_figure_preset_trend_fig2b():
    labels, xs, ys, _ = figure_preset("Fig2b")
    assert labels == ["beta=2", "beta=5", "beta=8"]
    for j in range(len(labels)):
        curve = ys[j * len(xs):(j + 1) * len(xs)]
        assert all(y2 < y1 for y1, y2 in zip(curve, curve[1:]))


# -- CLI ----------------------------------------------------------------------

def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_point_thermo(capsys):
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "2"], capsys)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert set(fields) == {"beta", "Z", "U", "C", "S", "F", "method"}
    assert fields["method"] == "sum"
    assert float(fields["Z"]) > 0


def test_cli_point_superstat(capsys):
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "1", "--q", "0.5"], capsys)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert set(fields) == {"beta", "q", "Zs", "Us", "Ss", "Fs", "Cs", "method"}


@pytest.mark.parametrize("argv", [["--alpha", "0.3", "--beta", "2"],
                                  ["--alpha", "0.3", "--beta", "1", "--q", "0.5"],
                                  ["--alpha", "0.3", "--beta", "800", "--method", "closed"],
                                  ["--alpha", "0.3", "--beta", "800", "--q", "0.5",
                                   "--method", "closed"]])
def test_cli_point_json_is_its_key_value_lines(argv, tmp_path, capsys):
    # --format json prints one strict-JSON record, on stdout and through
    # --out: the key=value fields in their order, a number as its float, a
    # value that is not finite (the closed forms at beta = 800) as its text
    code, out = run_cli(["point", *argv], capsys)
    assert code == 0
    fields = [line.split("=", 1) for line in out.strip().split("\n")]
    code, text = run_cli(["point", *argv, "--format", "json"], capsys)
    assert code == 0
    path = tmp_path / "point.json"
    assert cli.main(["point", *argv, "--format", "json", "--out", str(path)]) == 0
    assert path.read_text() == text
    records = _strict_json(text)
    assert len(records) == 1 and list(records[0]) == [k for k, _ in fields]
    for (k, v), got in zip(fields, records[0].values()):
        if k == "method" or not math.isfinite(float(v)):
            assert got == v and isinstance(got, str)
        else:
            assert type(got) is float and got == float(v)
    if "closed" in argv:
        assert any(isinstance(v, str) for k, v in records[0].items() if k != "method")


def test_cli_point_closed_overflow_is_a_value(capsys):
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "800", "--method", "closed"],
                        capsys)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert math.isinf(float(fields["C"]))


def test_cli_point_superstat_extreme_beta(capsys):
    # Z_s underflows to 0; the moment engine's other fields stay finite
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "1e4", "--q", "0.5"], capsys)
    assert code == 0
    fields = _fields(out)
    assert float(fields["Zs"]) == 0.0
    assert all(math.isfinite(float(fields[k])) for k in ("Us", "Ss", "Fs", "Cs"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_quadinf_superstat_where_beta_e_squared_overflows(capsys):
    # the deformed weight is +0 where (beta E)^2 overflows, and so is every
    # moment row: the Z_s sweep exits 3 with the point's message, naming
    # its first beta, and prints no row
    message = "pdmosc: numerical non-convergence: moment rows integrate to 0 at beta={}\n"
    assert cli.main(["sweep", "Zs", "--vary", "beta", "--range", "1e154,1e155",
                     "--alpha", "0.3", "--q", "0.5", "--method", "quadinf"]) == 3
    assert capsys.readouterr() == ("", message.format("1e+154"))
    assert cli.main(["point", "--alpha", "0.3", "--beta", "1e155", "--method", "quadinf",
                     "--q", "0.5"]) == 3
    assert capsys.readouterr().err == message.format("1e+155")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", ["1e300", "1e308"])
@pytest.mark.parametrize("family,method", list(itertools.product(routes.POINTS,
                                                                  routes.METHODS)))
def test_cli_point_where_beta_e_overflows(family, method, beta, capsys):
    # beta E and beta L^2 overflow at 1e308: each such product is a +0
    # weight or a zero 1/y^2, never a warning; every quadrature node has
    # underflowed, so the quadrature points exit 3; a method the family has
    # no point for exits 2
    q = ["--q", "0.5"] if family == "superstat" else []
    code = cli.main(["point", "--alpha", "0.3", "--beta", beta, "--method", method] + q)
    out, err = capsys.readouterr()
    if method not in routes.POINTS[family]:
        assert (code, out, err) == (2, "", f"pdmosc: error: {family} points have no method "
                                           f"{method!r}\n")
        return
    assert code == (3 if method.startswith("quad") else 0)
    if family == "thermo" and method == "sum":
        assert {k: _fields(out)[k] for k in routes.THERMO} == dict(
            Z="0", U="0.58059371040391705", C="0", S="0", F="0.58059371040391705")


@pytest.mark.filterwarnings("error")
def test_cli_sum_point_where_beta_l_overflows(capsys):
    # at alpha = 0.9 and beta = 1e308 beta L overflows too: the tail bounds
    # are +0, and the sum route prints the ground state
    code, out = run_cli(["point", "--alpha", "0.9", "--beta", "1e308", "--method", "sum"],
                        capsys)
    assert code == 0
    assert {k: _fields(out)[k] for k in routes.THERMO} == dict(
        Z="0", U="0.77329280498653274", C="0", S="0", F="0.77329280498653274")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--alpha", "0.3", "--beta", "1e-200", "--method", "sum"],
                                  ["--alpha", "0", "--beta", "1e-200", "--method", "sum"],
                                  ["--alpha", "0.3", "--beta", "1e250", "--q", "0",
                                   "--method", "engine"],
                                  ["--alpha", "0.3", "--beta", "1e-152", "--method", "sum"]])
def test_cli_points_where_var_d_overflows_or_g_underflows(argv, capsys):
    # Var D overflows at beta = 1e-200 (and (beta D)^2 nears it at 1e-152),
    # and the q = 0 engine's G underflows at beta = 1e250: each point prints
    # five finite values, without a warning
    code, out = run_cli(["point"] + argv, capsys)
    assert code == 0
    fields = _fields(out)
    names = routes.SUPERSTAT if "--q" in argv else routes.THERMO
    assert all(math.isfinite(float(fields[k])) for k in names)


@pytest.mark.filterwarnings("error")
def test_cli_quadrature_and_engine_points_where_beta_l_overflows(capsys):
    # at alpha = 0.9 and beta = 1e308 beta L overflows: beta meets e^{-u} (a
    # quadrature row) or g0 (the engine's ln G) before L does, so the
    # quadrature points exit 3, as at alpha = 0.3, and the engine prints
    # finite values
    for method in (["quad01"], ["quadinf"], ["quadinf", "--q", "0.5"]):
        assert cli.main(["point", "--alpha", "0.9", "--beta", "1e308", "--method"]
                        + method) == 3
    capsys.readouterr()
    code, out = run_cli(["point", "--alpha", "0.9", "--beta", "1e308", "--method", "engine",
                         "--q", "0.5"], capsys)
    assert code == 0
    fields = _fields(out)
    assert all(math.isfinite(float(fields[k])) for k in routes.SUPERSTAT)
    assert fields["Us"] == fields["Fs"] == "0.77329280498653274"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    (["--alpha", "0.3", "--beta", "1e-310", "--q", "0.5"],
     "F overflows at beta=9.9999999999999694e-311"),
    (["--alpha", "0.3", "--beta", "1e-307", "--q", "0.5"],
     "F overflows at beta=9.9999999999999991e-308"),
    (["--alpha", "0.02", "--beta", "1e-320", "--method", "quad01"],
     "F overflows at beta=9.9998886718268301e-321"),
    (["--alpha", "0.3", "--beta", "1e-310", "--method", "quadinf"],
     "F overflows at beta=9.9999999999999694e-311"),
    (["--alpha", "0", "--beta", "1e-305", "--method", "quadinf"],
     "F overflows at beta=1e-305"),
    (["--alpha", "0.3", "--beta", "1e-110", "--method", "quad01"],
     "moment rows underflow at beta=1.0000000000000001e-110"),
    (["--alpha", "0.3", "--beta", "1e-170", "--method", "quad01"],
     "moment rows underflow at beta=9.9999999999999998e-171"),
    (["--alpha", "0.3", "--beta", "1e-310", "--method", "sum"],
     "F overflows at beta=9.9999999999999694e-311"),
    (["--alpha", "0", "--beta", "1e-310", "--method", "sum"],
     "F overflows at beta=9.9999999999999694e-311"),
    (["--alpha", "0.3", "--beta", "1e6", "--method", "quad01"],
     "moment rows integrate to 0 at beta=1000000"),
    (["--alpha", "0.3", "--beta", "1e6", "--method", "quadinf", "--q", "0.5"],
     "moment rows integrate to 0 at beta=1000000")])
def test_cli_moment_points_where_f_overflows(argv, message, capsys):
    # below beta ~ 1e-306 F overflows: every moment route raises as the sum
    # route does, the quadinf points without a warning from their scale; on
    # [0, 1] the moment rows I_k ~ beta^{k+1} leave the normal range long
    # before (I_2 is 0 at beta = 1e-110), where U and C lose every digit:
    # exit 3 too, as where every quadrature node has underflowed (beta = 1e6)
    assert cli.main(["point"] + argv) == 3
    assert capsys.readouterr().err == f"pdmosc: numerical non-convergence: {message}\n"


#: the exact value of the float 1e200, a level that a float holds; the text
#: 1e200 names 10^200, which no float holds
_LEVEL_1E200 = str(int(1e200))


@pytest.mark.filterwarnings("error")
def test_cli_energy_sweep_where_the_level_overflows(capsys):
    code, out = run_cli(["sweep", "Energy", "--vary", "n", "--range", f"0,{_LEVEL_1E200}",
                         "--alpha", "0.3"], capsys)
    assert code == 0
    assert out.split("\n")[2] == "9.9999999999999997e+199,inf,"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,row", [
    (["--vary", "n", "--range", f"0,{_LEVEL_1E200}", "--alpha", "0"],
     "9.9999999999999997e+199,9.9999999999999997e+199,"),
    (["--vary", "alpha", "--range", "0.1,0.2", "--n", _LEVEL_1E200],
     "0.20000000000000001,inf,")])
def test_cli_energy_sweep_at_alpha_zero_and_past_the_float_range(argv, row, capsys):
    # the quadratic term is 0 at b = 0, also where n^2 overflows, and an int
    # n whose square leaves the float range gives inf, as a float n does
    code, out = run_cli(["sweep", "Energy"] + argv, capsys)
    assert code == 0
    assert out.split("\n")[-2] == row


_SI_TINY_BETA = {
    "thermo": "beta=1.0000000000000001e-290\nZ=2.0709406276088532e+164\n"
              "U=4.9999999999999994e+289\nC=6.9032450000000005e-24\n"
              "S=5.2306157718794289e-21\nF=-3.7835195816456091e+292\nmethod=sum\n",
    "superstat": "beta=1.0000000000000001e-290\nq=0.5\nZs=2.4592419952855137e+164\n"
                 "Us=4.9999999999999986e+289\nSs=5.2329884207331838e-21\n"
                 "Fs=-3.7852380842148754e+292\nCs=6.9032450000000019e-24\nmethod=engine\n"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["thermo", "superstat"])
def test_cli_si_points_where_beta_l_squared_underflows(family, capsys):
    # in SI units beta L^2 underflows below beta ~ 1e-285: 1/y^2 is +inf, and
    # the sum and engine points print their values without a warning; where
    # beta L underflows too (1e-305) the Euler-Maclaurin rows are inf and F
    # overflows
    q = ["--q", "0.5"] if family == "superstat" else []
    method = "engine" if family == "superstat" else "sum"
    argv = ["point", "--alpha", "0.3", "--units", "si", "--method", method] + q
    assert run_cli(argv + ["--beta", "1e-290"], capsys) == (0, _SI_TINY_BETA[family])
    assert cli.main(argv + ["--beta", "1e-305"]) == 3
    assert capsys.readouterr().err == (
        "pdmosc: numerical non-convergence: F overflows at beta=1e-305\n")


def test_cli_si_closed_forms_are_singular(capsys):
    # the CLI's SI oscillator is fixed (electron mass, omega = 1e14 s^-1), so
    # b/a = alpha hbar/(2 m0 omega) < 6e-19 <= B_MIN for every alpha < 1:
    # a closed point exits 2 with the SingularLimit message, and a closed
    # sweep prints only SingularLimit rows
    for q in ([], ["--q", "0.5"]):
        assert cli.main(["point", "--alpha", "0.99", "--beta", "1e20", "--units", "si",
                         "--method", "closed"] + q) == 2
        err = capsys.readouterr().err
        assert err.startswith("pdmosc: error: closed form singular at b/a=5.73")
        assert err.endswith("<= B_MIN=1.000e-08; use the sum route\n")
    for argv in (["Z", "--vary", "beta", "--range", "1e19,1e20,1e21", "--alpha", "0.5"],
                 ["Cs", "--vary", "alpha", "--range", "0,0.5,0.99", "--beta", "1e20",
                  "--q", "0.5", "--transcription", "corrected"]):
        code, out = run_cli(["sweep", *argv, "--units", "si", "--method", "closed"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3 and all(row.endswith(",,SingularLimit") for row in rows)


@pytest.mark.filterwarnings("error")
def test_cli_si_engine_point_at_alpha_zero_and_tiny_beta(capsys):
    # at b = 0, 1/y^2 is 0 however small beta L^2: Z_s = (1 + q)/(beta a),
    # 1.42e305 at beta = 1e-285, and every quantity is finite
    code, out = run_cli(["point", "--alpha", "0", "--beta", "1e-285", "--units", "si",
                         "--q", "0.5"], capsys)
    assert code == 0
    fields = _fields(out)
    assert all(math.isfinite(float(fields[k])) for k in routes.SUPERSTAT)
    a = OscillatorParams.si().hbar * OscillatorParams.si().omega
    assert abs(float(fields["Zs"]) - 1.5 / (1e-285 * a)) <= 1e-15 * float(fields["Zs"])


def test_cli_point_closed_free_energy_where_z_underflows(capsys):
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "2000", "--method", "closed"],
                        capsys)
    assert code == 0
    fields = _fields(out)
    assert float(fields["Z"]) == 0.0 and math.isfinite(float(fields["F"]))


@pytest.mark.parametrize("flag", ["--method=sum", "--transcription=corrected",
                                  "--units=si", "--b-convention=compact",
                                  "--tol-rel=1e-9", "--tol-abs=0"])
def test_cli_figure_refuses_flags_it_ignores(flag, tmp_path, capsys):
    # no preset route reads a tolerance, so figure takes none
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "Fig2a", flag])
    assert exc.value.code == 2
    conf = tmp_path / "figure.conf"
    conf.write_text(flag[2:].replace("=", " = ") + "\n")
    assert cli.main(["figure", "Fig2a", "--config", str(conf)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--method=quadinf", "--method=engine",
                                  "--transcription=corrected", "--units=si",
                                  "--b-convention=compact"])
def test_cli_audit_refuses_flags_it_ignores(flag, capsys):
    # audit reads --method as its thermo oracle basis, closed or sum only
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "Z", "--vary", "beta", "--range", "1,2", "--b-convention", "spectrum"],
    ["point", "--b-convention", "compact"]])
def test_cli_has_one_b_convention(argv, tmp_path, capsys):
    # b = alpha hbar^2/(2 m0) is the only quadratic coefficient: the flag and
    # its config key are refused like any other flag the verb does not read
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --b-convention" in capsys.readouterr().err
    conf = tmp_path / "b.conf"
    conf.write_text(f"b-convention = {argv[-1]}\n")
    assert cli.main(argv[:-2] + ["--config", str(conf)]) == 2
    assert capsys.readouterr().err == "pdmosc: error: unknown config key 'b-convention'\n"


def test_cli_maps_every_package_error(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise SingularLimit("closed form singular at b=0")

    monkeypatch.setattr(superstat, "superstat_thermo", singular)
    assert cli.main(["point", "--beta", "1", "--q", "0.5"]) == 2
    assert "singular at b=0" in capsys.readouterr().err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=0.999),
       log_beta=st.floats(min_value=-4.0, max_value=4.0),
       q=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
       method=st.sampled_from(routes.METHODS),
       transcription=st.sampled_from(("verbatim", "corrected")))
def test_cli_point_exits_cleanly(alpha, log_beta, q, method, transcription):
    """Every point in the documented domain prints, or exits 2 or 3 with a
    message; none raises out of cli.main (exit 1 with a traceback)."""
    argv = ["point", "--alpha", repr(alpha), "--beta", repr(10.0 ** log_beta),
            "--method", method, "--transcription", transcription]
    if q is not None:
        argv += ["--q", repr(q)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 2, 3)


#: the documented domain of each varied parameter
_DOMAIN = {"alpha": st.floats(min_value=0.0, max_value=0.999),
           "beta": st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0 ** e),
           "q": st.floats(min_value=0.0, max_value=1.0),
           "n": st.integers(min_value=0, max_value=20).map(float)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_sweep_exits_cleanly(data):
    """Every sweep in the documented domain prints one row per grid value,
    in grid order, or exits 2 or 3 with a message; none raises out of
    cli.main.  A grid may mix singular and regular closed-form points."""
    quantity = data.draw(st.sampled_from(routes.QUANTITIES))
    method = data.draw(st.sampled_from(routes.METHODS))
    vary = data.draw(st.sampled_from(sweeps.DEPENDS_ON[quantity]))
    grid = data.draw(st.lists(_DOMAIN[vary], min_size=2, max_size=5))
    argv = ["sweep", quantity, "--vary", vary, "--range", ",".join(map(repr, grid)),
            "--method", method]
    for param in sweeps.DEPENDS_ON[quantity]:
        if param != vary:
            value = data.draw(_DOMAIN[param])
            argv += [f"--{param}", repr(int(value) if param == "n" else value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        lines = out.getvalue().strip().split("\n")
        assert [float(line.split(",")[0]) for line in lines[1:]] == grid


def test_cli_sweep_csv(capsys):
    code, out = run_cli(["sweep", "Z", "--vary", "beta", "--range", "log:0.5:8:6",
                         "--alpha", "0.3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "beta,Z,warning"
    assert len(lines) == 7
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(y2 < y1 for y1, y2 in zip(ys, ys[1:]))


def test_cli_sweep_json(capsys):
    code, out = run_cli(["sweep", "Energy", "--vary", "n", "--range", "0,1,2,3",
                         "--alpha", "0.1", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 and rows[0]["n"] == 0.0
    assert rows[3]["Energy"] > rows[0]["Energy"]


@pytest.mark.parametrize("levels", ["0,1.5", "-1,0", "0,9007199254740993",
                                    "0,100000000000000000000000", "0,1e200"])
def test_cli_energy_sweep_rejects_non_levels(levels, capsys):
    # n must be a nonnegative integer, as for SpectrumCoefficients.level, that
    # a float holds: 2^53 + 1 would silently be level 2^53, and 10^23 level
    # 99999999999999991611392, though that float prints as 1e+23; the
    # message names it
    assert cli.main(["sweep", "Energy", "--vary", "n", f"--range={levels}"]) == 2
    err, bad = capsys.readouterr().err, levels.split(",")[levels.startswith("0,")]
    assert "nonnegative integer" in err and repr(bad) in err


@pytest.mark.parametrize("n", ["9007199254740993", "1.5", "-1",
                               "100000000000000000000000", "1e23"])
def test_cli_fixed_level_is_read_as_a_range_level(n, tmp_path, capsys):
    # --n reads its level by the rule --range applies to a varied n: 2^53 + 1,
    # which a float would round to 2^53, and 10^23, whose float is not 10^23
    # though it prints as 1e+23, exit 2 as a flag, as a config key and as a
    # range value, each message naming n
    assert cli.main(["sweep", "Energy", "--vary", "n", "--range", f"0,{n}", "--alpha", "0.3"]) == 2
    assert capsys.readouterr().err == (
        f"pdmosc: error: n must be a nonnegative integer that a float holds, not {n!r}\n")
    conf = tmp_path / "level.conf"
    conf.write_text(f"n = {n}\n")
    argv = ["sweep", "Energy", "--vary", "alpha", "--range", "0.3,0.4"]
    for fixed in (["--n", n], [f"--n={n}"], ["--config", str(conf)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + fixed)
        assert exc.value.code == 2
        assert f"argument --n: invalid _level value: {n!r}" in capsys.readouterr().err
    # a level a float holds prints the rows it printed as an int
    for fixed in (["--n", "5"], ["--n=5.0"]):
        assert run_cli(argv + fixed, capsys) == (0, "alpha,Energy,warning\n"
                                                    "0.29999999999999999,10.886530814443088,\n"
                                                    "0.40000000000000002,12.708921464952065,\n")
    for levels, row in (("0,1e2", "100,1631.6993357911874,"),
                        ("0,9007199254740992", "9007199254740992,1.2169445762191013e+31,")):
        code, out = run_cli(["sweep", "Energy", "--vary", "n", "--range", levels,
                             "--alpha", "0.3"], capsys)
        assert code == 0 and out.split("\n")[2] == row


def test_ranges_refuse_endpoints_numpy_cannot_space():
    # an infinite or NaN endpoint, a span that overflows, or a log endpoint at
    # or below 0 raises ValueError before numpy sees it
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="range endpoints and their span must be finite"):
            sweeps.linear_range(lo, hi, 3)
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (-1.0, -10.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="log range endpoints must be positive and finite"):
            sweeps.log_range(lo, hi, 3)
    assert sweeps.linear_range(-1e307, 1e307, 3) == (-1e307, 0.0, 1e307)
    assert sweeps.log_range(1e-300, 1e300, 3) == (1e-300, 1.0, 1e300)


@pytest.mark.parametrize("count", [1, 0, -3])
def test_ranges_refuse_fewer_than_two_points(count, capsys):
    # a range of fewer than two values raises before numpy spaces it; the
    # CLI exits 2 with its message
    for make, text in ((sweeps.linear_range, f"0:1:{count}"),
                       (sweeps.log_range, f"log:1:2:{count}")):
        with pytest.raises(ValueError, match="count must be at least 2"):
            make(1.0, 2.0, count)
        assert cli.main(["sweep", "Z", "--vary", "beta", f"--range={text}", "--alpha", "0.3"]) == 2
        assert capsys.readouterr().err == "pdmosc: error: count must be at least 2\n"


@pytest.mark.parametrize("text", ["log:-1:1:3", "0:inf:3", "log:1:inf:3", "log:0:1:3"])
def test_cli_sweep_range_endpoints_exit_2(text, capsys):
    # one error line and exit 2, with no numpy warning (RuntimeWarning is an
    # error under pytest), the range given after '=' or as its own token;
    # log:0 and log:-1 get the same message
    want = "log range endpoints must be positive" if text.startswith("log") else "span must be"
    for flag in ([f"--range={text}"], ["--range", text]):
        assert cli.main(["sweep", "Z", "--vary", "beta", *flag, "--alpha", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pdmosc: error:") and want in err


def _fields(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().split("\n"))


@pytest.mark.parametrize("quantity,method",
                         sorted(itertools.product(routes.QUANTITIES, routes.METHODS)))
def test_route_table_sweep_matches_point(quantity, method, capsys):
    # one state, every (quantity, method) the CLI accepts: the sweep row is
    # the field point prints with the same method, bit for bit (Energy,
    # which reads no beta, sweeps n), in both transcriptions on the closed
    # forms; a pair without a route (superstat quad01) is refused by both
    # with exit 2
    state = ["--alpha", "0.3"] + (["--q", "0.5"] if quantity in routes.SUPERSTAT else [])
    grid = ["--vary", "n", "--range", "0,1"] if quantity == "Energy" else \
        ["--vary", "beta", "--range", "2,3"]
    sweep = ["sweep", quantity, *grid, "--method", method]
    point = ["point", "--beta", "2", "--method", method]
    if (quantity, method) not in routes.ROUTES:
        assert cli.main(sweep + state) == 2
        assert cli.main(point + state) == 2
        assert capsys.readouterr().err.count(f"no method {method!r}") == 2
        return
    for tr in thermo.TRANSCRIPTIONS if method == "closed" else ("verbatim",):
        code, out = run_cli(sweep + state + ["--transcription", tr], capsys)
        assert code == 0
        swept = out.split("\n")[1].split(",")[1]
        if quantity == "Energy":
            assert float(swept) == coefficients(OscillatorParams(alpha=0.3)).level(0)
            continue
        code, out = run_cli(point + state + ["--transcription", tr], capsys)
        assert code == 0
        printed = _fields(out)[quantity]
        assert swept == printed


#: error message -> an argv that names the other family's route: each method
#: names one route, so these exit 2 where they once printed that route
_OTHER_FAMILY_METHOD = {
    "superstat points have no method 'sum'": ["point", "--q", "0.5", "--method", "sum"],
    "Zs has no method 'sum'": ["sweep", "Zs", "--vary", "beta", "--range", "1,2", "--q", "0.5",
                               "--method", "sum"],
    "thermo points have no method 'engine'": ["point", "--method", "engine"],
    "Z has no method 'engine'": ["sweep", "Z", "--vary", "beta", "--range", "1,2",
                                 "--method", "engine"]}


@pytest.mark.filterwarnings("error")
def test_each_method_names_one_route(tmp_path, capsys):
    # every POINTS builder's point reports the method it is registered under
    s = routes.state({"alpha": 0.3, "beta": 2.0, "q": 0.5})
    for family, builders in routes.POINTS.items():
        for method, build in builders.items():
            assert build(s).method == method, (family, method)
    # the other family's route name exits 2, as a flag and as a config key
    conf = tmp_path / "method.conf"
    for message, argv in _OTHER_FAMILY_METHOD.items():
        conf.write_text(f"method = {argv[-1]}\n")
        for args in (argv, argv[:-2] + ["--config", str(conf)]):
            assert cli.main(args) == 2
            assert capsys.readouterr() == ("", f"pdmosc: error: {message}\n")
    # without --method, point and sweep take the family's own route, byte for byte
    commands = [(["point", "--alpha", "0.3", "--beta", "2"], "sum"),
                (["point", "--alpha", "0.3", "--beta", "2", "--q", "0.5"], "engine"),
                (["sweep", "Energy", "--vary", "n", "--range", "0,1,2", "--alpha", "0.3"], "sum")]
    commands += [(["sweep", qn, "--vary", "beta", "--range", "0.5,2", "--alpha", "0.3"]
                  + (["--q", "0.5"] if qn in routes.SUPERSTAT else []),
                  "engine" if qn in routes.SUPERSTAT else "sum")
                 for qn in routes.THERMO + routes.SUPERSTAT]
    for (argv, method), fmt in itertools.product(commands, ("csv", "json")):
        named = run_cli(argv + ["--method", method, "--format", fmt], capsys)
        assert named[0] == 0 and run_cli(argv + ["--format", fmt], capsys) == named, argv
        if argv[0] == "point" and fmt == "csv":
            assert named[1].endswith(f"\nmethod={method}\n")


def test_cli_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; each call starts from defaults
    assert cli.build_parser() is cli.build_parser()
    code, out = run_cli(["point", "--beta", "2", "--q", "0.5"], capsys)
    assert code == 0 and "beta=2\n" in out and "q=0.5\n" in out
    code, out = run_cli(["point"], capsys)
    assert code == 0
    fields = _fields(out)
    assert fields["beta"] == "1" and "q" not in fields and fields["method"] == "sum"


def test_cli_sweep_null_rows(capsys):
    code, out = run_cli(["sweep", "Z", "--vary", "beta", "--range", "1:2:3",
                         "--alpha", "0", "--method", "closed"], capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        x, y, warning = line.split(",")
        assert y == "" and warning == "SingularLimit"


def test_cli_figure(capsys, tmp_path):
    out_path = tmp_path / "fig.csv"
    code = cli.main(["figure", "Fig1a", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "curve,x,y,warning"
    assert len(lines) == 1 + 33


def test_cli_determinism(capsys):
    _, out1 = run_cli(["figure", "Fig1b"], capsys)
    _, out2 = run_cli(["figure", "Fig1b"], capsys)
    assert out1 == out2


def test_cli_config_file(tmp_path, capsys):
    conf = tmp_path / "pdmosc.conf"
    conf.write_text("alpha = 0.3\nbeta = 2\n# comment\ntol-rel = 1e-9\n")
    code, out = run_cli(["point", "--config", str(conf)], capsys)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(fields["beta"]) == 2.0
    # flags override the file
    code, out2 = run_cli(["point", "--config", str(conf), "--beta", "4"], capsys)
    fields2 = dict(line.split("=", 1) for line in out2.strip().split("\n"))
    assert float(fields2["beta"]) == 4.0
    assert float(fields2["Z"]) < float(fields["Z"])


def test_cli_flag_at_its_default_beats_config(tmp_path, capsys):
    conf = tmp_path / "pdmosc.conf"
    conf.write_text("beta = 4\n")
    code, out = run_cli(["point", "--config", str(conf), "--beta", "1"], capsys)
    assert code == 0
    assert "beta=1\n" in out


def test_cli_config_values_validated_like_flags(tmp_path, capsys):
    conf = tmp_path / "pdmosc.conf"
    conf.write_text("method = bogus\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["point", "--config", str(conf)])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_bad_config_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("volume = 11\n")
    assert cli.main(["point", "--config", str(conf)]) == 2


def test_cli_config_line_without_equals_exits_2(tmp_path, capsys):
    # a line that is no 'key = value' names the file and its line number
    conf = tmp_path / "bad.conf"
    conf.write_text("# comment\nalpha = 0.3\nbeta 2\n")
    assert cli.main(["point", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"pdmosc: error: {conf}:3: expected 'key = value'\n"


def test_cli_invalid_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "Z", "--vary", "volume", "--range", "1:2:3"])
    assert exc.value.code == 2
    for bad in ("nonsense", "log:1:2", "log", "log:1:2:3:4"):
        assert cli.main(["sweep", "Z", "--vary", "beta", "--range", bad]) == 2, bad
    # a tolerance that is not finite certifies nothing
    for flag in (["--tol-rel", "nan"], ["--tol-abs", "inf"]):
        assert cli.main(["point", "--alpha", "0.3", "--method", "quad01"] + flag) == 2, flag
    # where the closed forms are singular (alpha = 0, alpha ~ 1e-9, SI units)
    # an invalid beta or q is named, not the singularity
    capsys.readouterr()
    beta, q = "beta must be positive and finite", "q must lie in [0, 1]"
    for argv, message in [
            (["sweep", "Z", "--vary", "beta", "--range=-1,2", "--method", "closed"], beta),
            (["sweep", "C", "--vary", "beta", "--range=0,inf", "--method", "closed",
              "--units", "si", "--alpha", "0.5"], beta),
            (["sweep", "Zs", "--vary", "beta", "--range", "1,2", "--q", "2",
              "--method", "closed"], q),
            (["sweep", "U", "--vary", "alpha", "--range=0,1e-9", "--beta=-1",
              "--method", "closed"], beta),
            (["point", "--beta", "nan", "--method", "closed"], beta),
            (["point", "--beta", "1", "--q", "2", "--method", "closed"], q)]:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"pdmosc: error: {message}\n"), argv


def test_cli_nonconvergence_exit_3(capsys):
    # a relative tolerance below double rounding lies below the error floor
    # 50 eps resabs of the first panel: the quadrature stops at once and says
    # so, instead of spending its whole evaluation budget
    code = cli.main(["sweep", "Z", "--vary", "beta", "--range", "1:2:3",
                     "--alpha", "0.3", "--method", "quadinf",
                     "--tol-rel", "1e-30"])
    assert code == 3
    assert "below the roundoff floor" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("quantity", ["Z", "C"])
def test_cli_quadinf_si_sweep_prints_the_continuum(quantity, capsys):
    # SI levels (~1e-20 J) at beta ~ 0.1/J decay only near n ~ 1e20, past
    # n ~ 9e15 where the map n = t/(1-t) runs out of resolution; the moment
    # rows, taken over n = s m, decay within it: both rows are the continuum
    # values of the q = 0 engine to 1e-13
    code, out = run_cli(["sweep", quantity, "--vary", "beta", "--range", "0.05,0.5",
                         "--method", "quadinf", "--units", "si"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [warning for *_, warning in rows] == ["", ""]
    for beta, value, _ in rows:
        s = routes.state({"beta": float(beta)}, units="si")
        want = getattr(routes.POINTS["superstat"]["engine"](s), quantity + "s")
        assert abs(float(value) - want) <= 1e-13 * abs(want), (beta, value, want)


def test_si_units_entropy_scale(capsys):
    # in SI mode S carries kB, putting it on the 1e-24..1e-22 J/K scale
    beta = 1.0 / (OscillatorParams.si().kB * 300.0)  # room temperature
    pt = routes.POINTS["thermo"]["sum"](routes.state({"alpha": 0.3, "beta": beta}, units="si"))
    assert 1e-24 < abs(pt.S) < 1e-21


def test_sweep_spec_refuses_a_fixed_parameter_its_quantity_does_not_read():
    # the spec, not the CLI, refuses a point parameter that would be
    # silently dropped; m0 and omega are read in SI units
    with pytest.raises(ValueError, match="Z does not read q, n; its sweep takes only alpha, beta"):
        SweepSpec("Z", "beta", (1.0, 2.0), fixed={"q": 0.5, "n": 3})
    with pytest.raises(ValueError, match="Energy does not read beta"):
        SweepSpec("Energy", "n", (1.0, 2.0), fixed={"alpha": 0.3, "beta": 2.0})
    SweepSpec("Z", "beta", (1.0, 2.0), fixed={"alpha": 0.3, "m0": 1e-30, "omega": 1e13},
              units="si")


@pytest.mark.parametrize("quantity,flag", [("Z", "--q"), ("C", "--n"), ("Us", "--n"),
                                           ("Cs", "--n"), ("Energy", "--beta"),
                                           ("Energy", "--q")])
def test_sweep_refuses_a_point_flag_its_quantity_does_not_read(quantity, flag, tmp_path,
                                                               capsys):
    # a flag the quantity never reads would be silently dropped: exit 2
    # naming it, whether given on the command line or by the config file
    vary = "n" if quantity == "Energy" else "alpha"
    argv = ["sweep", quantity, "--vary", vary, "--range", "1,2"]
    value = "1" if flag == "--n" else "0.5"
    assert cli.main(argv + [flag, value]) == 2
    assert f"{quantity} does not read {flag[2:]}" in capsys.readouterr().err
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"{flag[2:]} = {value}\n")
    assert cli.main(argv + ["--config", str(conf)]) == 2
    assert f"{quantity} does not read {flag[2:]}" in capsys.readouterr().err


@pytest.mark.parametrize("quantity,flag,value", [("Z", "--beta", "5"), ("Us", "--q", "0.5"),
                                                 ("Energy", "--n", "3")])
def test_sweep_refuses_a_flag_for_the_varied_parameter(quantity, flag, value, capsys):
    # the grid would replace the flag's value without a word: exit 2
    argv = ["sweep", quantity, "--vary", flag[2:], "--range", "1,0.5" if flag == "--q" else "1,2",
            flag, value]
    assert cli.main(argv + (["--alpha", "0.3"] if quantity != "Energy" else [])) == 2
    assert f"varied parameter {flag[2:]!r} also appears in fixed" in capsys.readouterr().err


def test_point_refuses_a_level(tmp_path, capsys):
    # a point reads no level n: --n is no flag of point
    with pytest.raises(SystemExit) as exc:
        cli.main(["point", "--n", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err
    conf = tmp_path / "point.conf"
    conf.write_text("n = 3\n")
    assert cli.main(["point", "--config", str(conf)]) == 2
    assert "unknown config key 'n'" in capsys.readouterr().err


def test_sweep_flag_at_its_default_beats_config(tmp_path, capsys):
    # alpha = 0, the default, given as a flag: the closed forms are singular
    # there, so every row is null, not the config file's alpha = 0.5
    conf = tmp_path / "sweep.conf"
    conf.write_text("alpha = 0.5\nq = 0.5\n")
    argv = ["sweep", "Zs", "--vary", "beta", "--range", "1,2", "--method", "closed",
            "--config", str(conf)]
    code, out = run_cli(argv, capsys)
    assert code == 0 and "SingularLimit" not in out
    code, out = run_cli(argv + ["--alpha", "0"], capsys)
    assert code == 0 and out.count(",,SingularLimit") == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "Zs", "--vary", "beta", "--range", "1,2", "--alpha", "0.3", "--q=0.5",
     "--method", "closed", "--transcription", "corrected", "--format", "json"],
    ["sweep", "Energy", "--vary", "n", "--range", "0:3:4", "--n", "2", "--units", "si",
     "--tol-rel", "1e-9", "--tol-abs", "0"],
    ["figure", "Fig3b", "--out", "fig.csv"],
    ["audit", "--method", "sum"],
    ["point"],
    ["point", "--beta", "2", "--alpha=0.3", "--q", "0.5", "--method", "quadinf"],
])
@pytest.mark.parametrize("with_config", [False, True])
def test_verb_dispatch_parses_as_the_top_level_parser(argv, with_config, tmp_path):
    # the verb's own parser, with the config values put before the command's
    # flags, gives the Namespace of the top-level parser on the same tokens
    expanded = argv
    if with_config:  # every verb reads --format, all but figure --tol-rel, sweep and point --alpha
        keys = {"format": "json", **({} if argv[0] == "figure" else {"tol-rel": "1e-8"}),
                **({} if argv[0] in ("figure", "audit") else {"alpha": "0.7"})}
        conf = tmp_path / "pdmosc.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv = argv + ["--config", str(conf)]
        expanded = argv[:1] + [f"--{k}={v}" for k, v in keys.items()] + argv[1:]
    args = cli.parse_args(argv)
    assert args == cli.build_parser().parse_args(expanded)
    assert args.command == argv[0]


@pytest.mark.parametrize("argv,code,stream,token", [
    ([], 2, "err", "command"),
    (["-h"], 0, "out", "usage: pdmosc"),
    (["bogus"], 2, "err", "'bogus'"),
    (["sweep", "Z", "--vary", "beta", "--range", "1,2", "--bogus"], 2, "err",
     "pdmosc sweep: error: unrecognized arguments: --bogus"),
    (["figure", "Fig2a", "--alpha", "0.3"], 2, "err",
     "pdmosc figure: error: unrecognized arguments: --alpha 0.3"),
])
def test_cli_usage_exits(argv, code, stream, token, capsys):
    # argparse exits: help with 0, a usage error with 2, naming what is wrong
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    assert token in getattr(capsys.readouterr(), stream)


# every flag of each verb (--config aside, which reads a file), with values
# argparse accepts, and tokens it treats otherwise: values that begin with
# '-', bad floats, ints and choices, '--', help and spaces
_COMMON_FLAGS = ["--out", "--format"]
_TOL_FLAGS = ["--tol-rel", "--tol-abs", *_COMMON_FLAGS]
_POINT_FLAGS = ["--alpha", "--beta", "--q", "--method", "--transcription", "--units",
                *_TOL_FLAGS]
_VERB_FLAGS = {"sweep": ["--vary", "--range", "--n", *_POINT_FLAGS], "point": _POINT_FLAGS,
               "figure": _COMMON_FLAGS, "audit": ["--method", *_TOL_FLAGS]}
_POSITIONALS = {"sweep": list(sweeps.QUANTITIES), "figure": list(sweeps.FIGURE_IDS),
                "audit": [], "point": []}
_FLAG_VALUES = {"--alpha": ["0.3", "0", "1e-3", "nan"], "--beta": ["2", "1e308"],
                "--q": ["0.5", "0"], "--n": ["3", "0"], "--tol-rel": ["1e-9"],
                "--tol-abs": ["0", "1e-30"], "--out": ["o.csv", ""],
                "--method": list(routes.METHODS), "--transcription": ["verbatim", "corrected"],
                "--units": ["natural", "si"],
                "--format": ["csv", "json"], "--vary": list(sweeps.VARY_CHOICES),
                "--range": ["1,2", "log:0.5:8:16"]}
_ODD_VALUES = ["-1", "-0.5", "x", "", "1.5", "bogus", "-", "--", "-h", "--alpha", "a b"]


@st.composite
def _verb_argv(draw):
    """A verb and its tokens in token groups drawn in any order: the
    positional and required flags (each mostly present), then a few of:
    a flag of the verb or of another verb, with a value, as '--flag value'
    or '--flag=value'; an abbreviated flag; a flag without its value; an
    extra positional; -h, --help or '--'."""
    verb = draw(st.sampled_from(sorted(_VERB_FLAGS)))
    own = _VERB_FLAGS[verb]

    def value(flag):
        return draw(st.sampled_from(_FLAG_VALUES[flag] if draw(st.integers(0, 9)) else
                                    _ODD_VALUES))

    def given(flag, name=None):
        v = value(flag)
        return [f"{name or flag}={v}"] if draw(st.booleans()) else [name or flag, v]

    groups = [[draw(st.sampled_from(_POSITIONALS[verb] + ["bogus"]))]
              for _ in range(_POSITIONALS[verb] != [] and draw(st.integers(0, 19)) > 0)]
    groups += [given(flag) for flag in own[:2] if verb == "sweep" and draw(st.integers(0, 19))]
    for kind in draw(st.lists(st.integers(0, 19), max_size=5)):
        flag = draw(st.sampled_from(own if kind < 16 else list(_FLAG_VALUES)))
        if kind < 17:
            groups.append(given(flag))
        elif kind == 17:
            groups.append(given(flag, flag[:draw(st.integers(3, max(3, len(flag) - 1)))]))
        elif kind == 18:
            groups.append([flag])
        else:
            groups.append([draw(st.sampled_from(["-h", "--help", "--", "extra",
                                                 *_POSITIONALS[verb][:2]]))])
    return [verb, *itertools.chain.from_iterable(draw(st.permutations(groups)))]


def _outcome(parse, argv):
    """(the Namespace's sorted items as text, or None; exit code or None;
    stdout; stderr) of parse(argv).  The text tells 3 from 3.0 and equals
    itself where a value is nan."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(sorted(vars(parse(argv)).items())), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=_verb_argv())
def test_one_pass_reader_parses_as_argparse(argv):
    # the Namespace of the top-level parser, or its exit code, help and
    # message; unrecognized arguments alone are reported under the verb's
    # usage and name, as the verb's own parser reports them
    got, top = _outcome(cli.parse_args, argv), _outcome(cli.build_parser().parse_args, argv)
    assert got[:3] == top[:3]
    if got[3] != top[3]:
        message = top[3].rsplit("pdmosc: error: ", 1)[1]
        assert message.startswith("unrecognized arguments: ")
        assert got[3].endswith(f"pdmosc {argv[0]}: error: {message}")


def _closed_sweep_argvs() -> list[list[str]]:
    """One `sweep <Q> --vary beta --method closed` per (quantity, alpha, q,
    transcription) of the atlas fixture, spelled as the closed-sweep
    benchmark workload spells it."""
    groups = {}
    with open(Path(__file__).parent / "fixtures" / "audit_atlas.csv") as fh:
        for quantity, alpha, beta, q, tr, *_ in itertools.islice(csv.reader(fh), 1, None):
            groups.setdefault((quantity, alpha, q, tr), []).append(repr(float(beta)))
    return [["sweep", quantity, "--vary", "beta", "--range", ",".join(betas),
             "--alpha", repr(float(alpha)), "--method", "closed", "--transcription", tr]
            + (["--q", repr(float(q))] if q else [])
            for (quantity, alpha, q, tr), betas in groups.items()]


def _readme_argvs() -> list[list[str]]:
    """The commands of the README's CLI examples, without 'pdmosc'."""
    block = (Path(__file__).parents[1] / "README.md").read_text().split("## CLI", 1)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.split("```")[1].splitlines() if line.startswith("pdmosc ")]


@pytest.fixture
def verb_parses(monkeypatch):
    """The prog of each parser whose parse_args or parse_known_args runs."""
    calls = []
    for name in ("parse_args", "parse_known_args"):
        method = getattr(argparse.ArgumentParser, name)
        monkeypatch.setattr(cli._Parser, name, lambda self, *a, _method=method, **k:
                            calls.append(self.prog) or _method(self, *a, **k))
    return calls


def test_well_formed_commands_are_read_without_argparse(tmp_path, verb_parses):
    # the closed-sweep workload, the README examples and a --config run are
    # read in one pass; a silent fall-back to argparse fails here
    conf = tmp_path / "pdmosc.conf"
    conf.write_text("alpha = 0.3\ntol-rel = 1e-9\n")
    closed, examples = _closed_sweep_argvs(), _readme_argvs()
    assert len(closed) == 180 and len(examples) >= 8
    argvs = closed + examples
    for argv in argvs + [["point", "--config", str(conf), "--beta", "2"]]:
        args = cli.parse_args(argv)
        assert verb_parses == [], argv
    assert (args.alpha, args.beta, args.tol_rel) == (0.3, 2.0, 1e-9)
    assert [cli.parse_args(argv) for argv in argvs] == [
        cli.build_parser().parse_args(argv) for argv in argvs]


@pytest.mark.parametrize("argv,code", [
    (["point", "-h"], 0),
    (["sweep", "Z", "--vary", "beta", "--range", "1,2", "--alp", "0.3"], None),
    (["point", "--alpha", "-0.3"], None),
    (["point", "--method", "bogus"], 2),
])
def test_help_abbreviations_and_errors_go_to_argparse(argv, code, verb_parses):
    # argparse reads these: it prints help, accepts an abbreviated flag or
    # a value that begins with '-', and reports a bad choice
    outcome = _outcome(cli.parse_args, argv)
    assert outcome[1] == code
    assert f"pdmosc {argv[0]}" in verb_parses
    if code is None:
        assert outcome == _outcome(cli.build_parser().parse_args, argv)
