"""Sweeps, figure presets, and the command-line interface."""

import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdmosc import (OscillatorParams, SingularLimit, cli, energy_level, routes, superstat,
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


def test_energy_sweep_increasing():
    spec = SweepSpec(quantity="Energy", vary="n",
                     values=tuple(float(n) for n in range(11)),
                     fixed={"alpha": 0.1})
    rows = run_sweep(spec)
    assert len(rows) == 11
    ys = [r.y for r in rows]
    assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))


def test_z_sweep_decreasing():
    spec = SweepSpec(quantity="Z", vary="beta", values=sweeps.log_range(0.5, 8, 16),
                     fixed={"alpha": 0.3}, method="sum")
    ys = [r.y for r in run_sweep(spec)]
    assert all(y2 < y1 for y1, y2 in zip(ys, ys[1:]))


def test_zs_sweep_finite_positive():
    spec = SweepSpec(quantity="Zs", vary="alpha", values=sweeps.linear_range(0.1, 0.9, 9),
                     fixed={"beta": 1.0, "q": 0.5}, method="quadinf")
    for r in run_sweep(spec):
        assert r.y is not None and math.isfinite(r.y) and r.y > 0


def test_singular_limit_becomes_warning_row():
    # closed form at alpha=0 has b=0: every row degrades to a null + warning,
    # on the thermo and the superstat route's one call over the grid
    for quantity, fixed in (("Z", {}), ("Cs", {"q": 0.5})):
        spec = SweepSpec(quantity=quantity, vary="beta", values=(0.5, 1.0, 2.0),
                         fixed={"alpha": 0.0, **fixed}, method="closed")
        rows = run_sweep(spec)
        assert [r.x for r in rows] == [0.5, 1.0, 2.0]
        assert all(r.y is None and r.warning == "SingularLimit" for r in rows)


_SUM_CURVES = [("beta", (0.1, 0.5, 2.0, 9.0), {"alpha": 0.0}, "natural"),
               ("beta", (0.1, 0.5, 2.0, 9.0), {"alpha": 0.3}, "natural"),
               ("alpha", (0.0, 0.02, 0.3, 0.9), {"beta": 0.1}, "natural"),
               ("alpha", (0.0, 0.02, 0.3, 0.9), {"beta": 2.0}, "natural"),
               ("alpha", (0.0, 0.3), {"beta": 1.0 / (1.380649e-23 * 300.0)}, "si")]


@pytest.mark.parametrize("method", ["sum", "engine"])
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
        rows = run_sweep(spec)
        monkeypatch.undo()
        assert calls == [len(values)]
        for row in rows:
            s = routes.state({**fixed, vary: row.x}, units)
            assert row.y is not None and row.y == routes.ROUTES[(quantity, method)](s)


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
_FIXED = {"alpha": 0.3, "beta": 0.5, "q": 0.5, "n": 2.0}
_CURVE_CASES = [(qn, m, vary) for qn, m in sorted(routes.ROUTES)
                for vary in sweeps.DEPENDS_ON[qn]]


@pytest.mark.parametrize("quantity,method,vary", _CURVE_CASES)
def test_every_route_sweep_row_equals_its_point(quantity, method, vary):
    # one route call per curve (and one more for the regular points of a
    # mixed alpha curve): each row is bit for bit the route at its own
    # routes.state point, and null with SingularLimit exactly where that
    # point raises SingularLimit; in natural units and along an SI alpha
    # curve, with every other parameter the quantity reads fixed
    cases = [({k: v for k, v in _FIXED.items() if k != vary}, "natural")]
    if vary != "alpha":
        cases.append(({**cases[0][0], "alpha": 0.0}, "natural"))
    else:
        cases.append(({"beta": 1.0 / (1.380649e-23 * 300.0), "q": 0.5, "n": 2.0}, "si"))
    route = routes.ROUTES[(quantity, method)]
    reads = sweeps.DEPENDS_ON[quantity]
    cases = [({k: v for k, v in fixed.items() if k in reads}, units) for fixed, units in cases]
    for (fixed, units), tr in itertools.product(cases, thermo.TRANSCRIPTIONS):
        spec = SweepSpec(quantity=quantity, vary=vary, values=_GRIDS[vary], fixed=fixed,
                         method=method, units=units, transcription=tr)
        rows = run_sweep(spec)
        assert [row.x for row in rows] == list(_GRIDS[vary])
        for row in rows:
            s = routes.state({**fixed, vary: row.x}, units, transcription=tr,
                             tol=sweeps.PRESET_TOL)
            try:
                want = route(s)
            except SingularLimit:
                assert row.y is None and row.warning == "SingularLimit"
                continue
            assert type(row.y) is float and row.warning == ""
            assert row.y == want or math.isnan(row.y) and math.isnan(want)


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
            for row, beta in zip(run_sweep(spec), betas):
                s = routes.state({"alpha": alpha, "q": q, "beta": beta}, transcription=tr)
                want = route(s)
                assert type(row.y) is float and row.x == beta
                assert row.y == want or math.isnan(row.y) and math.isnan(want)


def test_csv_rows_print_each_value_as_17_digits():
    # one %.17g template per row; a row holding None goes field by field,
    # None as the empty field
    rows = [(0.5, None, "SingularLimit"), (-0.0, math.inf, ""), (math.nan, -math.inf, "note"),
            (1e-300, 1.0 / 3.0, ""), (2.0, -0.0, "")]

    def reference(row):
        return ",".join("" if v is None else v if isinstance(v, str) else f"{v:.17g}"
                        for v in row)

    text = cli._rows_csv(["beta", "Z", "warning"], "%.17g,%.17g,%s", rows)
    assert text == "\n".join(["beta,Z,warning"] + [reference(r) for r in rows]) + "\n"
    assert text.split("\n")[1:3] == ["0.5,,SingularLimit", "-0,inf,"]
    labelled = [("alpha=0.1",) + row for row in rows]
    text = cli._rows_csv(["curve", "x", "y", "warning"], "%s,%.17g,%.17g,%s", labelled)
    assert text == "\n".join(["curve,x,y,warning"] + [reference(r) for r in labelled]) + "\n"


def test_presets_complete():
    assert len(PRESETS) == 20
    ids = {f"Fig{i}{s}" for i in range(1, 11) for s in "ab"}
    assert set(PRESETS) == ids


def test_figure_preset_shapes():
    rows = figure_preset("Fig1a")
    assert len(rows) == 3 * 11
    labels = {r.curve for r in rows}
    assert labels == {"alpha=0.1", "alpha=0.3", "alpha=0.9"}
    rows = figure_preset("Fig2b")
    assert {r.curve for r in rows} == {"beta=2", "beta=5", "beta=8"}
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
        want += [(label, *row) for row in run_sweep(spec)]
    assert len(want) == len(pr.values) * len(pr.curve_values)
    route, calls = routes.ROUTES[(pr.quantity, pr.method)], []
    monkeypatch.setitem(routes.ROUTES, (pr.quantity, pr.method),
                        lambda s: calls.append(s) or route(s))
    assert [repr(tuple(row)) for row in figure_preset(figure_id)] == list(map(repr, want))
    assert len(calls) == 1
    code, out = run_cli(["figure", figure_id, "--format", "json"], capsys)
    assert code == 0
    assert [repr(tuple(row.values())) for row in json.loads(out)] == list(map(repr, want))


def test_figure_preset_trend_fig2b():
    rows = figure_preset("Fig2b")
    for label in ("beta=2", "beta=5", "beta=8"):
        ys = [r.y for r in rows if r.curve == label]
        assert all(y2 < y1 for y1, y2 in zip(ys, ys[1:]))


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
    # the deformed weight is +0 where (beta E)^2 overflows: the Z_s sweep
    # prints 0, and the point, whose moment rows all integrate to 0, exits 3
    code, out = run_cli(["sweep", "Zs", "--vary", "beta", "--range", "1e154,1e155",
                         "--alpha", "0.3", "--q", "0.5", "--method", "quadinf"], capsys)
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["0", "0"]
    assert cli.main(["point", "--alpha", "0.3", "--beta", "1e155", "--method", "quadinf",
                     "--q", "0.5"]) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", ["1e300", "1e308"])
@pytest.mark.parametrize("family,method", [(f, m) for f, methods in routes.POINTS.items()
                                           for m in methods])
def test_cli_point_where_beta_e_overflows(family, method, beta, capsys):
    # beta E and beta L^2 overflow at 1e308: each such product is a +0
    # weight or a zero 1/y^2, never a warning; every quadrature node has
    # underflowed, so the quadrature points exit 3
    q = ["--q", "0.5"] if family == "superstat" else []
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", beta, "--method", method] + q,
                        capsys)
    assert code == (3 if method.startswith("quad") else 0)
    if family == "thermo" and method in ("sum", "engine"):
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
                                   "--method", "engine"]])
def test_cli_points_where_var_d_overflows_or_g_underflows(argv, capsys):
    # Var D overflows at beta = 1e-200, and the q = 0 engine's G underflows at
    # beta = 1e250: each point prints five finite values, without a warning
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


def test_cli_point_closed_free_energy_where_z_underflows(capsys):
    code, out = run_cli(["point", "--alpha", "0.3", "--beta", "2000", "--method", "closed"],
                        capsys)
    assert code == 0
    fields = _fields(out)
    assert float(fields["Z"]) == 0.0 and math.isfinite(float(fields["F"]))


@pytest.mark.parametrize("flag", ["--method=sum", "--transcription=corrected",
                                  "--units=si", "--b-convention=compact"])
def test_cli_figure_refuses_flags_it_ignores(flag, tmp_path, capsys):
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


@pytest.mark.parametrize("levels", ["0,1.5", "-1,0"])
def test_cli_energy_sweep_rejects_non_levels(levels, capsys):
    # n must be a nonnegative integer, as for energy_level
    assert cli.main(["sweep", "Energy", "--vary", "n", f"--range={levels}"]) == 2
    assert "nonnegative integer" in capsys.readouterr().err


def _fields(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().split("\n"))


@pytest.mark.parametrize("quantity,method",
                         sorted(itertools.product(routes.QUANTITIES, routes.METHODS)))
def test_route_table_sweep_matches_point(quantity, method, capsys):
    # one state, every (quantity, method) the CLI accepts: the sweep row is
    # the field point prints with the same method, bit for bit (Energy,
    # which reads no beta, sweeps n); a pair without a route (superstat
    # quad01) is refused by both with exit 2
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
    code, out = run_cli(sweep + state, capsys)
    assert code == 0
    swept = out.split("\n")[1].split(",")[1]
    if quantity == "Energy":
        assert float(swept) == energy_level(OscillatorParams(alpha=0.3), 0)
        return
    code, out = run_cli(point + state, capsys)
    assert code == 0
    printed = _fields(out)[quantity]
    assert swept == printed


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


def test_cli_invalid_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "Z", "--vary", "volume", "--range", "1:2:3"])
    assert exc.value.code == 2
    for bad in ("nonsense", "log:1:2", "log", "log:1:2:3:4"):
        assert cli.main(["sweep", "Z", "--vary", "beta", "--range", bad]) == 2, bad
    # a tolerance that is not finite certifies nothing
    for flag in (["--tol-rel", "nan"], ["--tol-abs", "inf"]):
        assert cli.main(["point", "--alpha", "0.3", "--method", "quad01"] + flag) == 2, flag


def test_cli_nonconvergence_exit_3(capsys):
    code = cli.main(["sweep", "Z", "--vary", "beta", "--range", "1:2:3",
                     "--alpha", "0.3", "--method", "quadinf",
                     "--tol-rel", "1e-30"])
    assert code == 3


@pytest.mark.parametrize("quantity", ["Z", "C"])
def test_cli_quadinf_sweep_that_never_decays_exits_3(quantity, capsys):
    # SI levels (~1e-20 J) at beta ~ 0.1/J decay only near n ~ 1e20, past
    # n ~ 9e15 where the map n = t/(1-t) runs out of resolution: no row is
    # printed, and no RuntimeWarning (an error under this suite) escapes
    code, out = run_cli(["sweep", quantity, "--vary", "beta", "--range", "0.05,0.5",
                         "--method", "quadinf", "--units", "si"], capsys)
    assert code == 3
    assert out == ""


def test_si_units_entropy_scale(capsys):
    # in SI mode S carries kB, putting it on the 1e-24..1e-22 J/K scale
    import pdmosc
    p = pdmosc.OscillatorParams.si(alpha=0.3)
    c = pdmosc.coefficients(p)
    beta = 1.0 / (p.kB * 300.0)  # room temperature
    from pdmosc.thermo import thermo_sum_engine
    pt = thermo_sum_engine(c, beta, p.kB)
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
     "--b-convention", "compact", "--tol-rel", "1e-9", "--tol-abs", "0"],
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
    if with_config:  # every verb reads --tol-rel, only sweep and point --alpha
        keys = {"tol-rel": "1e-8", **({} if argv[0] in ("figure", "audit") else
                                      {"alpha": "0.7"})}
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
