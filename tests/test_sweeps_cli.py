"""Sweeps, figure presets, and the command-line interface."""

import json
import math

import pytest

from pdmosc import DomainEdge, OscillatorParams, cli, energy_level, routes, superstat, sweeps
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
    # closed form at alpha=0 has b=0: every row degrades to a null + warning
    spec = SweepSpec(quantity="Z", vary="beta", values=(0.5, 1.0, 2.0),
                     fixed={"alpha": 0.0}, method="closed")
    rows = run_sweep(spec)
    assert all(r.y is None and r.warning == "SingularLimit" for r in rows)


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


def test_cli_point_superstat_underflow_exit_2(capsys):
    code = cli.main(["point", "--alpha", "0.3", "--beta", "1e4", "--q", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "underflows" in err and "math domain" not in err


def test_cli_maps_every_package_error(monkeypatch, capsys):
    def edge(*args, **kwargs):
        raise DomainEdge("stencil leaves the positive domain")

    monkeypatch.setattr(superstat, "superstat_thermo", edge)
    assert cli.main(["point", "--beta", "1", "--q", "0.5"]) == 2
    assert "positive domain" in capsys.readouterr().err


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


@pytest.mark.parametrize("quantity,method", sorted(routes.ROUTES))
def test_route_table_sweep_matches_point(quantity, method, capsys):
    # one state, every (quantity, method) the CLI accepts: the sweep row is
    # the field point prints; a superstat point is closed or the engine
    state = ["--alpha", "0.3"] + (["--q", "0.5"] if quantity in routes.SUPERSTAT else [])
    code, out = run_cli(["sweep", quantity, "--vary", "beta", "--range", "2,3",
                         "--method", method] + state, capsys)
    assert code == 0
    swept = out.split("\n")[1].split(",")[1]
    if quantity == "Energy":
        assert float(swept) == energy_level(OscillatorParams(alpha=0.3), 0)
        return
    if quantity in routes.SUPERSTAT and method != "closed":
        method = "engine"
    code, out = run_cli(["point", "--beta", "2", "--method", method] + state, capsys)
    assert code == 0
    printed = _fields(out)[quantity]
    if quantity == "Z" and method != "closed":
        # partition_sum and the engine's exp(g - beta E0), or the quadrature
        # and thermo_from_logZ's exp(ln Z), differ in the last bits
        assert float(swept) == pytest.approx(float(printed), rel=1e-12)
    else:
        assert swept == printed


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
    assert cli.main(["sweep", "Z", "--vary", "beta", "--range", "nonsense"]) == 2


def test_cli_nonconvergence_exit_3(capsys):
    code = cli.main(["sweep", "Z", "--vary", "beta", "--range", "1:2:3",
                     "--alpha", "0.3", "--method", "quadinf",
                     "--tol-rel", "1e-30"])
    assert code == 3


def test_si_units_entropy_scale(capsys):
    # in SI mode S carries kB, putting it on the 1e-24..1e-22 J/K scale
    import pdmosc
    p = pdmosc.OscillatorParams.si(alpha=0.3)
    c = pdmosc.coefficients(p)
    beta = 1.0 / (p.kB * 300.0)  # room temperature
    from pdmosc.thermo import thermo_sum_engine
    pt = thermo_sum_engine(c, beta, p.kB)
    assert 1e-24 < abs(pt.S) < 1e-21
