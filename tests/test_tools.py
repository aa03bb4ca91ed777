"""The maintenance scripts under tools/."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from pdmosc import OscillatorParams, coefficients, routes

TOOLS = Path(__file__).resolve().parent.parent / "tools"

HEADER = "quantity,alpha,beta,q,transcription,printed,oracle,rel_diff,classification\n"
OLD = HEADER + ("Z,0.1,1,,verbatim,2,2,0,Agree\n"
                "Zs,0.1,1,0.5,verbatim,4,2,1,Disagree\n"
                "Cs,0.1,1,0.5,corrected,nan,1,nan,PrintedNonFinite\n")
NEW = HEADER + ("Z,0.1,1,,verbatim,2,2,0,Agree\n"
                "Zs,0.1,1,0.5,verbatim,2.002,2,0.001,Close\n"
                "Cs,0.1,1,0.5,corrected,nan,1,nan,PrintedNonFinite\n")


def _atlas_diff(tmp_path, old: str, new: str):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return subprocess.run([sys.executable, str(TOOLS / "atlas_diff.py"),
                           str(tmp_path / "old.csv"), str(tmp_path / "new.csv")],
                          capture_output=True, text=True, timeout=60)


def test_atlas_diff_reports_shifts_and_reclassifications(tmp_path):
    # a changed classification on the same grid exits 2
    res = _atlas_diff(tmp_path, OLD, NEW)
    assert res.returncode == 2, res.stderr
    table = res.stdout.split("classification changes")[0].splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in table}
    assert rows[("Z", "verbatim")] == ["0.00e+00", "0.00e+00", "0"]
    assert rows[("Zs", "verbatim")] == ["5.00e-01", "0.00e+00", "1"]
    assert rows[("Cs", "corrected")] == ["0.00e+00", "0.00e+00", "0"]
    assert "classification changes: 1" in res.stdout
    assert "Zs verbatim alpha=0.1 beta=1 q=0.5: Disagree -> Close" in res.stdout


def test_atlas_diff_exits_0_when_no_classification_changed(tmp_path):
    # a printed value moved, its classification did not
    res = _atlas_diff(tmp_path, OLD.replace("Disagree", "Close"), NEW)
    assert res.returncode == 0, res.stderr
    assert "classification changes: 0" in res.stdout
    assert _atlas_diff(tmp_path, OLD, OLD).returncode == 0


def test_atlas_diff_fails_on_different_grids(tmp_path):
    res = _atlas_diff(tmp_path, OLD, NEW.replace("Cs,0.1,1,0.5", "Cs,0.1,2,0.5"))
    assert res.returncode == 1
    assert "different grids" in res.stdout


def test_atlas_diff_counts_a_move_to_or_from_nan_or_an_infinity_as_infinite(tmp_path):
    # such a move has no finite relative measure: its shift is inf, so the
    # worst shift shows it, where a nan shift left the worst at 0
    shift = _tool("atlas_diff").shift
    nan, inf = math.nan, math.inf
    for old, new in [(1.0, nan), (nan, 1.0), (inf, -inf), (-inf, inf), (inf, 1.0), (nan, inf)]:
        assert shift(old, new) == inf, (old, new)
    for old, new in [(nan, nan), (inf, inf), (-inf, -inf), (2.0, 2.0)]:
        assert shift(old, new) == 0.0, (old, new)
    assert shift(1.0, inf) == inf and shift(2.0, 3.0) == 0.5
    for printed in ("nan", "-inf"):
        res = _atlas_diff(tmp_path, OLD.replace("Z,0.1,1,,verbatim,2", "Z,0.1,1,,verbatim,inf"),
                          OLD.replace("Z,0.1,1,,verbatim,2", f"Z,0.1,1,,verbatim,{printed}"))
        assert res.returncode == 0, res.stderr
        rows = {tuple(line.split()[:2]): line.split()[2:]
                for line in res.stdout.split("classification changes")[0].splitlines()}
        assert rows[("Z", "verbatim")] == ["inf", "0.00e+00", "1"], printed


def _tool(name: str):
    """The script tools/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectrum_oracle_levels_are_the_ladders():
    # the arctan-mapped well's eigvalsh levels meet the Poeschl-Teller closed
    # form within 1e-8; that closed form is the ordered ladder
    # a(n + 1/2) + b(n^2 + n + 1/2), and the typeset ladder is its lam' = 1 + a/alpha
    # form, each to a few ulp of the largest term it rounds; the fitted ladders
    # share E_0 and b and differ in L, a + b against a + 2b
    oracle = _tool("spectrum_oracle")
    n = np.arange(oracle.LEVELS, dtype=float)
    for alpha in (0.1, 0.3, 0.6):
        ladders, grid = oracle.ladders(alpha), oracle.grid_levels(alpha)
        assert np.abs(grid - ladders["closed"]).max() <= 1e-8, alpha
        lam = 0.5 + math.sqrt(0.25 + 1.0 / (alpha * alpha))
        ulp = np.spacing(0.5 * alpha * (n + lam + 0.5) ** 2)
        assert (np.abs(ladders["closed"] - ladders["ordered"]) <= 4.0 * ulp).all(), alpha
        assert (np.abs(ladders["typeset"] - ladders["typeset_closed"]) <= 4.0 * ulp).all(), alpha
        c = coefficients(OscillatorParams(alpha=alpha))
        for levels, lin in ((grid, c.a + c.b), (ladders["typeset"], c.a + 2.0 * c.b)):
            fit = oracle.ladder_fit(levels)
            assert np.allclose(fit, (c.energy(0), lin, c.b), rtol=0.0, atol=1e-8), (alpha, fit)
    assert oracle.main(["1.5"]) == 2


def test_cli_snapshot_is_reproducible_and_covers_the_route_table(tmp_path):
    # run from the checkout root, two runs write the same bytes; every
    # ROUTES key is swept and every POINTS pair is a point, the closed ones
    # in both transcriptions
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        res = subprocess.run([sys.executable, str(TOOLS / "cli_snapshot.py"), str(path)],
                             cwd=TOOLS.parent, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()
    records = json.loads(paths[0].read_text())
    assert {tuple(r) for r in records} == {("argv", "exit", "stdout", "stderr")}

    def flag(argv, name):
        return argv[argv.index(name) + 1] if name in argv else None

    swept = {(r["argv"][1], flag(r["argv"], "--method"), flag(r["argv"], "--units"),
              flag(r["argv"], "--transcription"))
             for r in records if r["argv"][0] == "sweep" and r["exit"] == 0}
    pointed = {("thermo" if flag(r["argv"], "--q") is None else "superstat",
                flag(r["argv"], "--method"), flag(r["argv"], "--transcription"))
               for r in records if r["argv"][0] == "point" and r["exit"] == 0}
    both = ("verbatim", "corrected")
    for quantity, method in routes.ROUTES:
        for units in routes.UNITS:
            for tr in both if method == "closed" else (None,):
                assert (quantity, method, units, tr) in swept, (quantity, method, units, tr)
    for family, methods in routes.POINTS.items():
        for method in methods:
            for tr in both if method == "closed" else (None,):
                assert (family, method, tr) in pointed, (family, method, tr)
    exits = {tuple(r["argv"]): r["exit"] for r in records}
    assert exits[("point", "--alpha", "0.3", "--beta=-1")] == 2
    assert exits[("sweep", "Energy", "--vary", "n", "--range", "0,9007199254740993")] == 2
