"""The maintenance scripts under tools/."""

import subprocess
import sys
from pathlib import Path

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
