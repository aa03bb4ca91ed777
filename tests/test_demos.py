"""The narrative demos run end to end against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
