"""The records' contract (immutable NamedTuples, checked where they check),
and what importing the CLI adds to a cold start.

Run as a script, ``python tests/test_records.py`` checks the cold start of
the pdmosc that a fresh ``python -I`` finds: the installed package.
"""

import subprocess
import sys
from collections.abc import MutableMapping
from pathlib import Path

import numpy as np
import pytest

from pdmosc import (OscillatorParams, QuadratureResult, SpectrumCoefficients, Tolerance,
                    coefficients, routes, superstat_thermo, sweeps, thermo_sum_engine, verify)

SRC = Path(__file__).resolve().parents[1] / "src"

#: a fresh interpreter imports numpy, then the CLI and its parser; it prints
#: the file of pdmosc.cli and the modules that the second step added
_COLD_START = """\
import sys
sys.path[:0] = {path!r}
import numpy
before = set(sys.modules)
import pdmosc.cli
pdmosc.cli.build_parser()
print(pdmosc.cli.__file__)
print(*sorted(set(sys.modules) - before))
"""

#: modules only some commands read, or none: the CLI must not import them to start
_NOT_AT_START = {"dataclasses", "json"}


def cold_start(path: list[str]) -> tuple[str, set[str]]:
    """(pdmosc.cli's file, the modules it and build_parser add to numpy's) in
    a fresh ``python -I`` whose sys.path starts with path.  Against numpy's
    own modules, so that a numpy that imports json or dataclasses itself
    changes nothing."""
    out = subprocess.run([sys.executable, "-I", "-c", _COLD_START.format(path=path)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    cli_file, added = out.split("\n")[:2]
    return cli_file, set(added.split())


def test_cli_cold_start_imports_neither_dataclasses_nor_json():
    cli_file, added = cold_start([str(SRC)])
    assert cli_file.startswith(str(SRC)) and "pdmosc.cli" in added
    assert not added & _NOT_AT_START


_C = coefficients(OscillatorParams(alpha=0.3))

#: record -> an instance built without its defaulted fields
_RECORDS = {
    "Tolerance": Tolerance,
    "QuadratureResult": lambda: QuadratureResult(np.zeros(1), np.zeros(1), np.zeros(1, int)),
    "OscillatorParams": OscillatorParams,
    "SpectrumCoefficients": lambda: SpectrumCoefficients(1.5, 0.5),
    "ThermoPoint": lambda: thermo_sum_engine(_C, 2.0),
    "SuperstatPoint": lambda: superstat_thermo(_C, 2.0, 0.5),
    "State": lambda: routes.State(_C),
    "SweepSpec": lambda: sweeps.SweepSpec("Z", "beta", (1.0, 2.0)),
    "FigurePreset": lambda: sweeps.FigurePreset("Fig", "Z", "beta", (1.0, 2.0), "alpha",
                                                (0.1, 0.3), "sum"),
    "TrendResult": lambda: verify.TrendResult(False, 3),
}

#: record -> (a field, a value it refuses), for each record that checks its fields
_BAD = {"Tolerance": ("rel", -1.0), "OscillatorParams": ("alpha", 1.0),
        "SpectrumCoefficients": ("a", 0.0), "SweepSpec": ("vary", "n")}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_is_an_immutable_checked_named_tuple(name):
    record = _RECORDS[name]()
    kind = type(record)
    assert kind.__name__ == name and record == tuple(record)
    assert not hasattr(record, "__dict__")
    for field in kind._fields[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    if name in _BAD:
        field, bad = _BAD[name]
        with pytest.raises(ValueError):
            kind(*(bad if f == field else v for f, v in zip(kind._fields, record)))
        with pytest.raises(ValueError):
            record._replace(**{field: bad})
    if "fixed" in kind._fields:
        other = _RECORDS[name]()
        assert record.fixed is not other.fixed or not isinstance(record.fixed, MutableMapping)
    if name == "TrendResult":
        assert not record and verify.TrendResult(True)
    if name == "SpectrumCoefficients":
        # the benchmark's tracer replaces the method on this class
        assert "energy" in kind.__dict__


if __name__ == "__main__":
    cli_file, added = cold_start([])
    print(f"pdmosc.cli from {cli_file}")
    sys.exit(f"pdmosc.cli imports {', '.join(sorted(added & _NOT_AT_START))} to start"
             if added & _NOT_AT_START else 0)
