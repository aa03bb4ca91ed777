"""The route table: the function behind each (quantity, method) pair.

``ROUTES`` maps (quantity, method) to a single-quantity evaluator and
``POINTS`` maps (family, method) to a whole-point builder; both take a
State.  The alias policy lives here only: Energy is the level E_n on every
method; for thermo, ``engine`` is the sum route; for superstat, ``sum``
is the moment engine, ``quadinf`` the batched semi-infinite quadrature,
and ``quad01`` has no route (a pair missing from the table is refused).
A quantity uses its own function where one exists (Z on ``quad01`` and
``quadinf``, Z_s on ``quadinf``, each typeset closed form) and its field of
the whole point otherwise.  Every route evaluates a whole curve in one
call, or a figure's whole (curve x x) grid: from a State that holds each
varied parameter as an array of one value per point it returns the array
of the values, each bit for bit the route at its own point.  Functions are
looked up as module attributes (``thermo.thermo_sum_engine``) at call
time, so wrappers installed on the modules are seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import Tolerance
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients
from . import superstat, thermo

THERMO = ("Z", "U", "C", "S", "F")
SUPERSTAT = ("Zs", "Us", "Ss", "Fs", "Cs")
QUANTITIES = ("Energy",) + THERMO + SUPERSTAT
METHODS = ("sum", "closed", "quad01", "quadinf", "engine")
#: family -> the quantities its whole point carries
FIELDS = {"thermo": THERMO, "superstat": SUPERSTAT}


@dataclass(frozen=True)
class State:
    """Every input a route reads at one evaluation point, or along one
    curve, where the coefficients, beta, q or n hold a value per point."""

    c: SpectrumCoefficients
    kB: float = 1.0
    beta: float | np.ndarray = 1.0
    q: float | np.ndarray = 0.0
    n: float | np.ndarray = 0
    transcription: str = "verbatim"
    tol: Tolerance = Tolerance()


def state(values: dict, units: str = "natural", b_convention: str = "spectrum",
          transcription: str = "verbatim", tol: Tolerance = Tolerance()) -> State:
    """The State at {alpha, beta, q, n, m0, omega} values; a missing entry
    takes the CLI default, and m0/omega count in SI units only.  The State
    of a curve, or of a whole (curve x x) grid, holds each varied parameter
    as an array of one value per point, all of equal length; an alpha array
    gives coefficient arrays from one coefficients call."""
    alpha = values.get("alpha", 0.0)
    alpha = alpha if isinstance(alpha, np.ndarray) else float(alpha)
    if units == "si":
        p = OscillatorParams.si(alpha=alpha, **{k: float(values[k]) for k in
                                                ("m0", "omega") if k in values})
    else:
        p = OscillatorParams(alpha=alpha)
    return State(coefficients(p, b_convention), p.kB, values.get("beta", 1.0),
                 values.get("q", 0.0), values.get("n", 0), transcription, tol)


def _superstat_point(m: str) -> Callable:
    return lambda s: superstat.superstat_thermo(s.c, s.beta, s.q, s.kB, s.tol, method=m,
                                                transcription=s.transcription)


def _sum_point(s: State) -> thermo.ThermoPoint:
    return thermo.thermo_sum_engine(s.c, s.beta, s.kB)


#: family -> method -> builder of the whole point
POINTS: dict[str, dict[str, Callable]] = {
    "thermo": {
        "sum": _sum_point,
        "engine": _sum_point,
        "closed": lambda s: thermo.thermo_closed_point(s.c, s.beta, s.kB, s.transcription),
        **{m: (lambda s, m=m: thermo.thermo_quadrature(s.c, s.beta, m, s.kB, s.tol))
           for m in ("quad01", "quadinf")},
    },
    "superstat": {"sum": _superstat_point("engine"),
                  **{m: _superstat_point(m) for m in ("engine", "quadinf", "closed")}},
}

#: (quantity, method) -> evaluator; later entries override earlier ones
ROUTES: dict[tuple[str, str], Callable[[State], float | np.ndarray]] = {
    **{(qn, m): (lambda s, build=build, qn=qn: getattr(build(s), qn))
       for family, quantities in FIELDS.items() for qn in quantities
       for m, build in POINTS[family].items()},
    **{("Energy", m): (lambda s: s.c.level(s.n)) for m in METHODS},
    # bit for bit the Z_s of the quadinf point, without its moment rows
    ("Zs", "quadinf"):
        lambda s: superstat.superstat_partition_quadrature(s.c, s.beta, s.q, s.tol),
    **{("Z", m): (lambda s, m=m: thermo.partition_quadrature(s.c, s.beta, m, s.tol))
       for m in ("quad01", "quadinf")},
    ("Z", "closed"): lambda s: thermo.partition_closed(s.c, s.beta),
    ("U", "closed"): lambda s: thermo.mean_energy_closed(s.c, s.beta, s.transcription),
    ("C", "closed"): lambda s: thermo.heat_capacity_closed(s.c, s.beta, s.kB, s.transcription),
    ("S", "closed"): lambda s: thermo.entropy_closed(s.c, s.beta, s.kB, s.transcription),
    ("F", "closed"): lambda s: thermo.free_energy_closed(s.c, s.beta),
    ("Zs", "closed"):
        lambda s: superstat.superstat_partition_closed(s.c, s.beta, s.q, s.transcription),
    ("Us", "closed"):
        lambda s: superstat.mean_energy_superstat_closed(s.c, s.beta, s.q, s.transcription),
    ("Ss", "closed"):
        lambda s: superstat.entropy_superstat_closed(s.c, s.beta, s.q, s.kB, s.transcription),
    ("Fs", "closed"):
        lambda s: superstat.free_energy_superstat_closed(s.c, s.beta, s.q, s.transcription),
    ("Cs", "closed"): lambda s: superstat.heat_capacity_superstat_closed(
        s.c, s.beta, s.q, s.kB, s.transcription),
}
