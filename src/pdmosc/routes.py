"""The route table: the function behind each (quantity, method) pair.

``ROUTES`` maps (quantity, method) to a single-quantity evaluator and
``POINTS`` maps (family, method) to a whole-point builder; both take a
State.  The alias policy lives here only: Energy is the level E_n on every
method; for thermo, ``engine`` is the sum route; for superstat, every
method but ``closed`` is the semi-infinite quadrature (Z_s) or its
derivative engine (U_s, S_s, F_s, C_s).  A quantity uses its own function
where one exists (Z and Z_s on every route, each typeset closed form) and
its field of the whole point otherwise.  Functions are looked up as module
attributes (``thermo.partition_sum``) at call time, so wrappers installed
on the modules are seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    """Every input a route reads at one evaluation point."""

    c: SpectrumCoefficients
    kB: float = 1.0
    beta: float = 1.0
    q: float = 0.0
    n: float = 0
    transcription: str = "verbatim"
    tol: Tolerance = Tolerance()


def state(values: dict, units: str = "natural", b_convention: str = "spectrum",
          transcription: str = "verbatim", tol: Tolerance = Tolerance()) -> State:
    """The State at {alpha, beta, q, n, m0, omega} values; a missing entry
    takes the CLI default, and m0/omega count in SI units only."""
    alpha = float(values.get("alpha", 0.0))
    if units == "si":
        p = OscillatorParams.si(alpha=alpha, **{k: float(values[k])
                                                 for k in ("m0", "omega") if k in values})
    else:
        p = OscillatorParams(alpha=alpha)
    return State(coefficients(p, b_convention), p.kB, values.get("beta", 1.0),
                 values.get("q", 0.0), values.get("n", 0), transcription, tol)


def _quad_point(m: str) -> Callable:
    return lambda s: thermo.thermo_from_logZ(thermo.log_partition(s.c, m, s.tol),
                                             s.beta, s.kB, m)


def _superstat_point(m: str) -> Callable:
    return lambda s: superstat.superstat_thermo(s.c, s.beta, s.q, s.kB, s.tol, method=m,
                                                transcription=s.transcription)


def _sum_point(s: State) -> thermo.ThermoPoint:
    return thermo.thermo_sum_engine(s.c, s.beta, s.kB, s.tol)


def _z_sum(s: State) -> float:
    return thermo.partition_sum(s.c, s.beta, s.tol)


#: family -> method -> builder of the whole point
POINTS: dict[str, dict[str, Callable]] = {
    "thermo": {
        "sum": _sum_point,
        "engine": _sum_point,
        "closed": lambda s: thermo.thermo_closed_point(s.c, s.beta, s.kB, s.transcription),
        "quad01": _quad_point("quad01"),
        "quadinf": _quad_point("quadinf"),
    },
    "superstat": {m: _superstat_point("closed" if m == "closed" else "engine")
                  for m in METHODS},
}

#: (quantity, method) -> evaluator; later entries override earlier ones
ROUTES: dict[tuple[str, str], Callable[[State], float]] = {
    **{(qn, m): (lambda s, build=POINTS[family][m], qn=qn: getattr(build(s), qn))
       for family, quantities in FIELDS.items() for qn in quantities for m in METHODS},
    **{("Energy", m): (lambda s: s.c.level(s.n)) for m in METHODS},
    **{("Zs", m): (lambda s: superstat.superstat_partition_quadrature(s.c, s.beta, s.q, s.tol))
       for m in METHODS},
    ("Z", "sum"): _z_sum,
    ("Z", "engine"): _z_sum,
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
