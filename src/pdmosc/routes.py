"""The route table: the function behind each (quantity, method) pair.

``ROUTES`` maps (quantity, method) to a single-quantity evaluator and
``POINTS`` maps (family, method) to a whole-point builder; both take a
State.  The alias policy lives here only: Energy is the level E_n on every
method; for thermo, ``engine`` is the sum route; for superstat, ``sum``
is the moment engine, ``quadinf`` the batched semi-infinite quadrature,
and ``quad01`` has no route (a pair missing from the table is refused).
Each typeset closed form uses its own function (F and F_s, typeset as
-ln Z/beta, divide the closed ln Z and ln Z_s by beta), and every other
quantity is its field of the whole point.  Every route evaluates a whole
curve in one call, or a figure's whole (curve x x) grid: from a State that
holds each varied parameter as an array of one value per point it returns
the array of the values, each bit for bit the route at its own point.
Every State comes from ``state``, and ``evaluate`` runs a builder on one,
calling it again on the regular alphas where the closed forms are singular.
Functions are looked up as module attributes (``thermo.thermo_sum_engine``)
at call time, so wrappers installed on the modules are seen.
The kernels give C and S (C_s, S_s) in units of kB: each POINTS builder and
each closed C/S route multiplies them by State.kB once, the one place the
unit system meets them (1.0 in natural units, so their bits stay).
"""

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import SingularLimit
from .numerics import Tolerance
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients
from . import superstat, thermo

THERMO = ("Z", "U", "C", "S", "F")
SUPERSTAT = ("Zs", "Us", "Ss", "Fs", "Cs")
QUANTITIES = ("Energy",) + THERMO + SUPERSTAT
METHODS = ("sum", "closed", "quad01", "quadinf", "engine")
UNITS = ("natural", "si")
#: family -> the quantities its whole point carries
FIELDS = {"thermo": THERMO, "superstat": SUPERSTAT}


class State(NamedTuple):
    """Every input a route reads at one evaluation point, or on a grid,
    where the coefficients, beta, q or n hold a value per point (built by
    state).  transcription may hold the pair thermo.TRANSCRIPTIONS for the
    'closed' POINTS builders, whose quantities then hold a trailing
    transcription axis."""

    c: SpectrumCoefficients
    kB: float = 1.0
    beta: float | np.ndarray = 1.0
    q: float | np.ndarray = 0.0
    n: float | np.ndarray = 0
    transcription: str | tuple[str, str] = "verbatim"
    tol: Tolerance = Tolerance()


def state(values: dict, units: str = "natural", transcription: str | tuple[str, str] = "verbatim",
          tol: Tolerance = Tolerance()) -> State:
    """The State at {alpha, beta, q, n, m0, omega} values; a missing entry
    takes the CLI default, and m0/omega count in SI units only.  Arrays
    broadcast together: a curve, or a whole (curve x x) grid, holds each
    varied parameter as an array of one value per point, all of equal
    length, and the audit holds alpha shaped (A, 1) against a beta array or
    (A, 1, 1) against a beta x q mesh.  An alpha array gives coefficient
    arrays from one coefficients call.  transcription may be the pair
    thermo.TRANSCRIPTIONS (see State).  Unread entries and unknown units raise ValueError."""
    if units not in UNITS:
        raise ValueError(f"units must be {' or '.join(map(repr, UNITS))}, not {units!r}")
    unread = set(values) - {"alpha", "beta", "q", "n", *(("m0", "omega") if units == "si" else ())}
    if unread:
        raise ValueError(f"no parameter {', '.join(map(repr, sorted(unread)))} in {units} units")
    alpha = values.get("alpha", 0.0)
    alpha = alpha if isinstance(alpha, np.ndarray) else float(alpha)
    if units == "si":
        p = OscillatorParams.si(alpha=alpha, **{k: float(values[k]) for k in
                                                ("m0", "omega") if k in values})
    else:
        p = OscillatorParams(alpha=alpha)
    return State(coefficients(p), p.kB, values.get("beta", 1.0),
                 values.get("q", 0.0), values.get("n", 0), transcription, tol)


def evaluate(build: Callable, values: dict, **settings) -> tuple[object, np.ndarray | None]:
    """build (a ROUTES evaluator or a POINTS builder) on state(values,
    **settings), as (its result, None).  Where the closed forms are
    singular (SingularLimit marks the alphas with b <= B_MIN a) it is
    (build on the regular alphas, or None if there is none, and their bool
    mask along alpha's leading axis): that one more call indexes alpha, and
    every array with as many axes, with the mask; an array of fewer axes
    broadcasts against alpha's trailing axes and stays whole."""
    try:
        return build(state(values, **settings)), None
    except SingularLimit as exc:
        regular = np.reshape(np.logical_not(exc.singular), -1)
    if not regular.any():
        return None, regular
    ndim = np.ndim(values["alpha"])
    return build(state({k: v[regular] if np.ndim(v) == ndim else v
                        for k, v in values.items()}, **settings)), regular


def _in_kb(kernel: Callable, s: State):
    """kernel's point at s, its C and S (or C_s and S_s) multiplied by s.kB."""
    point = kernel(s)
    return point._replace(**{f: s.kB * getattr(point, f) for f in ("C", "S", "Cs", "Ss")
                             if hasattr(point, f)})


#: family -> method -> kernel of the whole point
_KERNELS: dict[str, dict[str, Callable]] = {
    "thermo": {
        **dict.fromkeys(("sum", "engine"), lambda s: thermo.thermo_sum_engine(s.c, s.beta)),
        "closed": lambda s: thermo.thermo_closed_point(s.c, s.beta, s.transcription),
        **{m: (lambda s, m=m: thermo.thermo_quadrature(s.c, s.beta, m, s.tol))
           for m in ("quad01", "quadinf")},
    },
    "superstat": {
        **dict.fromkeys(("sum", "engine"), lambda s: superstat.superstat_thermo(s.c, s.beta, s.q)),
        "quadinf": lambda s: superstat.superstat_quadrature(s.c, s.beta, s.q, s.tol),
        "closed": lambda s: superstat.superstat_closed_point(s.c, s.beta, s.q, s.transcription),
    },
}

#: family -> method -> builder of the whole point: its kernel, C and S times State.kB
POINTS: dict[str, dict[str, Callable]] = {
    family: {m: partial(_in_kb, kernel) for m, kernel in kernels.items()}
    for family, kernels in _KERNELS.items()}

#: -ln Z/beta overflows at the smallest betas (F_s below beta ~ 1e-305), as the
#: kernels do, silently; an errstate apart from the one the ln Z forms enter
_overflow_ok = np.errstate(over="ignore")

#: (quantity, method) -> evaluator: a field of the whole point, but for the
#: level and the closed forms, each its own function
ROUTES: dict[tuple[str, str], Callable[[State], float | np.ndarray]] = {
    **{(qn, m): (lambda s, build=build, qn=qn: getattr(build(s), qn))
       for family, quantities in FIELDS.items() for qn in quantities
       for m, build in POINTS[family].items() if m != "closed"},
    **{("Energy", m): (lambda s: s.c.level(s.n)) for m in METHODS},
    ("Z", "closed"): lambda s: thermo.partition_closed(s.c, s.beta),
    ("U", "closed"): lambda s: thermo.mean_energy_closed(s.c, s.beta, s.transcription),
    ("C", "closed"): lambda s: s.kB * thermo.heat_capacity_closed(s.c, s.beta, s.transcription),
    ("S", "closed"): lambda s: s.kB * thermo.entropy_closed(s.c, s.beta, s.transcription),
    ("F", "closed"): _overflow_ok(lambda s: -thermo.log_partition_closed(s.c, s.beta) / s.beta),
    ("Zs", "closed"):
        lambda s: superstat.superstat_partition_closed(s.c, s.beta, s.q, s.transcription),
    ("Us", "closed"):
        lambda s: superstat.mean_energy_superstat_closed(s.c, s.beta, s.q, s.transcription),
    ("Ss", "closed"):
        lambda s: s.kB * superstat.entropy_superstat_closed(s.c, s.beta, s.q, s.transcription),
    ("Fs", "closed"): _overflow_ok(lambda s: -superstat.log_superstat_partition_closed(
        s.c, s.beta, s.q, s.transcription) / s.beta),
    ("Cs", "closed"): lambda s: s.kB * superstat.heat_capacity_superstat_closed(
        s.c, s.beta, s.q, s.transcription),
}
