"""Parameter sweeps and figure-reproduction presets.

A sweep evaluates one quantity along a grid of one varied parameter with
the rest held fixed; presets bundle the sweeps behind the source figures
with their quoted parameter values (one curve per fixed-parameter value).
Trends are attached to presets only where mathematically provable.
"""

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .numerics import Tolerance, _Checked
from . import routes

QUANTITIES = routes.QUANTITIES
VARY_CHOICES = ("n", "alpha", "beta", "q")

#: the parameters each quantity reads, the only ones its sweep may vary
DEPENDS_ON = {"Energy": ("n", "alpha"), **dict.fromkeys(routes.THERMO, ("alpha", "beta")),
              **dict.fromkeys(routes.SUPERSTAT, ("alpha", "beta", "q"))}

#: the default tolerance of sweep and point, which only their quadrature routes read
PRESET_TOL = Tolerance(rel=1e-10)

#: the fixed parameters of a sweep or preset that fixes none: read-only, so
#: that the records sharing it cannot change each other's
_NONE_FIXED = MappingProxyType({})


def linear_range(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("count must be at least 2")
    if not np.isfinite(hi - lo):  # an infinite or NaN endpoint, or a span that overflows
        raise ValueError("range endpoints and their span must be finite")
    return tuple(float(x) for x in np.linspace(lo, hi, count))


def log_range(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (0.0 < lo < np.inf and 0.0 < hi < np.inf):
        raise ValueError("log range endpoints must be positive and finite")
    return tuple(float(x) for x in np.geomspace(lo, hi, count))


class _SweepFields(NamedTuple):
    quantity: str
    vary: str
    values: tuple[float, ...]
    fixed: Mapping[str, float] = _NONE_FIXED
    method: str = "sum"
    units: str = "natural"
    transcription: str = "verbatim"


class SweepSpec(_Checked, _SweepFields):
    """One quantity along one varied parameter, everything else fixed."""

    __slots__ = ()

    def _check(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.vary not in VARY_CHOICES:
            raise ValueError(f"unknown vary parameter {self.vary!r}")
        reads = DEPENDS_ON[self.quantity]
        if self.vary not in reads:
            raise ValueError(f"{self.quantity} does not depend on {self.vary!r}")
        ignored = [k for k in self.fixed if k in VARY_CHOICES and k not in reads]
        if ignored:
            raise ValueError(f"{self.quantity} does not read {', '.join(ignored)}; "
                             f"its sweep takes only {', '.join(reads)}")
        if self.vary in self.fixed:
            raise ValueError(f"varied parameter {self.vary!r} also appears in fixed")
        if len(self.values) < 2:
            raise ValueError("sweep needs at least 2 grid values")
        if (self.quantity, self.method) not in routes.ROUTES:
            raise ValueError(f"{self.quantity} has no method {self.method!r}")
        if self.units not in routes.UNITS:
            raise ValueError(f"units must be {' or '.join(map(repr, routes.UNITS))}")


def _evaluate(spec: SweepSpec, values: dict, tol: Tolerance = PRESET_TOL) -> tuple[list, list]:
    """spec's route in one call over a grid (routes.evaluate), values
    holding each varied parameter as an array of one value per point:
    (values, warnings), one of each per point, each value bit for bit the
    route at its own point.  Where a closed form is singular (b <= B_MIN a)
    the value is None with the warning "SingularLimit", not a crash, and
    one more route call evaluates the regular points.  Only the quadrature
    routes read tol, and no preset takes one."""
    ys, regular = routes.evaluate(routes.ROUTES[(spec.quantity, spec.method)], values,
                                  units=spec.units, transcription=spec.transcription, tol=tol)
    size = len(values[spec.vary])
    if regular is None:
        return ys.tolist(), [""] * size
    ys, oks = iter([] if ys is None else ys.tolist()), np.broadcast_to(regular, (size,)).tolist()
    return [next(ys) if ok else None for ok in oks], ["" if ok else "SingularLimit" for ok in oks]


def run_sweep(spec: SweepSpec, tol: Tolerance = PRESET_TOL) -> tuple[list, list, list]:
    """The sweep's columns x, y and warning from one route call over its grid
    (_evaluate), each y bit for bit the route at its own point."""
    xs = np.array(spec.values, dtype=float)
    return (xs.tolist(), *_evaluate(spec, {**spec.fixed, spec.vary: xs}, tol))


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_N_GRID = tuple(float(n) for n in range(11))
_ALPHA_GRID = linear_range(0.02, 0.95, 48)
_BETA_GRID = linear_range(0.1, 10.0, 48)
_ALPHAS3 = (0.1, 0.3, 0.9)
_Q_PRESET = 0.5
_SUPER_BETAS = (0.5, 1.0, 1.5)


class FigurePreset(NamedTuple):
    figure_id: str
    quantity: str
    vary: str
    values: tuple[float, ...]
    curve_param: str
    curve_values: tuple[float, ...]
    method: str
    fixed: Mapping[str, float] = _NONE_FIXED
    trend: str | None = None  # asserted by tests only where provable


PRESETS: dict[str, FigurePreset] = {pr.figure_id: pr for pr in [
    FigurePreset("Fig1a", "Energy", "n", _N_GRID, "alpha", _ALPHAS3, "sum",
                 trend="increasing"),
    FigurePreset("Fig1b", "Energy", "alpha", _ALPHA_GRID, "n", (1.0, 3.0, 5.0), "sum",
                 trend="increasing"),
    FigurePreset("Fig2a", "Z", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
                 trend="decreasing"),
    FigurePreset("Fig2b", "Z", "alpha", _ALPHA_GRID, "beta", (2.0, 5.0, 8.0), "sum",
                 trend="decreasing"),
    FigurePreset("Fig3a", "C", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
                 trend="nonnegative"),
    FigurePreset("Fig3b", "C", "alpha", _ALPHA_GRID, "beta", (0.5, 1.0, 2.0), "sum",
                 trend="nonnegative"),
    FigurePreset("Fig4a", "S", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
                 trend="decreasing"),
    # dS/dalpha = -kB beta^2 Cov(E, dE/dalpha) < 0: E_n and dE_n/dalpha both
    # increase with n, so Chebyshev's association inequality fixes the sign
    FigurePreset("Fig4b", "S", "alpha", _ALPHA_GRID, "beta", (0.2, 0.5, 1.0), "sum",
                 trend="decreasing"),
    FigurePreset("Fig5a", "F", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
                 trend="increasing"),
    FigurePreset("Fig5b", "F", "alpha", _ALPHA_GRID, "beta", (0.2, 0.5, 1.0), "sum",
                 trend="increasing"),
    FigurePreset("Fig6a", "Zs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
                 fixed={"q": _Q_PRESET}, trend="decreasing"),
    FigurePreset("Fig6b", "Zs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
                 fixed={"q": _Q_PRESET}, trend="decreasing"),
    FigurePreset("Fig7a", "Us", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig7b", "Us", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig8a", "Ss", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig8b", "Ss", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig9a", "Fs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig9b", "Fs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig10a", "Cs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
                 fixed={"q": _Q_PRESET}),
    FigurePreset("Fig10b", "Cs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
                 fixed={"q": _Q_PRESET}),
]}

FIGURE_IDS = tuple(PRESETS)


def figure_preset(figure_id: str) -> tuple[list, list, list, list]:
    """One preset's columns: the labels of its curves (one per quoted
    fixed-parameter value), the x grid they share, then y and the warning
    curve-major.  The whole (curve x x) grid is one route call (_evaluate):
    the State holds x tiled over the curves and the curve parameter repeated
    over x, so each curve is bit for bit its own run_sweep."""
    if figure_id not in PRESETS:
        raise ValueError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    pr = PRESETS[figure_id]
    m, k = len(pr.values), len(pr.curve_values)
    spec = SweepSpec(pr.quantity, pr.vary, pr.values, pr.fixed, pr.method)
    ys, warnings = _evaluate(spec, {**pr.fixed, pr.vary: np.tile(pr.values, k),
                                    pr.curve_param: np.repeat(pr.curve_values, m)})
    labels = [f"n={int(cv)}" if pr.curve_param == "n" else f"{pr.curve_param}={cv:g}"
              for cv in pr.curve_values]
    return labels, list(pr.values), ys, warnings
