"""Parameter sweeps and figure-reproduction presets.

A sweep evaluates one quantity along a grid of one varied parameter with
the rest held fixed; presets bundle the sweeps behind the source figures
with their quoted parameter values (one curve per fixed-parameter value).
Trends are attached to presets only where mathematically provable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularLimit
from .numerics import Tolerance
from . import routes

QUANTITIES = routes.QUANTITIES
VARY_CHOICES = ("n", "alpha", "beta", "q")

#: the parameters each thermo and superstat quantity reads, the only ones
#: its sweep may vary (Energy may vary any)
DEPENDS_ON = {**dict.fromkeys(routes.THERMO, ("alpha", "beta")),
              **dict.fromkeys(routes.SUPERSTAT, ("alpha", "beta", "q"))}

#: default sweep/preset tolerance; plots do not need 1e-12
PRESET_TOL = Tolerance(rel=1e-10, abs=0.0, max_evals=400_000)


def linear_range(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("count must be at least 2")
    return tuple(float(x) for x in np.linspace(lo, hi, count))


def log_range(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("count must be at least 2")
    return tuple(float(x) for x in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class SweepSpec:
    """One quantity along one varied parameter, everything else fixed."""

    quantity: str
    vary: str
    values: tuple[float, ...]
    fixed: dict = field(default_factory=dict)
    method: str = "sum"
    units: str = "natural"
    transcription: str = "verbatim"
    b_convention: str = "spectrum"

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.vary not in VARY_CHOICES:
            raise ValueError(f"unknown vary parameter {self.vary!r}")
        if self.vary not in DEPENDS_ON.get(self.quantity, VARY_CHOICES):
            raise ValueError(f"{self.quantity} does not depend on {self.vary!r}")
        if self.vary in self.fixed:
            raise ValueError(f"varied parameter {self.vary!r} also appears in fixed")
        if len(self.values) < 2:
            raise ValueError("sweep needs at least 2 grid values")
        if (self.quantity, self.method) not in routes.ROUTES:
            raise ValueError(f"{self.quantity} has no method {self.method!r}")
        if self.units not in ("natural", "si"):
            raise ValueError("units must be 'natural' or 'si'")


@dataclass(frozen=True)
class SweepRow:
    x: float
    y: float | None
    warning: str = ""


def run_sweep(spec: SweepSpec, tol: Tolerance = PRESET_TOL) -> list[SweepRow]:
    """Evaluate the sweep; a SingularLimit at one grid point becomes a null
    row with a warning instead of a crash.  A curve that routes.CURVES
    covers (a sum-route thermo quantity over alpha or beta, any closed form
    over beta) is one call over the whole grid, each row bit for bit its
    point call; there SingularLimit, which depends on the coefficients
    only, nulls every row."""
    route = routes.ROUTES[(spec.quantity, spec.method)]
    if spec.vary in routes.CURVES.get((spec.quantity, spec.method), ()):
        s = routes.state({**spec.fixed, spec.vary: np.array(spec.values, dtype=float)},
                         spec.units, spec.b_convention, spec.transcription, tol)
        try:
            ys = route(s).tolist()
        except SingularLimit:
            return [SweepRow(x=float(x), y=None, warning="SingularLimit") for x in spec.values]
        return [SweepRow(x=float(x), y=y) for x, y in zip(spec.values, ys)]
    rows = []
    for x in spec.values:
        s = routes.state({**spec.fixed, spec.vary: x}, spec.units, spec.b_convention,
                         spec.transcription, tol)
        try:
            rows.append(SweepRow(x=float(x), y=float(route(s))))
        except SingularLimit:
            rows.append(SweepRow(x=float(x), y=None, warning="SingularLimit"))
    return rows


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_N_GRID = tuple(float(n) for n in range(11))
_ALPHA_GRID = linear_range(0.02, 0.95, 48)
_BETA_GRID = linear_range(0.1, 10.0, 48)
_ALPHAS3 = (0.1, 0.3, 0.9)
_Q_PRESET = 0.5
_SUPER_BETAS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class FigurePreset:
    figure_id: str
    quantity: str
    vary: str
    values: tuple[float, ...]
    curve_param: str
    curve_values: tuple[float, ...]
    method: str
    fixed: dict = field(default_factory=dict)
    trend: str | None = None  # asserted by tests only where provable


def _preset(fig, quantity, vary, values, curve_param, curve_values, method,
            fixed=None, trend=None):
    return FigurePreset(figure_id=fig, quantity=quantity, vary=vary,
                        values=values, curve_param=curve_param,
                        curve_values=curve_values, method=method,
                        fixed=fixed or {}, trend=trend)


PRESETS: dict[str, FigurePreset] = {pr.figure_id: pr for pr in [
    _preset("Fig1a", "Energy", "n", _N_GRID, "alpha", _ALPHAS3, "sum",
            trend="increasing"),
    _preset("Fig1b", "Energy", "alpha", _ALPHA_GRID, "n", (1.0, 3.0, 5.0), "sum",
            trend="increasing"),
    _preset("Fig2a", "Z", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
            trend="decreasing"),
    _preset("Fig2b", "Z", "alpha", _ALPHA_GRID, "beta", (2.0, 5.0, 8.0), "sum",
            trend="decreasing"),
    _preset("Fig3a", "C", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
            trend="nonnegative"),
    _preset("Fig3b", "C", "alpha", _ALPHA_GRID, "beta", (0.5, 1.0, 2.0), "sum",
            trend="nonnegative"),
    _preset("Fig4a", "S", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
            trend="decreasing"),
    # dS/dalpha = -kB beta^2 Cov(E, dE/dalpha) < 0: E_n and dE_n/dalpha both
    # increase with n, so Chebyshev's association inequality fixes the sign
    _preset("Fig4b", "S", "alpha", _ALPHA_GRID, "beta", (0.2, 0.5, 1.0), "sum",
            trend="decreasing"),
    _preset("Fig5a", "F", "beta", _BETA_GRID, "alpha", _ALPHAS3, "sum",
            trend="increasing"),
    _preset("Fig5b", "F", "alpha", _ALPHA_GRID, "beta", (0.2, 0.5, 1.0), "sum",
            trend="increasing"),
    _preset("Fig6a", "Zs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "quadinf",
            fixed={"q": _Q_PRESET}, trend="decreasing"),
    _preset("Fig6b", "Zs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "quadinf",
            fixed={"q": _Q_PRESET}, trend="decreasing"),
    _preset("Fig7a", "Us", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig7b", "Us", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig8a", "Ss", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig8b", "Ss", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig9a", "Fs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig9b", "Fs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig10a", "Cs", "beta", _BETA_GRID, "alpha", _ALPHAS3, "engine",
            fixed={"q": _Q_PRESET}),
    _preset("Fig10b", "Cs", "alpha", _ALPHA_GRID, "beta", _SUPER_BETAS, "engine",
            fixed={"q": _Q_PRESET}),
]}

FIGURE_IDS = tuple(PRESETS)


@dataclass(frozen=True)
class FigureRow:
    curve: str
    x: float
    y: float | None
    warning: str = ""


def figure_preset(figure_id: str, tol: Tolerance = PRESET_TOL) -> list[FigureRow]:
    """Long-format (curve_label, x, y) rows for one preset, one curve per
    quoted fixed-parameter value."""
    if figure_id not in PRESETS:
        raise ValueError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    pr = PRESETS[figure_id]
    rows: list[FigureRow] = []
    for cv in pr.curve_values:
        fixed = dict(pr.fixed)
        if pr.curve_param == "n":
            fixed["n"] = cv
            label = f"n={int(cv)}"
        else:
            fixed[pr.curve_param] = cv
            label = f"{pr.curve_param}={cv:g}"
        spec = SweepSpec(quantity=pr.quantity, vary=pr.vary, values=pr.values,
                         fixed=fixed, method=pr.method)
        for row in run_sweep(spec, tol):
            rows.append(FigureRow(curve=label, x=row.x, y=row.y, warning=row.warning))
    return rows
