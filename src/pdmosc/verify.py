"""Cross-validation harness: every typeset closed form evaluated against its
independent numerical oracle on dense (alpha, beta, q) grids, emitting a
structured discrepancy atlas.

The atlas never fails a build: non-finite printed values and large
deviations become classifications.  Hard assertions belong to the test
suite and cover only provable facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import Tolerance
from .spectrum import OscillatorParams, coefficients
from . import routes, superstat, thermo

QUANTITIES = routes.THERMO + routes.SUPERSTAT
CLASSIFICATIONS = ("Agree", "Close", "Disagree", "PrintedNonFinite", "OracleNonFinite")

_REL_FLOOR = 1e-300
_AGREE = 1e-6
_CLOSE = 1e-2

#: grids matching the plotted parameter ranges of the source figures
DEFAULT_ALPHAS = (0.1, 0.3, 0.9)
DEFAULT_BETAS = tuple(float(x) for x in np.logspace(-1.0, 1.0, 25))
DEFAULT_QS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class DiscrepancyReport:
    """One printed-vs-oracle comparison at one grid point."""

    quantity: str
    alpha: float
    beta: float
    q: float | None
    transcription: str
    printed: float
    oracle: float
    rel_diff: float
    classification: str


def _classify(printed: float, oracle: float) -> tuple[float, str]:
    if not math.isfinite(oracle):
        return math.nan, "OracleNonFinite"
    rel = abs(printed - oracle) / max(abs(oracle), _REL_FLOOR)
    if not math.isfinite(printed):
        return rel, "PrintedNonFinite"
    if rel <= _AGREE:
        return rel, "Agree"
    if rel <= _CLOSE:
        return rel, "Close"
    return rel, "Disagree"


def _report(quantity, alpha, beta, q, transcription, printed, oracle) -> DiscrepancyReport:
    rel, cls = _classify(printed, oracle)
    return DiscrepancyReport(quantity=quantity, alpha=alpha, beta=beta, q=q,
                             transcription=transcription, printed=float(printed),
                             oracle=float(oracle), rel_diff=rel, classification=cls)


def _as_params(entry) -> OscillatorParams:
    if isinstance(entry, OscillatorParams):
        return entry
    return OscillatorParams(alpha=float(entry))


def audit_grid(params_grid: Iterable = DEFAULT_ALPHAS,
               beta_grid: Sequence[float] = DEFAULT_BETAS,
               q_grid: Sequence[float] = DEFAULT_QS,
               tol: Tolerance = Tolerance(rel=3e-13, abs=0.0, max_evals=400_000),
               oracle_basis: str = "closed",
               kB: float = 1.0) -> list[DiscrepancyReport]:
    """Audit every typeset closed form on the grid, both transcriptions.

    Oracle assignments, basis "closed" (internal-consistency audit):
    Z/U/C/S/F -> the exact moments of the integral over n in [0, 1] that
    the closed Z equals (thermo_quadrature 'quad01'); Zs/Us/Ss/Fs/Cs -> the
    closed-form moment engine over [0, inf).  Basis "sum" replaces the
    thermo oracles with the physical sum route (thermo_sum_engine).

    Reports come back sorted by quantity, then grid indices, then
    transcription; identical inputs produce identical lists.
    """
    if oracle_basis not in ("closed", "sum"):
        raise ValueError("oracle_basis must be 'closed' or 'sum'")
    params = [_as_params(p) for p in params_grid]
    betas = [float(b) for b in beta_grid]
    qs = [float(q) for q in q_grid]
    if not params or not betas or not qs:
        raise ValueError("grids must be nonempty")

    reports: list[DiscrepancyReport] = []
    for p in params:
        c = coefficients(p)
        for bv in betas:
            if oracle_basis == "closed":
                oracle = thermo.thermo_quadrature(c, bv, "quad01", kB, tol)
            else:
                oracle = thermo.thermo_sum_engine(c, bv, kB, tol)
            for tr in thermo.TRANSCRIPTIONS:
                reports += _closed_reports("thermo", routes.State(c, kB, bv, transcription=tr),
                                           p.alpha, None, oracle)
            for qv in qs:
                spt = superstat.superstat_thermo(c, bv, qv, kB, tol, method="engine")
                for tr in thermo.TRANSCRIPTIONS:
                    reports += _closed_reports(
                        "superstat", routes.State(c, kB, bv, qv, transcription=tr),
                        p.alpha, qv, spt)
    # a stable sort: within one quantity the rows keep their grid order
    order = {qn: i for i, qn in enumerate(QUANTITIES)}
    return sorted(reports, key=lambda r: order[r.quantity])


def _closed_reports(family: str, s: routes.State, alpha: float, q: float | None,
                    oracle) -> list[DiscrepancyReport]:
    """The closed-route point of the family at s, quantity by quantity,
    against the oracle point."""
    printed = routes.POINTS[family]["closed"](s)
    return [_report(qn, alpha, s.beta, q, s.transcription, getattr(printed, qn),
                    getattr(oracle, qn)) for qn in routes.FIELDS[family]]


AUDIT_CSV_HEADER = "quantity,alpha,beta,q,transcription,printed,oracle,rel_diff,classification"


def render_audit_csv(reports: Sequence[DiscrepancyReport]) -> str:
    """One record per line, floats at 17 significant digits, q empty for
    the thermo quantities."""
    lines = [AUDIT_CSV_HEADER]
    for r in reports:
        qfield = "" if r.q is None else f"{r.q:.17g}"
        lines.append(f"{r.quantity},{r.alpha:.17g},{r.beta:.17g},{qfield},"
                     f"{r.transcription},{r.printed:.17g},{r.oracle:.17g},"
                     f"{r.rel_diff:.17g},{r.classification}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Qualitative trend checks
# ---------------------------------------------------------------------------

_TREND_SLACK = 1e-12


@dataclass(frozen=True)
class TrendResult:
    passed: bool
    first_violation: int | None = None

    def __bool__(self):
        return self.passed


def trend_check(curve: Sequence[tuple[float, float]], expected: str) -> TrendResult:
    """Check a sampled curve against an expected qualitative trend.

    expected is one of 'increasing', 'decreasing', 'nonnegative'; strict
    step comparisons get 1e-12 slack.  Returns the first violating index.
    """
    if len(curve) < 3:
        raise ValueError("curve needs at least 3 points")
    xs = [pt[0] for pt in curve]
    ys = [pt[1] for pt in curve]
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("x must be strictly increasing")
    if expected == "increasing":
        for i in range(1, len(ys)):
            if not ys[i] > ys[i - 1] - _TREND_SLACK:
                return TrendResult(False, i)
    elif expected == "decreasing":
        for i in range(1, len(ys)):
            if not ys[i] < ys[i - 1] + _TREND_SLACK:
                return TrendResult(False, i)
    elif expected == "nonnegative":
        for i, y in enumerate(ys):
            if not y >= -_TREND_SLACK:
                return TrendResult(False, i)
    else:
        raise ValueError("expected must be 'increasing', 'decreasing' or 'nonnegative'")
    return TrendResult(True, None)
