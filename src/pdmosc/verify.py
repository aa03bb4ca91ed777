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
from itertools import product, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import Tolerance
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients
from . import routes, superstat, thermo

QUANTITIES = routes.THERMO + routes.SUPERSTAT
CLASSIFICATIONS = ("Agree", "Close", "Disagree", "PrintedNonFinite", "OracleNonFinite")

#: each classification as a 0-d object array: np.select then fills a column
#: with references to these five strings, not with a new string per row
_CLASS = {name: np.array(name, dtype=object) for name in CLASSIFICATIONS}

_REL_FLOOR = 1e-300
_AGREE = 1e-6
_CLOSE = 1e-2

#: grids matching the plotted parameter ranges of the source figures
DEFAULT_ALPHAS = (0.1, 0.3, 0.9)
DEFAULT_BETAS = tuple(float(x) for x in np.logspace(-1.0, 1.0, 25))
DEFAULT_QS = (0.0, 0.25, 0.5, 0.75, 1.0)


class DiscrepancyReport(NamedTuple):
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


class AuditBlock(NamedTuple):
    """One quantity's audit: its family's shared tuple of (alpha, beta, q) rows, q None
    for thermo; the oracle one value per row, the rest shaped (row, transcription)."""

    quantity: str
    grid: tuple[tuple[float, float, float | None], ...]
    printed: np.ndarray
    oracle: np.ndarray
    rel_diff: np.ndarray
    classification: np.ndarray


def _classify(printed: np.ndarray, oracle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative differences and classifications of two columns, elementwise
    (they broadcast); rel_diff is nan where the oracle is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(printed - oracle) / np.maximum(np.abs(oracle), _REL_FLOOR)
    oracle_ok = np.isfinite(oracle)
    cls = np.select([~oracle_ok, ~np.isfinite(printed), rel <= _AGREE, rel <= _CLOSE],
                    [_CLASS["OracleNonFinite"], _CLASS["PrintedNonFinite"], _CLASS["Agree"],
                     _CLASS["Close"]], _CLASS["Disagree"])
    return np.where(oracle_ok, rel, math.nan), cls


def audit_columns(params_grid: Iterable = DEFAULT_ALPHAS,
                  beta_grid: Sequence[float] = DEFAULT_BETAS,
                  q_grid: Sequence[float] = DEFAULT_QS,
                  tol: Tolerance = Tolerance(rel=3e-13),
                  oracle_basis: str = "closed") -> list[AuditBlock]:
    """Audit every typeset closed form on the grid of alpha values
    (params_grid), beta and q, both transcriptions, in natural units.

    Oracle assignments, basis "closed" (internal-consistency audit):
    Z/U/C/S/F -> the exact moments of the integral over n in [0, 1] that
    the closed Z equals (thermo_quadrature 'quad01'); Zs/Us/Ss/Fs/Cs -> the
    closed-form moment engine over [0, inf).  Basis "sum" replaces the
    thermo oracles with the physical sum route (thermo_sum_engine).

    Each route runs once over the whole grid, whatever its size: the
    coefficients of every alpha, from one coefficients call, are shaped
    (A, 1) against the beta array (the thermo oracle, thermo_closed_point
    per transcription) and (A, 1, 1) against the beta x q mesh (the
    superstat engine, the closed point per transcription).  Each element is
    bit for bit its one-point call, so a grid audits as the merge of its
    one-alpha audits.  One AuditBlock per quantity, in QUANTITIES order,
    each classified at once; grid rows alpha-major, then thermo.TRANSCRIPTIONS.
    """
    if oracle_basis not in ("closed", "sum"):
        raise ValueError("oracle_basis must be 'closed' or 'sum'")
    alphas = [float(a) for a in params_grid]
    betas = [float(b) for b in beta_grid]
    qs = [float(q) for q in q_grid]
    if not alphas or not betas or not qs:
        raise ValueError("grids must be nonempty")

    trs = thermo.TRANSCRIPTIONS
    c_thermo = coefficients(OscillatorParams(alpha=np.array(alphas)[:, None]))
    c_super = SpectrumCoefficients(c_thermo.a[..., None], c_thermo.b[..., None])
    beta_col = np.array(betas)
    mesh = beta_col[:, None], np.array(qs)
    thermo_oracle = (thermo.thermo_quadrature(c_thermo, beta_col, "quad01", tol=tol)
                     if oracle_basis == "closed" else
                     thermo.thermo_sum_engine(c_thermo, beta_col, tol=tol))
    # family -> (grid rows, oracle point, typeset point per transcription),
    # each quantity an array over the grid, alpha-major
    points = {
        "thermo": (tuple(product(alphas, betas, [None])), thermo_oracle,
                   [thermo.thermo_closed_point(c_thermo, beta_col, transcription=tr)
                    for tr in trs]),
        "superstat": (tuple(product(alphas, betas, qs)),
                      superstat.superstat_thermo(c_super, *mesh, method="engine"),
                      [superstat.superstat_thermo(c_super, *mesh, method="closed",
                                                  transcription=tr) for tr in trs])}
    blocks = []
    for family, (grid, oracle, typeset) in points.items():
        for qn in routes.FIELDS[family]:
            o_col = getattr(oracle, qn).ravel()
            p_col = np.stack([getattr(pt, qn) for pt in typeset], axis=-1).reshape(-1, len(trs))
            blocks.append(AuditBlock(qn, grid, p_col, o_col, *_classify(p_col, o_col[:, None])))
    return blocks


def audit_grid(params_grid: Iterable = DEFAULT_ALPHAS,
               beta_grid: Sequence[float] = DEFAULT_BETAS,
               q_grid: Sequence[float] = DEFAULT_QS,
               tol: Tolerance = Tolerance(rel=3e-13),
               oracle_basis: str = "closed") -> list[DiscrepancyReport]:
    """audit_columns as DiscrepancyReports, by quantity, grid row, transcription."""
    trs = thermo.TRANSCRIPTIONS
    return [DiscrepancyReport(qn, *row, tr, *cols)
            for qn, grid, printed, oracle, rel, cls in audit_columns(
                params_grid, beta_grid, q_grid, tol, oracle_basis)
            for (row, tr), *cols in zip(product(grid, trs), printed.ravel().tolist(),
                                        np.repeat(oracle, len(trs)).tolist(),
                                        rel.ravel().tolist(), cls.ravel().tolist())]


AUDIT_CSV_HEADER = "quantity,alpha,beta,q,transcription,printed,oracle,rel_diff,classification"


class _Text(dict):
    """x -> f"{x:.17g}", each distinct value formatted once.  A zero is
    formatted every time: 0.0 and -0.0 are one key but two strings."""

    def __missing__(self, x) -> str:
        text = f"{x:.17g}"
        if x:
            self[x] = text
        return text


def render_audit_csv(columns: Sequence[AuditBlock]) -> str:
    """The CSV text of audit_columns' blocks: floats at 17 digits, q empty for thermo."""
    text, trs = _Text({None: ""}), thermo.TRANSCRIPTIONS
    lines, shared = [AUDIT_CSV_HEADER], None
    for qn, grid, printed, oracle, rel, cls in columns:
        if grid is not shared:  # the next family: its quantities share these prefixes
            shared, prefixes = grid, [f"{text[a]},{text[b]},{text[q]},{tr}"
                                      for a, b, q in grid for tr in trs]
        o_text = [s for o in oracle.tolist() for s in repeat(f"{o:.17g}", len(trs))]
        lines += [f"{qn},{pre},{p:.17g},{o},{r:.17g},{c}" for pre, p, o, r, c in zip(
            prefixes, printed.ravel().tolist(), o_text, rel.ravel().tolist(),
            cls.ravel().tolist())]
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
