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
from itertools import product, repeat, starmap
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import Tolerance
from .spectrum import OscillatorParams, coefficients
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


def _classify(printed: np.ndarray, oracle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative differences and classifications of two columns, elementwise;
    rel_diff is nan where the oracle is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(printed - oracle) / np.maximum(np.abs(oracle), _REL_FLOOR)
    oracle_ok = np.isfinite(oracle)
    cls = np.select([~oracle_ok, ~np.isfinite(printed), rel <= _AGREE, rel <= _CLOSE],
                    [_CLASS["OracleNonFinite"], _CLASS["PrintedNonFinite"], _CLASS["Agree"],
                     _CLASS["Close"]], _CLASS["Disagree"])
    return np.where(oracle_ok, rel, math.nan), cls


def audit_grid(params_grid: Iterable = DEFAULT_ALPHAS,
               beta_grid: Sequence[float] = DEFAULT_BETAS,
               q_grid: Sequence[float] = DEFAULT_QS,
               tol: Tolerance = Tolerance(rel=3e-13, abs=0.0, max_evals=400_000),
               oracle_basis: str = "closed") -> list[DiscrepancyReport]:
    """Audit every typeset closed form on the grid of alpha values
    (params_grid), beta and q, both transcriptions, in natural units.

    Oracle assignments, basis "closed" (internal-consistency audit):
    Z/U/C/S/F -> the exact moments of the integral over n in [0, 1] that
    the closed Z equals (thermo_quadrature 'quad01'); Zs/Us/Ss/Fs/Cs -> the
    closed-form moment engine over [0, inf).  Basis "sum" replaces the
    thermo oracles with the physical sum route (thermo_sum_engine).

    Every oracle runs as one call per alpha, across beta (thermo_quadrature
    or thermo_sum_engine) or over the beta x q mesh (the superstat engine);
    the typeset forms run as one call per alpha and transcription, across
    beta (thermo_closed_point) or over the mesh (the closed superstat
    point).  Each quantity's column is then classified at once.  Reports
    come ordered by quantity, then grid indices, then transcription;
    identical inputs produce identical lists.
    """
    if oracle_basis not in ("closed", "sum"):
        raise ValueError("oracle_basis must be 'closed' or 'sum'")
    alphas = [float(a) for a in params_grid]
    betas = [float(b) for b in beta_grid]
    qs = [float(q) for q in q_grid]
    if not alphas or not betas or not qs:
        raise ValueError("grids must be nonempty")

    trs = thermo.TRANSCRIPTIONS
    # quantity -> per-alpha chunks of the printed and the oracle column, each
    # in grid order with the transcription innermost
    printed = {qn: [] for qn in QUANTITIES}
    oracles = {qn: [] for qn in QUANTITIES}
    beta_col = np.array(betas)
    mesh = beta_col[:, None], np.array(qs)
    for alpha in alphas:
        c = coefficients(OscillatorParams(alpha=alpha))
        if oracle_basis == "closed":
            thermo_oracle = thermo.thermo_quadrature(c, beta_col, "quad01", tol=tol)
        else:
            thermo_oracle = thermo.thermo_sum_engine(c, beta_col, tol=tol)
        # family -> (oracle point, typeset point per transcription)
        points = {
            "thermo": (thermo_oracle,
                       [thermo.thermo_closed_point(c, beta_col, transcription=tr)
                        for tr in trs]),
            "superstat": (superstat.superstat_thermo(c, *mesh, method="engine"),
                          [superstat.superstat_thermo(c, *mesh, method="closed",
                                                      transcription=tr) for tr in trs])}
        for family, (oracle, typeset) in points.items():
            for qn in routes.FIELDS[family]:
                oracles[qn].append(np.repeat(getattr(oracle, qn), len(trs)))
                printed[qn].append(np.stack([getattr(pt, qn) for pt in typeset], axis=-1).ravel())

    grids = {"thermo": list(zip(*product(alphas, betas, [None], trs))),
             "superstat": list(zip(*product(alphas, betas, qs, trs)))}
    reports: list[DiscrepancyReport] = []
    for family, quantities in routes.FIELDS.items():
        for qn in quantities:
            p_col = np.concatenate(printed[qn])
            o_col = np.concatenate(oracles[qn])
            rel, cls = _classify(p_col, o_col)
            reports += starmap(DiscrepancyReport, zip(
                repeat(qn), *grids[family], p_col.tolist(), o_col.tolist(), rel.tolist(),
                cls.tolist()))
    return reports


AUDIT_CSV_HEADER = "quantity,alpha,beta,q,transcription,printed,oracle,rel_diff,classification"


class _Text(dict):
    """x -> f"{x:.17g}", each distinct value formatted once.  A zero is
    formatted every time: 0.0 and -0.0 are one key but two strings."""

    def __missing__(self, x) -> str:
        text = f"{x:.17g}"
        if x:
            self[x] = text
        return text


def render_audit_csv(reports: Sequence[DiscrepancyReport]) -> str:
    """One record per line, floats at 17 significant digits, q empty for
    the thermo quantities."""
    # the grid values repeat from row to row
    text = _Text({None: ""})
    lines = [AUDIT_CSV_HEADER]
    lines += [f"{r.quantity},{text[r.alpha]},{text[r.beta]},{text[r.q]},{r.transcription},"
              f"{r.printed:.17g},{r.oracle:.17g},{r.rel_diff:.17g},{r.classification}"
              for r in reports]
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
