"""Cross-validation harness: every typeset closed form evaluated against its
independent numerical oracle on dense (alpha, beta, q) grids, emitting a
structured discrepancy atlas.

The atlas never fails a build: non-finite printed values and large
deviations become classifications.  Hard assertions belong to the test
suite and cover only provable facts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import product, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import Tolerance
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients
from .thermo import TRANSCRIPTIONS
from . import routes

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

#: oracle basis -> family -> the routes.POINTS method of its oracle
_ORACLES = {"closed": {"thermo": "quad01", "superstat": "engine"},
            "sum": {"thermo": "sum", "superstat": "engine"}}


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

    Oracle assignments (_ORACLES), basis "closed" (internal-consistency
    audit): Z/U/C/S/F -> the exact moments of the integral over n in [0, 1]
    that the closed Z equals (the thermo 'quad01' point); Zs/Us/Ss/Fs/Cs ->
    the closed-form moment engine over [0, inf).  Basis "sum" replaces the
    thermo oracles with the physical sum route (the thermo 'sum' point).

    Both points of a family come from routes.POINTS: the oracle method, and
    'closed' per transcription.  Each runs once over the whole grid,
    whatever its size: the coefficients of every alpha, from one
    coefficients call, are shaped (A, 1) against the beta array (the thermo
    State) and (A, 1, 1) against the beta x q mesh (the superstat State).
    Each element is bit for bit its one-point call, so a grid audits as the
    merge of its one-alpha audits.  One AuditBlock per quantity, in
    QUANTITIES order, each classified at once; grid rows alpha-major, then
    TRANSCRIPTIONS.
    """
    if oracle_basis not in _ORACLES:
        raise ValueError("oracle_basis must be 'closed' or 'sum'")
    alphas = [float(a) for a in params_grid]
    betas = [float(b) for b in beta_grid]
    qs = [float(q) for q in q_grid]
    if not alphas or not betas or not qs:
        raise ValueError("grids must be nonempty")

    c = coefficients(OscillatorParams(alpha=np.array(alphas)[:, None]))
    beta_col = np.array(betas)
    # family -> (grid rows, the State of the whole grid), alpha-major
    states = {
        "thermo": (tuple(product(alphas, betas, [None])),
                   routes.State(c, beta=beta_col, tol=tol)),
        "superstat": (tuple(product(alphas, betas, qs)),
                      routes.State(SpectrumCoefficients(c.a[..., None], c.b[..., None]),
                                   beta=beta_col[:, None], q=np.array(qs), tol=tol))}
    blocks, trs = [], TRANSCRIPTIONS
    for family, (grid, s) in states.items():
        point = routes.POINTS[family]
        oracle = point[_ORACLES[oracle_basis][family]](s)
        typeset = [point["closed"](replace(s, transcription=tr)) for tr in trs]
        for qn in routes.FIELDS[family]:
            o_col = getattr(oracle, qn).ravel()
            p_col = np.stack([getattr(pt, qn) for pt in typeset], axis=-1).reshape(-1, len(trs))
            blocks.append(AuditBlock(qn, grid, p_col, o_col, *_classify(p_col, o_col[:, None])))
    return blocks


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
    text, trs = _Text({None: ""}), TRANSCRIPTIONS
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


def render_audit_json(columns: Sequence[AuditBlock]) -> str:
    """The JSON text of audit_columns' blocks: one record per CSV row, keyed
    by AUDIT_CSV_HEADER's fields, q null for thermo."""
    keys, trs = AUDIT_CSV_HEADER.split(","), TRANSCRIPTIONS
    records = [dict(zip(keys, (qn, *row, tr, *cols)))
               for qn, grid, printed, oracle, rel, cls in columns
               for (row, tr), *cols in zip(product(grid, trs), printed.ravel().tolist(),
                                           np.repeat(oracle, len(trs)).tolist(),
                                           rel.ravel().tolist(), cls.ravel().tolist())]
    return json.dumps(records, indent=1) + "\n"


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
    xs, ys = np.array([(pt[0], pt[1]) for pt in curve], dtype=float).T
    if (xs[1:] <= xs[:-1]).any():
        raise ValueError("x must be strictly increasing")
    # ok[i]: point i keeps the trend (a nan never does)
    if expected == "increasing":
        ok = np.r_[True, ys[1:] > ys[:-1] - _TREND_SLACK]
    elif expected == "decreasing":
        ok = np.r_[True, ys[1:] < ys[:-1] + _TREND_SLACK]
    elif expected == "nonnegative":
        ok = ys >= -_TREND_SLACK
    else:
        raise ValueError("expected must be 'increasing', 'decreasing' or 'nonnegative'")
    bad = np.flatnonzero(~ok)
    return TrendResult(False, int(bad[0])) if bad.size else TrendResult(True)
