"""Cross-validation harness: every typeset closed form evaluated against its
independent numerical oracle on dense (alpha, beta, q) grids, emitting a
structured discrepancy atlas.

The atlas never fails a build: non-finite printed values and large
deviations become classifications.  Hard assertions belong to the test
suite and cover only provable facts.
"""

import math
from itertools import product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import Tolerance
from .thermo import TRANSCRIPTIONS
from . import routes

QUANTITIES = routes.THERMO + routes.SUPERSTAT
CLASSIFICATIONS = ("Agree", "Close", "Disagree", "PrintedNonFinite", "OracleNonFinite")

#: the classifications by integer code: indexing it fills a column with
#: references to these five strings, not with a new string per row
_CLASS = np.array(CLASSIFICATIONS, dtype=object)

_REL_FLOOR = 1e-300
_AGREE = 1e-6
_CLOSE = 1e-2

#: grids matching the plotted parameter ranges of the source figures
DEFAULT_ALPHAS = (0.1, 0.3, 0.9)
DEFAULT_BETAS = tuple(float(x) for x in np.logspace(-1.0, 1.0, 25))
DEFAULT_QS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: the audit's quadrature tolerance, also the CLI's default
AUDIT_TOL = Tolerance(rel=3e-13)

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
    # 0 Agree, 1 Close, 2 Disagree: rel is nan only where a value is not finite
    grade = (rel > _AGREE).astype(np.intp) + (rel > _CLOSE)
    code = np.where(oracle_ok, np.where(np.isfinite(printed), grade, 3), 4)
    return np.where(oracle_ok, rel, math.nan), _CLASS[code]


def audit_columns(params_grid: Iterable = DEFAULT_ALPHAS,
                  beta_grid: Sequence[float] = DEFAULT_BETAS,
                  q_grid: Sequence[float] = DEFAULT_QS,
                  tol: Tolerance = AUDIT_TOL,
                  oracle_basis: str = "closed") -> list[AuditBlock]:
    """Audit every typeset closed form on the grid of alpha values
    (params_grid), beta and q, both transcriptions, in natural units.

    Oracle assignments (_ORACLES), basis "closed" (internal-consistency
    audit): Z/U/C/S/F -> the exact moments of the integral over n in [0, 1]
    that the closed Z equals (the thermo 'quad01' point); Zs/Us/Ss/Fs/Cs ->
    the closed-form moment engine over [0, inf).  Basis "sum" replaces the
    thermo oracles with the physical sum route (the thermo 'sum' point).

    Both points of a family come from routes.POINTS: the oracle method, and
    'closed' with the pair TRANSCRIPTIONS, which holds each quantity with a
    trailing transcription axis.  Each runs once over the whole grid,
    whatever its size, on the routes.state of its values: alpha shaped
    (A, 1) against the beta array (thermo) and (A, 1, 1) against the
    beta x q mesh (superstat).  Each element is bit for bit its one-point
    call, so a grid audits as the merge of its one-alpha audits.  Where the
    closed forms are singular (alpha = 0, b <= B_MIN a) the printed values
    are nan, PrintedNonFinite, and routes.evaluate makes one more closed
    call on the regular alphas.  One AuditBlock per quantity, in
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

    alpha, beta = np.array(alphas)[:, None], np.array(betas)
    # family -> (grid rows, the routes.state values of the whole grid), alpha-major
    meshes = {"thermo": (tuple(product(alphas, betas, [None])), {"alpha": alpha, "beta": beta}),
              "superstat": (tuple(product(alphas, betas, qs)),
                            {"alpha": alpha[..., None], "beta": beta[:, None],
                             "q": np.array(qs)})}
    settings, width = {"transcription": TRANSCRIPTIONS, "tol": tol}, len(TRANSCRIPTIONS)
    blocks = []
    for family, (grid, values) in meshes.items():
        point = routes.POINTS[family]
        oracle = point[_ORACLES[oracle_basis][family]](routes.state(values, **settings))
        typeset, regular = routes.evaluate(point["closed"], values, **settings)
        at = slice(None) if regular is None else np.repeat(regular, len(grid) // regular.size)
        for qn in routes.FIELDS[family]:
            p_col, o_col = np.full((len(grid), width), math.nan), getattr(oracle, qn).ravel()
            if typeset is not None:
                p_col[at] = getattr(typeset, qn).reshape(-1, width)
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
    """The CSV text of audit_columns' blocks: floats at 17 digits, q empty for
    thermo.  Each block is one % template over its flattened columns."""
    text, width = _Text({None: ""}), len(TRANSCRIPTIONS)
    parts, shared = [AUDIT_CSV_HEADER + "\n"], None
    for qn, grid, printed, oracle, rel, cls in columns:
        if grid is not shared:  # the next family: its quantities share these prefixes
            shared, prefixes = grid, [f"{text[a]},{text[b]},{text[q]},{tr}"
                                      for a, b, q in grid for tr in TRANSCRIPTIONS]
        # one field per column of each row, row-major: prefix, printed,
        # oracle (formatted once per grid row), rel_diff, classification
        fields = [None] * (5 * len(prefixes))
        fields[0::5] = prefixes
        fields[1::5] = printed.ravel().tolist()
        o_text = ("%.17g\n" * len(oracle) % tuple(oracle.tolist())).split("\n")[:-1]
        for j in range(width):
            fields[2 + 5 * j::5 * width] = o_text
        fields[3::5] = rel.ravel().tolist()
        fields[4::5] = cls.ravel().tolist()
        parts.append(f"{qn},%s,%.17g,%s,%.17g,%s\n" * len(prefixes) % tuple(fields))
    return "".join(parts)


def render_audit_json(columns: Sequence[AuditBlock]) -> str:
    """The JSON text of audit_columns' blocks (render_json): one record per
    CSV row, keyed by AUDIT_CSV_HEADER's fields, q null for thermo."""
    keys, trs = AUDIT_CSV_HEADER.split(","), TRANSCRIPTIONS
    return render_json([dict(zip(keys, (qn, *row, tr, *cols)))
                        for qn, grid, printed, oracle, rel, cls in columns
                        for (row, tr), *cols in zip(product(grid, trs), printed.ravel().tolist(),
                                                    np.repeat(oracle, len(trs)).tolist(),
                                                    rel.ravel().tolist(), cls.ravel().tolist())])


def render_json(records: list[dict]) -> str:
    """records as indented JSON text that strict parsers read: JSON has no
    number that is not finite, so such a float is the string the CSV
    prints ("nan", "inf", "-inf"); None is null.  Only a dump that meets
    such a float is redone value by value.  json is imported here, on
    first use, so that no other command pays for it."""
    import json
    try:
        return json.dumps(records, indent=1, allow_nan=False) + "\n"
    except ValueError:  # a float that is not finite
        return json.dumps([{k: f"{v:.17g}" if type(v) is float and not math.isfinite(v) else v
                            for k, v in record.items()} for record in records],
                          indent=1, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Qualitative trend checks
# ---------------------------------------------------------------------------

_TREND_SLACK = 1e-12


class TrendResult(NamedTuple):
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
