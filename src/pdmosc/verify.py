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

from .numerics import Tolerance, derivative
from .spectrum import OscillatorParams, coefficients
from . import thermo
from . import superstat

QUANTITIES = ("Z", "U", "C", "S", "F", "Zs", "Us", "Ss", "Fs", "Cs")
THERMO_QUANTITIES = QUANTITIES[:5]
SUPERSTAT_QUANTITIES = QUANTITIES[5:]
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
    Z -> quadrature over [0,1]; U/C/S/F -> derivative engine on ln of the
    closed Z; Zs -> semi-infinite quadrature; Us/Ss/Fs/Cs -> derivative
    engine on ln of the quadrature Zs.  Basis "sum" replaces the thermo
    oracles with the physical sum route.

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

    thermo_rows: dict[tuple, dict] = {}
    superstat_rows: dict[tuple, dict] = {}
    for ia, p in enumerate(params):
        c = coefficients(p)
        for ib, bv in enumerate(betas):
            if oracle_basis == "closed":
                z_oracle = thermo.partition_quadrature(c, bv, "quad01", tol)
                pt = thermo.thermo_from_logZ(thermo.log_partition(c, "closed"),
                                             bv, kB, method="closed")
            else:
                z_oracle = thermo.partition_sum(c, bv, tol)
                pt = thermo.thermo_sum_engine(c, bv, kB, tol)
            oracle = {"Z": z_oracle, "U": pt.U, "C": pt.C, "S": pt.S, "F": pt.F}
            printed = {}
            for tr in thermo.TRANSCRIPTIONS:
                printed[tr] = {
                    "Z": thermo.partition_closed(c, bv),
                    "U": thermo.mean_energy_closed(c, bv, tr),
                    "C": thermo.heat_capacity_closed(c, bv, kB, tr),
                    "S": thermo.entropy_closed(c, bv, kB, tr),
                    "F": thermo.free_energy_closed(c, bv),
                }
            thermo_rows[(ia, ib)] = {"alpha": p.alpha, "beta": bv,
                                     "oracle": oracle, "printed": printed}
            for iq, qv in enumerate(qs):
                spt = superstat.superstat_thermo(c, bv, qv, kB, tol, method="engine")
                oracle_s = {"Zs": spt.Zs,
                            "Us": spt.Us, "Ss": spt.Ss, "Fs": spt.Fs, "Cs": spt.Cs}
                printed_s = {}
                for tr in thermo.TRANSCRIPTIONS:
                    cs_closed = kB * bv * bv * derivative(
                        lambda x, _tr=tr: superstat.log_superstat_partition_closed(c, x, qv, _tr),
                        bv, order=2, scale=bv, positive_only=True)
                    printed_s[tr] = {
                        "Zs": superstat.superstat_partition_closed(c, bv, qv, tr),
                        "Us": superstat.mean_energy_superstat_closed(c, bv, qv, tr),
                        "Ss": superstat.entropy_superstat_closed(c, bv, qv, kB, tr),
                        "Fs": superstat.free_energy_superstat_closed(c, bv, qv, tr),
                        "Cs": cs_closed,
                    }
                superstat_rows[(ia, ib, iq)] = {"alpha": p.alpha, "beta": bv, "q": qv,
                                                "oracle": oracle_s, "printed": printed_s}

    reports: list[DiscrepancyReport] = []
    for quantity in THERMO_QUANTITIES:
        for ia in range(len(params)):
            for ib in range(len(betas)):
                row = thermo_rows[(ia, ib)]
                for tr in thermo.TRANSCRIPTIONS:
                    reports.append(_report(quantity, row["alpha"], row["beta"], None,
                                           tr, row["printed"][tr][quantity],
                                           row["oracle"][quantity]))
    for quantity in SUPERSTAT_QUANTITIES:
        for ia in range(len(params)):
            for ib in range(len(betas)):
                for iq in range(len(qs)):
                    row = superstat_rows[(ia, ib, iq)]
                    for tr in thermo.TRANSCRIPTIONS:
                        reports.append(_report(quantity, row["alpha"], row["beta"],
                                               row["q"], tr,
                                               row["printed"][tr][quantity],
                                               row["oracle"][quantity]))
    return reports


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
