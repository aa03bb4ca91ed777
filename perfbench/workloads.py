"""The three benchmark workloads: the CLI argv lists each one runs, and the
correctness checks applied to their outputs after the timed region.

Every workload is a list of ``pdmosc`` argv lists run in order through
``pdmosc.cli.main``.  A check returns the number of failed rows in one
call's output; a row fails if it is missing, null or non-finite where a
value is expected, or misses its reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIXTURE = Path("tests") / "fixtures" / "audit_atlas.csv"


@dataclass
class Workload:
    name: str
    calls: list[list[str]]
    expected_rows: list[int]
    #: (call index, stdout of an exit-0 call) -> failed rows of that call
    check: Callable[[int, str], int]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    """The atlas fixture rule: nan matches nan, inf must match exactly,
    finite values agree within rel."""
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _csv_rows(text: str, header: str) -> list[list[str]] | None:
    lines = text.rstrip("\n").split("\n")
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


ATLAS_HEADER = "quantity,alpha,beta,q,transcription,printed,oracle,rel_diff,classification"


def _read_fixture(root: Path):
    """Fixture rows, streamed so that parsing it leaves no mark on the
    measured peak memory."""
    with open(root / FIXTURE) as fh:
        if fh.readline().rstrip("\n") != ATLAS_HEADER:
            raise ValueError(f"{FIXTURE} has an unexpected header")
        for line in fh:
            yield line.rstrip("\n").split(",")


# ---------------------------------------------------------------------------
# atlas: one `pdmosc audit` on the default grid
# ---------------------------------------------------------------------------

def atlas(seed: int, root: Path) -> Workload:
    """The fixed product grid; the seed changes nothing here."""
    expected = sum(1 for _ in _read_fixture(root))

    def check(_: int, out: str) -> int:
        rows = _csv_rows(out, ATLAS_HEADER)
        if rows is None:
            return expected
        fixture = list(_read_fixture(root))
        failed = max(0, len(fixture) - len(rows))
        for got, want in zip(rows, fixture):
            if len(got) != 9 or got[0] != want[0] or got[4] != want[4] \
                    or got[8] != want[8] or (got[3] == "") != (want[3] == ""):
                failed += 1
                continue
            pairs = [(got[i], want[i]) for i in (1, 2, 3, 5, 6, 7) if want[i] != ""]
            nums = [(_float(g), float(w)) for g, w in pairs]
            oracle = nums[-2][0]
            if any(g is None or not _close(g, w) for g, w in nums) \
                    or not math.isfinite(oracle):
                failed += 1
        return failed

    return Workload("atlas", [["audit"]], [expected], check)


# ---------------------------------------------------------------------------
# presets-sum: the ten physical-route figure presets Fig1a..Fig5b
# ---------------------------------------------------------------------------

#: figure id -> (quantity, x axis, trend the preset embeds or None)
SUM_PRESETS = {
    "Fig1a": ("Energy", "n", "increasing"),
    "Fig1b": ("Energy", "alpha", "increasing"),
    "Fig2a": ("Z", "beta", "decreasing"),
    "Fig2b": ("Z", "alpha", "decreasing"),
    "Fig3a": ("C", "beta", "nonnegative"),
    "Fig3b": ("C", "alpha", "nonnegative"),
    "Fig4a": ("S", "beta", "decreasing"),
    "Fig4b": ("S", "alpha", None),
    "Fig5a": ("F", "beta", "increasing"),
    "Fig5b": ("F", "alpha", "increasing"),
}
#: three curves of 11 levels (Fig1a) or 48 grid points (the rest)
SUM_PRESET_ROWS = {fig: 33 if fig == "Fig1a" else 144 for fig in SUM_PRESETS}
MPMATH_SAMPLE = 24
_TREND_SLACK = 1e-12
#: allowed relative error against the brute-force sum, per quantity; C and S
#: carry the Richardson-differentiation error of the derivative engine, F
#: the sum tolerance after cancellation against E_0
REFERENCE_REL = {"Energy": 1e-13, "Z": 1e-9, "F": 1e-8, "S": 1e-7, "C": 1e-5}


def _trend_failures(ys: list[float], trend: str | None) -> list[int]:
    """Indices that break the trend, with the 1e-12 slack of verify.trend_check."""
    if trend == "increasing":
        return [i for i in range(1, len(ys)) if not ys[i] > ys[i - 1] - _TREND_SLACK]
    if trend == "decreasing":
        return [i for i in range(1, len(ys)) if not ys[i] < ys[i - 1] + _TREND_SLACK]
    if trend == "nonnegative":
        return [i for i, y in enumerate(ys) if not y >= -_TREND_SLACK]
    return []


def boltzmann_reference(quantity: str, alpha: float, beta: float | None,
                        n: int | None) -> float:
    """Natural units: E_n = a(n+1/2) + b(n^2+2n+1/2), a = sqrt(1+alpha^2/4),
    b = alpha/2.  Z, C, S, F by brute-force Boltzmann sums at 50 digits,
    summed until beta (E_n - E_0) exceeds 80."""
    import mpmath as mp  # after the timed passes: keeps it out of peak memory

    with mp.workdps(50):
        al = mp.mpf(alpha)
        a = mp.sqrt(1 + al * al / 4)
        b = al / 2

        def energy(k):
            return a * (k + mp.mpf(0.5)) + b * (k * k + 2 * k + mp.mpf(0.5))

        if quantity == "Energy":
            return float(energy(n))
        bt = mp.mpf(beta)
        e0 = energy(0)
        ws, es = [], []
        k = 0
        while True:
            e = energy(k)
            if bt * (e - e0) > 80:
                break
            ws.append(mp.exp(-bt * e))
            es.append(e)
            k += 1
        z = mp.fsum(ws)
        mean = mp.fsum(w * e for w, e in zip(ws, es)) / z
        var = mp.fsum(w * (e - mean) ** 2 for w, e in zip(ws, es)) / z
        lnz = mp.log(z)
        return float({"Z": z, "C": bt * bt * var, "S": lnz + bt * mean,
                      "F": -lnz / bt}[quantity])


def presets_sum(seed: int, root: Path) -> Workload:
    """Seed permutes the preset order and picks the mpmath-checked rows."""
    rng = random.Random(seed)
    figures = list(SUM_PRESETS)
    rng.shuffle(figures)
    flat = [(i, r) for i, fig in enumerate(figures) for r in range(SUM_PRESET_ROWS[fig])]
    sampled: dict[int, set[int]] = {}
    for i, r in rng.sample(flat, MPMATH_SAMPLE):
        sampled.setdefault(i, set()).add(r)

    def reference(fig: str, label: str, x: float) -> float:
        quantity, axis, _ = SUM_PRESETS[fig]
        param, value = label.split("=")
        point = {param: float(value), axis: x}
        n = int(point["n"]) if "n" in point else None
        return boltzmann_reference(quantity, point["alpha"], point.get("beta"), n)

    def check(i: int, out: str) -> int:
        fig = figures[i]
        expected = SUM_PRESET_ROWS[fig]
        rows = _csv_rows(out, "curve,x,y,warning")
        if rows is None:
            return expected
        bad = set(range(len(rows), expected))
        curves: dict[str, list[tuple[int, float]]] = {}
        for r, row in enumerate(rows[:expected]):
            y = _float(row[2]) if len(row) == 4 else None
            if y is None or row[3] != "" or not math.isfinite(y):
                bad.add(r)
                continue
            curves.setdefault(row[0], []).append((r, y))
            if r in sampled.get(i, ()):
                want = reference(fig, row[0], float(row[1]))
                if not _close(y, want, REFERENCE_REL[SUM_PRESETS[fig][0]]):
                    bad.add(r)
        for pts in curves.values():
            for k in _trend_failures([y for _, y in pts], SUM_PRESETS[fig][2]):
                bad.add(pts[k][0])
        return len(bad) + max(0, len(rows) - expected)

    return Workload("presets-sum", [["figure", fig] for fig in figures],
                    [SUM_PRESET_ROWS[fig] for fig in figures], check)


# ---------------------------------------------------------------------------
# closed-sweep: every typeset closed form along the audit beta grid
# ---------------------------------------------------------------------------

def closed_sweep(seed: int, root: Path) -> Workload:
    """One `sweep <Q> --vary beta --method closed` per (quantity, alpha, q,
    transcription) of the atlas fixture, checked against its printed
    column.  Seed permutes the call order."""
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for row in _read_fixture(root):
        quantity, alpha, beta, q, tr, printed = row[:6]
        groups.setdefault((quantity, alpha, q, tr), []).append(
            (float(beta), float(printed)))
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    calls = []
    for quantity, alpha, q, tr in keys:
        betas = ",".join(repr(b) for b, _ in groups[(quantity, alpha, q, tr)])
        argv = ["sweep", quantity, "--vary", "beta", "--range", betas,
                "--alpha", repr(float(alpha)), "--method", "closed",
                "--transcription", tr]
        if q != "":
            argv += ["--q", repr(float(q))]
        calls.append(argv)

    def check(i: int, out: str) -> int:
        want = groups[keys[i]]
        rows = _csv_rows(out, f"beta,{keys[i][0]},warning")
        if rows is None:
            return len(want)
        failed = abs(len(want) - len(rows))
        for row, (beta, printed) in zip(rows, want):
            x = _float(row[0]) if len(row) == 3 else None
            y = _float(row[1]) if len(row) == 3 else None
            if x != beta or y is None or row[2] != "" or not _close(y, printed):
                failed += 1
        return failed

    return Workload("closed-sweep", calls, [len(groups[k]) for k in keys], check)


WORKLOADS = {"atlas": atlas, "presets-sum": presets_sum, "closed-sweep": closed_sweep}
