"""Compare two discrepancy atlases written by ``pdmosc audit``.

    python tools/atlas_diff.py OLD.csv NEW.csv

For each (quantity, transcription) it prints the worst relative shift of
the printed and of the oracle column, and how many printed values moved;
then it lists every row whose classification changed.  A shift is
|new - old| / max(|old|, 1e-300); nan against nan and equal infinities
count as no shift, and a move that this leaves nan (to or from nan, or
from an infinity) as an infinite one.  Exits 1 when the two files do not
cover the same grid (quantity, alpha, beta, q and transcription, row by
row), 2 when they do but a classification changed, else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

KEY = ("quantity", "alpha", "beta", "q", "transcription")


def shift(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    rel = abs(new - old) / max(abs(old), 1e-300)
    return math.inf if math.isnan(rel) else rel


def read(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], int]:
    """The report lines and the exit status (see the module docstring)."""
    if [tuple(r[k] for k in KEY) for r in old] != [tuple(r[k] for k in KEY) for r in new]:
        return ["the two atlases cover different grids"], 1
    worst: dict[tuple[str, str], list] = {}
    changed = []
    for o, n in zip(old, new):
        w = worst.setdefault((o["quantity"], o["transcription"]), [0.0, 0.0, 0])
        printed = shift(float(o["printed"]), float(n["printed"]))
        w[0] = max(w[0], printed)
        w[1] = max(w[1], shift(float(o["oracle"]), float(n["oracle"])))
        w[2] += printed != 0.0
        if o["classification"] != n["classification"]:
            changed.append((o, n["classification"], n["rel_diff"]))
    lines = [f"{'quantity':<9} {'transcription':<13} {'printed':>9} {'oracle':>9} {'moved':>6}"]
    lines += [f"{qn:<9} {tr:<13} {p:9.2e} {o:9.2e} {m:6d}"
              for (qn, tr), (p, o, m) in worst.items()]
    lines.append(f"classification changes: {len(changed)}")
    lines += [f"  {o['quantity']} {o['transcription']} alpha={o['alpha']} beta={o['beta']} "
              f"q={o['q']}: {o['classification']} -> {cls} (rel {o['rel_diff']} -> {rel})"
              for o, cls, rel in changed]
    return lines, 2 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines, status = compare(read(args.old), read(args.new))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
