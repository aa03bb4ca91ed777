"""The formula audit: every typeset closed form against its oracle.

Each grid point yields one DiscrepancyReport (a named tuple) per quantity
and transcription, classified Agree (<=1e-6), Close (<=1e-2), Disagree, or
non-finite.  The audit evaluates the closed superstat forms once per alpha
and transcription over the whole beta x q mesh and classifies each
quantity's column at once; the oracles run point by point.  The full atlas
is what `pdmosc audit` emits; here a reduced grid keeps the summary
readable.
"""

import collections

from pdmosc.verify import DEFAULT_BETAS, QUANTITIES, audit_grid

reports = audit_grid(params_grid=(0.1, 0.3, 0.9),
                     beta_grid=DEFAULT_BETAS[::4],
                     q_grid=(0.0, 0.5, 1.0))

counts = collections.Counter((r.quantity, r.transcription, r.classification)
                             for r in reports)

print(f"{len(reports)} reports on the reduced grid\n")
print(f"{'quantity':>9} {'transcription':>13} {'Agree':>6} {'Close':>6} "
      f"{'Disagree':>9} {'NonFinite':>10}")
for q in QUANTITIES:
    for tr in ("verbatim", "corrected"):
        agree = counts.get((q, tr, "Agree"), 0)
        close = counts.get((q, tr, "Close"), 0)
        disagree = counts.get((q, tr, "Disagree"), 0)
        nonfinite = counts.get((q, tr, "PrintedNonFinite"), 0)
        print(f"{q:>9} {tr:>13} {agree:6d} {close:6d} {disagree:9d} {nonfinite:10d}")

print("""
How to read this:
  * Z and F agree under both transcriptions: the typeset Z is exactly the
    [0,1] integral its erf limits encode, and F is defined as a composition.
  * U, C, S agree only once their typos are corrected; the verbatim C even
    overflows at large beta (its typeset form lost an erf cross term).
  * Zs is the opposite: the standalone typeset form ('verbatim') is exact
    and the restated '+' sign variant ('corrected') is the typo.
  * Us and Ss disagree under every reading: their typeset expressions are
    internally inconsistent beyond single-term fixes.
""")
