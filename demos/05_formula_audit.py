"""The formula audit: every typeset closed form against its oracle.

Each quantity yields one AuditBlock: its printed value per grid point and
transcription, classified Agree (<=1e-6), Close (<=1e-2), Disagree, or
non-finite.  The audit makes four route calls over the whole alpha x beta x q
grid: one oracle call and one typeset call for each of the thermo and
superstat families.  The typeset call evaluates both transcriptions at once
and returns each quantity with a trailing transcription axis.  Each quantity's
column is classified at once.  An alpha where the closed forms are singular
(alpha = 0) prints nan in its typeset columns, classified PrintedNonFinite.
The full atlas is what `pdmosc audit` emits; here a reduced grid keeps the
summary readable.
"""

import collections

from pdmosc.routes import SUPERSTAT, THERMO
from pdmosc.verify import DEFAULT_BETAS, audit_columns

blocks = audit_columns(params_grid=(0.1, 0.3, 0.9),
                       beta_grid=DEFAULT_BETAS[::4],
                       q_grid=(0.0, 0.5, 1.0))

# the classification column of each block has one column per transcription
counts = collections.Counter((b.quantity, tr, cls) for b in blocks
                             for tr, column in zip(("verbatim", "corrected"),
                                                   b.classification.T)
                             for cls in column)

print(f"{sum(b.classification.size for b in blocks)} reports on the reduced grid\n")
print(f"{'quantity':>9} {'transcription':>13} {'Agree':>6} {'Close':>6} "
      f"{'Disagree':>9} {'NonFinite':>10}")
for q in THERMO + SUPERSTAT:
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
