"""Thermodynamics from exact Boltzmann moments, and the two transcriptions
of the typeset closed forms.

The ground truth sums the level populations directly: U is the mean
energy and C = beta^2 Var E, with no numerical differentiation.  The
typeset closed forms for U, C, S carry typos, so each comes in a
'verbatim' reading (exactly as typeset) and a 'corrected' reading (the
algebraically consistent one).  Watch them agree and disagree with the
derivative engine, which differentiates ln Z_closed numerically and so
checks each closed form against its own Z.
"""

from functools import partial

from pdmosc import (OscillatorParams, Tolerance, coefficients, entropy_closed,
                    heat_capacity_closed, log_partition_closed, mean_energy_closed,
                    thermo_from_logZ)
from pdmosc.thermo import thermo_sum_engine

tol = Tolerance(rel=1e-14, abs=0.0, max_evals=200_000)
c = coefficients(OscillatorParams(alpha=0.3))

print("physical route (exact moments of the level sum), alpha = 0.3:")
print(f"{'beta':>5} {'U':>12} {'C':>12} {'S':>12} {'F':>12}")
for beta in (0.2, 0.5, 1.0, 2.0, 5.0):
    pt = thermo_sum_engine(c, beta, 1.0, tol)
    print(f"{beta:5.1f} {pt.U:12.6f} {pt.C:12.6f} {pt.S:12.6f} {pt.F:12.6f}")

print("\nclosed-form transcriptions vs the engine on ln Z_closed, beta = 2:")
beta = 2.0
engine = thermo_from_logZ(partial(log_partition_closed, c), beta, 1.0, "closed")
rows = [
    ("U", mean_energy_closed(c, beta, "verbatim"),
     mean_energy_closed(c, beta, "corrected"), engine.U),
    ("C", heat_capacity_closed(c, beta, 1.0, "verbatim"),
     heat_capacity_closed(c, beta, 1.0, "corrected"), engine.C),
    ("S", entropy_closed(c, beta, 1.0, "verbatim"),
     entropy_closed(c, beta, 1.0, "corrected"), engine.S),
]
print(f"{'':>2} {'verbatim':>16} {'corrected':>16} {'engine':>16}")
for name, verb, corr, ref in rows:
    print(f"{name:>2} {verb:16.8f} {corr:16.8f} {ref:16.8f}")
print("\nthe corrected reading tracks the engine; the verbatim one records")
print("what was actually typeset (the audit in demo 05 maps this everywhere).")
