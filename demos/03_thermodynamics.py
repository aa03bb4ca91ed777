"""Thermodynamics from exact Boltzmann moments, and the two transcriptions
of the typeset closed forms.

The ground truth sums the level populations directly: U is the mean
energy and C = beta^2 Var E, with no numerical differentiation.  The
typeset closed forms for U, C, S carry typos, so each comes in a
'verbatim' reading (exactly as typeset) and a 'corrected' reading (the
algebraically consistent one).  Watch them agree and disagree with the
exact moments of the integral over n in [0, 1] that the closed Z equals
(thermo_quadrature 'quad01'), which checks each closed form against its
own Z.
"""

from pdmosc import (OscillatorParams, coefficients, entropy_closed,
                    heat_capacity_closed, mean_energy_closed)
from pdmosc.thermo import thermo_quadrature, thermo_sum_engine

c = coefficients(OscillatorParams(alpha=0.3))

print("physical route (exact moments of the level sum), alpha = 0.3:")
print(f"{'beta':>5} {'U':>12} {'C':>12} {'S':>12} {'F':>12}")
for beta in (0.2, 0.5, 1.0, 2.0, 5.0):
    pt = thermo_sum_engine(c, beta)
    print(f"{beta:5.1f} {pt.U:12.6f} {pt.C:12.6f} {pt.S:12.6f} {pt.F:12.6f}")

print("\nclosed-form transcriptions vs the exact moments of the closed Z, beta = 2:")
beta = 2.0
moments = thermo_quadrature(c, beta, "quad01")
rows = [
    ("U", mean_energy_closed(c, beta, "verbatim"),
     mean_energy_closed(c, beta, "corrected"), moments.U),
    ("C", heat_capacity_closed(c, beta, "verbatim"),
     heat_capacity_closed(c, beta, "corrected"), moments.C),
    ("S", entropy_closed(c, beta, "verbatim"),
     entropy_closed(c, beta, "corrected"), moments.S),
]
print(f"{'':>2} {'verbatim':>16} {'corrected':>16} {'moments':>16}")
for name, verb, corr, ref in rows:
    print(f"{name:>2} {verb:16.8f} {corr:16.8f} {ref:16.8f}")
print("\nthe corrected reading tracks the moments; the verbatim one records")
print("what was actually typeset (the audit in demo 05 maps this everywhere).")
