"""Superstatistics: the q-deformed Boltzmann factor and its thermodynamics.

B_E^(q) = e^{-beta E} (1 + (q/2) beta^2 E^2) weights high-energy states up;
q = 0 recovers classical statistics.  Ground truth is the moment engine:
Z_s and its exact beta-derivatives, which give U_s and C_s without
numerical differentiation, are finite sums of closed-form moments of the
excitation energy.  The typeset closed Z_s turns out to be exact (in its
standalone '-' sign variant) against the semi-infinite quadrature, which
the last table shows.
"""

import math

import numpy as np

from pdmosc import (OscillatorParams, Tolerance, boltzmann_factor_q, coefficients,
                    superstat_partition_closed, superstat_quadrature, superstat_thermo)

tol = Tolerance(rel=1e-12, abs=0.0, max_evals=200_000)
c = coefficients(OscillatorParams(alpha=0.3))

print("deformed factor at beta = 1 (E = 2): classical e^-2 =", f"{math.exp(-2):.6f}")
for q in (0.0, 0.25, 0.5, 1.0):
    print(f"  q={q:4.2f}  B = {boltzmann_factor_q(2.0, 1.0, q):.6f}")

print("\nZ_s grows with q (the deformation adds weight), alpha = 0.3:")
print(f"{'beta':>5} " + " ".join(f"q={q:<8}" for q in (0.0, 0.5, 1.0)))
for beta in (0.5, 1.0, 2.0):
    vals = [superstat_quadrature(c, beta, q, tol).Zs for q in (0.0, 0.5, 1.0)]
    print(f"{beta:5.1f} " + " ".join(f"{v:10.6f}" for v in vals))

print("\nsuperstatistical thermodynamics from exact moments, q = 0.5:")
print(f"{'beta':>5} {'Zs':>12} {'Us':>12} {'Ss':>12} {'Fs':>12} {'Cs':>12}")
for beta in (0.5, 1.0, 2.0, 5.0):
    pt = superstat_thermo(c, beta, 0.5)
    print(f"{beta:5.1f} {pt.Zs:12.6f} {pt.Us:12.6f} {pt.Ss:12.6f} "
          f"{pt.Fs:12.6f} {pt.Cs:12.6f}")

print("\ntypeset closed Z_s vs quadrature (verbatim '-' variant is exact;")
print("the '+' variant restated inside the free energy is the typo):")
for beta in np.logspace(-1, 1, 5):
    zq = superstat_quadrature(c, beta, 0.7, tol).Zs
    zv = superstat_partition_closed(c, beta, 0.7, "verbatim")
    zc = superstat_partition_closed(c, beta, 0.7, "corrected")
    print(f"  beta={beta:7.3f}  verbatim rel {abs(zv - zq) / zq:.1e}   "
          f"corrected rel {abs(zc - zq) / zq:.1e}")
