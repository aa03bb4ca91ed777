"""Three routes to the partition function, and what the closed form really is.

Route 1: the defining sum over levels, to rounding (Euler-Maclaurin at high
temperature, a certified direct sum elsewhere).
Route 2: the typeset closed erf form.
Route 3: quadrature of exp(-beta E(n)) dn over [0,1] or [0,inf).

The punchline: the closed erf form is NOT the sum -- it reproduces the
integral over n in [0, 1] to machine precision, which the first table makes
visible and the second table quantifies.
"""

import numpy as np

from pdmosc import (OscillatorParams, Tolerance, coefficients, partition_closed,
                    thermo_quadrature, thermo_sum_engine)

tol = Tolerance(rel=1e-12, abs=0.0, max_evals=200_000)
c = coefficients(OscillatorParams(alpha=0.3))

print("alpha = 0.3, natural units")
print(f"{'beta':>6} {'Z_sum':>14} {'Z_closed':>14} {'Z_[0,1]':>14} {'Z_[0,inf)':>14}")
for beta in (0.2, 0.5, 1.0, 2.0, 5.0, 8.0):
    zs = thermo_sum_engine(c, beta).Z
    zc = partition_closed(c, beta)
    z1 = thermo_quadrature(c, beta, "quad01", tol).Z
    zi = thermo_quadrature(c, beta, "quadinf", tol).Z
    print(f"{beta:6.2f} {zs:14.8f} {zc:14.8f} {z1:14.8f} {zi:14.8f}")

print("\nclosed form vs the [0,1] integral (relative difference):")
for beta in np.logspace(-1, 1, 7):
    zc = partition_closed(c, beta)
    z1 = thermo_quadrature(c, beta, "quad01", tol).Z
    print(f"  beta={beta:7.3f}  |closed - quad01|/quad01 = {abs(zc - z1) / z1:.2e}")

print("\nsum / closed ratio (the physically meaningful discrepancy):")
for beta in (0.2, 1.0, 5.0):
    print(f"  beta={beta:4.1f}  Z_sum/Z_closed = "
          f"{thermo_sum_engine(c, beta).Z / partition_closed(c, beta):.4f}")
