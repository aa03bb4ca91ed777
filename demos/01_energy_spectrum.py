"""Energy spectrum of the deformed-mass oscillator.

The mass profile m(x) = m0/(1 + alpha x^2)^2 turns the harmonic ladder into
E_n = a(n + 1/2) + b(n^2 + 2n + 1/2): a renormalized spacing a plus an
anharmonic quadratic term b.  This script shows how the deformation bends
the ladder.
"""

from pdmosc import OscillatorParams, coefficients

print("compact coefficients (natural units, m0 = omega = hbar = 1)")
print(f"{'alpha':>6} {'a':>18} {'b':>8}")
for alpha in (0.0, 0.1, 0.3, 0.9):
    c = coefficients(OscillatorParams(alpha=alpha))
    print(f"{alpha:6.2f} {c.a:18.12f} {c.b:8.3f}")

print("\nlevels E_n: the spacing grows linearly in n once alpha > 0")
alphas = (0.0, 0.1, 0.3, 0.9)
print(f"{'n':>3} " + " ".join(f"alpha={a:<6}" for a in alphas))
for n in range(8):
    row = " ".join(f"{coefficients(OscillatorParams(alpha=a)).level(n):12.6f}"
                   for a in alphas)
    print(f"{n:3d} {row}")

print("\nlevel spacings at alpha = 0.3 (exactly a + b(2n+3)):")
c = coefficients(OscillatorParams(alpha=0.3))
for n in range(6):
    print(f"  E_{n+1} - E_{n} = {c.energy(n + 1) - c.energy(n):.6f}")
