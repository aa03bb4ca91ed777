"""Physical parameters and the energy spectrum of the oscillator with
position-dependent mass m(x) = m0/(1 + alpha x^2)^2.

The spectrum is E_n = a(n + 1/2) + b(n^2 + 2n + 1/2), a quadratically
deformed ladder; (a, b) are the compact coefficients derived from the
physical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 exact/recommended values, used by the SI unit mode.
HBAR_SI = 1.054571817e-34   # J s
KB_SI = 1.380649e-23        # J/K
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class OscillatorParams:
    """Physical inputs.  Defaults are natural units m0 = omega = hbar = kB = 1.

    alpha is the mass-deformation knob, 0 <= alpha < 1 (alpha = 0 is the
    undeformed oscillator, admitted here as the standard-oscillator oracle).
    """

    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0
    kB: float = 1.0

    def __post_init__(self):
        if self.m0 <= 0 or self.omega <= 0 or self.hbar <= 0 or self.kB <= 0:
            raise ValueError("m0, omega, hbar, kB must all be positive")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must satisfy 0 <= alpha < 1")

    @classmethod
    def si(cls, alpha: float = 0.0, m0: float = ELECTRON_MASS_SI,
           omega: float = 1.0e14) -> "OscillatorParams":
        """SI-unit parameter set: CODATA hbar and kB, electron mass and an
        infrared frequency scale by default."""
        return cls(m0=m0, omega=omega, hbar=HBAR_SI, alpha=alpha, kB=KB_SI)


@dataclass(frozen=True)
class SpectrumCoefficients:
    """Compact parameterization of the spectrum: E_n = a(n+1/2) + b(n^2+2n+1/2).

    a >= hbar*omega is the renormalized level spacing (equality iff alpha=0);
    b >= 0 is the anharmonic quadratic coefficient (zero iff alpha=0).
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b < 0:
            raise ValueError("require a > 0 and b >= 0")

    def energy(self, n) -> float:
        """Continuous-n energy; at integer n this is the level E_n."""
        return self.a * (n + 0.5) + self.b * (n * n + 2.0 * n + 0.5)

    def level(self, n) -> float:
        """Energy of level n, which must be a nonnegative integer."""
        if not (n >= 0 and float(n).is_integer()):
            raise ValueError("n must be a nonnegative integer")
        return self.energy(int(n))


def coefficients(p: OscillatorParams,
                 b_convention: str = "spectrum") -> SpectrumCoefficients:
    """Compact (a, b) from the physical parameters.

    a = hbar*omega*sqrt(1 + alpha^2 hbar^2 / (4 m0^2 omega^2)) in both
    conventions.  The quadratic coefficient appears in two variants in the
    source material: b = alpha*hbar^2/(2 m0) ("spectrum", the value that
    makes the compact form identical to the full spectrum; default) and
    b = alpha*hbar^2/(2 m0 omega) ("compact").  They coincide in natural
    units; both are exposed so the discrepancy stays testable.
    """
    m0, w, hb, al = p.m0, p.omega, p.hbar, p.alpha
    a = hb * w * math.sqrt(1.0 + al * al * hb * hb / (4.0 * m0 * m0 * w * w))
    if b_convention == "spectrum":
        b = al * hb * hb / (2.0 * m0)
    elif b_convention == "compact":
        b = al * hb * hb / (2.0 * m0 * w)
    else:
        raise ValueError("b_convention must be 'spectrum' or 'compact'")
    return SpectrumCoefficients(a=a, b=b)


def energy_level(p: OscillatorParams, n: int,
                 b_convention: str = "spectrum") -> float:
    """Energy of level n >= 0; strictly increasing and convex in n."""
    return coefficients(p, b_convention).level(n)
