"""Physical parameters and the energy spectrum of the oscillator with
position-dependent mass m(x) = m0/(1 + alpha x^2)^2.

The spectrum is E_n = a(n + 1/2) + b(n^2 + 2n + 1/2), a quadratically
deformed ladder; (a, b) are the compact coefficients derived from the
physical parameters.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .numerics import _Checked

# CODATA 2018 exact/recommended values, used by the SI unit mode.
HBAR_SI = 1.054571817e-34   # J s
KB_SI = 1.380649e-23        # J/K
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


class _ArrayFields(_Checked):
    """== and hash of a checked NamedTuple record whose fields may hold arrays
    (an alpha curve): == and != compare field by field with np.array_equal
    and give a plain bool; hash is that of the field tuple, and an instance
    that holds an array is unhashable (TypeError), like the array itself."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self, other))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if any(isinstance(v, np.ndarray) for v in self):
            raise TypeError(f"unhashable {type(self).__name__}: it holds an array")
        return tuple.__hash__(self)


class _ParamsFields(NamedTuple):
    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0
    kB: float = 1.0


class OscillatorParams(_ArrayFields, _ParamsFields):
    """Physical inputs.  Defaults are natural units m0 = omega = hbar = kB = 1.

    alpha is the mass-deformation knob, 0 <= alpha < 1 (alpha = 0 is the
    undeformed oscillator, admitted here as the standard-oscillator oracle).
    alpha may be a float array, one checked element per point of a curve.
    """

    __slots__ = ()

    def _check(self):
        if not all(0.0 < x < math.inf for x in (self.m0, self.omega, self.hbar, self.kB)):
            raise ValueError("m0, omega, hbar, kB must all be positive and finite")
        ok = (0.0 <= self.alpha) & (self.alpha < 1.0)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValueError("alpha must satisfy 0 <= alpha < 1")

    @classmethod
    def si(cls, alpha: float = 0.0, m0: float = ELECTRON_MASS_SI,
           omega: float = 1.0e14) -> "OscillatorParams":
        """SI-unit parameter set: CODATA hbar and kB, electron mass and an
        infrared frequency scale by default."""
        return cls(m0=m0, omega=omega, hbar=HBAR_SI, alpha=alpha, kB=KB_SI)


class _CoefficientsFields(NamedTuple):
    a: float | np.ndarray
    b: float | np.ndarray


class SpectrumCoefficients(_ArrayFields, _CoefficientsFields):
    """Compact parameterization of the spectrum: E_n = a(n+1/2) + b(n^2+2n+1/2).

    a >= hbar*omega is the renormalized level spacing (equality iff alpha=0);
    b >= 0 is the anharmonic quadratic coefficient (zero iff alpha=0).
    a and b may be float arrays, one checked element per point of an alpha
    curve, which each method broadcasts against n.
    """

    __slots__ = ()

    def _check(self):
        ok = (0.0 < self.a) & (self.a < math.inf) & (0.0 <= self.b) & (self.b < math.inf)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValueError("require 0 < a < inf and 0 <= b < inf")

    def energy(self, n) -> float | np.ndarray:
        """Continuous-n energy; at integer n this is the level E_n."""
        return self.a * (n + 0.5) + self.b * (n * n + 2.0 * n + 0.5)

    def level(self, n) -> float | np.ndarray:
        """Energy of level n, a nonnegative integer (each element of an array).
        A scalar is squared as an int while its square rounds into the float
        range.  E_n is inf past n ~ 1e154, and an int n past the float range
        counts as inf; where b = 0 the quadratic term is 0, so E_n = a(n + 1/2)."""
        huge = isinstance(n, int) and abs(n) > sys.float_info.max
        nv = np.asarray((math.inf if n > 0 else -math.inf) if huge else n, dtype=float)
        if not np.all((nv >= 0) & ((nv < math.inf) | huge) & (nv == np.floor(nv))):
            raise ValueError("n must be a nonnegative integer")
        exact = nv.ndim == 0 and nv < 2.0 ** 512
        with np.errstate(over="ignore", invalid="ignore"):  # b n^2 is 0 inf = nan at b = 0
            e = np.where(self.b > 0.0, self.energy(int(n) if exact else nv), self.a * (nv + 0.5))
        return e if e.ndim else float(e)


def coefficients(p: OscillatorParams) -> SpectrumCoefficients:
    """Compact (a, b) from the physical parameters:
    a = hbar*omega*sqrt(1 + alpha^2 hbar^2 / (4 m0^2 omega^2)) and
    b = alpha*hbar^2/(2 m0), the value that makes the compact form identical
    to the full spectrum; b does not depend on omega.  (The source's second
    variant, alpha*hbar^2/(2 m0 omega), equals it in natural units and is no
    energy in SI, so it is not offered.)  An alpha array gives arrays, each
    element bit for bit its float call (np.sqrt is correctly rounded, like
    math.sqrt); a float alpha gives floats.
    """
    m0, w, hb, al = p.m0, p.omega, p.hbar, p.alpha
    a = hb * w * np.sqrt(1.0 + al * al * hb * hb / (4.0 * m0 * m0 * w * w))
    return SpectrumCoefficients(a=a if np.ndim(a) else float(a), b=al * hb * hb / (2.0 * m0))
