"""Check the level ladders against the Hamiltonian behind the ordered one.

    python tools/spectrum_oracle.py              # alpha = 0.1, 0.3, 0.6
    python tools/spectrum_oracle.py 0.2 0.9      # any 0 < alpha < 1

In natural units, y = arctan(sqrt(alpha) x)/sqrt(alpha) maps the
Mustafa-Mazharimousavi-ordered Hamiltonian onto the trigonometric
Poeschl-Teller well -1/2 d^2/dy^2 + tan^2(sqrt(alpha) y)/(2 alpha) on
|y| < pi/(2 sqrt(alpha)), whose spectrum is exact (Cooper, Khare &
Sukhatme, Phys. Rep. 251 (1995) 267):

    E_n = (alpha/2)(n + lam)^2 - 1/(2 alpha),  lam = 1/2 + sqrt(1/4 + 1/alpha^2).

For each alpha the script prints, for n <= 5:

* that closed form, and the ordered ladder a(n + 1/2) + b(n^2 + n + 1/2)
  on the package's coefficients (a, b), which it equals;
* the levels of the well from numpy's eigvalsh on three uniform Dirichlet
  grids with the 3-point Laplacian, Richardson-extrapolated in h^2 and h^4;
* the typeset ladder E_n = a(n + 1/2) + b(n^2 + 2n + 1/2), which is the same
  form with lam' = 1 + a/alpha: E_n - E_0 = (alpha/2)((n + lam')^2 - lam'^2);
* the (E_0, L, b) of E_0 + L n + b n^2 fitted to each ladder: the two share
  E_0 and b and differ in L (a + b ordered, a + 2b typeset).

Needs numpy only.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

try:
    from pdmosc import OscillatorParams, coefficients
except ImportError:  # run from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pdmosc import OscillatorParams, coefficients

LEVELS = 6
#: interior points of the coarsest grid; each finer grid halves h
GRID = 250


def closed_levels(alpha: float, n: np.ndarray) -> np.ndarray:
    """The Poeschl-Teller levels (alpha/2)(n + lam)^2 - 1/(2 alpha)."""
    lam = 0.5 + math.sqrt(0.25 + 1.0 / (alpha * alpha))
    return 0.5 * alpha * (n + lam) ** 2 - 0.5 / alpha


def _well_levels(alpha: float, points: int) -> np.ndarray:
    """The lowest LEVELS eigenvalues of the well on points interior nodes."""
    wall = 0.5 * math.pi / math.sqrt(alpha)
    h = 2.0 * wall / (points + 1)
    y = -wall + h * np.arange(1, points + 1)
    kinetic = np.full(points - 1, -0.5 / (h * h))
    hamiltonian = (np.diag(np.tan(math.sqrt(alpha) * y) ** 2 / (2.0 * alpha) + 1.0 / (h * h))
                   + np.diag(kinetic, 1) + np.diag(kinetic, -1))
    return np.linalg.eigvalsh(hamiltonian)[:LEVELS]


def grid_levels(alpha: float, points: int = GRID) -> np.ndarray:
    """The well's lowest levels on grids of points, 2 points + 1 and 4 points + 3
    nodes (h, h/2, h/4), extrapolated twice: the error of the 3-point Laplacian
    runs in h^2, h^4, then (at the walls, where the states vanish like
    distance^lam) in h^(2 lam + 1)."""
    coarse, mid, fine = (_well_levels(alpha, m) for m in (points, 2 * points + 1, 4 * points + 3))
    once = (4.0 * mid - coarse) / 3.0, (4.0 * fine - mid) / 3.0
    return (16.0 * once[1] - once[0]) / 15.0


def ladder_fit(levels: np.ndarray) -> tuple[float, float, float]:
    """(E_0, L, b) of the least-squares E_0 + L n + b n^2 over n = 0, 1, ..."""
    b, lin, e0 = np.polyfit(np.arange(len(levels)), levels, 2)
    return float(e0), float(lin), float(b)


def ladders(alpha: float) -> dict[str, np.ndarray]:
    """The ordered and typeset ladders of the package's (a, b) at alpha, and
    the closed forms they equal, over n < LEVELS."""
    c = coefficients(OscillatorParams(alpha=alpha))
    n = np.arange(LEVELS, dtype=float)
    primed = 1.0 + c.a / alpha
    return {"closed": closed_levels(alpha, n),
            "ordered": c.a * (n + 0.5) + c.b * (n * n + n + 0.5),
            "typeset": np.array([c.level(k) for k in range(LEVELS)]),
            "typeset_closed": c.energy(0) + 0.5 * alpha * ((n + primed) ** 2 - primed ** 2)}


def main(argv: list[str]) -> int:
    for alpha in [float(x) for x in argv] or [0.1, 0.3, 0.6]:
        if not 0.0 < alpha < 1.0:
            print(f"alpha must lie in (0, 1): {alpha}", file=sys.stderr)
            return 2
        lad, grid = ladders(alpha), grid_levels(alpha)
        print(f"alpha = {alpha:g}")
        print(f"{'n':>2} {'closed form':>22} {'a(n+1/2)+b(n^2+n+1/2)':>22} {'grid':>22}"
              f" {'grid - closed':>14} {'typeset':>22}")
        for k in range(LEVELS):
            print(f"{k:>2} {lad['closed'][k]:22.17g} {lad['ordered'][k]:22.17g} {grid[k]:22.17g}"
                  f" {grid[k] - lad['closed'][k]:14.3e} {lad['typeset'][k]:22.17g}")
        for name, levels in (("ordered (grid)", grid), ("typeset", lad["typeset"])):
            e0, lin, b = ladder_fit(levels)
            print(f"  fit {name:>14}: E_0 = {e0:.12g}, L = {lin:.12g}, b = {b:.12g}")
        worst = np.max(np.abs(lad["typeset"] - lad["typeset_closed"]))
        print(f"  typeset ladder against its lam' = 1 + a/alpha form: {worst:.3e}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
