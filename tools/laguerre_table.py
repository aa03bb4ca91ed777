"""Generate the 48-point Gauss-Laguerre rule of ``pdmosc._laguerre``.

    python tools/laguerre_table.py            # rewrite src/pdmosc/_laguerre.py
    python tools/laguerre_table.py --check    # exit 1 if the checked-in table differs

The nodes are the zeros of the Laguerre polynomial L_48, found as the
eigenvalues of its Jacobi matrix (diagonal 2i + 1, off-diagonal i) and
polished by Newton's method on L_48 at 60 digits.  The weights are
w_i = x_i / ((n + 1)^2 L_{n+1}(x_i)^2) (Abramowitz & Stegun 25.4.45).
Both are rounded once to the nearest double.  numpy's ``laggauss`` is not
used: its weights carry errors of about 3e-14 relative.  Needs mpmath.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

N = 48
DPS = 60
TABLE = Path(__file__).resolve().parent.parent / "src" / "pdmosc" / "_laguerre.py"


def rule(n: int = N, dps: int = DPS) -> tuple[list[float], list[float]]:
    """(nodes, weights) of the n-point Gauss-Laguerre rule as doubles."""
    with mp.workdps(dps):
        jacobi = mp.matrix(n, n)
        for i in range(n):
            jacobi[i, i] = 2 * i + 1
            if i + 1 < n:
                jacobi[i, i + 1] = jacobi[i + 1, i] = i + 1
        guesses = sorted(mp.eigsy(jacobi, eigvals_only=True))
        nodes, weights = [], []
        for x in guesses:
            for _ in range(100):  # L_n'(x) = n (L_n(x) - L_{n-1}(x)) / x
                ln = mp.laguerre(n, 0, x)
                step = ln * x / (n * (ln - mp.laguerre(n - 1, 0, x)))
                x -= step
                if abs(step) < mp.mpf(10) ** (-dps + 5) * x:
                    break
            else:
                raise RuntimeError(f"Newton did not converge at node {x}")
            nodes.append(x)
            weights.append(x / ((n + 1) ** 2 * mp.laguerre(n + 1, 0, x) ** 2))
        return [float(x) for x in nodes], [float(w) for w in weights]


def render(nodes: list[float], weights: list[float]) -> str:
    def column(values):
        return "".join(f"    {v!r},\n" for v in values)

    return (
        f'"""The {len(nodes)}-point Gauss-Laguerre rule: int_0^inf e^{{-u}} f(u) du\n'
        f"~ sum_i WEIGHTS[i] f(NODES[i]), exact for polynomials of degree < {2 * len(nodes)}.\n"
        "\n"
        "Generated by tools/laguerre_table.py from 60-digit mpmath; do not edit.\n"
        '"""\n'
        "\n"
        f"NODES = (\n{column(nodes)})\n"
        "\n"
        f"WEIGHTS = (\n{column(weights)})\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in table instead of writing it")
    args = parser.parse_args(argv)
    text = render(*rule())
    if args.check:
        if TABLE.read_text() != text:
            print(f"{TABLE} differs from the regenerated table", file=sys.stderr)
            return 1
        print(f"{TABLE} matches the regenerated table")
        return 0
    TABLE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
