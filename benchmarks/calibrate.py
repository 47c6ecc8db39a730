"""A fixed unit of pure-Python work that measures how fast the machine is right now.

    python3 benchmarks/calibrate.py [REPEAT]

``run.py`` runs this as a fresh process, ``REPEAT`` times over, before every
operation and once after the last, and scales each operation's times by the
reference time of one unit of this work over the mean of the two calibrations
beside it (see README.md, "Machine speed").  It imports nothing from
``quasimap`` and does the same work on every run, so a change to the program
cannot move it.  The work is the kind the
program does: ``Fraction`` products summed over all compositions of an
integer, as in ``series.j_from_w``, and a product of two dictionary
polynomials with ``Fraction`` coefficients, as in ``exact.MPoly``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations

COMPOSITION_N = 14  # 2^13 compositions
POLY_SIZE = 14  # 196 terms times 196 terms


def work() -> tuple[Fraction, int]:
    coeff = [Fraction(1, k + 1) for k in range(COMPOSITION_N + 1)]
    total = Fraction(0)
    for r in range(COMPOSITION_N):
        for cut in combinations(range(1, COMPOSITION_N), r):
            product = Fraction(1)
            for a, b in zip((0, *cut), (*cut, COMPOSITION_N)):
                product *= coeff[b - a]
            total += product if r % 2 else -product
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(POLY_SIZE) for j in range(POLY_SIZE)}
    square: dict[tuple[int, int], Fraction] = {}
    for (a, b), x in poly.items():
        for (c, d), y in poly.items():
            key = (a + c, b + d)
            square[key] = square.get(key, 0) + x * y
    return total, len(square)


if __name__ == "__main__":
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 1):
        work()
