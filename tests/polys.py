"""Test literals and reports: dense exponent vectors, linear forms, degrees, values."""

from __future__ import annotations

from fractions import Fraction
from math import prod

from quasimap.exact import FactoredRat, LinForm, MPoly


def dense(terms: dict[tuple[int, ...], object]) -> MPoly:
    """The polynomial ``sum c * z_0^e_0 * z_1^e_1 * ...`` over ``{(e_0, e_1, ...): c}``."""
    out = MPoly.zero()
    for e, c in terms.items():
        out = out + MPoly.monomial(dict(enumerate(e)), c)
    return out


def linform(*pairs: tuple[int, int | Fraction]) -> LinForm:
    """``linform((0, 2), (1, -1))`` is ``2*z0 - z1``."""
    return LinForm(dict(pairs))


def homogeneous_degree(p: MPoly) -> int | None:
    """The common total degree of the terms of ``p``, or None when they mix degrees."""
    degs = {sum(k for _, k in e) for e in p.terms}
    return degs.pop() if len(degs) == 1 else None


def evaluate(x: LinForm | MPoly | FactoredRat, values) -> Fraction:
    """The value of ``x`` at ``values`` (indexed by variable), in ``Fraction`` arithmetic;
    a point on a denominator factor raises ``ZeroDivisionError``."""
    if isinstance(x, LinForm):
        x = x.to_mpoly()
    if isinstance(x, MPoly):
        return sum((c * prod(values[j] ** k for j, k in e) for e, c in x.terms.items()), Fraction(0))
    value = x.scalar * evaluate(x.num, values) * prod(evaluate(g, values) ** m for g, m in x.factors)
    return value / prod(evaluate(f.form, values) ** f.multiplicity for f in x.den)


def bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination of the square or augmented ``m``, in place; returns
    the determinant of its square part.  Row ``k`` then holds the row-swapped system in
    triangular form, with the ``(k+1)``-th leading minor at ``m[k][k]``."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[k])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
