"""Polynomials written out as dense exponent vectors, for test literals."""

from __future__ import annotations

from quasimap.exact import MPoly


def dense(terms: dict[tuple[int, ...], object]) -> MPoly:
    """The polynomial ``sum c * z_0^e_0 * z_1^e_1 * ...`` over ``{(e_0, e_1, ...): c}``."""
    out = MPoly.zero()
    for e, c in terms.items():
        out = out + MPoly.monomial(dict(enumerate(e)), c)
    return out
