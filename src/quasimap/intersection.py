"""Intersection-number integrands for the quasi-map moduli and their residues.

The pairing of a class ``Omega`` against the moduli space is the iterated
residue of ``Omega / R`` where ``R`` is the product of all divisor-class
linear forms; the two-point numbers

    w(O_{z^a} O_{z^b})_{0,d} = integral of
        H_0^a H_d^b * prod_{i=1}^d e6(H_{i-1}, H_i) / prod_{i=1}^{d-1} 6 H_i

come from the same pairing.  The insertion integrands are listed factor by
factor (:class:`IntegrandSpec`) and handed to :class:`~quasimap.exact.FactoredRat`,
which cancels each numerator factor against a proportional denominator factor;
this shrinks the excluded-factor population to the wall forms
``2 z_j - z_{j-1} - z_{j+1}`` and keeps the residue branching small.  The
surviving numerator factors are never expanded here: the residue engine
multiplies each one in at the step whose variable it first involves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import FactoredRat, LinForm, MPoly
from .residues import ResidueError, iterated_residue, residue_sweep
from .toric import sr_ideal_factors, wall_form


def e6_factors(x: int, y: int) -> list[LinForm]:
    """The seven linear factors ``(6-j) z_x + j z_y`` for ``j = 0..6``.

    Their product is homogeneous of degree 7 and factors as
    ``etilde(x, y) * (2x + y) * (x + 2y)`` with
    ``etilde(x, y) = 2^4 * 3^2 * x y * prod_{i=0}^2 ((2i+1) x + (5-2i) y)``;
    the two cofactors cancel against the pairing denominator.
    """
    return [LinForm({x: 6 - j, y: j}) for j in range(7)]


def r_denominator_factors(d: int) -> tuple[Fraction, list[tuple[LinForm, int, frozenset[int]]]]:
    """Scalar ``3^{d+1}`` and tagged factors of the pairing denominator ``R``.

    ``R`` is the scalar times the product of the ideal generators; every form
    of block ``i`` (:func:`~quasimap.toric.block_forms`) is tagged ``{i}``,
    since the ``z_i`` contour encloses its zero.
    """
    return Fraction(3 ** (d + 1)), [(form, mult, frozenset({i}))
                                    for i, gen in enumerate(sr_ideal_factors(d)) for form, mult in gen]


def r_inverse(d: int) -> FactoredRat:
    """``1/R`` as a :class:`FactoredRat`, from :func:`r_denominator_factors`: build it
    once per degree and hand it to every :func:`integrate_class` of that degree."""
    scalar, den = r_denominator_factors(d)
    return FactoredRat(1 / scalar, MPoly.const(1), den)


class IntegrandSpec(NamedTuple):
    """Recipe for one insertion-chain integrand over the degree-d moduli.

    ``monomial`` lists ``(j, e)`` pairs, each the power ``z_j^e`` as given: a
    positive ``e`` is a numerator factor, a negative one a denominator factor
    tagged ``{j}``, and :class:`FactoredRat` cancels a ``z_j`` on both sides.
    ``extra_forms`` are additional numerator linear factors.
    """

    d: int
    monomial: tuple[tuple[int, int], ...] = ()
    extra_forms: tuple[LinForm, ...] = ()

    @classmethod
    def insertions(cls, d: int, a: int, b: int) -> IntegrandSpec:
        return cls(d, ((0, a), (d, b)))

    def build(self) -> FactoredRat:
        """The integrand ``z^monomial * prod e6 * prod extra_forms / (R * prod 6 z_i)``.

        Every factor is listed as it is; :class:`FactoredRat` cancels the
        proportional ones and keeps the survivors unexpanded.
        """
        d = self.d
        scalar, den = r_denominator_factors(d)
        den += [(LinForm({i: 6}), 1, frozenset({i})) for i in range(1, d)]
        den += [(LinForm.variable(v), -e, frozenset({v})) for v, e in self.monomial if e < 0]
        num = [(form, 1) for i in range(1, d + 1) for form in e6_factors(i - 1, i)]
        num += [(form, 1) for form in self.extra_forms]
        num += [(LinForm.variable(v), e) for v, e in self.monomial if e > 0]
        return FactoredRat(1 / scalar, MPoly.const(1), den, num)


def compute_w(d: int, a: int, b: int) -> Fraction:
    """The two-point number ``w(O_{z^a} O_{z^b})_{0,d}``, exactly.

    Negative exponents fold into the denominator as tagged ``z`` powers.
    Degree selection makes the result 0 whenever ``a + b != 1``.  Reversing the
    chain, ``z_j -> z_{d-j}``, maps ``(a, b)`` onto ``(b, a)``; :func:`_chain` puts
    the larger exponent at ``z_0``, where a negative one would cost far more.
    """
    return iterated_residue(_chain(d, a, b), range(d + 1))


def _chain(d: int, a: int, b: int) -> FactoredRat:
    """The integrand of ``w(O_{z^a} O_{z^b})_{0,d}`` with the larger exponent at ``z_0``."""
    return IntegrandSpec.insertions(d, max(a, b), min(a, b)).build()


def integrate_class(d: int, omega: MPoly, order: Sequence[int] | None = None,
                    factors: Iterable[tuple[LinForm, int]] = (),
                    inverse: FactoredRat | None = None) -> Fraction:
    """Pair the class ``omega * prod(form ** mult for form, mult in factors)``
    in ``H_0..H_d`` against the degree-d moduli.

    ``H_j`` is variable ``j``, and the value is the iterated residue of the class over
    ``R`` in ``order``, a permutation of ``0..d`` (else ``ValueError``), ascending unless
    given.  A class given as a factor list stays factored and cancels against ``R`` factor by factor.
    ``inverse`` is ``r_inverse(d)``, built here unless given.
    """
    if max(omega.variables(), default=0) > d:
        raise ValueError(f"omega must be a class in H_0..H_{d}")
    if order is not None and len(order) != d + 1:
        raise ResidueError(f"order must cover H_0..H_{d}, got {len(order)} variables")
    if inverse is None:
        inverse = r_inverse(d)
    integrand = FactoredRat(inverse.scalar, omega, inverse.den, factors)
    return iterated_residue(integrand, range(d + 1) if order is None else order)


def w_sweep(dmax: int, a: int, b: int) -> list[Fraction]:
    """``compute_w(d, a, b)`` for ``d = 1..dmax`` from one ascending residue sweep."""
    return residue_sweep([_chain(d, a, b) for d in range(1, dmax + 1)])


def mixed_insertion_residues(dmax: int) -> list[Fraction]:
    """Half the residues of the chain carrying ``z_0 z_1`` and ``1/z_d``, ``d = 1..dmax``, from one sweep."""
    specs = [IntegrandSpec(d, ((0, 1), (1, 1), (d, -1))) for d in range(1, dmax + 1)]
    return [value / 2 for value in residue_sweep([spec.build() for spec in specs])]


def wall_insertion_residue(d: int, f: int) -> Fraction:
    """Half the residue of the ``1/z_d`` chain with numerator ``z_0 * (2 z_{d-f} - z_{d-f-1} - z_{d-f+1})``.

    The inserted wall factor cancels the matching excluded denominator factor,
    so the chain splits at position ``d - f`` into two independent halves: the
    value is ``(w(O_z O_1)_{0,d-f} / 2) * (w(O_{z^2} O_{z^-1})_{0,f} / 2)``.
    """
    if not 1 <= f <= d - 1:
        raise ValueError("need 1 <= f <= d-1")
    return _z0_form_over_zd(d, wall_form(d - f))


def telescoped_insertion_residue(d: int) -> Fraction:
    """Half the residue of the ``1/z_d`` chain with numerator ``z_0 * (d (z_1 - z_0) + z_0)``.

    Equals ``sum_f f * wall_insertion_residue(d, f) + (1/2) w(O_z O_1)_{0,d}``
    by the telescoping identity
    ``sum_f f (2 z_{d-f} - z_{d-f-1} - z_{d-f+1}) = d (z_1 - z_0) + z_0 - z_d``,
    and must reproduce the non-log period coefficient ``B_d``.
    """
    return _z0_form_over_zd(d, LinForm({0: 1 - d, 1: d}))


def _z0_form_over_zd(d: int, form: LinForm) -> Fraction:
    """Half the ascending residue of the chain with numerator ``z_0 * form`` and ``1/z_d``."""
    spec = IntegrandSpec(d, ((0, 1), (d, -1)), (form,))
    return iterated_residue(spec.build(), range(d + 1)) / 2
