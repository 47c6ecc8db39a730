"""Intersection-number integrands for the quasi-map moduli and their residues.

The pairing of a class ``Omega`` against the moduli space is the iterated
residue of ``Omega / R`` where ``R`` is the product of all divisor-class
linear forms; the two-point numbers

    w(O_{z^a} O_{z^b})_{0,d} = integral of
        H_0^a H_d^b * prod_{i=1}^d e6(H_{i-1}, H_i) / prod_{i=1}^{d-1} 6 H_i

come from the same pairing.  All integrands are assembled by one constructor
(:class:`IntegrandSpec`) that cancels numerator factors against denominator
factors, which shrinks the excluded-factor population to the wall forms
``2 z_j - z_{j-1} - z_{j+1}`` and keeps the residue branching small.  The
surviving numerator factors are never expanded here: the residue engine
multiplies each one in at the step whose variable it first involves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import FactoredRat, LinForm, MPoly
from .residues import ResiduePlan, iterated_residue
from .series import f0_coeff, harmonic_combo
from .toric import wall_form


def e6_factors(x: int, y: int) -> list[LinForm]:
    """The seven linear factors ``(6-j) z_x + j z_y`` for ``j = 0..6``.

    Their product is homogeneous of degree 7 and factors as
    ``etilde(x, y) * (2x + y) * (x + 2y)`` with
    ``etilde(x, y) = 2^4 * 3^2 * x y * prod_{i=0}^2 ((2i+1) x + (5-2i) y)``;
    the two cofactors cancel against the pairing denominator.
    """
    return [LinForm({x: Fraction(6 - j), y: Fraction(j)}) for j in range(7)]


def r_denominator_factors(d: int) -> list[tuple[LinForm, int, frozenset[int]]]:
    """Tagged factors of the pairing denominator ``R`` (without its 3^{d+1} scalar).

    Tags record which variable's contour encloses each zero: ``z_j`` powers for
    ``j``; ``2 z_{i-1} + z_i`` for ``i-1``; ``z_{i-1} + 2 z_i`` for ``i``; the
    wall at ``i`` for ``i``.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    factors: list[tuple[LinForm, int, frozenset[int]]] = []
    for j in range(d + 1):
        factors.append((LinForm.variable(j), 4, frozenset({j})))
    for i in range(1, d + 1):
        factors.append((LinForm({i - 1: Fraction(2), i: Fraction(1)}), 1, frozenset({i - 1})))
        factors.append((LinForm({i - 1: Fraction(1), i: Fraction(2)}), 1, frozenset({i})))
    for i in range(1, d):
        factors.append((wall_form(i), 1, frozenset({i})))
    return factors


def _monomial_key(exps: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


@dataclass(frozen=True)
class IntegrandSpec:
    """Recipe for one residue integrand over the degree-d moduli.

    ``monomial`` holds net Laurent exponents of the plain ``z_j`` powers
    (negative exponents become tagged denominator factors); ``extra_forms``
    are additional numerator linear factors; ``use_e6`` switches the full
    two-point machinery (insertion chain over ``R``) on, or leaves a bare
    ``numerator / R`` pairing integrand.
    """

    d: int
    monomial: tuple[tuple[int, int], ...] = ()
    extra_forms: tuple[LinForm, ...] = ()
    use_e6: bool = True

    @classmethod
    def insertions(cls, d: int, a: int, b: int) -> IntegrandSpec:
        exps: dict[int, int] = {}
        exps[0] = exps.get(0, 0) + a
        exps[d] = exps.get(d, 0) + b
        return cls(d, _monomial_key(exps))

    @classmethod
    def with_numerator(cls, d: int, exps: dict[int, int], forms: tuple[LinForm, ...] = ()) -> IntegrandSpec:
        return cls(d, _monomial_key(exps), forms)

    def build(self) -> FactoredRat:
        """Assemble the integrand: the ``z_j`` monomial times the linear factors
        that survive factor-by-factor cancellation, kept unexpanded."""
        d = self.d
        if d < 1:
            raise ValueError("degree must be >= 1")
        nvars = d + 1
        scalar = Fraction(1)
        zpow = [0] * nvars
        num_counts: dict[LinForm, int] = {}
        den: dict[tuple, list] = {}

        def put_num(form: LinForm, mult: int = 1) -> None:
            nonlocal scalar
            scale, canon = form.canonicalized()
            scalar *= scale ** mult
            support = canon.support
            if len(support) == 1:
                (j,) = support
                zpow[j] += mult
            else:
                num_counts[canon] = num_counts.get(canon, 0) + mult

        def put_den(form: LinForm, mult: int, allowed: frozenset[int]) -> None:
            nonlocal scalar
            scale, canon = form.canonicalized()
            scalar /= scale ** mult
            support = canon.support
            if len(support) == 1:
                (j,) = support
                zpow[j] -= mult
                return
            key = canon.key()
            entry = den.get(key)
            if entry is None:
                den[key] = [canon, mult, frozenset(allowed)]
            else:
                entry[1] += mult
                entry[2] |= frozenset(allowed)

        if self.use_e6:
            scalar /= Fraction(3 ** (d + 1) * 6 ** (d - 1))
            for form, mult, allowed in r_denominator_factors(d):
                put_den(form, mult, allowed)
            for i in range(1, d):
                put_den(LinForm.variable(i), 1, frozenset({i}))
            for i in range(1, d + 1):
                for form in e6_factors(i - 1, i):
                    put_num(form)
        else:
            scalar /= Fraction(3 ** (d + 1))
            for form, mult, allowed in r_denominator_factors(d):
                put_den(form, mult, allowed)
        for v, e in self.monomial:
            zpow[v] += e
        for form in self.extra_forms:
            put_num(form)

        for key in list(den):
            canon, mult, allowed = den[key]
            have = num_counts.get(canon, 0)
            cancel = min(mult, have)
            if cancel:
                num_counts[canon] = have - cancel
                if mult == cancel:
                    del den[key]
                else:
                    den[key][1] = mult - cancel

        num = MPoly.monomial(nvars, {j: e for j, e in enumerate(zpow) if e > 0})
        factors = [(form, mult) for form, mult in sorted(num_counts.items(), key=lambda kv: kv[0].key())
                   if mult]
        den_list: list[tuple[LinForm, int, frozenset[int]]] = [
            (LinForm.variable(j), -e, frozenset({j})) for j, e in enumerate(zpow) if e < 0
        ]
        den_list.extend((canon, mult, allowed) for canon, mult, allowed in den.values())
        return FactoredRat(scalar, num, den_list, factors)


def compute_w(d: int, a: int, b: int) -> Fraction:
    """The two-point number ``w(O_{z^a} O_{z^b})_{0,d}``, exactly.

    Negative exponents fold into the denominator as tagged ``z`` powers.
    Degree selection makes the result 0 whenever ``a + b != 1``.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    return iterated_residue(IntegrandSpec.insertions(d, a, b).build(), ResiduePlan.ascending(d))


def integrate_class(d: int, omega: MPoly, plan: ResiduePlan | None = None) -> Fraction:
    """Pair a polynomial class in ``H_0..H_d`` against the degree-d moduli.

    The variables of ``omega`` are read positionally (``H_j`` is variable
    ``j``); the value is the iterated residue of ``omega / R``.
    """
    if omega.nvars != d + 1:
        raise ValueError("omega must live in d+1 variables")
    integrand = FactoredRat(Fraction(1, 3 ** (d + 1)), omega, r_denominator_factors(d))
    return iterated_residue(integrand, plan or ResiduePlan.ascending(d))


def mixed_insertion_residue(d: int) -> Fraction:
    """Residue of the insertion chain carrying ``z_0 z_1`` and ``1/z_d``."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    exps = {0: 1, 1: 1}
    exps[d] = exps.get(d, 0) - 1
    spec = IntegrandSpec.with_numerator(d, exps)
    return iterated_residue(spec.build(), ResiduePlan.ascending(d)) / 2


def mixed_insertion_closed_form(d: int) -> Fraction:
    """Exact closed form of :func:`mixed_insertion_residue`:
    ``(A_d / d) * (1 - 1/d + sum_{j<=3d} 6/(2j-1) - sum_{j<=d} 3/j)``."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return f0_coeff(d) / d * (1 - Fraction(1, d) + harmonic_combo(d))


def wall_insertion_residue(d: int, f: int) -> Fraction:
    """Residue of the chain with numerator ``z_0 * (2 z_{d-f} - z_{d-f-1} - z_{d-f+1})``.

    The inserted wall factor cancels the matching excluded denominator factor,
    so the chain splits at position ``d - f`` into two independent halves.
    """
    if not 1 <= f <= d - 1:
        raise ValueError("need 1 <= f <= d-1")
    spec = IntegrandSpec.with_numerator(d, {0: 1, d: -1}, (wall_form(d - f),))
    return iterated_residue(spec.build(), ResiduePlan.ascending(d)) / 2


def wall_split_sides(d: int, f: int) -> tuple[Fraction, Fraction]:
    """Both sides of the splitting identity at ``(d, f)``.

    The product side multiplies the half-normalized two-point numbers of the
    two sub-chains; it must equal the wall-insertion residue exactly.
    """
    product_side = (compute_w(d - f, 1, 0) / 2) * (compute_w(f, 2, -1) / 2)
    residue_side = wall_insertion_residue(d, f)
    return product_side, residue_side


def wall_split_check(d: int, f: int) -> bool:
    lhs, rhs = wall_split_sides(d, f)
    return lhs == rhs


def telescoped_insertion_residue(d: int) -> Fraction:
    """Residue of the chain with numerator ``z_0 * (d (z_1 - z_0) + z_0)``.

    Equals ``sum_f f * wall_insertion_residue(d, f) + (1/2) w(O_z O_1)_{0,d}``
    by the telescoping identity
    ``sum_f f (2 z_{d-f} - z_{d-f-1} - z_{d-f+1}) = d (z_1 - z_0) + z_0 - z_d``,
    and must reproduce the non-log period coefficient ``B_d``.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    form = LinForm({0: Fraction(1 - d), 1: Fraction(d)})
    spec = IntegrandSpec.with_numerator(d, {0: 1, d: -1}, (form,))
    return iterated_residue(spec.build(), ResiduePlan.ascending(d)) / 2
