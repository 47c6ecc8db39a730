"""Iterated residue evaluation of factored rational functions.

A ``FactoredRat`` integrand is integrated one variable at a time.  For the
current variable ``z_j`` every live branch contributes one residue per
*prescribed* pole, i.e. per distinct point ``z_j = p`` cut out by a
denominator factor whose allowed-set contains ``j``.  The residue at a point
uses the full local pole order (all factors vanishing there, allowed or not);
tags only select which points are visited.

The engine follows the locality of the integrand: the numerator stays a list
of factors, and a numerator or denominator factor joins the branches only at
the first step whose variable it involves; until then it is shared by all of
them and never expanded.  Branches whose tagged denominators agree after a
step are merged by adding their numerators.  After the last step each
survivor must be an exact rational constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import FactoredRat, LinForm, MPoly


class ResidueError(ValueError):
    """Raised for ill-posed residue requests or a non-scalar final remainder."""


@dataclass(frozen=True)
class ResiduePlan:
    """Order in which variables are integrated out."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..d")

    @classmethod
    def ascending(cls, d: int) -> ResiduePlan:
        return cls(tuple(range(d + 1)))

    @classmethod
    def descending(cls, d: int) -> ResiduePlan:
        return cls(tuple(range(d, -1, -1)))


def residue_at_point(f: FactoredRat, var: int, point: LinForm) -> FactoredRat:
    """Residue of ``f`` at ``z_var = point``.

    With ``m`` the total multiplicity of all denominator factors vanishing on
    ``z_var = point``, each vanishing factor ``c*(z_var - point)`` contributes
    ``c**multiplicity`` to the extracted scalar, and the residue is the
    coefficient of ``t^(m-1)`` in the rest of ``f`` at ``z_var = point + t``.
    One truncated expansion in ``t`` takes that coefficient for every pole
    order: the numerator's Taylor coefficients at ``point``
    (:meth:`MPoly.taylor`), times each surviving factor ``(a + c t)^-k`` that
    involves ``z_var``, expanded to order ``m-1`` over ``a^(k+m-1)``.  The
    result no longer involves ``z_var``.
    """
    if point.coeff(var):
        raise ResidueError("ill-formed point: it involves the residue variable")
    m = 0
    scalar = f.scalar
    surviving = []
    for fac in f.den:
        a = fac.form.subst(var, point)
        if a.is_zero():
            m += fac.multiplicity
            scalar /= fac.form.coeff(var) ** fac.multiplicity
        else:
            surviving.append((fac, a))
    if not m:
        raise ResidueError(f"not a pole: no denominator factor vanishes on z{var} = point")
    # The product of the surviving factors' expansions in t; the numerator's
    # Taylor coefficients join only for the one coefficient that is kept.
    series = [MPoly.const(1)] + [MPoly.zero()] * (m - 1)
    den = []
    for fac, a in surviving:
        c = fac.form.coeff(var)
        mult = fac.multiplicity
        if c:
            inverse = _inverse_power(a.to_mpoly(), c, mult, m)
            series = [_coefficient(series, inverse, n) for n in range(m)]
            mult += m - 1
        den.append((a, mult, (fac.allowed - {var}) & a.support))
    num = f.num * MPoly.factored(f.factors)
    top = _coefficient(num.taylor(var, point, m), series, m - 1)
    return FactoredRat(scalar, top, den).reduce()


def _inverse_power(a: MPoly, c: Fraction, k: int, m: int) -> list[MPoly]:
    """``(a + c t)^-k`` to order ``t^(m-1)``, times ``a^(k+m-1)``: the
    coefficient of ``t^n`` is ``binom(-k, n) c^n a^(m-1-n)``."""
    return [a ** (m - 1 - n) * ((-c) ** n * comb(k + n - 1, n)) for n in range(m)]


def _coefficient(x: list[MPoly], y: list[MPoly], n: int) -> MPoly:
    """The coefficient of ``t^n`` in the product of two series in ``t``."""
    out = x[0] * y[n]
    for i in range(1, n + 1):
        out = out + x[i] * y[n - i]
    return out


def homogeneity_filter(f: FactoredRat, d: int) -> FactoredRat:
    """Keep the numerator component that can survive the iterated residue.

    Each single-variable residue raises the total degree of a homogeneous
    rational function by one, so only the numerator component of degree
    ``deg(denominator) - (d+1)`` can reach a nonzero constant after the d+1
    integrations; every other component is annihilated and is discarded here.
    The linear factors kept unexpanded count towards that degree.
    """
    if f.is_zero():
        return f
    target = f.den_degree() - (d + 1) - sum(mult for _, mult in f.factors)
    return FactoredRat(f.scalar, f.num.homogeneous_component(target), f.den, f.factors)


def _prescribed_points(f: FactoredRat, var: int) -> list[LinForm]:
    points = {}
    for fac in f.den:
        if var in fac.allowed and fac.form.coeff(var):
            p = fac.form.solve_for(var)
            points[p.key()] = p
    return [points[k] for k in sorted(points)]


def iterated_residue(f: FactoredRat, plan: ResiduePlan) -> Fraction:
    """Run the full residue prescription and return the exact rational value.

    At the step for ``z_var`` only the factors that involve ``z_var`` join each
    branch; the rest stay shared and unexpanded.  Branches with identical
    tagged denominators are then merged.  Raises :class:`ResidueError` when a
    surviving term still carries variables after the last integration, or
    when the plan, which integrates ``z_0..z_d``, misses a variable of ``f``.
    """
    involved = f.num.variables().union(*(form.support for form, _ in f.factors),
                                       *(fac.form.support for fac in f.den))
    if not involved <= set(plan.order):
        raise ResidueError("plan does not cover the integrand's variables")
    f = homogeneity_filter(f, len(plan.order) - 1).reduce()
    if f.is_zero():
        return Fraction(0)
    # Numerator factors with the variables they involve.  A constant ``num``
    # is 1 (its content lives in the scalar), so no step needs to claim it.
    shared = [(f.num, f.num.variables())]
    shared += [(form.to_mpoly() ** mult, form.support) for form, mult in f.factors]
    shared_den = list(f.den)
    branches = {(): FactoredRat(f.scalar, MPoly.const(1))}
    for var in plan.order:
        local = MPoly.product(poly for poly, used in shared if var in used)
        shared = [(poly, used) for poly, used in shared if var not in used]
        local_den = tuple(fac for fac in shared_den if var in fac.form.support)
        shared_den = [fac for fac in shared_den if var not in fac.form.support]
        merged: dict[tuple, FactoredRat] = {}
        for branch in branches.values():
            g = FactoredRat(branch.scalar, branch.num * local, branch.den + local_den).reduce()
            for p in _prescribed_points(g, var):
                r = residue_at_point(g, var, p)
                prev = merged.pop(r.den, None)
                if prev is not None:
                    r = FactoredRat(1, prev.scalar * prev.num + r.scalar * r.num, r.den)
                if not r.is_zero():
                    merged[r.den] = r
        branches = merged
    total = Fraction(0)
    for b in branches.values():
        if b.den or not b.num.is_constant():
            raise ResidueError(
                "non-scalar remainder after the last variable: " + b.render()
            )
        total += b.scalar * b.num.constant_value()
    return total
