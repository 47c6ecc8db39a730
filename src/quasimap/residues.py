"""Iterated residue evaluation of factored rational functions.

A ``FactoredRat`` integrand is integrated one variable at a time.  For the
current variable ``z_j`` every live branch contributes one residue per
*prescribed* pole, i.e. per denominator factor whose allowed set contains ``j``.
``FactoredRat`` merges proportional factors, so no other factor of the branch
vanishes at the zero ``z_j = p`` of that factor, and its own multiplicity is
the local pole order.

The engine follows the locality of the integrand: the numerator stays a list
of factors, and a numerator or denominator factor joins the branches only at
the first step whose variable it involves; until then it is shared by all of
them and never expanded.  Branches whose tagged denominators agree after a
step are merged by adding their numerators.  After the last step each
survivor must be an exact rational constant.

No tag is ever gained (a residue tags each new factor ``(fac.allowed - {var}) & support``
and merging unites tags), so :func:`iterated_residue` returns 0 before any step when a
plan variable is in no allowed set: no branch would have a pole to visit there.

:func:`residue_step` is that one step; :func:`iterated_residue` applies it once
per variable of a plan, and :func:`residue_sweep` runs a chain family ``f_1..f_D``
on one ascending pass over ``f_D``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .exact import FactoredRat, MPoly, TaggedFactor


class ResidueError(ValueError):
    """Raised for ill-posed residue requests or a non-scalar final remainder."""


class ResiduePlan(NamedTuple("ResiduePlan", [("order", tuple[int, ...])])):
    """Order in which variables are integrated out."""

    __slots__ = ()

    def __new__(cls, order: tuple[int, ...]):
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..d")
        return super().__new__(cls, order)

    @classmethod
    def ascending(cls, d: int) -> ResiduePlan:
        return cls(tuple(range(d + 1)))

    @classmethod
    def descending(cls, d: int) -> ResiduePlan:
        return cls(tuple(range(d, -1, -1)))


def residue_at_point(f: FactoredRat, var: int, pole: TaggedFactor) -> FactoredRat:
    """Residue of ``f`` at the zero ``z_var = point`` of its denominator factor ``pole``.

    With ``pole = (c*(z_var - point))^m``, the only factor of ``f`` that vanishes
    there, the residue is ``c^-m`` times the coefficient of ``t^(m-1)`` in the
    rest of ``f`` at ``z_var = point + t``.  One truncated expansion in ``t``
    takes that coefficient for every pole order: the numerator's Taylor
    coefficients at ``point`` (:meth:`MPoly.taylor`), times each other factor
    ``(a + c t)^-k`` that involves ``z_var``, expanded to order ``m-1`` over
    ``a^(k+m-1)``.  The result no longer involves ``z_var``.
    """
    c = pole.form.coeff(var)
    others = [fac for fac in f.den if fac != pole]
    if not c or len(others) == len(f.den):
        raise ResidueError(f"not a pole: not a denominator factor of f in z{var}")
    point = pole.form.solve_for(var)
    m = pole.multiplicity
    # The product of the other factors' expansions in t; the numerator's
    # Taylor coefficients join only for the one coefficient that is kept.
    series = [MPoly.const(1)] + [MPoly.zero()] * (m - 1)
    den = []
    for fac in others:
        a = fac.form.subst(var, point)
        mult = fac.multiplicity
        if fac.form.coeff(var):
            inverse = _inverse_power(a.to_mpoly(), fac.form.coeff(var), mult, m)
            series = [_coefficient(series, inverse, n) for n in range(m)]
            mult += m - 1
        den.append((a, mult, (fac.allowed - {var}) & a.support))
    num = f.num * MPoly.factored(f.factors)
    top = _coefficient(num.taylor(var, point, m), series, m - 1)
    return FactoredRat(f.scalar / c ** m, top, den).reduce()


def _inverse_power(a: MPoly, c: int | Fraction, k: int, m: int) -> list[MPoly]:
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
    num = f.num.homogeneous_component(target)
    return f if len(num.terms) == len(f.num.terms) else FactoredRat(f.scalar, num, f.den, f.factors)


def _prepared(f: FactoredRat, d: int) -> FactoredRat:
    """``f`` filtered for ``d+1`` integrations and reduced; it must involve only ``z_0..z_d``."""
    involved = f.num.variables().union(*(form.support for form, _ in f.factors),
                                       *(fac.form.support for fac in f.den))
    if not involved <= set(range(d + 1)):
        raise ResidueError("plan does not cover the integrand's variables")
    return homogeneity_filter(f, d).reduce()


def residue_start(f: FactoredRat) -> tuple[dict, list, list]:
    """One branch carrying ``f.scalar``, and every factor of ``f`` shared: the numerator
    ones with the variables they involve (a constant ``num`` is 1 and is never claimed)."""
    shared = [(f.num, f.num.variables())]
    shared += [(form.to_mpoly() ** mult, form.support) for form, mult in f.factors]
    return {(): FactoredRat(f.scalar, MPoly.const(1))}, shared, list(f.den)


def residue_step(branches: dict, var: int, shared: list, shared_den: list) -> tuple[dict, list, list]:
    """Integrate ``z_var`` out of every branch; returns the branches and the shared lists
    advanced by one step.  Only the shared factors that involve ``z_var`` join the
    branches.  Each branch gives one residue per factor tagged with ``var``, and
    residues with identical tagged denominators are merged."""
    local = MPoly.product(poly for poly, used in shared if var in used)
    shared = [(poly, used) for poly, used in shared if var not in used]
    local_den = tuple(fac for fac in shared_den if var in fac.form.support)
    shared_den = [fac for fac in shared_den if var not in fac.form.support]
    merged: dict[tuple, FactoredRat] = {}
    for branch in branches.values():
        g = FactoredRat(branch.scalar, branch.num * local, branch.den + local_den).reduce()
        for pole in [fac for fac in g.den if var in fac.allowed]:
            r = residue_at_point(g, var, pole)
            prev = merged.pop(r.den, None)
            if prev is not None:
                r = FactoredRat(1, prev.scalar * prev.num + r.scalar * r.num, r.den)
            if not r.is_zero():
                merged[r.den] = r
    return merged, shared, shared_den


def _value(branches: dict) -> Fraction:
    """The sum of the branches after the last step, each an exact constant."""
    for b in branches.values():
        if b.den or not b.num.is_constant():
            raise ResidueError("non-scalar remainder after the last variable: " + b.render())
    return sum((b.scalar * b.num.constant_value() for b in branches.values()), Fraction(0))


def iterated_residue(f: FactoredRat, plan: ResiduePlan) -> Fraction:
    """The exact value of ``f`` by one :func:`residue_step` per variable of the plan;
    0 without a step when some plan variable is in no factor's allowed set.
    :class:`ResidueError` when a term still carries variables after the last step,
    or when the plan, which integrates ``z_0..z_d``, misses a variable of ``f``."""
    f = _prepared(f, len(plan.order) - 1)
    if f.is_zero() or not set().union(*(fac.allowed for fac in f.den)).issuperset(plan.order):
        return Fraction(0)
    branches, *shared = residue_start(f)
    for var in plan.order:
        branches, *shared = residue_step(branches, var, *shared)
    return _value(branches)


def _split_at(shared: list, shared_den: list, var: int) -> tuple[tuple, tuple]:
    """The shared factors whose lowest variable is below ``var`` (those the ascending
    steps before ``z_var`` join), and the rest, each as (numerators, denominators)."""
    def early(support) -> bool:
        return bool(support) and min(support) < var

    head = [x for x in shared if early(x[1])], [fac for fac in shared_den if early(fac.form.support)]
    rest = [x for x in shared if not early(x[1])], [fac for fac in shared_den if not early(fac.form.support)]
    return head, rest


def residue_sweep(integrands: list[FactoredRat]) -> list[Fraction]:
    """``iterated_residue(f_d, ResiduePlan.ascending(d))`` for every ``f_d`` of
    ``integrands = [f_1, ..., f_D]``, from one ascending pass over ``f_D``.

    The steps ``z_0..z_{d-2}`` join only the factors whose lowest variable is below
    ``d-1``.  When those of ``f_d`` and ``f_D`` are equal (else :class:`ResidueError`),
    the branches of ``f_D`` after these steps, times ``f_d.scalar / f_D.scalar``, are
    those of ``f_d``; the steps ``z_{d-1}, z_d`` with ``f_d``'s other factors close them.
    """
    fs = [_prepared(f, d) for d, f in enumerate(integrands, start=1)]
    if not fs:
        return []
    top = fs[-1]
    branches, *shared = residue_start(top)
    top_shared = shared
    values = []
    for d, f in enumerate(fs, start=1):
        head, rest = _split_at(*residue_start(f)[1:], d - 1)
        if f.is_zero():
            values.append(Fraction(0))
        elif top.is_zero() or head != _split_at(*top_shared, d - 1)[0]:
            raise ResidueError(f"integrand d={d} does not share its chain prefix with d={len(fs)}")
        else:
            ratio = f.scalar / top.scalar
            closing = {k: FactoredRat(b.scalar * ratio, b.num, b.den) for k, b in branches.items()}
            for var in (d - 1, d):
                closing, *rest = residue_step(closing, var, *rest)
            values.append(_value(closing))
        if d < len(fs):
            branches, *shared = residue_step(branches, d - 1, *shared)
    return values
