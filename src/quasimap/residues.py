"""Iterated residue evaluation of factored rational functions.

A ``FactoredRat`` integrand is integrated one variable at a time, in an order
given as a permutation of ``0..d``.  For the current variable ``z_j`` every live
branch contributes one residue per *prescribed* pole, i.e. per denominator factor
whose allowed set contains ``j``.  ``FactoredRat`` merges proportional factors, so
no other factor of the branch vanishes at the zero ``z_j = p`` of that factor, and
its own multiplicity is the local pole order.

The engine follows the locality of the integrand: the numerator stays a list
of factors, and a numerator or denominator factor joins the branches only at
the first step of the order whose variable it involves; until then it is never
expanded.  :func:`join_schedule` decides that step for every factor once.
Branches whose tagged denominators agree after a step are merged by adding their
numerators.  After the last step each survivor must be an exact rational constant.

No tag is ever gained (a residue tags each new factor ``(fac.allowed - {var}) & support``
and merging unites tags), so :func:`iterated_residue` returns 0 before any step when a
variable of the order is in no allowed set: no branch would have a pole to visit there.

:func:`residue_step` is one step and joins one schedule entry; :func:`residue_states`
is the one stepping loop, which applies it once per variable of an order.
:func:`iterated_residue` runs that loop to the end, and :func:`residue_sweep` runs a
chain family ``f_1..f_D`` on one ascending pass of it over ``f_D``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .exact import FactoredRat, MPoly, TaggedFactor


class ResidueError(ValueError):
    """Raised for ill-posed residue requests or a non-scalar final remainder."""


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
    num = f.num * MPoly.factored(f.factors) if f.factors else f.num
    top = _coefficient(num.taylor(var, point, m), series, m - 1)
    return FactoredRat(f.scalar / c ** m, top, den)


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
    target = f.den_degree() - (d + 1) - sum(mult for _, mult in f.factors)
    num = f.num.homogeneous_component(target)
    return f if len(num.terms) == len(f.num.terms) else FactoredRat(f.scalar, num, f.den, f.factors)


def _prepared(f: FactoredRat, d: int) -> FactoredRat:
    """``f`` filtered for ``d+1`` integrations; it must involve only ``z_0..z_d``."""
    involved = f.num.variables().union(*(form.support for form, _ in f.factors),
                                       *(fac.form.support for fac in f.den))
    if not involved <= set(range(d + 1)):
        raise ResidueError("order does not cover the integrand's variables")
    return homogeneity_filter(f, d)


def join_schedule(f: FactoredRat, order: Sequence[int]) -> list[tuple[list, list]]:
    """The join schedule of ``f``'s factors over ``order``: entry ``k`` holds, as
    (numerators, denominators), the factors whose first variable in ``order`` is
    ``order[k]``.  A constant ``num`` is 1 and never joins."""
    step = {var: k for k, var in enumerate(order)}
    joins = [([], []) for _ in step]
    if not f.num.is_constant():
        joins[min(map(step.get, f.num.variables()))][0].append(f.num)
    for form, mult in f.factors:
        joins[min(map(step.get, form.support))][0].append(form.to_mpoly() ** mult)
    for fac in f.den:
        joins[min(map(step.get, fac.form.support))][1].append(fac)
    return joins


def residue_step(branches: dict, var: int, nums: list, dens: list) -> dict:
    """Integrate ``z_var`` out of every branch, after multiplying in the factors that
    join at this step: the numerators ``nums`` and the denominators ``dens``.  Each
    branch gives one residue per factor tagged with ``var``, and residues with
    identical tagged denominators are merged.  A merged sum may cancel a ``z_p``
    and so change its denominator; it merges again until no branch holds that one."""
    local = MPoly.product(nums)
    local_den = tuple(dens)
    merged: dict[tuple, FactoredRat] = {}
    for branch in branches.values():
        g = FactoredRat(branch.scalar, branch.num * local, branch.den + local_den)
        for pole in [fac for fac in g.den if var in fac.allowed]:
            r = residue_at_point(g, var, pole)
            while (prev := merged.pop(r.den, None)) is not None:
                r = FactoredRat(1, prev.scalar * prev.num + r.scalar * r.num, r.den)
            if not r.is_zero():
                merged[r.den] = r
    return merged


def _value(branches: dict) -> Fraction:
    """The sum of the branches after the last step, each an exact constant."""
    for b in branches.values():
        if b.den or not b.num.is_constant():
            raise ResidueError("non-scalar remainder after the last variable: " + b.render())
    return sum((b.scalar * b.num.terms.get((), 0) for b in branches.values()), Fraction(0))


def residue_states(f: FactoredRat, order: Sequence[int]) -> Iterator[dict]:
    """The branches of ``f`` over ``order``: first the one start branch, carrying
    ``f.scalar``, then the branches after each :func:`residue_step`, which joins the
    matching entry of ``f``'s :func:`join_schedule`."""
    branches = {(): FactoredRat(f.scalar, MPoly.const(1))}
    yield branches
    for var, (nums, dens) in zip(order, join_schedule(f, order)):
        branches = residue_step(branches, var, nums, dens)
        yield branches


def iterated_residue(f: FactoredRat, order: Sequence[int]) -> Fraction:
    """The exact value of ``f`` by one :func:`residue_step` per variable of ``order``,
    a permutation of ``0..d`` (else :class:`ValueError`); 0 without a step when some
    variable of ``order`` is in no factor's allowed set.  :class:`ResidueError` when a
    term still carries variables after the last step, or when ``order`` misses a
    variable of ``f``."""
    if sorted(order) != list(range(len(order))):
        raise ValueError("order must be a permutation of 0..d")
    f = _prepared(f, len(order) - 1)
    if not set().union(*(fac.allowed for fac in f.den)).issuperset(order):
        return Fraction(0)
    for branches in residue_states(f, order):
        pass
    return _value(branches)


def residue_sweep(integrands: list[FactoredRat]) -> list[Fraction]:
    """``iterated_residue(f_d, range(d + 1))`` for every ``f_d`` of
    ``integrands = [f_1, ..., f_D]``, from one ascending pass over ``f_D``.

    The steps ``z_0..z_{d-2}`` join the first ``d-1`` entries of a schedule.  When
    those of ``f_d`` and ``f_D`` are equal (else :class:`ResidueError`), the branches
    of ``f_D`` after these steps, times ``f_d.scalar / f_D.scalar``, are those of
    ``f_d``.  The residue is linear, so the sweep closes ``f_D``'s branches as they are,
    with the steps ``z_{d-1}, z_d`` and entries ``d-1`` and ``d`` of ``f_d``'s schedule,
    and multiplies the value by that ratio.
    """
    fs = [_prepared(f, d) for d, f in enumerate(integrands, start=1)]
    if not fs:
        return []
    top = fs[-1]
    order = range(len(fs) + 1)
    top_joins = join_schedule(top, order)
    values = []
    for d, (f, branches) in enumerate(zip(fs, residue_states(top, order)), start=1):
        joins = join_schedule(f, range(d + 1))
        if f.is_zero():
            values.append(Fraction(0))
        elif top.is_zero() or joins[:d - 1] != top_joins[:d - 1]:
            raise ResidueError(f"integrand d={d} does not share its chain prefix with d={len(fs)}")
        else:
            closed = residue_step(residue_step(branches, d - 1, *joins[d - 1]), d, *joins[d])
            values.append(f.scalar / top.scalar * _value(closed))
    return values
