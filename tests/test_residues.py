"""Unit tests for the iterated residue engine."""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from polys import dense, evaluate, linform
from quasimap import exact, residues
from quasimap.checks import (
    IDEAL_SAMPLES,
    IDEAL_SEED,
    _denominators_closed,
    _random_monomial,
    check_degree_selection,
    check_ideal_annihilation,
    check_properties,
    run_verification,
)
from quasimap.exact import FactoredRat, LinForm, MPoly, TaggedFactor
from quasimap.intersection import (
    IntegrandSpec,
    compute_w,
    integrand,
    integrate_class,
    mixed_insertion_residues,
    telescoped_insertion_residue,
    wall_form,
    wall_insertion_residue,
)
from quasimap.residues import (
    ResidueError,
    homogeneity_filter,
    iterated_residue,
    join_schedule,
    residue_at_point,
    residue_states,
    residue_sweep,
)
from quasimap.toric import sr_ideal_factors, volume_form_factors


def z(j):
    return MPoly.monomial({j: 1})


def zvar(j):
    return LinForm.variable(j)


def vol_integrand(d):
    """prod_j 1/z_j with every factor allowed for its own index."""
    den = [(zvar(j), 1, frozenset({j})) for j in range(d + 1)]
    return FactoredRat(1, MPoly.const(1), den)


def test_residue_simple_pole_at_zero():
    f = FactoredRat(1, MPoly.const(1), [(zvar(0), 1, frozenset({0}))])
    r = residue_at_point(f, 0, f.den[0])
    assert r.scalar == 1 and r.num.is_constant() and r.den == ()


def test_residue_order_two_pole_extracts_linear_coefficient():
    # (z1^2 + 3 z0 z1) / z0^2 has residue 3 z1 at z0 = 0
    num = z(1) ** 2 + 3 * z(0) * z(1)
    f = FactoredRat(1, num, [(zvar(0), 2, frozenset({0}))])
    r = residue_at_point(f, 0, f.den[0])
    assert r.scalar * r.num == dense({(0, 1): 3})


def test_residue_at_shifted_point_divides_leading_coefficient():
    # Res_{z1 = z2/2} 1/(2 z1 - z2) = 1/2
    f = FactoredRat(1, MPoly.const(1), [(linform((1, 2), (2, -1)), 1, frozenset({1}))])
    assert f.den[0].form.solve_for(1) == linform((2, Fraction(1, 2)))
    r = residue_at_point(f, 1, f.den[0])
    assert r.scalar == Fraction(1, 2) and r.num.is_constant() and r.den == ()


def test_residue_errors():
    # A pole is a denominator factor of f that involves the residue variable.
    f = FactoredRat(1, MPoly.const(1), [(zvar(0), 1, frozenset({0})), (zvar(1), 1, frozenset({1}))])
    outside = TaggedFactor(linform((0, 1), (1, -1)), 1, frozenset({0}))
    with pytest.raises(ResidueError, match="not a pole"):
        residue_at_point(f, 0, outside)
    with pytest.raises(ResidueError, match="not a pole"):
        residue_at_point(f, 0, f.den[1])


def test_vol_normalization_any_degree():
    for d in range(1, 5):
        assert iterated_residue(vol_integrand(d), range(d + 1)) == 1
        assert iterated_residue(vol_integrand(d), range(d, -1, -1)) == 1


def test_hand_oracle_degree_one_insertion():
    # 48 (z0+z1)(5z0+z1)(z0+5z1) / (z0^2 z1^3):
    # Res_{z0=0} = 48 * 31 * z1^2 / z1^3, then Res_{z1=0} = 1488.
    num = MPoly.product([linform((0, 1), (1, 1)), linform((0, 5), (1, 1)), linform((0, 1), (1, 5))])
    f = FactoredRat(48, num, [(zvar(0), 2, frozenset({0})), (zvar(1), 3, frozenset({1}))])
    assert iterated_residue(f, range(2)) == 1488
    assert iterated_residue(f, range(1, -1, -1)) == 1488


def test_homogeneity_filter_keeps_matching_component():
    d = 1
    den = [(zvar(0), 4, frozenset({0})), (zvar(1), 4, frozenset({1})),
           (linform((0, 2), (1, 1)), 1, frozenset({0})), (linform((0, 1), (1, 2)), 1, frozenset({1}))]
    right = MPoly.monomial({0: 6 * d + 2})
    f = FactoredRat(1, right, den)
    assert homogeneity_filter(f, d) is f

    wrong = MPoly.monomial({0: 5})
    assert homogeneity_filter(FactoredRat(1, wrong, den), d).is_zero()

    # construction cancels the z0^4 that both components carry; the filter keeps the right one
    kept = homogeneity_filter(FactoredRat(1, right + wrong, den), d)
    assert kept == f and kept.num == MPoly.monomial({0: 4}) and kept.scalar == 1
    rng = random.Random(108)
    for _ in range(3):
        pts = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(2)]
        value = evaluate(right, pts)
        for form, mult, _ in den:
            value /= evaluate(form, pts) ** mult
        assert evaluate(kept, pts) == value

    zero = FactoredRat(0, MPoly.const(1))
    assert homogeneity_filter(zero, d) is zero


def test_engine_annihilates_off_degree_numerators(monkeypatch):
    # The filter alone decides verify's "degree selection" and "degree zeros"
    # lines; with it made the identity, the residues themselves must vanish.
    nonzero = []

    def counted(f, var, pole):
        r = residue_at_point(f, var, pole)
        nonzero.append(not r.is_zero())
        return r

    monkeypatch.setattr(residues, "homogeneity_filter", lambda f, d: f)
    monkeypatch.setattr(residues, "residue_at_point", counted)
    assert all(r.ok for r in check_degree_selection(2))
    for d in (1, 2):
        for a in range(-1, 3):
            for b in range(-1, 3):
                if a + b != 1:
                    assert compute_w(d, a, b) == 0, (d, a, b)
    assert any(nonzero)


def test_residue_linearity_same_denominator_family():
    rng = random.Random(11551)
    nvars = 3
    d = 2
    den = [(zvar(j), 1, frozenset({j})) for j in range(nvars)]
    order = range(d + 1)
    for _ in range(5):
        nf = _random_poly(rng, nvars, 0)
        ng = _random_poly(rng, nvars, 0)
        alpha = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        beta = Fraction(rng.randint(-7, -1), rng.randint(1, 4))
        fa = FactoredRat(1, nf, den)
        fb = FactoredRat(1, ng, den)
        combo = FactoredRat(1, alpha * nf + beta * ng, den)
        lhs = iterated_residue(combo, order)
        rhs = alpha * iterated_residue(fa, order) + beta * iterated_residue(fb, order)
        assert lhs == rhs


def _random_poly(rng, nvars, degree, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9))
    return dense(terms)


def test_plan_validation():
    # An order must be a permutation of 0..d; a valid one that misses a variable
    # of the integrand does not cover it.
    f = vol_integrand(2)
    for order in ((0, 2), (1, 1), (0, 0, 2)):
        with pytest.raises(ValueError, match="permutation"):
            iterated_residue(f, order)
    with pytest.raises(ResidueError, match="cover"):
        iterated_residue(f, range(2))
    # An explicit empty order is not the default ascending one.
    scalar, factors = volume_form_factors(1)
    with pytest.raises(ResidueError, match="cover"):
        integrate_class(1, MPoly.const(scalar), order=(), factors=factors)
    assert integrate_class(1, MPoly.const(scalar), factors=factors) == 1


def _excluded_for_z1():
    """1/(z0 (z0 + 2 z1)), both factors tagged {0}; its degree -2 = -(d+1) passes the filter."""
    return FactoredRat(
        1,
        MPoly.const(1),
        [(zvar(0), 1, frozenset({0})), (linform((0, 1), (1, 2)), 1, frozenset({0}))],
    )


def _stepped(f, order):
    """``(var, branches)`` after each step of the engine's loop on ``f`` over ``order``,
    as ``checks._denominators_closed`` steps it, without the untagged-variable rule."""
    states = residue_states(residues._prepared(f, len(order) - 1), order)
    next(states)
    return zip(order, states)


def test_excluded_factors_are_never_visited():
    # The second factor is excluded for z1: z0 has two prescribed poles, each
    # residue leaves its z1 factor untagged, so nothing encloses a z1 pole.
    f = residues._prepared(_excluded_for_z1(), 1)
    poles = [fac for fac in f.den if 0 in fac.allowed]
    dens = [fac for pole in poles for fac in residue_at_point(f, 0, pole).den]
    assert len(poles) == 2 and dens and not any(fac.allowed for fac in dens)
    assert dict(_stepped(_excluded_for_z1(), range(2)))[1] == {}
    assert iterated_residue(_excluded_for_z1(), range(2)) == 0


def _untagged(f, d):
    prepared = residues._prepared(f, d)
    return set(range(d + 1)) - set().union(*(fac.allowed for fac in prepared.den))


def test_ideal_generators_die_when_stepped():
    # The check's seeded integrands, stepped without the rule: generator i cancels
    # every factor tagged {i}, and the steps themselves leave no branch.
    rng = random.Random(IDEAL_SEED)

    def draws(d, gi, samples):
        factors = sr_ideal_factors(d)[gi]
        comp = 6 * d + 2 - sum(mult for _, mult in factors)
        return [(d, gi, factors, _random_monomial(d, comp, rng)) for _ in range(samples)]

    runs = [run for d in (1, 2, 3) for gi in range(d + 1) for run in draws(d, gi, IDEAL_SAMPLES)]
    for d, gi, factors, mono in runs + draws(4, 2, 1):
        f = integrand(d, mono, factors)
        assert _untagged(f, d) == {gi}, (d, gi)
        *_, (_, branches) = _stepped(f, range(d + 1))
        assert branches == {}, (d, gi, mono.render())


def _tag_families():
    """Integrands with the variables they leave untagged: the chains and the
    volume class leave none; generator ``i`` times a monomial leaves ``z_i``."""
    for d in range(1, 7):
        for a, b in ((1, 0), (2, -1), (-1, 2)):
            yield f"insertions({a},{b}) d={d}", d, IntegrandSpec.insertions(d, a, b).build(), set()
    for d in range(1, 5):
        scalar, factors = volume_form_factors(d)
        yield f"volume d={d}", d, integrand(d, MPoly.const(scalar), factors), set()
    for gi, factors in enumerate(sr_ideal_factors(2)):
        omega = MPoly.monomial({0: 6 * 2 + 2 - sum(mult for _, mult in factors)})
        yield f"generator {gi} d=2", 2, integrand(2, omega, factors), {gi}
    for d in range(1, 7):
        yield f"mixed d={d}", d, _CHAIN_FAMILIES["mixed"](d).build(), set()


@pytest.mark.parametrize("descending", [False, True])
def test_tags_are_never_gained(descending):
    # After each step every tag lies inside the starting tags minus the
    # integrated variables: the fact the untagged-variable rule rests on.
    for name, d, f, untagged in _tag_families():
        order = range(d, -1, -1) if descending else range(d + 1)
        assert _untagged(f, d) == untagged, name
        left = set(range(d + 1)) - untagged
        for var, branches in _stepped(f, order):
            left.discard(var)
            assert all(fac.allowed <= left for b in branches.values() for fac in b.den), (name, var)


@pytest.mark.parametrize("descending", [False, True])
def test_a_tagged_factor_is_the_only_one_vanishing_at_its_zero(descending, monkeypatch):
    # residue_at_point takes the pole order and leading coefficient off the
    # tagged factor alone; merging proportional factors must make every other
    # factor of the branch nonzero at its zero.  The generator classes are the
    # ones where a constructor that kept differently tagged proportional
    # factors apart would break this.
    visited = []

    def checked(f, var, pole):
        point = pole.form.solve_for(var)
        assert var in pole.allowed and pole in f.den
        also = [fac for fac in f.den if fac != pole and fac.form.subst(var, point).is_zero()]
        assert not also, (var, pole, also)
        visited.append(var)
        return residue_at_point(f, var, pole)

    monkeypatch.setattr(residues, "residue_at_point", checked)
    for name, d, f, untagged in _tag_families():
        order = range(d, -1, -1) if descending else range(d + 1)
        visited.clear()
        for var, _ in _stepped(f, order):
            assert untagged or var in visited, (name, var)


def test_untagged_plan_variable_gives_zero_without_a_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("residue_step called")

    monkeypatch.setattr(residues, "residue_step", no_step)
    assert iterated_residue(_excluded_for_z1(), range(2)) == Fraction(0)
    assert iterated_residue(FactoredRat(0, MPoly.const(1)), range(3)) == 0
    assert all(r.ok for r in check_ideal_annihilation(2))
    with pytest.raises(AssertionError, match="residue_step"):
        iterated_residue(vol_integrand(1), range(2))


def test_closure_check_steps_the_engine_loop(monkeypatch):
    # The closure line checks the branches of the loop ``iterated_residue`` runs:
    # one residue_step per variable of the order, looked up in the engine module.
    calls = []
    step = residues.residue_step

    def counted(branches, var, nums, dens):
        calls.append(var)
        return step(branches, var, nums, dens)

    monkeypatch.setattr(residues, "residue_step", counted)
    assert _denominators_closed(IntegrandSpec.insertions(2, 1, 0).build(), range(3))
    assert calls == [0, 1, 2]


def test_merged_sum_that_cancels_merges_again():
    # At z0 = 0 the branches give 1/z1, z2/z1^2 and (z1 - z2)/z1^2.  The last two
    # merge into z1/z1^2, which construction cancels to 1/z1: the denominator the
    # first residue is held under, so it must merge again rather than replace it.
    def branch(num, m):
        return FactoredRat(1, num, [(zvar(0), 1, frozenset({0})), (zvar(1), m, frozenset({1}))])

    branches = dict(enumerate([branch(MPoly.const(1), 1), branch(z(2), 2), branch(z(1) + -1 * z(2), 2)]))
    merged = residues.residue_step(branches, 0, [], [])
    assert list(merged.values()) == [FactoredRat(2, MPoly.const(1), [(zvar(1), 1, frozenset({1}))])]
    rng = random.Random(126)
    for _ in range(3):
        pts = [Fraction(0)] + [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(2)]
        unmerged = sum(evaluate(residue_at_point(b, 0, b.den[0]), pts) for b in branches.values())
        assert sum(evaluate(r, pts) for r in merged.values()) == unmerged


def test_plan_cover_is_checked_before_the_tags():
    # z1 is untagged, and the order misses z2.
    f = FactoredRat(
        1,
        MPoly.const(1),
        [(zvar(0), 1, frozenset({0})), (linform((0, 1), (2, 2)), 1, frozenset({0}))],
    )
    with pytest.raises(ResidueError, match="cover"):
        iterated_residue(f, range(2))


# The chain families the sweep and the random orders run.
_CHAIN_FAMILIES = {
    "insertions(1,0)": lambda d: IntegrandSpec.insertions(d, 1, 0),
    "insertions(2,-1)": lambda d: IntegrandSpec.insertions(d, 2, -1),
    "insertions(0,1)": lambda d: IntegrandSpec.insertions(d, 0, 1),
    "insertions(-1,2)": lambda d: IntegrandSpec.insertions(d, -1, 2),
    "mixed": lambda d: IntegrandSpec(d, ((0, 1), (1, 1), (d, -1))),
}


@functools.cache
def _ascending_values(d):
    return {name: iterated_residue(spec(d).build(), range(d + 1))
            for name, spec in _CHAIN_FAMILIES.items()}


@settings(max_examples=25)
@given(st.integers(1, 5).flatmap(lambda d: st.permutations(range(d + 1))))
def test_any_plan_gives_the_ascending_value(order):
    # Each factor joins at the first step of the order whose variable it involves,
    # wherever that step falls; the value does not depend on the order.
    d = len(order) - 1
    for name, spec in _CHAIN_FAMILIES.items():
        assert iterated_residue(spec(d).build(), order) == _ascending_values(d)[name], (name, order)
    scalar, factors = volume_form_factors(d)
    assert integrate_class(d, MPoly.const(scalar), order, factors) == 1


@pytest.mark.parametrize("d", range(1, 5))
def test_range_list_and_tuple_orders_agree(d):
    # An order is any sequence of the variables: a range, a list and a tuple of
    # the same order give the same value.
    for order in (range(d + 1), range(d, -1, -1)):
        for name, spec in _CHAIN_FAMILIES.items():
            f = spec(d).build()
            values = [iterated_residue(f, kind) for kind in (order, list(order), tuple(order))]
            assert values == [_ascending_values(d)[name]] * 3, (name, order)


def test_join_schedule_joins_each_factor_at_its_first_step():
    # Every non-constant numerator and every denominator factor sits in exactly one
    # entry: the first position of the order among the variables it involves.  The
    # stepping loop starts from one branch carrying the scalar.
    rng = random.Random(2323)
    for name, d, f, _ in _tag_families():
        f = residues._prepared(f, d)
        orders = [range(d + 1), range(d, -1, -1)]
        orders += [tuple(rng.sample(range(d + 1), d + 1)) for _ in range(4)]
        for order in orders:
            def first(support):
                return next(k for k, var in enumerate(order) if var in support)

            assert next(residue_states(f, order)) == {(): FactoredRat(f.scalar, MPoly.const(1))}
            joins = join_schedule(f, order)
            assert len(joins) == d + 1, (name, order)
            nums = [] if f.num.is_constant() else [(f.num, first(f.num.variables()))]
            nums += [(form.to_mpoly() ** mult, first(form.support)) for form, mult in f.factors]
            dens = [(fac, first(fac.form.support)) for fac in f.den]
            assert [(x, k) for k, (xs, _) in enumerate(joins) for x in xs] == sorted(
                nums, key=lambda x: x[1]), (name, order)
            assert [(x, k) for k, (_, xs) in enumerate(joins) for x in xs] == sorted(
                dens, key=lambda x: x[1]), (name, order)


def _telescoped(d):
    """The telescoped insertion ``z_0 ((1-d) z_0 + d z_1) / z_d``."""
    return IntegrandSpec(d, ((0, 1), (d, -1)), (LinForm({0: Fraction(1 - d), 1: Fraction(d)}),))


def _chain_integrands(d):
    """Every insertion integrand the two-point identities use at degree d, with
    the value its public function reports (halved ones doubled back)."""
    specs = [
        ("insertions(1,0)", IntegrandSpec.insertions(d, 1, 0), None),
        ("insertions(2,-1)", IntegrandSpec.insertions(d, 2, -1), None),
        ("mixed", _CHAIN_FAMILIES["mixed"](d), 2 * mixed_insertion_residues(d)[-1]),
        ("telescoped", _telescoped(d), 2 * telescoped_insertion_residue(d)),
    ]
    for f in range(1, d):
        spec = IntegrandSpec(d, ((0, 1), (d, -1)), (wall_form(d - f),))
        specs.append((f"wall f={f}", spec, 2 * wall_insertion_residue(d, f)))
    return specs


def _branch_counts(spec):
    """The number of branches after each step of the ascending order."""
    return [len(branches) for _, branches in _stepped(spec.build(), range(spec.d + 1))]


@pytest.mark.parametrize("d", range(1, 13))
def test_branch_counts_keep_their_measured_shape(d):
    # The measured shape, as a guard: a merge bug breaks it long before it shows
    # in the times.  The (1,0), (0,1) and (-1,2) chains have j+1 branches after
    # step z_j for j <= d-2, then one; the (2,-1), mixed and telescoped chains
    # keep one at every step.
    growing, one = list(range(1, d)) + [1, 1], [1] * (d + 1)
    shapes = {"insertions(1,0)": growing, "insertions(0,1)": growing, "insertions(-1,2)": growing,
              "insertions(2,-1)": one, "mixed": one}
    for name, shape in shapes.items():
        assert _branch_counts(_CHAIN_FAMILIES[name](d)) == shape, name
    assert _branch_counts(_telescoped(d)) == one


@pytest.mark.parametrize("d", range(1, 6))
def test_factored_and_expanded_integrands_agree(d):
    # The engine multiplies numerator factors in step by step; multiplying
    # them all out first must give the same value under both orders.
    for name, spec, reported in _chain_integrands(d):
        factored = spec.build()
        expanded = factored.expand()
        assert not expanded.factors and expanded.num_degree() == factored.num_degree()
        values = {
            iterated_residue(g, order)
            for g in (factored, expanded)
            for order in (range(d + 1), range(d, -1, -1))
        }
        assert len(values) == 1, (name, values)
        if reported is not None:
            assert values == {reported}, name


def _residue_by_derivatives(f, var, point):
    """The residue as ``(1/(m-1)!) d^{m-1}/dz_var^{m-1} [(z_var - point)^m f]``
    at ``z_var = point``, by ``m-1`` derivative passes."""
    vanishing = [fac for fac in f.den if fac.form.subst(var, point).is_zero()]
    surviving = [fac for fac in f.den if not fac.form.subst(var, point).is_zero()]
    m = sum(fac.multiplicity for fac in vanishing)
    scalar = f.scalar
    for fac in vanishing:
        scalar /= fac.form.coeffs[var] ** fac.multiplicity
    g = FactoredRat(scalar, f.num, surviving, f.factors)
    for _ in range(m - 1):
        g = g.derivative(var)
    g = FactoredRat(g.scalar / factorial(m - 1), g.num, g.den, g.factors)
    return g.subst(var, point).reduce()


_rows = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
_num = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-5, 5).filter(bool), min_size=1, max_size=3
)


@given(
    var=st.integers(0, 2),
    lead=st.integers(1, 3),
    point_row=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    order=st.integers(1, 4),
    scales=st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=2),
    others=st.lists(st.tuples(_rows, st.integers(1, 2)), max_size=3),
    num=_num,
    factors=st.lists(st.tuples(_rows, st.integers(1, 2)), max_size=2),
)
def test_laurent_residue_matches_repeated_derivatives(var, lead, point_row, order, scales, others, num, factors):
    # A pole of the given order on lead * z_var = point, split over one or two
    # proportional factors; the other factors do not vanish there.  A lead of 2
    # or 3 makes the zero point / lead rational, as on the walls 2 z_i - z_{i-1} - z_{i+1}.
    point = LinForm({v: c for v, c in enumerate(point_row) if v != var})
    pole = LinForm({var: lead}) + point * -1
    zero = point * Fraction(1, lead)
    mults = [order] if order == 1 else [order - len(scales) + 1] + [1] * (len(scales) - 1)
    den = [(pole * c, mult, frozenset({var})) for c, mult in zip(scales, mults)]

    def off_pole(rows):
        forms = [(LinForm(dict(enumerate(row))), mult) for row, mult in rows]
        return [(form, mult) for form, mult in forms if not form.subst(var, zero).is_zero()]

    den += [(form, mult, form.support) for form, mult in off_pole(others)]
    # a pole lead * z_var takes back the power of z_var that every term of num carries
    assume(not point.is_zero() or 0 in dense(num).split(var))
    f = FactoredRat(Fraction(3, 7), dense(num), den, off_pole(factors))
    vanishing = [fac for fac in f.den if fac.form.subst(var, zero).is_zero()]
    assert len(vanishing) == 1 and vanishing[0].multiplicity == order
    assert residue_at_point(f, var, vanishing[0]) == _residue_by_derivatives(f, var, zero)


@pytest.mark.parametrize("family", sorted(_CHAIN_FAMILIES))
def test_sweep_matches_each_degree(family):
    # One ascending pass over f_8 gives the value of every f_d, d <= 8.
    integrands = [_CHAIN_FAMILIES[family](d).build() for d in range(1, 9)]
    expected = [iterated_residue(f, range(d + 1)) for d, f in enumerate(integrands, start=1)]
    assert residue_sweep(integrands) == expected
    assert any(expected)


def test_sweep_rejects_a_family_without_a_common_prefix():
    # The telescoped head form (1-d) z_0 + d z_1 changes with d.
    integrands = [_telescoped(d).build() for d in range(1, 4)]
    with pytest.raises(ResidueError, match="prefix"):
        residue_sweep(integrands)
    assert residue_sweep(integrands[:1]) == [2 * telescoped_insertion_residue(1)]


def _guard_family(d, top_form, form):
    """``[0, .., 0, f_d, .., f_D]`` with ``D = d + 1``: ``f_D`` carries ``z_0 * top_form / z_D``
    and ``f_d`` carries ``z_0 * form / z_d``; the zeros below ``d`` skip the guard."""
    zeros = [FactoredRat(0, MPoly.const(1))] * (d - 1)
    return zeros + [IntegrandSpec(d, ((0, 1), (d, -1)), (form,)).build(),
                    IntegrandSpec(d + 1, ((0, 1), (d + 1, -1)), (top_form,)).build()]


@pytest.mark.parametrize("d", [3, 4])
def test_sweep_guard_compares_the_first_d_minus_1_entries(d):
    # A numerator factor of f_d that joins at z_{d-2} must match f_D's, one that
    # joins at z_{d-1} need not: f_D's branches are shared through step z_{d-2}.
    early = _guard_family(d, linform((d - 2, 1), (d - 1, 1)), linform((d - 2, 1), (d - 1, 3)))
    with pytest.raises(ResidueError, match="prefix"):
        residue_sweep(early)
    late = _guard_family(d, linform((d - 1, 1), (d, 1)), linform((d - 1, 1), (d, 3)))
    values = residue_sweep(late)
    assert values[d - 1:] == [iterated_residue(f, range(k + 1))
                              for k, f in enumerate(late[d - 1:], start=d)]
    assert values[d - 1]


def test_closure_line_fails_when_a_residue_keeps_its_variable(monkeypatch):
    # A residue that keeps z_var / z_var, z_var tagged {var}, has the right
    # value (the next step's construction cancels it; a last step's constant is
    # left alone) but breaks the tag rule: an integrated contour is never visited
    # again.  The pair is set past the constructor, which would cancel it at once.
    def keeps_variable(f, var, pole):
        r = residue_at_point(f, var, pole)
        if not r.den:
            return r
        r.num = r.num * z(var)
        r.den += (TaggedFactor(LinForm.variable(var), 1, frozenset({var})),)
        return r

    assert all(r.ok for r in check_properties())
    monkeypatch.setattr(residues, "residue_at_point", keeps_variable)
    results = check_properties()
    line = next(r for r in results if r.name == "denominator closure")
    assert [r.name for r in results if not r.ok] == ["denominator closure"]
    assert line.line() == "FAIL denominator closure: expected linear tagged factors only, actual violation"


def test_engine_builds_no_fraction_coefficient(monkeypatch):
    # The parts of a FactoredRat are integral, and the engine keeps them so: it reaches
    # a pole z_var = P/c by substituting (P + u)/c with every power of c in the scalar,
    # and merges branches over the lcm of their scalars' denominators.  No MPoly or
    # LinForm built while a function of residues.py runs may hold a Fraction (about
    # 1,030 and 170 over these calls when the pole point was the rational form P/c).
    built = Counter()

    def watch(kind, values):
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_filename != residues.__file__:
            frame = frame.f_back
        if frame is not None:
            built[kind, any(type(c) is Fraction for c in values)] += 1

    for cls, attr in ((MPoly, "terms"), (LinForm, "coeffs")):
        def init(self, *args, _real=cls.__init__, _attr=attr, **kwargs):
            _real(self, *args, **kwargs)
            watch(type(self).__name__, getattr(self, _attr).values())

        monkeypatch.setattr(cls, "__init__", init)
    for name, attr in (("_mpoly", "terms"), ("_linform", "coeffs")):
        def make(values, _real=getattr(exact, name), _attr=attr):
            out = _real(values)
            watch(type(out).__name__, getattr(out, _attr).values())
            return out

        monkeypatch.setattr(exact, name, make)
    assert all(r.ok for r in run_verification(4))
    assert compute_w(5, 1, 0) == Fraction(6338685466447488, 5)
    assert built["MPoly", False] > 1000 and built["LinForm", False] > 100
    assert built["MPoly", True] == built["LinForm", True] == 0
