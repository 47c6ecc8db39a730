"""Unit tests for the intersection-number integrands and their identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polys import dense, evaluate, homogeneous_degree, linform
from quasimap.exact import FactoredRat, LinForm, MPoly
from quasimap.intersection import (
    IntegrandSpec,
    compute_w,
    e6_factors,
    integrand,
    integrate_class,
    mixed_insertion_residues,
    telescoped_insertion_residue,
    w_sweep,
    wall_form,
    wall_insertion_residue,
)
from quasimap.residues import ResidueError, iterated_residue
from quasimap.series import f0_coeff, f1_hat_coeff, mirror_w, mixed_insertion_closed_form
from quasimap.toric import orientation_enumeration, sr_ideal, sr_ideal_factors, volume_form_factors


def volume_form(d):
    """The volume class ``3^{d+1} * prod H_i^3 * ...``, expanded."""
    scalar, factors = volume_form_factors(d)
    return MPoly.factored(factors) * scalar


def _etilde(x, y):
    return 144 * MPoly.product(
        [
            LinForm.variable(x),
            LinForm.variable(y),
            linform((x, 1), (y, 5)),
            linform((x, 3), (y, 3)),
            linform((x, 5), (y, 1)),
        ],
    )


def test_e6_factorization_identity():
    e6 = MPoly.product(e6_factors(0, 1))
    assert homogeneous_degree(e6) == 7
    cofactors = MPoly.product([linform((0, 2), (1, 1)), linform((0, 1), (1, 2))])
    assert e6 == _etilde(0, 1) * cofactors
    # reduced form: e6 / ((2x+y)(x+2y)) = 432 x y (x+y) (5x+y) (x+5y)
    reduced = 432 * MPoly.product(
        [
            LinForm.variable(0),
            LinForm.variable(1),
            linform((0, 1), (1, 1)),
            linform((0, 5), (1, 1)),
            linform((0, 1), (1, 5)),
        ],
    )
    assert _etilde(0, 1) == reduced


def test_e6_boundary_evaluations():
    e6 = MPoly.product(e6_factors(0, 1))
    assert evaluate(e6, [Fraction(1), Fraction(0)]) == 0
    assert evaluate(e6, [Fraction(1), Fraction(1)]) == 6 ** 7


def test_integrand_structure_degree_one():
    f = IntegrandSpec.insertions(1, 1, 0).build()
    assert f.scalar == 48
    powers = {tuple(sorted(fac.form.coeffs)): fac.multiplicity for fac in f.den}
    assert powers == {(0,): 2, (1,): 3}
    # the numerator stays factored: z-monomial times the surviving linear factors
    assert len(f.factors) == 3 and f.num_degree() == 3
    assert homogeneous_degree(f.expand().num) == 3


def test_compute_w_known_examples():
    assert compute_w(1, 1, 0) == 1488
    assert compute_w(1, 2, -1) == 240
    assert compute_w(1, 0, 0) == 0


def test_compute_w_matches_mirror_coefficients():
    w = mirror_w(3)
    for d in (1, 2, 3):
        assert compute_w(d, 1, 0) / 2 == w[d - 1]


def test_compute_w_both_plans_match_mirror_at_degree_twenty():
    # compute_w integrates both pairs from z_0 with the exponent 1 there; the
    # descending order on the (0, 1) chain runs the same steps in reverse.
    w_20 = mirror_w(20)[-1]
    assert compute_w(20, 1, 0) == 2 * w_20
    assert compute_w(20, 0, 1) == 2 * w_20
    descending = iterated_residue(IntegrandSpec.insertions(20, 0, 1).build(), range(20, -1, -1))
    assert descending == 2 * w_20


def test_compute_w_matches_period_coefficients():
    for d in (1, 2, 3):
        assert Fraction(d, 2) * compute_w(d, 2, -1) == f0_coeff(d)


def test_volume_normalization():
    for d in (1, 2, 3):
        assert integrate_class(d, volume_form(d)) == 1
        scalar, factors = volume_form_factors(d)
        assert integrate_class(d, MPoly.const(scalar), factors=factors) == 1


def test_ideal_annihilation_explicit_samples():
    # r0 * z1^3 and r1 * z0^3 at degree one; a middle generator at degree two
    g1 = sr_ideal(1)
    assert integrate_class(1, g1[0] * MPoly.monomial({1: 3})) == 0
    assert integrate_class(1, g1[1] * MPoly.monomial({0: 3})) == 0
    g2 = sr_ideal(2)
    assert integrate_class(2, g2[1] * MPoly.monomial({0: 7})) == 0
    assert integrate_class(2, g2[1] * MPoly.monomial({2: 7})) == 0


def test_ideal_annihilation_sampled():
    rng = random.Random(515151)
    for d in (1, 2):
        nvars = d + 1
        for gen, factors in zip(sr_ideal(d), sr_ideal_factors(d)):
            comp = 6 * d + 2 - homogeneous_degree(gen)
            for _ in range(10):
                exps = [0] * nvars
                for _ in range(comp):
                    exps[rng.randrange(nvars)] += 1
                mono = dense({tuple(exps): Fraction(1)})
                assert integrate_class(d, gen * mono) == 0
                assert integrate_class(d, mono, factors=factors) == 0


def test_partly_cancelled_factored_class_matches_expanded():
    # e6 cancels only partly against R; the rest stays factored and integrates to non-zero
    factors = [(form, 1) for form in e6_factors(0, 1)]
    mono = MPoly.monomial({1: 1})
    value = integrate_class(1, mono, factors=factors)
    assert value != 0
    assert value == integrate_class(1, mono * MPoly.product(e6_factors(0, 1)))


def test_degree_selection_zeroes():
    assert integrate_class(1, MPoly.monomial({0: 5})) == 0
    assert integrate_class(2, MPoly.monomial({0: 7, 1: 6})) == 0
    assert integrate_class(1, MPoly.monomial({0: 8})) != 0


def test_integrate_class_rejects_variable_outside_range():
    with pytest.raises(ValueError, match="H_0..H_2"):
        integrate_class(2, MPoly.monomial({3: 1}))


def test_integrate_class_rejects_an_order_of_the_wrong_length():
    # An order over more variables than H_0..H_d once read as a higher degree and gave 0.
    omega = MPoly.monomial({0: 8})
    for d, order in ((1, range(3)), (2, (0, 1, 2, 3))):
        with pytest.raises(ResidueError, match=f"cover H_0..H_{d}"):
            integrate_class(d, omega, order=order)
    values = {integrate_class(1, omega, order=order) for order in (None, range(2), (1, 0))}
    assert values == {Fraction(1, 432)}


@pytest.mark.parametrize("func, args, message", [
    (compute_w, (0, 1, 0), "degree must be >= 1"),
    (compute_w, (-3, 2, -1), "degree must be >= 1"),
    (telescoped_insertion_residue, (0,), "degree must be >= 1"),
    (orientation_enumeration, (0,), "degree must be >= 1"),
    (f1_hat_coeff, (-1,), "n must be >= 0"),
], ids=["compute_w-0", "compute_w-neg", "telescoped-0", "orientation-0", "f1_hat-neg"])
def test_bounds_are_raised_by_their_owner(func, args, message):
    # Each bound is checked once, where it belongs: toric.block_forms for the
    # degree, series.f0_coeff for the period index.  Callers reach the owner.
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_order_independence_on_standard_integrands():
    for d in (1, 2):
        vol = volume_form(d)
        assert integrate_class(d, vol) == integrate_class(d, vol, order=range(d, -1, -1))
        for a, b in ((1, 0), (2, -1)):
            up = iterated_residue(IntegrandSpec.insertions(d, a, b).build(), range(d + 1))
            down = iterated_residue(IntegrandSpec.insertions(d, a, b).build(), range(d, -1, -1))
            assert up == down


def test_mixed_insertion_values():
    mixed = mixed_insertion_residues(7)
    assert mixed[:2] == [mixed_insertion_closed_form(1), mixed_insertion_closed_form(2)] == [744, 302256]
    assert mixed == [mixed_insertion_closed_form(d) for d in range(1, 8)]


def test_wall_split_identity():
    # Each wall insertion splits the chain: the product side is
    # (w_{d-f}/2) * (w(2,-1)_f/2), read off two sweeps.  Weighted by f, the
    # walls plus w_d/2 telescope to the non-log period coefficient B_d.
    w, period = w_sweep(7, 1, 0), w_sweep(6, 2, -1)
    assert wall_insertion_residue(2, 1) == (w[0] / 2) * (period[0] / 2) == 89280  # (1488/2) * (240/2)
    for d in range(1, 8):
        walls = {f: wall_insertion_residue(d, f) for f in range(1, d)}
        for f, value in walls.items():
            assert value == (w[d - f - 1] / 2) * (period[f - 1] / 2), (d, f)
        telescoped = sum(f * value for f, value in walls.items()) + w[d - 1] / 2
        assert telescoped == telescoped_insertion_residue(d) == f1_hat_coeff(d), d


def test_insertion_residues_are_half_the_chain_residue():
    # The three insertion helpers return half the ascending residue of their chain.
    up = range(3)
    wall = IntegrandSpec(2, ((0, 1), (2, -1)), (wall_form(1),)).build()
    assert iterated_residue(wall, up) == 178560
    assert wall_insertion_residue(2, 1) == 89280
    telescoped = IntegrandSpec(2, ((0, 1), (2, -1)), (linform((0, -1), (1, 2)),)).build()
    assert iterated_residue(telescoped, up) == 2 * telescoped_insertion_residue(2) == 1125864
    mixed = IntegrandSpec(2, ((0, 1), (1, 1), (2, -1))).build()
    assert iterated_residue(mixed, up) == 2 * mixed_insertion_residues(2)[-1] == 604512


def test_wall_split_argument_validation():
    with pytest.raises(ValueError):
        wall_insertion_residue(2, 2)


def test_telescoped_insertion_values():
    assert telescoped_insertion_residue(1) == 744
    assert telescoped_insertion_residue(2) == 562932
    for d in (1, 2, 3):
        assert telescoped_insertion_residue(d) == f1_hat_coeff(d)


def test_telescoping_linear_identity():
    # sum_f f * (2 z_{d-f} - z_{d-f-1} - z_{d-f+1}) = d (z1 - z0) + z0 - z_d
    for d in range(2, 7):
        total = LinForm()
        for f in range(1, d):
            total = total + wall_form(d - f) * f
        expected = LinForm({0: Fraction(1 - d), 1: Fraction(d), d: Fraction(-1)})
        assert total == expected


def test_degree_zero_insertions_vanish():
    for d in (1, 2):
        for a in (-1, 0, 1, 2):
            for b in (-1, 0, 1, 2):
                if a + b != 1:
                    assert compute_w(d, a, b) == 0


def test_insertion_symmetry_for_a_plus_b_one():
    # w(O_{z^a} O_{z^b}) = w(O_{z^b} O_{z^a}) when a + b = 1.
    for d in (1, 2, 5):
        assert compute_w(d, 1, 0) == compute_w(d, 0, 1)
    for d in (5, 10):
        assert compute_w(d, 2, -1) == compute_w(d, -1, 2)
    # For a < b compute_w integrates the reversed chain; the ascending order
    # on the chain as given agrees.
    for d in (1, 2, 5):
        for a, b in ((0, 1), (-1, 2), (-2, 3)):
            ascending = iterated_residue(IntegrandSpec.insertions(d, a, b).build(),
                                         range(d + 1))
            assert compute_w(d, a, b) == ascending


def test_chain_reversal_swaps_the_insertions():
    # z_j -> z_{d-j} maps insertions(d, a, b) onto insertions(d, b, a), so the
    # descending order on (a, b) is the ascending order on (b, a): compute_w and
    # w_sweep integrate the latter, with the larger exponent at z_0.
    for a, b in [(a, 1 - a) for a in range(-2, 4)]:
        values = [compute_w(d, a, b) for d in range(1, 9)]
        for d, value in enumerate(values, start=1):
            chain = IntegrandSpec.insertions(d, a, b).build()
            assert value == iterated_residue(chain, range(d, -1, -1)), (d, a, b)
        assert w_sweep(8, a, b) == values, (a, b)
        assert any(values) == (max(a, b) < 3), (a, b)


def test_insertions_with_exponent_three_vanish():
    for d in (5, 10, 20):
        assert compute_w(d, 3, -2) == 0
    assert compute_w(10, -2, 3) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_built_integrands_pass_through_the_constructor_unchanged(d):
    # The constructor takes a TaggedFactor on trust; each one a FactoredRat makes is
    # canonical, so feeding a built integrand back in, factors as they are, is the identity.
    built = [IntegrandSpec.insertions(d, a, b).build() for a, b in ((1, 0), (2, -1), (-2, 3), (3, -1))]
    for f in [*built, integrand(d, MPoly.const(1))]:
        assert all(fac.form.canonicalized() == (1, fac.form) for fac in f.den)
        assert FactoredRat(f.scalar, f.num, f.den, f.factors) == f


def test_one_zero_chain_written_as_a_class():
    # The (1, 0) chain is the class z_0 * prod e6 / prod 6 z_i: every e6(i-1, i) with
    # i >= 2 drops its j = 0 factor 6 z_{i-1}, which divides by 6 z_1 .. 6 z_{d-1}.
    for d in range(1, 6):
        factors = [(form, 1) for form in e6_factors(0, 1)]
        factors += [(form, 1) for i in range(2, d + 1) for form in e6_factors(i - 1, i)[1:]]
        assert integrate_class(d, MPoly.monomial({0: 1}), factors=factors) == compute_w(d, 1, 0), d
