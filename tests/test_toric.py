"""Unit tests for the fan, divisor classes, ideal generators and gluing checks."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from polys import bareiss, dense, homogeneous_degree
from quasimap import checks, toric
from quasimap.exact import FactoredRat, LinForm, MPoly
from quasimap.intersection import integrand
from quasimap.toric import (
    FanData,
    block_forms,
    build_fan,
    corner_determinants,
    divisor_classes,
    max_cone_count,
    orientation_enumeration,
    orientation_premises,
    relation_check,
    relation_defects,
    sr_ideal,
    sr_ideal_factors,
    volume_form_factors,
    _band_walk,
    _row_choices,
)


def _dense(rows, d):
    """Coefficient dicts over ``z_0..z_d`` as integer row tuples."""
    return [tuple(row.get(j, 0) for j in range(d + 1)) for row in rows]


def volume_form(d):
    """The volume class ``3^{d+1} * prod H_i^3 * ...``, expanded."""
    scalar, factors = volume_form_factors(d)
    return MPoly.factored(factors) * scalar


def test_fan_counts_and_dimension():
    for d in range(1, 11):
        fan = build_fan(d)
        assert len(fan.rays) == 7 * d + 3
        assert fan.dimension == 6 * d + 2
        assert all(len(col) == fan.dimension for col in fan.rays.values())
        sizes = [len(c) for c in fan.primitive_collections]
        assert sizes[0] == sizes[-1] == 5
        assert all(s == 7 for s in sizes[1:-1])


def test_fan_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_fan(0)


def test_degree_one_fan_details():
    fan = build_fan(1)
    assert len(fan.rays) == 10 and fan.dimension == 8
    assert fan.primitive_collections[0] == ("v0_0", "v1_0", "v2_0", "v3_0", "v3_1")
    assert fan.primitive_collections[1] == ("v0_1", "v1_1", "v2_1", "v3_2", "v3_3")
    # v_{0,0} carries p0, minus the first weight column, and no u-block
    assert fan.rays["v0_0"] == (-1, -1, 0, 0, -3, -2, -1, 0)
    assert fan.rays["v1_1"] == (0, 0, 1, 0, 0, 0, 0, 0)
    assert fan.rays["v3_3"] == (0, 0, 0, 0, 0, 0, 0, 1)


def test_degree_two_fan_details():
    fan = build_fan(2)
    assert len(fan.rays) == 17 and fan.dimension == 14
    assert len(fan.primitive_collections[1]) == 7
    assert "u1" in fan.primitive_collections[1]
    # u_1 sits at the single coordinate of the compactifying block
    assert fan.rays["u1"] == tuple([0] * 13 + [-1])


def test_relation_check_holds_through_degree_ten():
    for d in range(1, 11):
        assert relation_check(build_fan(d))


def test_relation_check_detects_corruption():
    fan = build_fan(2)
    rays = dict(fan.rays)
    col = list(rays["v3_4"])
    col[7] += 1
    rays["v3_4"] = tuple(col)
    broken = FanData(fan.d, rays, fan.primitive_collections)
    assert not relation_check(broken)
    assert relation_defects(broken)


def test_max_cone_count():
    assert max_cone_count(1) == 25
    assert max_cone_count(2) == 175
    assert max_cone_count(3) == 1225


def test_divisor_class_table():
    classes = divisor_classes(2)
    assert classes["v1_1"] == classes["v0_1"] == classes["v2_1"]
    assert classes["v3_0"].coeffs == {0: 3}
    assert classes["v3_1"].coeffs == {0: 2, 1: 1}
    assert classes["v3_2"].coeffs == {0: 1, 1: 2}
    assert classes["u1"].coeffs == {0: -1, 1: 2, 2: -1}


def test_rays_off_v0_form_a_lattice_basis():
    # So a relation is fixed by its v_{0,j} coefficients: with D(v_{0,j}) = H_j
    # the class table is the only Gale dual of the ray matrix.
    for d in range(1, 9):
        fan = build_fan(d)
        others = [fan.rays[label] for label in fan.rays if not label.startswith("v0_")]
        assert len(others) == fan.dimension
        assert abs(bareiss([list(row) for row in zip(*others)])) == 1


def test_wrong_class_fails_relations_and_ideal_generators(monkeypatch):
    true_classes = toric.divisor_classes

    def wrong_classes(d):
        table = true_classes(d)
        if d == 2:
            table["u1"] = LinForm({0: -1, 1: 2})
        return table

    monkeypatch.setattr(toric, "divisor_classes", wrong_classes)
    monkeypatch.setattr(checks, "divisor_classes", wrong_classes)
    assert relation_check(build_fan(1))
    assert not relation_check(build_fan(2))
    lines = {r.name: r.ok for r in checks.check_toric()}
    assert lines["ideal generators d=1"]
    assert not lines["ideal generators d=2"]
    assert not lines["ray relations d=2"]


def test_sr_ideal_degree_one_verbatim():
    gens = sr_ideal(1)
    assert gens[0] == dense({(5, 0): Fraction(2), (4, 1): Fraction(1)})
    assert gens[1] == dense({(1, 4): Fraction(1), (0, 5): Fraction(2)})


def test_sr_ideal_degree_two_middle_generator():
    # H1^4 (H0 + 2H1)(2H1 + H2)(-H0 + 2H1 - H2), expanded by hand
    gens = sr_ideal(2)
    expected = dense({
        (2, 5, 0): Fraction(-2),
        (2, 4, 1): Fraction(-1),
        (1, 5, 1): Fraction(-2),
        (1, 4, 2): Fraction(-1),
        (0, 7, 0): Fraction(8),
        (0, 5, 2): Fraction(-2),
    })
    assert gens[1] == expected


def test_sr_generator_degrees():
    for d in (1, 2, 3, 4):
        degs = [homogeneous_degree(g) for g in sr_ideal(d)]
        assert degs[0] == degs[-1] == 5
        assert all(x == 7 for x in degs[1:-1])


def test_sr_generators_match_primitive_collection_products():
    # product of the divisor classes over P_i is proportional to generator i;
    # expanded, it equals 3 * generator
    for d in range(1, 11):
        one = MPoly.const(1)
        classes = divisor_classes(d)
        collections = build_fan(d).primitive_collections
        for collection, factors in zip(collections, sr_ideal_factors(d)):
            prod = FactoredRat(1, one, factors=[(classes[label], 1) for label in collection])
            assert prod.factors == FactoredRat(1, one, factors=factors).factors
        if d <= 3:
            for collection, gen in zip(collections, sr_ideal(d)):
                assert MPoly.product(classes[label] for label in collection) == 3 * gen


def test_volume_form_degree_one_exact():
    expected = dense({(5, 3): Fraction(18), (4, 4): Fraction(45), (3, 5): Fraction(18)})
    assert volume_form(1) == expected


def test_volume_form_degree_and_walls():
    for d in range(1, 7):
        assert homogeneous_degree(volume_form(d)) == 6 * d + 2
    _, factors = volume_form_factors(2)
    walls = [f for f, _ in factors if set(f.coeffs.values()) == {Fraction(-1), Fraction(2)}]
    assert len(walls) == 1 and walls[0].coeffs == {0: -1, 1: 2, 2: -1}


def test_det_Bk_values_and_formula():
    dets = corner_determinants(100)
    assert dets[:2] == [3, 12]  # cofactor expansion of the 3x3
    assert dets[29] == 264
    assert dets == [9 * k - 6 for k in range(1, 101)]
    # One table for every k: a smaller kmax gives the same prefix.
    assert corner_determinants(30) == dets[:30] and corner_determinants(1) == [3]
    # The recurrence against the dense corner matrix of the degree-k blocks through
    # Bareiss elimination.
    for k, value in enumerate(dets[:30], start=1):
        corner = _dense([c[-1] for c in _row_choices(k)], k)
        assert type(value) is int and value == bareiss([list(row) for row in corner])
    with pytest.raises(ValueError, match="kmax must be >= 1"):
        corner_determinants(0)


@pytest.mark.parametrize("walk, row, stray", [
    pytest.param(walk, row, stray, id=f"{prefix}{row}-{stray}")
    for walk, prefix in ((corner_determinants, ""), (orientation_enumeration, "orientation-"),
                         (orientation_premises, "premises-"))
    for row, stray in [(0, 2), (2, 0), (2, 4), (4, 5)]])
def test_det_Bk_rejects_a_row_off_the_band(monkeypatch, walk, row, stray):
    # Row ``row`` of the k=4 corner matrix gains a coefficient at column ``stray``,
    # two columns off the diagonal or past the last column; the corner table, the
    # walk over every region and the premises all refuse it.
    real = block_forms

    def off_band(d):
        blocks = real(d)
        blocks[row][-1] = blocks[row][-1] + LinForm.variable(stray)
        return blocks

    monkeypatch.setattr(toric, "block_forms", off_band)
    with pytest.raises(ValueError, match="band"):
        walk(4)


def test_orientation_degree_one_exact_matrices():
    choices = [_dense(rows, 1) for rows in _row_choices(1)]
    mats = {(r0, r1) for r0 in choices[0] for r1 in choices[1]}
    assert mats == {
        ((1, 0), (0, 1)),
        ((1, 0), (1, 2)),
        ((2, 1), (0, 1)),
        ((2, 1), (1, 2)),
    }
    rep = orientation_enumeration(1)
    assert rep.region_count == 4
    assert rep.min_det == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_orientation_walk_matches_bareiss_on_every_region(d):
    # Bareiss leaves the (k+1)-th leading minor at m[k][k]; with every minor nonzero it
    # never swaps rows, so each of the walk's minors f_0..f_d is compared, not only f_d.
    regions = list(zip(product(*_row_choices(d)), _band_walk(_row_choices(d)), strict=True))
    assert len(regions) == 4 ** d
    dets = []
    for rows, minors in regions:
        m = [list(row) for row in _dense(rows, d)]
        dets.append(bareiss(m))
        assert list(minors) == [m[k][k] for k in range(d + 1)]
    assert orientation_enumeration(d) == (4 ** d, min(dets))


def test_every_leading_minor_is_positive():
    # The conclusion of the induction in orientation_premises, region by region:
    # 1 <= f_0 <= f_1 <= ... <= f_d for d = 1..8.
    for d in range(1, 9):
        regions = 0
        for minors in _band_walk(_row_choices(d)):
            assert 1 <= minors[0] and list(minors) == sorted(minors), minors
            regions += 1
        assert regions == 4 ** d


def test_orientation_premises_hold_through_degree_forty():
    # The premises give every region determinant >= 1 at every degree; verify states
    # them for d <= 10 and enumerates the 4^d regions only for d <= 4.
    assert all(orientation_premises(d) is None for d in range(1, 41))


def test_a_sub_diagonal_beside_a_one_breaks_the_second_premise(monkeypatch):
    # The last block's z_d made z_{d-1} + z_d: its row no longer gives f_d = f_{d-1}.
    real = block_forms

    def leaning(d):
        blocks = real(d)
        blocks[d][0] = LinForm({d - 1: 1, d: 1})
        return blocks

    monkeypatch.setattr(toric, "block_forms", leaning)
    assert orientation_premises(3) == "d=3: row 3 has diagonal 1 and sub-diagonal 1"


@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)], ids=str)
def test_the_homotopy_to_the_identity_keeps_every_region_positive(s):
    # The step of orientation_premises from positive regions to a homeomorphism: F_s,
    # with row i the minimum of (1-s) z_i + s r over the forms r of block i, has every
    # region determinant positive, so no F_s on the way to F_0 = id has a zero but 0.
    for d in range(1, 6):
        choices = [[{**{j: s * c for j, c in r.items()}, i: s * r.get(i, 0) + 1 - s} for r in rows]
                   for i, rows in enumerate(_row_choices(d))]
        dets = [f[-1] for f in _band_walk(choices)]
        assert len(dets) == 4 ** d and min(dets) > 0


def test_orientation_all_positive_up_to_four():
    for d in (2, 3, 4):
        rep = orientation_enumeration(d)
        assert rep.region_count == 4 ** d
        assert rep.min_det > 0


def test_orientation_identity_selection():
    for d in (1, 2, 3):
        choices = _row_choices(d)
        rows = _dense([c[0] for c in choices], d)
        assert rows == [tuple(1 if i == j else 0 for j in range(d + 1)) for i in range(d + 1)]


# The block forms as they were written out by hand before ``block_forms``:
# coefficient rows of z_0..z_d with their multiplicities (and, for R, the
# variable whose contour encloses the zero).  Generators and the gluing map's
# rows are listed block by block; the volume and R factors in their old order.
SR_LITERAL = {
    1: [[((1, 0), 4), ((2, 1), 1)],
        [((0, 1), 4), ((1, 2), 1)]],
    2: [[((1, 0, 0), 4), ((2, 1, 0), 1)],
        [((0, 1, 0), 4), ((1, 2, 0), 1), ((0, 2, 1), 1), ((-1, 2, -1), 1)],
        [((0, 0, 1), 4), ((0, 1, 2), 1)]],
    3: [[((1, 0, 0, 0), 4), ((2, 1, 0, 0), 1)],
        [((0, 1, 0, 0), 4), ((1, 2, 0, 0), 1), ((0, 2, 1, 0), 1), ((-1, 2, -1, 0), 1)],
        [((0, 0, 1, 0), 4), ((0, 1, 2, 0), 1), ((0, 0, 2, 1), 1), ((0, -1, 2, -1), 1)],
        [((0, 0, 0, 1), 4), ((0, 0, 1, 2), 1)]],
}
VOLUME_LITERAL = {
    1: [((1, 0), 3), ((0, 1), 3), ((2, 1), 1), ((1, 2), 1)],
    2: [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3),
        ((2, 1, 0), 1), ((1, 2, 0), 1), ((0, 2, 1), 1), ((0, 1, 2), 1),
        ((-1, 2, -1), 1)],
    3: [((1, 0, 0, 0), 3), ((0, 1, 0, 0), 3), ((0, 0, 1, 0), 3), ((0, 0, 0, 1), 3),
        ((2, 1, 0, 0), 1), ((1, 2, 0, 0), 1), ((0, 2, 1, 0), 1), ((0, 1, 2, 0), 1),
        ((0, 0, 2, 1), 1), ((0, 0, 1, 2), 1),
        ((-1, 2, -1, 0), 1), ((0, -1, 2, -1), 1)],
}
R_LITERAL = {
    1: [((1, 0), 4, 0), ((0, 1), 4, 1), ((2, 1), 1, 0), ((1, 2), 1, 1)],
    2: [((1, 0, 0), 4, 0), ((0, 1, 0), 4, 1), ((0, 0, 1), 4, 2),
        ((2, 1, 0), 1, 0), ((1, 2, 0), 1, 1), ((0, 2, 1), 1, 1), ((0, 1, 2), 1, 2),
        ((-1, 2, -1), 1, 1)],
    3: [((1, 0, 0, 0), 4, 0), ((0, 1, 0, 0), 4, 1), ((0, 0, 1, 0), 4, 2), ((0, 0, 0, 1), 4, 3),
        ((2, 1, 0, 0), 1, 0), ((1, 2, 0, 0), 1, 1), ((0, 2, 1, 0), 1, 1), ((0, 1, 2, 0), 1, 2),
        ((0, 0, 2, 1), 1, 2), ((0, 0, 1, 2), 1, 3),
        ((-1, 2, -1, 0), 1, 1), ((0, -1, 2, -1), 1, 2)],
}


def _form(row):
    return LinForm(dict(enumerate(row)))


def test_sr_ideal_factors_and_row_choices_match_literal_blocks():
    for d, blocks in SR_LITERAL.items():
        assert sr_ideal_factors(d) == [[(_form(row), m) for row, m in gen] for gen in blocks]
        assert _row_choices(d) == [[{j: c for j, c in enumerate(row) if c} for row, _ in gen]
                                   for gen in blocks]
        assert block_forms(d) == [[_form(row) for row, _ in gen] for gen in blocks]


def test_volume_and_r_factors_match_literal_lists():
    def key(form, *rest):
        return (form.key(),) + rest

    for d in (1, 2, 3):
        scalar, factors = volume_form_factors(d)
        assert scalar == 3 ** (d + 1)
        assert sorted(key(f, m) for f, m in factors) == sorted(
            key(_form(row), m) for row, m in VOLUME_LITERAL[d])
        r_literal = [(_form(row), m, frozenset({tag})) for row, m, tag in R_LITERAL[d]]
        assert integrand(d, MPoly.const(1)) == FactoredRat(Fraction(1, 3 ** (d + 1)), MPoly.const(1), r_literal)


def test_block_forms_reject_bad_degree():
    with pytest.raises(ValueError):
        block_forms(0)
