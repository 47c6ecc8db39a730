"""Standalone property suite with fixed seeds (degree zeros, linearity, closure,
recession-map homogeneity), and the exact preimage count that proves the recession
map bijective, with its negative controls (a forgetful map, a fold)."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest

import quasimap.checks as checks
import quasimap.toric as toric
from polys import bareiss, dense, recession_blocks, recession_reference
from quasimap.checks import RECESSION_TRIES, check_properties, linearity_samples
from quasimap.exact import FactoredRat, LinForm
from quasimap.intersection import IntegrandSpec
from quasimap.residues import iterated_residue
from quasimap.toric import block_forms, orientation_enumeration, recession_map, recession_preimages


def test_property_suite_all_green(property_results):
    for r in property_results:
        assert r.ok, r.line()
    names = {r.name for r in property_results}
    assert {
        "degree zeros a+b != 1",
        "residue linearity",
        "denominator closure",
        "recession homogeneity",
        "recession map bijective",
    } <= names


def test_linearity_samples_are_all_nonzero():
    # A pair 0 = 0 holds for any map, so it would let the linearity check pass
    # vacuously; every one of the six pairs must be nonzero.
    samples = linearity_samples()
    assert len(samples) == 6
    assert all(lhs == rhs for lhs, rhs in samples)
    assert all(lhs != 0 for lhs, _ in samples)


def _line(results, name):
    return next(r for r in results if r.name == name)


def _fold(d):
    """Block 0 of the recession map replaced by ``(z_0, -z_0)``: ``F_0 = -|x_0|``."""
    blocks = block_forms(d)
    blocks[0] = [LinForm.variable(0), LinForm({0: -1})]
    return blocks


def _columns(points) -> list[list]:
    return [list(col) for col in zip(*points)]


def test_recession_injectivity_direct_sampling():
    rng = random.Random(246810)
    for d in (1, 2):
        pairs = [(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(d + 1)),
                  tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(d + 1)))
                 for _ in range(500)]
        images_a = list(zip(*recession_map(d, _columns(a for a, _ in pairs))))
        images_b = list(zip(*recession_map(d, _columns(b for _, b in pairs))))
        for (a, b), fa, fb in zip(pairs, images_a, images_b):
            if a != b:
                assert fa != fb


def test_preimages_map_back_exactly_on_the_ladder():
    # Three seeded regular values per degree: one preimage each, which the recession
    # map sends back to y exactly, and the regions are those the orientation line sees.
    rng = random.Random(5)
    for d in (1, 2, 3, 4):
        for _ in range(3):
            y = [rng.randint(-99, 99) for _ in range(d + 1)]
            regions, preimages, tie = recession_preimages(d, y)
            assert regions == orientation_enumeration(d)
            assert regions.region_count == 4 ** d
            assert not tie and len(preimages) == 1
            assert all(type(x) is Fraction for x in preimages[0])
            assert recession_map(d, [[x] for x in preimages[0]]) == [[t] for t in y]


def test_recession_injectivity_beyond_the_ladder():
    # The ladder counts d = 1..4; the same count at d = 5 (1,024 regions).
    y = (-41, 17, 88, -5, 63, -70)
    regions, preimages, tie = recession_preimages(5, y)
    assert regions.all_positive and regions.region_count == 4 ** 5
    assert not tie and len(preimages) == 1
    assert recession_reference(5, preimages[0]) == list(y)


def test_a_value_on_a_wall_is_not_regular():
    # x = (1, -1, 3) ties z_0 with 2 z_0 + z_1 in block 0, so y = F(x) is not regular.
    y = recession_reference(2, (1, -1, 3))
    regions, preimages, tie = recession_preimages(2, y)
    assert tie and regions.all_positive
    assert recession_preimages(3, (0, 0, 0, 0))[2]


def test_preimages_need_d_plus_one_coordinates():
    with pytest.raises(ValueError):
        recession_preimages(2, (1, 2))


def test_preimages_need_int_values():
    # A rational y is rejected, not floored by the fraction-free elimination; F is a
    # bijection, so (1/2, 3) has a preimage that a floored solve would miss.
    for y in ((Fraction(1, 2), 3), (Fraction(3), 3), (0.5, 3), (2.0, 3)):
        with pytest.raises(TypeError):
            recession_preimages(1, y)


def test_preimages_of_lattice_points_against_the_reference():
    # Small seeded points x land on a wall often.  y = F(x) by the hand-written block
    # values: x off every wall is the one preimage, with no tie; x on a wall gives no
    # preimage and a tie, since F is a bijection.
    rng = random.Random(2029)
    for d in (1, 2, 3, 4):
        on_wall = 0
        for _ in range(50):
            x = tuple(rng.randint(-3, 3) for _ in range(d + 1))
            blocks = recession_blocks(d, x)
            wall = any(block.count(min(block)) > 1 for block in blocks)
            regions, preimages, tie = recession_preimages(d, recession_reference(d, x))
            assert regions.region_count == 4 ** d
            assert (preimages, tie) == (([], True) if wall else ([x], False))
            on_wall += wall
        assert 0 < on_wall < 50


def _bareiss_solve(rows, y):
    """``|det| x`` for the region ``A x = y`` with coefficient-dict rows ``rows``: Bareiss
    over the dense ``[A | y]``, with its row swaps, then back substitution."""
    d = len(rows) - 1
    m = [[*(row.get(j, 0) for j in range(d + 1)), t] for row, t in zip(rows, y)]
    bareiss(m)
    det, X = m[d][d], [0] * (d + 1)  # the row-swapped system's determinant, +-det A
    for i in range(d, -1, -1):
        X[i] = (det * m[i][-1] - sum(map(mul, m[i][i + 1:-1], X[i + 1:]))) // m[i][i]
    return X if det > 0 else [-x for x in X]


@pytest.mark.parametrize("fold", [False, True], ids=["block-forms", "fold"])
def test_band_solve_matches_bareiss_on_every_region(monkeypatch, fold):
    # The walk's int solve against dense Bareiss on every region at d = 1..5, for seeded
    # y; under the fold half the regions have det < 0, so the sign flip is compared too.
    if fold:
        monkeypatch.setattr(toric, "block_forms", _fold)
    rng = random.Random(3301)
    signs = set()
    for d in range(1, 6):
        for _ in range(2):
            y = [rng.randint(-99, 99) for _ in range(d + 1)]
            for rows, minors in toric._band_walk(toric._row_choices(d)):
                signs.add(minors[-1] > 0)
                assert toric._band_solve(rows, minors, y) == _bareiss_solve(rows, y), (rows, y)
    assert signs == ({True, False} if fold else {True})


def test_forgetful_map_fails_without_raising(monkeypatch):
    # Negative control: rows 1..d of the map forgotten, so every region is singular.
    # No system is solved, nothing divides by 0, and the line fails.
    monkeypatch.setattr(toric, "_row_choices", lambda d: [
        [form.coeffs for form in block_forms(d)[0]], *[[{}]] * d])
    regions, preimages, tie = recession_preimages(2, (3, -1, 4))
    assert (regions.min_det, preimages, tie) == (0, [], False)
    line = _line(check_properties(), "recession map bijective")
    assert not line.ok and line.actual == "d=1: min determinant 0"


def test_collision_is_found_under_a_non_injective_map(monkeypatch):
    # Negative control: the fold F_0 = -|x_0| reaches a negative y_0 twice, a positive
    # one never, and has negative determinants, so the line fails.
    monkeypatch.setattr(toric, "block_forms", _fold)
    rng = random.Random(5)
    for d in (1, 2, 3, 4):
        y = [rng.randint(1, 99)] + [rng.randint(-99, 99) for _ in range(d)]
        regions, preimages, tie = recession_preimages(d, y)
        assert regions.min_det < 0 and not tie and preimages == []
        y[0] = -y[0]
        regions, preimages, tie = recession_preimages(d, y)
        assert not tie and len(preimages) == 2
        assert recession_map(d, _columns(preimages)) == [[t, t] for t in y]
    assert not _line(check_properties(), "recession map bijective").ok


def test_non_regular_values_are_passed_over(monkeypatch):
    # A tie sends the count to the next seeded value; with none regular it fails.
    calls = []

    def ties_first(d, y):
        calls.append(d)
        regions, preimages, _ = recession_preimages(d, y)
        return regions, preimages, calls.count(d) == 1

    monkeypatch.setattr(checks, "recession_preimages", ties_first)
    assert _line(check_properties(), "recession map bijective").ok
    assert calls == [1, 1, 2, 2, 3, 3, 4, 4]

    monkeypatch.setattr(checks, "recession_preimages",
                        lambda d, y: (*recession_preimages(d, y)[:2], True))
    line = _line(check_properties(), "recession map bijective")
    assert not line.ok and line.actual == f"d=1: no regular value in {RECESSION_TRIES} tries"


def test_numerator_linearity_with_random_scalars():
    rng = random.Random(1597)
    base = IntegrandSpec.insertions(2, 1, 0).build()
    order = range(3)
    deg = base.num_degree()
    for _ in range(3):
        terms_a = {}
        terms_b = {}
        for _ in range(5):
            e = [0] * 3
            for _ in range(deg):
                e[rng.randrange(3)] += 1
            terms_a[tuple(e)] = Fraction(rng.randint(-9, 9))
            e = [0] * 3
            for _ in range(deg):
                e[rng.randrange(3)] += 1
            terms_b[tuple(e)] = Fraction(rng.randint(-9, 9))
        na, nb = dense(terms_a), dense(terms_b)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        beta = Fraction(rng.randint(-9, -1), rng.randint(1, 4))
        lhs = iterated_residue(FactoredRat(base.scalar, alpha * na + beta * nb, base.den), order)
        rhs = alpha * iterated_residue(FactoredRat(base.scalar, na, base.den), order)
        rhs += beta * iterated_residue(FactoredRat(base.scalar, nb, base.den), order)
        assert lhs == rhs
