"""Standalone property suite with fixed seeds (degree zeros, linearity, closure), and
the negative controls of the orientation premises that prove the fan complete: a
forgetful map, a fold and a coupling."""

from __future__ import annotations

import random
from fractions import Fraction

import quasimap.toric as toric
from polys import dense, evaluate
from quasimap.checks import check_toric, linearity_samples
from quasimap.exact import FactoredRat, LinForm
from quasimap.intersection import IntegrandSpec
from quasimap.residues import iterated_residue
from quasimap.toric import block_forms, orientation_enumeration


def test_property_suite_all_green(property_results):
    for r in property_results:
        assert r.ok, r.line()
    names = {r.name for r in property_results}
    assert {
        "degree zeros a+b != 1",
        "residue linearity",
        "denominator closure",
    } <= names


def test_linearity_samples_are_all_nonzero():
    # A pair 0 = 0 holds for any map, so it would let the linearity check pass
    # vacuously; every one of the six pairs must be nonzero.
    samples = linearity_samples()
    assert len(samples) == 6
    assert all(lhs == rhs for lhs, rhs in samples)
    assert all(lhs != 0 for lhs, _ in samples)


def _fold(d):
    """Block 0 of the block forms replaced by ``(z_0, -z_0)``: the recession map's ``F_0 = -|x_0|``."""
    blocks = block_forms(d)
    blocks[0] = [LinForm.variable(0), LinForm({0: -1})]
    return blocks


def _coupled(d):
    """Each wall ``2 z_i - z_{i-1} - z_{i+1}`` of the block forms made ``2 z_i - 2 z_{i-1} - z_{i+1}``."""
    blocks = block_forms(d)
    for i in range(1, d):
        blocks[i][-1] = LinForm({i - 1: -2, i: 2, i + 1: -1})
    return blocks


def _premise_line():
    return next(r for r in check_toric() if r.name == "orientation premises d<=10")


def test_forgetful_map_fails_without_raising(monkeypatch):
    # Negative control: rows 1..d of the map forgotten, so every region is singular.
    # The toric lines all run, and the premise line names the first zero diagonal.
    monkeypatch.setattr(toric, "_row_choices", lambda d: [
        [form.coeffs for form in block_forms(d)[0]], *[[{}]] * d])
    assert orientation_enumeration(2) == (2, 0)
    line = _premise_line()
    assert not line.ok and line.actual == "d=1: row 1 has diagonal 0"


def test_collision_is_found_under_a_non_injective_map(monkeypatch):
    # Negative control: the fold F_0 = -|x_0| sends (1, 5) and (-1, 5) to (-1, 5), and
    # half its regions have det < 0; its row 0 breaks the first premise.
    monkeypatch.setattr(toric, "block_forms", _fold)
    assert [[min(evaluate(f, x) for f in block) for block in toric.block_forms(1)]
            for x in ((1, 5), (-1, 5))] == [[-1, 5]] * 2
    assert orientation_enumeration(1) == (4, -2)
    line = _premise_line()
    assert not line.ok and line.actual == "d=1: row 0 has diagonal -1"


def test_a_coupling_breaks_the_premises_before_the_enumeration(monkeypatch):
    # Negative control: walls with sub-diagonal -2 couple rows 0 and 1 by -2.  Every
    # region determinant is still positive for d <= 3, the first zero comes at d = 4,
    # and the premise line already fails at d = 2.
    monkeypatch.setattr(toric, "block_forms", _coupled)
    lines = {r.name: r for r in check_toric()}
    assert all(lines[f"orientation d={d}"].ok for d in (1, 2, 3))
    assert lines["orientation d=4"].actual == "256 regions, min determinant 0"
    line = lines["orientation premises d<=10"]
    assert not line.ok and line.actual == "d=2: rows 0 and 1 couple by -2"


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
