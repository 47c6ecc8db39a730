"""Standalone property suite with fixed seeds (degree zeros, linearity, closure,
recession-map homogeneity and sampled injectivity)."""

from __future__ import annotations

import random
from fractions import Fraction

from quasimap.checks import linearity_samples
from quasimap.exact import FactoredRat, MPoly
from quasimap.intersection import IntegrandSpec
from quasimap.residues import ResiduePlan, iterated_residue
from quasimap.toric import eval_recession


def test_property_suite_all_green(property_results):
    for r in property_results:
        assert r.ok, r.line()
    names = {r.name for r in property_results}
    assert {
        "degree zeros a+b != 1",
        "residue linearity",
        "denominator closure",
        "recession homogeneity",
        "recession sampled injectivity",
    } <= names


def test_linearity_samples_are_not_all_zero():
    # Samples below the integrand's full numerator degree integrate to 0 and
    # would make the linearity check pass vacuously.
    samples = linearity_samples()
    assert all(lhs == rhs for lhs, rhs in samples)
    assert any(lhs != 0 for lhs, _ in samples)


def test_recession_injectivity_direct_sampling():
    rng = random.Random(246810)
    for d in (1, 2):
        for _ in range(500):
            a = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(d + 1))
            b = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(d + 1))
            if a != b:
                assert eval_recession(d, list(a)) != eval_recession(d, list(b))


def test_numerator_linearity_with_random_scalars():
    rng = random.Random(1597)
    base = IntegrandSpec.insertions(2, 1, 0).build()
    plan = ResiduePlan.ascending(2)
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
        na, nb = MPoly(3, terms_a), MPoly(3, terms_b)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        beta = Fraction(rng.randint(-9, -1), rng.randint(1, 4))
        lhs = iterated_residue(FactoredRat(base.scalar, alpha * na + beta * nb, base.den), plan)
        rhs = alpha * iterated_residue(FactoredRat(base.scalar, na, base.den), plan)
        rhs += beta * iterated_residue(FactoredRat(base.scalar, nb, base.den), plan)
        assert lhs == rhs
