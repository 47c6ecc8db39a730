"""Standalone property suite with fixed seeds (degree zeros, linearity, closure,
recession-map homogeneity and sampled injectivity)."""

from __future__ import annotations

import random
import struct
import tracemalloc
from fractions import Fraction

import pytest

import quasimap.checks as checks
from polys import dense, recession_reference
from quasimap.checks import (
    RECESSION_SAMPLES,
    RECESSION_SCALED,
    linearity_samples,
    recession_injective,
    recession_samples,
)
from quasimap.exact import FactoredRat
from quasimap.intersection import IntegrandSpec
from quasimap.residues import iterated_residue
from quasimap.toric import recession_map


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


def test_linearity_samples_are_all_nonzero():
    # A pair 0 = 0 holds for any map, so it would let the linearity check pass
    # vacuously; every one of the six pairs must be nonzero.
    samples = linearity_samples()
    assert len(samples) == 6
    assert all(lhs == rhs for lhs, rhs in samples)
    assert all(lhs != 0 for lhs, _ in samples)


def _points(flat: list[int], d: int) -> list[tuple[int, ...]]:
    """The point-major list of :func:`recession_samples` as ``(d + 1)``-tuples."""
    return list(zip(*[iter(flat)] * (d + 1)))


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


def test_recession_samples_are_scaled_pairs():
    # The seed-40961 stream of ``check_properties``, homogeneity draws included.
    # Every injectivity sample is an entry 420 * p/q of RECESSION_SCALED, and the
    # first 500 points of each degree, mapped as integer columns, give 420 times
    # the reference image of the point over 420.
    assert len(RECESSION_SCALED) == 101 * 7  # one entry per pair, so the pairs are uniform
    rng = random.Random(40961)
    for d in (1, 2, 3, 4):
        for _ in range(50):  # the homogeneity draws: d + 1 coordinates, then t
            for _ in range(d + 1):
                rng.randint(-20, 20), rng.randint(1, 9)
            rng.randint(1, 30), rng.randint(1, 9)
        flat = recession_samples(RECESSION_SAMPLES, d, rng)
        assert len(flat) == RECESSION_SAMPLES * (d + 1)
        assert set(flat) <= set(RECESSION_SCALED)
        points = _points(flat, d)[:500]
        images = [list(image) for image in zip(*recession_map(d, _columns(points)))]
        assert images == [[420 * y for y in recession_reference(d, [Fraction(x, 420) for x in a])]
                          for a in points]


def test_recession_injectivity_beyond_the_ladder():
    # The ladder samples d = 1..4; the same integer path, 10^4 seeded samples, at d = 5, 6.
    assert RECESSION_SAMPLES == 10_000
    for d in (5, 6):
        assert recession_injective(d, random.Random(40961))


def _tuple_dict_injective(d: int, rng: random.Random, count: int = RECESSION_SAMPLES) -> bool:
    """The per-point, tuple-keyed collision check that ``recession_injective`` replaced,
    on the reference map, as a reference."""
    seen: dict[tuple, tuple] = {}
    ok = True
    for alpha in _points(recession_samples(count, d, rng), d):
        if seen.setdefault(tuple(recession_reference(d, alpha)), alpha) != alpha:
            ok = False
    return ok


def test_packed_keys_agree_with_tuple_keys(monkeypatch):
    # Same verdict and the same generator state after each degree, so the rest
    # of the seed-40961 stream is unchanged: the blocked column path draws the
    # points the per-point reference draws in one go.  Two more seeds run
    # 2,050 samples, which ends in a partial block.
    for d in range(1, 7):
        rng, ref = random.Random(40961 + d), random.Random(40961 + d)
        assert recession_injective(d, rng) == _tuple_dict_injective(d, ref)
        assert rng.getstate() == ref.getstate()
    monkeypatch.setattr(checks, "RECESSION_SAMPLES", 2_050)
    for seed in (1, 2):
        for d in range(1, 7):
            rng, ref = random.Random(seed + d), random.Random(seed + d)
            assert recession_injective(d, rng) == _tuple_dict_injective(d, ref, 2_050)
            assert rng.getstate() == ref.getstate()


def test_repeated_points_are_not_collisions():
    points = _points(recession_samples(RECESSION_SAMPLES, 1, random.Random(40961)), 1)
    assert len(points) - len(set(points)) == 566
    assert recession_injective(1, random.Random(40961))


def test_collision_is_found_under_a_non_injective_map(monkeypatch):
    # Negative control: the map that keeps only the first coordinate.
    def forgetful(d, cols):
        return [recession_map(d, cols)[0]] + [[0] * len(cols[0])] * d

    monkeypatch.setattr(checks, "recession_map", forgetful)
    for d in (1, 4):
        assert not recession_injective(d, random.Random(40961))


def test_values_outside_int32_raise(monkeypatch):
    monkeypatch.setattr(checks, "recession_map", lambda d, cols: [*cols[:-1], [2 ** 31] * len(cols[-1])])
    with pytest.raises(struct.error):
        recession_injective(2, random.Random(40961))


def test_recession_injective_peak_memory():
    # 10^4 samples at d = 4 kept as packed int32 bytes: 1.3 MiB traced, where
    # tuples of boxed ints took 4.35 MiB.
    tracemalloc.start()
    try:
        assert recession_injective(4, random.Random(40961))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


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
