"""Acceptance suite: every pinned identity at its stated range, exactly.

Each test prints one PASS/FAIL line per criterion (run pytest with ``-s`` to
see them live); all comparisons are exact rational equalities, tolerance zero.
The same checks back the ``quasimap verify`` subcommand.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from quasimap import checks, toric
from quasimap.checks import (
    DEGREE_SELECTION_SAMPLES,
    DEGREE_SELECTION_SEED,
    DET_KMAX,
    IDEAL_SAMPLES,
    IDEAL_SEED,
    ORIENTATION_DMAX,
    RELATION_DMAX,
    ascending_volumes,
    check_degree_selection,
    check_ideal_annihilation,
    check_insertion_identities,
    check_order_independence,
    check_period_coefficients,
    check_properties,
    check_series,
    check_toric,
    check_volume_normalization,
    check_w_coefficients,
    run_verification,
)
from quasimap.exact import FactoredRat, LinForm
from quasimap.intersection import w_sweep
from quasimap.series import j_from_w, j_modular
from quasimap.toric import OrientationReport


def _report(criterion: str, results) -> None:
    ok = all(r.ok for r in results)
    print(f"{'PASS' if ok else 'FAIL'} {criterion} ({len(results)} checks)")
    for r in results:
        assert r.ok, r.line()


def test_criterion_1_w_coefficients_reproduce_inverse_j_expansion():
    # 744, 473652, 451734080, 510531007770 for d = 1..4; d = 5..10 against
    # the series route (the coefficients are genuinely fractional there).
    _report("criterion 1: w-coefficients d<=4 (+ d=5..10 against the series)",
            check_w_coefficients(w_sweep(10, 1, 0)))


def test_criterion_2_period_coefficients():
    _report("criterion 2: (d/2) w(2,-1) = 2^{3d}(6d-1)!!/(d!)^3 for d<=10",
            check_period_coefficients(w_sweep(10, 2, -1)))


def test_criterion_3_volume_normalization():
    _report("criterion 3: volume class integrates to 1 for d<=10",
            check_volume_normalization(ascending_volumes(10)))


def test_criterion_4_ideal_annihilation():
    _report("criterion 4: ideal generators annihilate, d<=3, 10 samples each",
            check_ideal_annihilation(3))


def test_criterion_5_degree_selection():
    _report("criterion 5: off-degree monomials integrate to 0, d<=3, 20 samples",
            check_degree_selection(3))


def test_sample_counts_and_seeds_are_pinned():
    # Criteria 4 and 5 draw their monomials from these; a change would alter the
    # checks without changing any line they print.
    assert (IDEAL_SAMPLES, IDEAL_SEED) == (10, 1113)
    assert (DEGREE_SELECTION_SAMPLES, DEGREE_SELECTION_SEED) == (20, 62)


def test_criterion_6_order_independence():
    _report("criterion 6: ascending vs descending residue plans agree, "
            "insertion integrands and volume class d<=10",
            check_order_independence(10, w_sweep(10, 1, 0), w_sweep(10, 2, -1), ascending_volumes(10)))


def test_order_independence_needs_sweeps_of_length_dmax():
    w, period, volumes = w_sweep(2, 1, 0), w_sweep(2, 2, -1), ascending_volumes(2)
    for short in ((w[:1], period, volumes), (w, period[:1], volumes), (w, period, volumes[:1])):
        with pytest.raises(ValueError, match="length >= 2"):
            check_order_independence(2, *short)


def test_criterion_7_insertion_identities():
    _report("criterion 7: mixed insertion, chain splitting, telescoped insertion, d<=7",
            check_insertion_identities(7, w_sweep(7, 1, 0), w_sweep(7, 2, -1)))


def test_criterion_8_toric_checks():
    _report("criterion 8: ray relations d<=10, corner determinants k<=30, "
            "orientation d<=4, orientation premises d<=10, ideal generators d<=2",
            check_toric())


def test_toric_ranges_are_pinned():
    # Criterion 8 states these ranges, and verify prints one line per degree.
    assert (RELATION_DMAX, DET_KMAX, ORIENTATION_DMAX) == (10, 30, 4)
    names = {r.name for r in check_toric()}
    assert {"ray relations d=10", "corner determinants k<=30", "orientation d=4",
            "orientation premises d<=10"} <= names
    assert not {"ray relations d=11", "orientation d=5"} & names


def test_criterion_9_series_suite():
    _report("criterion 9: differential-equation check, mirror and j coefficients, three routes",
            check_series())


def test_criterion_10_property_suite(property_results):
    _report("criterion 10: seeded property suite: degree zeros, residue linearity, "
            "denominator closure", property_results)


def test_headline_chain_residue_w_to_modular_j():
    # w(O_z O_1)_{0,d} / 2 from one residue sweep, through the composition sum,
    # against j = E4^3 / Delta: the series-side w_d takes no part.
    residue_w = [w / 2 for w in w_sweep(30, 1, 0)]
    ok = j_from_w(residue_w) == j_modular(30)
    print(f"{'PASS' if ok else 'FAIL'} headline chain: residue w_d for d<=30 "
          "-> composition sum -> modular j_1..j_30")
    assert ok


def _one_class(d):
    return {label: LinForm.variable(0) for label in toric.divisor_classes(d)}


def _order_independence_perturbed():
    """Order independence at d<=2 with the ascending w value at d=2 off by one."""
    w = w_sweep(2, 1, 0)
    return check_order_independence(2, [w[0], w[1] + 1], w_sweep(2, 2, -1), ascending_volumes(2))


@pytest.mark.parametrize("check, predicate, replacement, failures, first", [
    (check_toric, "det_Bk", lambda k: 0, 1,
     "FAIL corner determinants k<=30: expected 9k-6 for all k, actual mismatch"),
    (check_toric, "orientation_enumeration", lambda d: OrientationReport(4 ** d, -3), 4,
     "FAIL orientation d=1: expected 4 regions, all determinants positive, "
     "actual 4 regions, min determinant -3"),
    (check_toric, "orientation_premises", lambda d: f"d={d}: rows 5 and 6 couple by 2" if d > 6 else None, 1,
     "FAIL orientation premises d<=10: expected diagonal 1 or 2, no sub-diagonal beside a 1, "
     "couplings at most 1, actual d=7: rows 5 and 6 couple by 2"),
    (check_toric, "divisor_classes", _one_class, 2,
     "FAIL ideal generators d=1: expected stated factor lists, actual mismatch"),
    (check_series, "pf_first_failure", lambda n: 7, 1,
     "FAIL differential-equation check N=20: expected no failing order through 20, "
     "actual fails at order 7"),
    (check_series, "lagrange_oracle", lambda w: [], 1,
     "FAIL j reconstruction routes N=20: expected composition, inversion and modular "
     "routes agree, actual diverge"),
    (lambda: check_ideal_annihilation(1), "integrate_class", lambda *args, **kwargs: Fraction(5), 2,
     "FAIL ideal annihilation d=1 generator=0: expected 0 on 10 samples, "
     "actual nonzero at ('z0^3', '5')"),
    (lambda: check_degree_selection(1), "integrate_class", lambda *args, **kwargs: Fraction(5), 1,
     "FAIL degree selection d=1: expected 0 on 20 samples, actual nonzero at ('z0^6*z1^3', '5')"),
    (check_properties, "compute_w", lambda d, a, b: Fraction(1), 1,
     "FAIL degree zeros a+b != 1: expected w = 0 for all off-degree insertions, "
     "actual nonzero at (1, -1, -1)"),
    (check_properties, "linearity_samples", lambda: [(Fraction(1), Fraction(2))], 1,
     "FAIL residue linearity: expected linear in the numerator, actual violation"),
    (_order_independence_perturbed, None, None, 1,
     "FAIL order independence d=2 insertions=(1,0): expected 947305, actual 947304"),
])
def test_each_failing_check_prints_its_fail_line(monkeypatch, check, predicate, replacement,
                                                 failures, first):
    # The golden digests see only PASS lines: pin every FAIL text, with the
    # predicate behind it forced to fail (or, with none, the input perturbed),
    # and that no other line fails.
    if predicate is not None:
        monkeypatch.setattr(checks, predicate, replacement)
    failed = [r.line() for r in check() if not r.ok]
    assert len(failed) == failures
    assert failed[0] == first


def test_ladder_repeats_no_exact_work(monkeypatch):
    # Each degree's 1/R is built once and reused by every class paired against it,
    # factors a FactoredRat made are entered without being canonicalized again, and
    # the carried z_p powers cancel inside the constructor, with no second FactoredRat:
    # the ladder to d=4 then calls block_forms at most 150 and LinForm.canonicalized
    # at most 3,000 times (288 and 6,217 when R was rebuilt per class) and constructs
    # at most 850 FactoredRat (1,141 when a separate pass rebuilt each cancelled one,
    # 865 when the ascending volumes were integrated twice and a step rebuilt every
    # branch it joined nothing to).
    counts = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(toric, "block_forms")
    count(LinForm, "canonicalized")
    count(FactoredRat, "__init__")
    assert all(r.ok for r in run_verification(4))
    assert counts["block_forms"] <= 150
    assert counts["canonicalized"] <= 3000
    assert counts["__init__"] <= 850
