"""Unit tests for the period series, mirror coefficients and j reconstruction."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, strategies as st

import quasimap.series as series
from quasimap.series import (
    f0_coeff,
    f0_series,
    f1_hat_coeff,
    f1_hat_series,
    j_from_w,
    j_modular,
    lagrange_oracle,
    mirror_w,
    pf_first_failure,
    series_div,
    series_exp,
    series_mul,
    series_reversion,
    theta,
)


def test_f0_coefficients():
    assert f0_coeff(0) == 1
    assert f0_coeff(1) == 120
    assert f0_coeff(2) == 83160
    assert f0_coeff(3) == 81681600


def test_f0_factorial_cross_identity():
    for n in range(31):
        assert f0_coeff(n) * factorial(n) ** 3 * factorial(3 * n) == factorial(6 * n)


def test_pf_recursion_check():
    assert pf_first_failure(20) is None


def _drift_f1_hat(monkeypatch, index: int, delta: Fraction) -> None:
    """Shift coefficient ``index`` of every ``f1_hat_series`` list by ``delta``."""
    good = series.f1_hat_series
    monkeypatch.setattr(series, "f1_hat_series", lambda order: [
        c + delta if n == index else c for n, c in enumerate(good(order))])


@pytest.mark.parametrize(
    "name, index, delta, failure",
    [
        # caught by the coefficient recursion, before the operator runs
        ("f0_coeff", 3, 1, 3),
        # only the operator on the log solution sees the log-free part
        ("f1_hat_series", 2, Fraction(1, 7), 2),
    ],
    ids=["f0", "f1_hat"],
)
def test_pf_negative_control(monkeypatch, name, index, delta, failure):
    if name == "f1_hat_series":
        _drift_f1_hat(monkeypatch, index, delta)
    else:
        good = getattr(series, name)

        def corrupted(n):
            return good(n) + delta if n == index else good(n)

        monkeypatch.setattr(series, name, corrupted)
    assert pf_first_failure(5) == failure


def test_log_bookkeeping_order_zero():
    # theta(f0 * log z) contributes f0 itself to the log-free part
    p, g = theta((f0_series(3), [0] * 4))
    assert p == [n * f0_coeff(n) for n in range(4)]
    assert g == f0_series(3)
    assert g[0] == f0_coeff(0) == 1


def test_f1_hat_coefficients():
    assert f1_hat_coeff(0) == 0
    assert f1_hat_coeff(1) == 744  # 120 * (46/5 - 3)
    assert f1_hat_coeff(2) == 562932


def test_f1_hat_series_is_the_coefficients_one_by_one():
    # The running sum of harmonic_combo against the closed form at every n.
    assert f1_hat_series(200) == [f1_hat_coeff(n) for n in range(201)]
    assert f1_hat_series(0) == [0]


def test_f1_hat_denominator_structure():
    for n in range(1, 11):
        ratio = f1_hat_coeff(n) / f0_coeff(n)
        assert lcm(*range(1, 6 * n + 1)) % ratio.denominator == 0


def test_mirror_w_known_values():
    assert mirror_w(4) == [744, 473652, 451734080, 510531007770]


def test_mirror_w_hand_division_step():
    # w2 = B2 - w1 * A1 = 562932 - 89280
    assert mirror_w(2)[1] == f1_hat_coeff(2) - 744 * f0_coeff(1) == 473652


def test_mirror_w_division_consistency():
    n = 8
    w = mirror_w(n)
    assert series_mul(f0_series(n), [0, *w]) == [f1_hat_coeff(k) for k in range(n + 1)]


def test_mirror_w_higher_coefficients_are_fractional():
    w = mirror_w(8)
    assert w[4].denominator == 5
    assert w[6].denominator == 7


def _compositions(d):
    """Every ordered sequence of positive integers summing to ``d``."""
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in _compositions(d - first):
            yield (first, *rest)


def _composition_sum(w):
    """``j_d = sum over compositions of (-(d-1))^{len-1} / len! * prod w_parts``, term by term."""
    out = []
    for d in range(1, len(w) + 1):
        total = Fraction(0)
        for parts in _compositions(d):
            prod = Fraction(1)
            for part in parts:
                prod *= w[part - 1]
            total += Fraction((-(d - 1)) ** (len(parts) - 1), factorial(len(parts))) * prod
        out.append(total)
    return out


def test_composition_enumeration():
    assert set(_compositions(2)) == {(2,), (1, 1)}
    assert set(_compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    for d in range(1, 16):
        seen = list(_compositions(d))
        assert len(seen) == 2 ** (d - 1)
        assert len(set(seen)) == len(seen)
        assert all(sum(parts) == d and min(parts) >= 1 for parts in seen)
    # the sum grouped by length equals the sum over every composition
    for seed in range(3):
        rng = random.Random(seed)
        w = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(12)]
        assert j_from_w(w) == _composition_sum(w)
    assert j_from_w(mirror_w(10)) == _composition_sum(mirror_w(10))


def test_j_from_w_values():
    got = j_from_w(mirror_w(5))
    assert got[0] == 744
    # hand arithmetic over the two compositions of 2
    assert got[1] == 473652 - Fraction(744 ** 2, 2) == 196884
    assert got == [744, 196884, 21493760, 864299970, 20245856256]


def test_lagrange_oracle_values():
    assert lagrange_oracle(mirror_w(2)) == [744, 196884]
    assert lagrange_oracle(mirror_w(5)) == [744, 196884, 21493760, 864299970, 20245856256]
    with pytest.raises(ValueError):
        lagrange_oracle([])


def test_two_routes_agree_through_order_eight():
    w = mirror_w(8)
    assert j_from_w(w) == lagrange_oracle(w)


def test_modular_route_values():
    assert j_modular(1) == [744]
    assert j_modular(5) == [744, 196884, 21493760, 864299970, 20245856256]


def test_three_routes_agree_through_order_hundred():
    w = mirror_w(100)
    composed = j_from_w(w)
    assert composed == lagrange_oracle(w) == j_modular(100)
    assert all(c.denominator == 1 for c in composed)


def _compose(outer, inner):
    """``outer(inner)`` by Horner's rule, for ``inner`` with zero constant term."""
    acc = [0] * len(inner)
    for c in reversed(outer):
        acc = series_mul(acc, inner)
        acc[0] += c
    return acc


def test_series_exp_and_reversion_sanity():
    n = 8
    s = [0, 1] + [0] * (n - 1)
    e = series_exp(s)
    assert e[3] == Fraction(1, 6)
    eneg = series_exp([-c for c in s])
    assert series_mul(e, eneg) == [1] + [0] * n

    q = [0, 1, -1, 2, 0, 1]
    inv = series_reversion(q)
    assert _compose(q, inv) == [0, 1] + [0] * (len(q) - 2)


def test_reversion_of_z_exp_z_is_lambert_w():
    n = 30
    z_exp_z = [0] + [Fraction(1, factorial(k - 1)) for k in range(1, n + 1)]
    inv = series_reversion(z_exp_z)
    assert inv[0] == 0
    assert [inv[m] for m in range(1, n + 1)] == [
        Fraction((-m) ** (m - 1), factorial(m)) for m in range(1, n + 1)
    ]


def test_series_division_needs_unit():
    with pytest.raises(ZeroDivisionError):
        series_div([1, 2], [0, 1])


def _long_division(a, b):
    """``a / b`` by the schoolbook recurrence, one ``Fraction`` operation at a time."""
    out = []
    for k in range(min(len(a), len(b))):
        acc = Fraction(a[k])
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return out


@pytest.mark.parametrize("b0", [1, -1, 7, Fraction(-3, 4)], ids=["unit", "minus-unit", "int", "fraction"])
def test_series_div_matches_long_division(b0):
    rng = random.Random(3301)
    for _ in range(40):
        def draw(n, den):
            return [Fraction(rng.randint(-40, 40), rng.randint(1, den)) for _ in range(n)]

        a = draw(rng.randint(1, 12), rng.choice((1, 9)))
        b = [b0, *draw(rng.randint(0, 11), 1 if b0 in (1, -1) else 9)]
        quotient = series_div(a, b)
        assert quotient == _long_division(a, b) and len(quotient) == min(len(a), len(b))
        assert all(type(c) is Fraction for c in quotient)


_coeffs = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12))
_series = st.lists(_coeffs, min_size=1, max_size=8)


def _convolve(a, b):
    """Truncated product, one ``Fraction`` term at a time."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out


def _divide(a, b):
    """Truncated quotient: solve ``q * b = a`` for ``q_0, q_1, ...`` in turn."""
    q = []
    for k in range(min(len(a), len(b))):
        known = sum((Fraction(b[k - i]) * q[i] for i in range(k)), Fraction(0))
        q.append((Fraction(a[k]) - known) / Fraction(b[0]))
    return q


@given(a=_series, b=_series)
def test_product_and_quotient_match_termwise_fractions(a, b):
    product = series_mul(a, b)
    assert product == _convolve(a, b)
    assert len(product) == min(len(a), len(b))
    if not b[0]:
        with pytest.raises(ZeroDivisionError):
            series_div(a, b)
        return
    quotient = series_div(a, b)
    assert quotient == _divide(a, b)
    assert _convolve(quotient, b) == a[: len(quotient)]


def test_integrality_guard_trips_on_drift(monkeypatch):
    _drift_f1_hat(monkeypatch, 2, Fraction(1, 7))
    with pytest.raises(ArithmeticError):
        mirror_w(4)
