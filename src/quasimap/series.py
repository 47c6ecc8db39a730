"""Exact power-series side: period coefficients, mirror coefficients, j-expansion.

Three independent routes to the j-coefficients ``j_1..j_n`` must agree exactly:

* :func:`j_from_w` -- the composition sum
  ``j_d = sum over compositions of (-(d-1))^{len-1} / len! * prod w_parts``,
  grouped by length into the powers ``W^L`` of ``W = sum w_k u^k``:
  O(n^3) rational operations;
* :func:`lagrange_oracle` -- ``q(u) = u * exp(sum w_d u^d)`` inverted by
  Lagrange inversion, then ``j = 1/u(q)``: O(n^3);
* :func:`j_modular` -- ``j = E4^3 / Delta`` in integers, without the ``w_d``:
  O(n^2).

A series is a dense truncated list ``[c_0, ..., c_N]`` of exact coefficients
(``int`` or ``Fraction``).  :func:`series_mul` and :func:`series_div` are its
only products; both truncate to the shorter operand and work in ``int``s over
one common denominator per operand, making one ``Fraction`` per coefficient.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm, prod
from operator import mul


def _over_common_denominator(s: Sequence) -> tuple[list[int], int]:
    """Integer numerators of ``s`` over the least common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in s))
    return [c.numerator * (den // c.denominator) for c in s], den


def series_mul(a: Sequence, b: Sequence) -> list[Fraction]:
    """Product of two truncated series, to the shorter order.

    Each operand is put over one common denominator, so every output
    coefficient is one integer sum and one ``Fraction``.
    """
    n = min(len(a), len(b))
    na, da = _over_common_denominator(a[:n])
    nb, db = _over_common_denominator(b[:n])
    return [Fraction(sum(map(mul, na[: k + 1], nb[k::-1])), da * db) for k in range(n)]


def series_div(a: Sequence, b: Sequence) -> list[Fraction]:
    """Exact quotient ``c = a / b`` to the shorter order; ``b`` needs an invertible constant term.

    With ``a = A / da`` and ``b = B / db`` over common denominators, ``b_0 c_k = a_k -
    sum_{j>=1} b_j c_{k-j}`` becomes the ``int`` recurrence ``C_k = A_k B_0^k -
    sum_{j>=1} B_j B_0^(j-1) C_{k-j}`` on ``C_k = c_k B_0^(k+1) da / db``.
    """
    if not b[0]:
        raise ZeroDivisionError("series division needs an invertible constant term")
    n = min(len(a), len(b))
    na, da = _over_common_denominator(a[:n])
    nb, db = _over_common_denominator(b[:n])
    powers = list(accumulate(repeat(nb[0], n), mul, initial=1))  # B_0^0 .. B_0^n
    scaled = [x * p for x, p in zip(nb[1:], powers)]  # B_j B_0^(j-1), j >= 1
    out: list[int] = []
    for k in range(n):
        out.append(na[k] * powers[k] - sum(map(mul, scaled[:k], reversed(out))))
    return [Fraction(c * db, p * da) for c, p in zip(out, powers[1:])]


def f0_coeff(n: int) -> Fraction:
    """Coefficient ``2^{3n} (6n-1)!! / (n!)^3`` of the holomorphic period series."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(2 ** (3 * n) * prod(range(1, 6 * n, 2)), factorial(n) ** 3)


def harmonic_combo(n: int) -> Fraction:
    """``sum_{j=1}^{3n} 6/(2j-1) - sum_{j=1}^{n} 3/j``, the log-solution weight."""
    return sum((Fraction(6, 2 * j - 1) for j in range(1, 3 * n + 1)), Fraction(0)) - sum(
        (Fraction(3, j) for j in range(1, n + 1)), Fraction(0)
    )


def f1_hat_coeff(n: int) -> Fraction:
    """Coefficient of the non-log part of the logarithmic period solution."""
    return f0_coeff(n) * harmonic_combo(n)


def mixed_insertion_closed_form(d: int) -> Fraction:
    """Exact closed form of the degree-``d`` value of
    :func:`~quasimap.intersection.mixed_insertion_residues`:
    ``(A_d / d) * (1 - 1/d + sum_{j<=3d} 6/(2j-1) - sum_{j<=d} 3/j)``."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return f0_coeff(d) / d * (1 - Fraction(1, d) + harmonic_combo(d))


def f0_series(order: int) -> list[Fraction]:
    return [f0_coeff(n) for n in range(order + 1)]


def f1_hat_series(order: int) -> list[Fraction]:
    """``[f1_hat_coeff(n) for n in 0..order]``, keeping ``harmonic_combo`` as a running sum.

    ``harmonic_combo(n) - harmonic_combo(n-1) = 6/(6n-5) + 6/(6n-3) + 6/(6n-1) - 3/n``,
    so the whole list costs O(order) additions where the coefficients one by one cost O(order^2).
    """
    out = [Fraction(0)]
    h = Fraction(0)
    for n in range(1, order + 1):
        h += Fraction(6, 6 * n - 5) + Fraction(6, 6 * n - 3) + Fraction(6, 6 * n - 1) - Fraction(3, n)
        out.append(f0_coeff(n) * h)
    return out


def theta(f: tuple[Sequence, Sequence]) -> tuple[list, list]:
    """``z d/dz`` on ``p log z + g``, given as the pair ``(p, g)``.

    ``theta(p log z + g) = (theta p) log z + p + theta g``.
    """
    p, g = f
    return [n * a for n, a in enumerate(p)], [a + n * b for n, (a, b) in enumerate(zip(p, g))]


def picard_fuchs_apply(f: tuple[Sequence, Sequence]) -> tuple[list, list]:
    """Apply ``Theta^3 - 8 z (6 Theta + 1)(6 Theta + 3)(6 Theta + 5)`` to the pair ``f``."""
    cubic = theta(theta(theta(f)))
    for c in (1, 3, 5):  # f <- (6 Theta + c) f, part by part
        f = tuple([6 * t + c * a for t, a in zip(tpart, part)] for tpart, part in zip(theta(f), f))
    # multiplying by z shifts each part up one order; the top coefficient falls off
    return tuple([a - 8 * b for a, b in zip(top, [0, *part])] for top, part in zip(cubic, f))


def pf_first_failure(order: int) -> int | None:
    """First order at which the differential-equation checks fail, else None.

    Checks that the operator annihilates both period solutions through the given
    order: ``f0`` and ``f0 * log z + sum B_n z^n``.  Coefficient ``n`` of the
    operator on ``f0`` is ``n^3 A_n - 8 (6n-5)(6n-3)(6n-1) A_{n-1}``, so the first
    check is the coefficient recursion ``A_n = 8 (6n-5)(6n-3)(6n-1) / n^3 * A_{n-1}``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f0 = f0_series(order)
    for sol in (([0] * (order + 1), f0), (f0, f1_hat_series(order))):
        for n, coeffs in enumerate(zip(*picard_fuchs_apply(sol))):
            if any(coeffs):
                return n
    return None


def mirror_w(order: int) -> list[Fraction]:
    """Coefficients ``w_1..w_order`` of the mirror map, by exact series division.

    The first four coefficients ``w_1..w_4`` are integers and are guarded as
    such (a fractional value there can only come from a drifted formula).
    Higher coefficients are genuinely fractional (``w_5`` has denominator 5,
    ``w_7`` denominator 7) and are returned exactly.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = series_div(f1_hat_series(order), f0_series(order))
    for d in range(1, min(order, 4) + 1):
        if w[d].denominator != 1:
            raise ArithmeticError(f"mirror coefficient w_{d} = {w[d]} is not an integer")
    return w[1:]


def j_from_w(w: Sequence[Fraction]) -> list[Fraction]:
    """``j_1..j_n`` from ``w_1..w_n`` by the composition sum grouped by length.

    The compositions of ``d`` with ``L`` parts contribute ``[u^d] W(u)^L``
    with ``W = sum w_k u^k``, so
    ``j_d = sum_L (-(d-1))^{L-1} / L! * [u^d] W^L``; every ``d`` reads the
    same ``n`` powers of ``W``.
    """
    n = len(w)
    gen = [0, *w]
    out = [Fraction(0)] * n
    power = gen
    for length in range(1, n + 1):
        weight = Fraction(1, factorial(length))
        for d in range(length, n + 1):
            out[d - 1] += (-(d - 1)) ** (length - 1) * weight * power[d]
        power = series_mul(power, gen)
    return out


def series_exp(s: Sequence) -> list[Fraction]:
    """Exponential of a series with zero constant term."""
    if s[0]:
        raise ValueError("series_exp needs a vanishing constant term")
    out = [Fraction(1)]
    for m in range(1, len(s)):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if s[k]:
                acc += k * s[k] * out[m - k]
        out.append(acc / m)
    return out


def series_reversion(s: Sequence) -> list[Fraction]:
    """Compositional inverse of ``s = z + O(z^2)``, by Lagrange inversion.

    The inverse has coefficients ``b_m = [z^{m-1}] g^m / m`` with ``g = z/s``.
    """
    if s[0] or s[1] != 1:
        raise ValueError("reversion needs s = z + O(z^2)")
    n = len(s) - 1
    g = series_div([1] + [0] * (n - 1), s[1:])
    inv = [Fraction(0), Fraction(1)]
    power = g
    for m in range(2, n + 1):
        power = series_mul(power, g)
        inv.append(power[m - 1] / m)
    return inv


def lagrange_oracle(w: Sequence[Fraction]) -> list[Fraction]:
    """``j_1..j_n`` from ``w_1..w_n`` by inverting ``q(u) = u * exp(sum w_d u^d)``.

    Independent of :func:`j_from_w`: it takes no powers of ``W``; it
    exponentiates, inverts by Lagrange inversion and takes one reciprocal.
    """
    if not w:
        raise ValueError("lagrange_oracle needs at least one coefficient")
    # q(u) = u * exp(...), kept to order n+1 so that u(q)/q reaches order n
    q = [0, *series_exp([0, *w])]
    v = series_reversion(q)[1:]  # u(q)/q, constant term 1
    return series_div([1] + [0] * len(w), v)[1:]


def j_modular(order: int) -> list[int]:
    """j-coefficients ``j_1..j_order`` from the modular form ``j = E4^3 / Delta``.

    Independent of the mirror coefficients: ``q j = E4^3 / (Delta/q)`` with
    ``E4 = 1 + 240 sum sigma_3(n) q^n`` and ``Delta/q = prod (1-q^k)^24``, in
    integers; ``j_d`` is the coefficient of ``q^d`` in ``q j``.  Dividing by
    ``1 - q^k`` is a running sum with stride ``k``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order
    e4 = [1] + [240 * sum(k**3 for k in range(1, m + 1) if m % k == 0) for m in range(1, n + 1)]
    e4_sq = [sum(e4[i] * e4[k - i] for i in range(k + 1)) for k in range(n + 1)]
    qj = [sum(e4_sq[i] * e4[k - i] for i in range(k + 1)) for k in range(n + 1)]
    for k in range(1, n + 1):
        for _ in range(24):
            for i in range(k, n + 1):
                qj[i] += qj[i - k]
    return qj[1:]
