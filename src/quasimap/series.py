"""Exact power-series side: period coefficients, mirror coefficients, j-expansion.

Three independent routes to the j-coefficients ``j_1..j_n`` must agree exactly
(times at ``n = 100`` on a 2-CPU machine):

* :func:`j_from_w` -- the composition sum
  ``j_d = sum over compositions of (-(d-1))^{len-1} / len! * prod w_parts``,
  grouped by length into the powers ``W^L`` of ``W = sum w_k u^k``:
  O(n^3) rational operations, 1.5 s;
* :func:`lagrange_oracle` -- ``q(u) = u * exp(sum w_d u^d)`` inverted by
  Lagrange inversion, then ``j = 1/u(q)``: O(n^3), 3.4 s;
* :func:`j_modular` -- ``j = E4^3 / Delta`` in integers, without the ``w_d``:
  O(n^2), 0.02 s.

Series coefficients are ``fractions.Fraction``; series are dense and truncated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod


class SeriesQ:
    """Dense truncated power series ``sum_{n=0}^N c_n z^n`` over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @classmethod
    def zero(cls, order: int) -> SeriesQ:
        return cls([Fraction(0)] * (order + 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, SeriesQ) and self.coeffs == other.coeffs

    __hash__ = None

    def _align(self, other: SeriesQ) -> int:
        return min(self.order, other.order)

    def __add__(self, other: SeriesQ) -> SeriesQ:
        n = self._align(other)
        return SeriesQ([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: SeriesQ) -> SeriesQ:
        n = self._align(other)
        return SeriesQ([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other) -> SeriesQ:
        if isinstance(other, SeriesQ):
            n = self._align(other)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return SeriesQ(out)
        s = Fraction(other)
        return SeriesQ([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other: SeriesQ) -> SeriesQ:
        """Exact series division; the divisor needs an invertible constant term."""
        if not other.coeffs[0]:
            raise ZeroDivisionError("series division needs an invertible constant term")
        n = self._align(other)
        inv0 = Fraction(1) / other.coeffs[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                if j <= other.order and other.coeffs[j]:
                    acc -= other.coeffs[j] * out[k - j]
            out[k] = acc * inv0
        return SeriesQ(out)

    def shift_up(self) -> SeriesQ:
        """Multiply by z (the top coefficient falls off the truncation)."""
        return SeriesQ((Fraction(0),) + self.coeffs[:-1])

    def theta(self) -> SeriesQ:
        """The operator ``z d/dz``."""
        return SeriesQ([n * c for n, c in enumerate(self.coeffs)])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"SeriesQ({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class LogSeries:
    """``p(z) * log(z) + g(z)`` with truncated rational series ``p`` and ``g``."""

    p: SeriesQ
    g: SeriesQ

    def theta(self) -> LogSeries:
        # z d/dz (p log z + g) = (theta p) log z + p + theta g
        return LogSeries(self.p.theta(), self.p + self.g.theta())

    def scale(self, s) -> LogSeries:
        return LogSeries(self.p * s, self.g * s)

    def __add__(self, other: LogSeries) -> LogSeries:
        return LogSeries(self.p + other.p, self.g + other.g)

    def __sub__(self, other: LogSeries) -> LogSeries:
        return LogSeries(self.p - other.p, self.g - other.g)

    def shift_up(self) -> LogSeries:
        return LogSeries(self.p.shift_up(), self.g.shift_up())

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.g.is_zero()


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
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    return f0_coeff(n) * harmonic_combo(n)


def f0_series(order: int) -> SeriesQ:
    return SeriesQ([f0_coeff(n) for n in range(order + 1)])


def f1_series(order: int) -> LogSeries:
    """The solution with a log singularity: ``f0 * log z + sum B_n z^n``."""
    return LogSeries(f0_series(order), SeriesQ([f1_hat_coeff(n) for n in range(order + 1)]))


def picard_fuchs_apply(f: LogSeries) -> LogSeries:
    """Apply ``Theta^3 - 8 z (6 Theta + 1)(6 Theta + 3)(6 Theta + 5)``."""
    cubic = f.theta().theta().theta()
    g = f
    for c in (1, 3, 5):
        g = g.theta().scale(6) + g.scale(c)
    return cubic - g.shift_up().scale(8)


def pf_first_failure(order: int) -> int | None:
    """First order at which the differential-equation checks fail, else None.

    Checks the coefficient recursion
    ``A_n = 8 (6n-5)(6n-3)(6n-1) / n^3 * A_{n-1}`` and that the operator
    annihilates both period solutions through the given order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    prev = f0_coeff(0)
    for n in range(1, order + 1):
        cur = f0_coeff(n)
        if cur != Fraction(8 * (6 * n - 5) * (6 * n - 3) * (6 * n - 1), n ** 3) * prev:
            return n
        prev = cur
    zero = SeriesQ.zero(order)
    for sol in (LogSeries(zero, f0_series(order)), f1_series(order)):
        image = picard_fuchs_apply(sol)
        for n in range(order + 1):
            if image.p[n] or image.g[n]:
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
    a = f0_series(order)
    b = SeriesQ([f1_hat_coeff(n) for n in range(order + 1)])
    w = b / a
    out = []
    for d in range(1, order + 1):
        c = w[d]
        if d <= 4 and c.denominator != 1:
            raise ArithmeticError(f"mirror coefficient w_{d} = {c} is not an integer")
        out.append(c)
    return out


def j_composition_sum(w: Sequence[Fraction]) -> list[Fraction]:
    """``j_1..j_n`` from ``w_1..w_n`` by the composition sum grouped by length.

    The compositions of ``d`` with ``L`` parts contribute ``[u^d] W(u)^L``
    with ``W = sum w_k u^k``, so
    ``j_d = sum_L (-(d-1))^{L-1} / L! * [u^d] W^L``; every ``d`` reads the
    same ``n`` powers of ``W``.
    """
    n = len(w)
    gen = SeriesQ([Fraction(0), *w])
    out = [Fraction(0)] * n
    power = gen
    for length in range(1, n + 1):
        weight = Fraction(1, factorial(length))
        for d in range(length, n + 1):
            out[d - 1] += (-(d - 1)) ** (length - 1) * weight * power[d]
        power = power * gen
    return out


def j_from_w(order: int) -> list[Fraction]:
    """j-coefficients ``j_1..j_order`` by the composition sum over the mirror ``w_d``."""
    return j_composition_sum(mirror_w(order))


def series_exp(s: SeriesQ) -> SeriesQ:
    """Exponential of a series with zero constant term."""
    if s.coeffs[0]:
        raise ValueError("series_exp needs a vanishing constant term")
    n = s.order
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if s.coeffs[k]:
                acc += k * s.coeffs[k] * out[m - k]
        out[m] = acc / m
    return SeriesQ(out)


def series_reversion(s: SeriesQ) -> SeriesQ:
    """Compositional inverse of ``s = z + O(z^2)``, by Lagrange inversion.

    The inverse has coefficients ``b_m = [z^{m-1}] g^m / m`` with ``g = z/s``.
    """
    if s.coeffs[0] or s.coeffs[1] != 1:
        raise ValueError("reversion needs s = z + O(z^2)")
    n = s.order
    g = SeriesQ([Fraction(1)] + [Fraction(0)] * (n - 1)) / SeriesQ(s.coeffs[1:])
    inv = [Fraction(0), Fraction(1)]
    power = g
    for m in range(2, n + 1):
        power = power * g
        inv.append(power[m - 1] / m)
    return SeriesQ(inv)


def lagrange_oracle(order: int) -> list[Fraction]:
    """j-coefficients ``j_1..j_order`` by inverting ``q(u) = u * exp(sum w_d u^d)``.

    Independent of :func:`j_from_w`: it takes no powers of ``W``; it
    exponentiates, inverts by Lagrange inversion and takes one reciprocal.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # q(u) = u * exp(...), kept to order `order+1` so that u(q)/q reaches `order`
    q = SeriesQ((Fraction(0),) + series_exp(SeriesQ([Fraction(0), *mirror_w(order)])).coeffs)
    v = SeriesQ(series_reversion(q).coeffs[1:])  # u(q)/q, constant term 1
    recip = SeriesQ([Fraction(1)] + [Fraction(0)] * v.order) / v
    return [recip[d] for d in range(1, order + 1)]


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
