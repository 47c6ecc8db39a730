"""Reference values and output checks for the benchmark, independent of quasimap.

Nothing here imports the package under test.  The mirror coefficients ``w_d``
come from exact series division of the two period series, and the
j-coefficients come from the modular form ``E4^3 / Delta`` in integer
arithmetic, which shares no code and no formula with either of the program's
j routes.  Both are checked against the values printed in the paper before
any operation is judged by them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

W_PAPER = (744, 473652, 451734080, 510531007770)
J_PAPER = (744, 196884, 21493760)


def _period_a(n: int) -> Fraction:
    """``A_n = 2^{3n} (6n-1)!! / (n!)^3``."""
    double_factorial = 1
    for k in range(1, 6 * n, 2):
        double_factorial *= k
    return Fraction(2 ** (3 * n) * double_factorial, factorial(n) ** 3)


def _period_b(n: int) -> Fraction:
    """``B_n = A_n (sum_{j<=3n} 6/(2j-1) - sum_{j<=n} 3/j)``."""
    weight = sum(Fraction(6, 2 * j - 1) for j in range(1, 3 * n + 1))
    weight -= sum(Fraction(3, j) for j in range(1, n + 1))
    return _period_a(n) * weight


def mirror_w(order: int) -> list[Fraction]:
    """``w_1..w_order``: coefficients of ``(sum B_n z^n) / (sum A_n z^n)``."""
    a = [_period_a(n) for n in range(order + 1)]
    b = [_period_b(n) for n in range(order + 1)]
    quotient: list[Fraction] = []
    for k in range(order + 1):
        acc = b[k] - sum(a[j] * quotient[k - j] for j in range(1, k + 1))
        quotient.append(acc / a[0])
    return quotient[1:]


def _mul(x: list[int], y: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, xi in enumerate(x[: n + 1]):
        if xi:
            for j, yj in enumerate(y[: n + 1 - i]):
                out[i + j] += xi * yj
    return out


def j_coefficients(order: int) -> list[int]:
    """``j_1..j_order``, where ``j_k`` is the coefficient of ``q^{k-1}`` in
    ``j = E4^3 / Delta``, ``E4 = 1 + 240 sum sigma_3(n) q^n`` and
    ``Delta = q prod (1 - q^n)^24``."""
    n = order
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0) for m in range(1, n + 1)]
    eta24 = [1] + [0] * n
    for m in range(1, n + 1):
        factor = [0] * (n + 1)
        factor[0], factor[m] = 1, -1
        for _ in range(24):
            eta24 = _mul(eta24, factor, n)
    numerator = _mul(_mul(e4, e4, n), e4, n)
    # numerator / eta24, exactly: eta24 has constant term 1.
    quotient: list[int] = []
    for k in range(n + 1):
        quotient.append(numerator[k] - sum(eta24[j] * quotient[k - j] for j in range(1, k + 1)))
    if quotient[0] != 1:
        raise ArithmeticError("the q^-1 coefficient of j must be 1")
    return quotient[1:]


def self_test() -> None:
    """Raise unless both references reproduce the paper's printed values."""
    w = mirror_w(len(W_PAPER))
    if w != [Fraction(x) for x in W_PAPER]:
        raise ArithmeticError(f"reference w_d {w} differ from the paper {W_PAPER}")
    j = j_coefficients(len(J_PAPER))
    if j != list(J_PAPER):
        raise ArithmeticError(f"reference j_k {j} differ from the paper {J_PAPER}")


def _text_values(stdout: str) -> dict[str, str]:
    """``label -> value`` for the text format of ``quasimap``."""
    values = {}
    for line in stdout.splitlines():
        label, _, value = line.partition(" ")
        values[label.rstrip(":")] = value.strip()
    return values


class Checker:
    """Judges one operation's stdout against the references; ``None`` means correct."""

    def __init__(self, degree: int, order: int):
        self_test()
        # The ladder's w and j checks stop at d = 5 and j_5, whatever the input.
        self.w = mirror_w(max(degree, 5))
        self.j = j_coefficients(max(order, 5))
        self.degree = degree
        self.order = order

    def two_point(self, stdout: str) -> str | None:
        values = _text_values(stdout)
        if values.get("status") != "ok":
            return f"status {values.get('status')!r}"
        w = Fraction(values.get("w", "nan"))
        if w / 2 != self.w[self.degree - 1]:
            return f"w/2 = {w / 2}, reference w_{self.degree} = {self.w[self.degree - 1]}"
        return None

    def j_series(self, stdout: str) -> str | None:
        values = _text_values(stdout)
        if values.get("status") != "ok":
            return f"status {values.get('status')!r}"
        if values.get("routes_agree") != "true":
            return "routes_agree is not true"
        for k in range(1, self.order + 1):
            if values.get(f"j_{k}") != str(self.j[k - 1]):
                return f"j_{k} = {values.get(f'j_{k}')}, reference {self.j[k - 1]}"
        return None

    def verify_ladder(self, stdout: str) -> str | None:
        doc = json.loads(stdout)
        if doc["status"] != "ok":
            return f"status {doc['status']!r}"
        *checks, (summary_label, summary) = doc["values"]
        if summary_label != "summary" or summary != f"{len(checks)}/{len(checks)} checks passed":
            return f"summary {summary!r} over {len(checks)} checks"
        seen_w = seen_j = 0
        for label, value in checks:
            if not value.startswith("PASS "):
                return f"{label}: {value}"
            actual = value.rpartition(" actual=")[2]
            if label.startswith("w-coefficient d="):
                d = int(label.rpartition("=")[2])
                if Fraction(actual) != self.w[d - 1]:
                    return f"{label}: actual {actual}, reference {self.w[d - 1]}"
                seen_w += 1
            elif label.startswith("j coefficient j_"):
                k = int(label.rpartition("_")[2])
                if Fraction(actual) != self.j[k - 1]:
                    return f"{label}: actual {actual}, reference {self.j[k - 1]}"
                seen_j += 1
        if not seen_w or not seen_j:
            return f"{seen_w} w-coefficient and {seen_j} j-coefficient checks, expected some of each"
        return None
