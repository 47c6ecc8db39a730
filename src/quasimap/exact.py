"""Exact arithmetic: linear forms, sparse polynomials, factored rational functions.

Every quantity is exact, and nothing here ever touches floating point.  A
coefficient of a ``LinForm`` or ``MPoly`` is an ``int`` when its value is an
integer and a ``fractions.Fraction`` otherwise, so the residue engine does
integer arithmetic wherever the values are integers.  A ``FactoredRat`` scalar
is a ``Fraction``.  The three layers are

* ``LinForm``   -- homogeneous linear forms ``sum_j c_j z_j`` (no constant term),
* ``MPoly``     -- sparse multivariate polynomials over the rationals,
* ``FactoredRat`` -- ``scalar * num * prod(g_k ** n_k) / prod(form_i ** m_i)``
  with the linear numerator factors ``g_k`` kept unexpanded and each
  denominator factor tagged by the set of variables whose integration contour
  encloses its zero locus; the constructor checks every factor it is given
  and cancels the ``z_p`` powers that the numerator carries.

All values are immutable after construction; every operation is a pure
function.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


def _as_rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(_as_coeff(x))


def _content(cs) -> int | Fraction:
    """Positive rational content of the nonzero coefficients ``cs`` (gcd of
    numerators over lcm of denominators), an ``int`` when every ``c`` is."""
    den = lcm(*(c.denominator for c in cs))
    if den == 1:
        return gcd(*cs)
    return Fraction(gcd(*(c.numerator * (den // c.denominator) for c in cs)), den)


def _as_coeff(x) -> int | Fraction:
    """``x`` as a coefficient: an ``int`` when its value is an integer, else a ``Fraction``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class LinForm:
    """A homogeneous linear form ``sum_j c_j z_j`` with exact rational coefficients.

    Constant terms are deliberately unrepresentable: the whole calculus is
    homogeneous, so a constant appearing in a pole locus would signal a bug.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int | Fraction] | None = None):
        d = {}
        if coeffs:
            for v, c in coeffs.items():
                c = _as_coeff(c)
                if c:
                    d[int(v)] = c
        self.coeffs = d

    @classmethod
    def variable(cls, j: int) -> LinForm:
        return cls({j: 1})

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> int | Fraction:
        return self.coeffs.get(j, 0)

    def __add__(self, other: LinForm) -> LinForm:
        d = dict(self.coeffs)
        for v, c in other.coeffs.items():
            d[v] = d.get(v, 0) + c
        return LinForm(d)

    def __mul__(self, s) -> LinForm:
        s = _as_coeff(s)
        return LinForm({v: c * s for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LinForm) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def key(self) -> tuple:
        """Deterministic sort key."""
        return tuple(sorted(self.coeffs.items()))

    def subst(self, var: int, point: LinForm) -> LinForm:
        """Replace ``z_var`` by the linear form ``point``."""
        if var in point.support:
            raise ValueError("substitution point must not involve the substituted variable")
        c = self.coeffs.get(var)
        if c is None:
            return self
        rest = LinForm({v: w for v, w in self.coeffs.items() if v != var})
        return rest + point * c

    def solve_for(self, var: int) -> LinForm:
        """The point ``z_var = p`` with ``self = 0``, i.e. ``p = -(self - c*z_var)/c``."""
        c = self.coeffs.get(var)
        if not c:
            raise ValueError(f"form does not involve z_{var}")
        c = _as_rat(c)  # an int divisor would make ``-w / c`` a float
        return LinForm({v: -w / c for v, w in self.coeffs.items() if v != var})

    def canonicalized(self) -> tuple[int | Fraction, LinForm]:
        """Write ``self = scale * canon`` with integer ``canon`` of content 1.

        The first (lowest-index) nonzero coefficient of ``canon`` is positive,
        so proportional forms always canonicalize to the identical form.  A
        form that is already canonical comes back as ``(1, self)``.
        """
        if not self.coeffs:
            raise ValueError("the zero form has no canonical representative")
        c = _content(self.coeffs.values())
        if self.coeffs[min(self.coeffs)] < 0:
            c = -c
        if c == 1:
            return 1, self
        return c, LinForm({v: x // c for v, x in self.coeffs.items()})  # exact: c is the content

    def to_mpoly(self) -> MPoly:
        return MPoly({((v, 1),): c for v, c in self.coeffs.items()})

    def render(self, names: str = "z") -> str:
        return self.to_mpoly().render(names)

    def __repr__(self) -> str:
        return f"LinForm({self.render()})"


class MPoly:
    """A sparse multivariate polynomial: monomial -> exact rational coefficient.

    A monomial is the tuple of ``(variable, exponent)`` pairs of the variables
    it uses, sorted by variable, with positive exponents; ``()`` is the
    constant monomial.  A polynomial carries no variable count: it involves
    exactly the variables of its monomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[tuple[int, int], ...], int | Fraction] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _as_coeff(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def const(cls, c) -> MPoly:
        return cls({(): _as_coeff(c)})

    @classmethod
    def monomial(cls, exps: Mapping[int, int], c=1) -> MPoly:
        if any(k < 0 for k in exps.values()):
            raise ValueError("monomial exponents must be nonnegative")
        return cls({tuple(sorted((v, k) for v, k in exps.items() if k)): _as_coeff(c)})

    @classmethod
    def product(cls, factors: Iterable[LinForm | MPoly]) -> MPoly:
        out = cls.const(1)
        for f in factors:
            out = out * (f.to_mpoly() if isinstance(f, LinForm) else f)
        return out

    @classmethod
    def factored(cls, factors: Iterable[tuple[LinForm, int]]) -> MPoly:
        """The expanded product ``prod form ** mult`` of a factor list."""
        return cls.product(form.to_mpoly() ** mult for form, mult in factors)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not e for e in self.terms)

    def __add__(self, other: MPoly) -> MPoly:
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) + c
        return MPoly(d)

    def __mul__(self, other) -> MPoly:
        if not isinstance(other, MPoly):
            s = _as_coeff(other)
            return MPoly({e: c * s for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d: dict[tuple, int | Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = _monomial_product(ea, eb)
                v = d.get(e)
                d[e] = ca * cb if v is None else v + ca * cb
        return MPoly(d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if k < 0:
            raise ValueError("negative power")
        return MPoly.product([self] * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    __hash__ = None

    def variables(self) -> frozenset[int]:
        return frozenset(v for e in self.terms for v, _ in e)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((_degree(e) for e in self.terms), default=-1)

    def homogeneous_component(self, k: int) -> MPoly:
        return MPoly({e: c for e, c in self.terms.items() if _degree(e) == k})

    def split(self, var: int) -> dict[int, MPoly]:
        """``{k: P_k}`` with ``self = sum_k P_k z_var^k``; no ``P_k`` involves ``z_var``."""
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            i = bisect_left(e, (var,))
            if i < len(e) and e[i][0] == var:
                parts.setdefault(e[i][1], {})[e[:i] + e[i + 1:]] = c
            else:
                parts.setdefault(0, {})[e] = c
        return {k: MPoly(part) for k, part in parts.items()}

    def taylor(self, var: int, point: LinForm, m: int) -> list[MPoly]:
        """The coefficients of ``t^0 .. t^(m-1)`` in ``self`` at ``z_var = point + t``
        (``point`` must not involve ``z_var``), by Horner's rule in ``point + t``
        truncated after ``t^(m-1)``; ``taylor(var, point, 1)[0]`` is the substitution."""
        if var in point.support:
            raise ValueError("substitution point must not involve the substituted variable")
        parts = self.split(var)
        point_poly = point.to_mpoly()
        out = [MPoly()] * m
        for k in range(max(parts, default=0), -1, -1):
            low = parts.get(k, MPoly())
            out = [out[i] * point_poly + (out[i - 1] if i else low) for i in range(m)]
        return out

    def content(self) -> int | Fraction:
        """Positive rational content (gcd of numerators over lcm of denominators),
        an ``int`` when every coefficient is an ``int``."""
        return _content(self.terms.values()) if self.terms else 1

    def render(self, names: str = "z") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_dense_order, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"{names}{j}" if k == 1 else f"{names}{j}^{k}" for j, k in e)
            mag = abs(c)
            if not mono:
                term = str(mag)
            elif mag == 1:
                term = mono
            else:
                term = f"{mag}*{mono}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"


def _degree(e: tuple[tuple[int, int], ...]) -> int:
    return sum(k for _, k in e)


def _dense_order(e: tuple[tuple[int, int], ...]) -> tuple:
    """Sort key of a monomial: the lexicographic order of its exponent vector
    ``(k_0, k_1, ...)``, in which ``render`` and the sign of ``FactoredRat`` are fixed."""
    return tuple((-v, k) for v, k in e)


def _monomial_product(a: tuple, b: tuple) -> tuple:
    """``a * b``; monomials in disjoint ranges of variables are joined without a sort."""
    if not a or not b:
        return a or b
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    exps = dict(a)
    for v, k in b:
        exps[v] = exps.get(v, 0) + k
    return tuple(sorted(exps.items()))


class TaggedFactor(NamedTuple):
    """A denominator factor ``form ** multiplicity``.

    ``allowed`` is the set of variables whose contour encloses the zero locus
    of ``form``; the residue engine visits a pole only through an allowed tag,
    and merging makes the factor the only one vanishing at that pole.
    """

    form: LinForm
    multiplicity: int
    allowed: frozenset[int]


class FactoredRat:
    """Rational function ``scalar * num * prod(g_k ** n_k) / prod(form_i ** m_i)``.

    The constructor checks each denominator factor ``(form, multiplicity,
    allowed)`` -- a positive multiplicity, a nonzero form, ``allowed`` inside
    the form's support -- and raises ``ValueError`` otherwise, whatever the
    numerator; ``num = 0`` then collapses the object to the zero function.
    A :class:`TaggedFactor`, which only a ``FactoredRat`` makes, is taken on
    trust: its form is canonical and it was checked, so it is entered as it is.
    ``factors`` holds linear numerator factors ``(g_k, n_k)``, each ``n_k``
    positive, unexpanded until the first residue step whose variable they
    involve.  Each form is canonicalized (its scale, like the content of
    ``num``, goes into ``scalar``) and entered in one table by canonical form:
    a denominator factor subtracts its multiplicity and adds its tags to the
    entry's allowed set, a numerator factor adds its multiplicity.  Each
    ``z_p`` entry then takes back the power of ``z_p`` that every term of
    ``num`` carries, which keeps the terms' lex order and so the sign.
    Negative net exponents make ``den``, positive ones ``factors``, both
    sorted by form; zero ones cancel, and a partly cancelled entry keeps its
    tags.  This is the one place where anything cancels, so no ``z_p`` of
    ``den`` divides ``num``; :meth:`derivative` and :meth:`subst` expand
    first.  A multi-variable form never divides ``num`` on this package's
    integrands (0 of about 18,000 tries), so none is tried.
    """

    __slots__ = ("scalar", "num", "den", "factors")

    def __init__(self, scalar, num: MPoly, den: Iterable = (), factors: Iterable[tuple[LinForm, int]] = ()):
        scalar = _as_rat(scalar)
        net: dict[tuple, list] = {}  # canonical key -> [form, net exponent, allowed]
        for fac in den:
            if isinstance(fac, TaggedFactor):  # made, and so checked, by a FactoredRat
                canon, mult, allowed = fac
            else:
                form, mult, allowed = fac
                if mult < 1:
                    raise ValueError("multiplicity must be positive")
                scale, canon = form.canonicalized()  # raises on the zero form
                allowed = frozenset(allowed)
                if not allowed <= form.support:
                    raise ValueError("allowed set must lie inside the support of the form")
                if scale != 1:
                    scalar /= scale ** mult
            entry = net.setdefault(canon.key(), [canon, 0, frozenset()])
            entry[1] -= mult
            entry[2] |= allowed
        if num.is_zero() or scalar == 0:
            self.scalar = Fraction(0)
            self.num = MPoly.zero()
            self.den = ()
            self.factors = ()
            return
        for form, mult in factors:
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            scale, canon = form.canonicalized()
            if scale != 1:
                scalar *= scale ** mult
            net.setdefault(canon.key(), [canon, 0, frozenset()])[1] += mult
        c = num.content()
        if num.terms[max(num.terms, key=_dense_order)] < 0:
            c = -c
        if c != 1:
            scalar *= c
            num = MPoly({e: v // c for e, v in num.terms.items()})  # exact: c is the content
        cut = {min(form.coeffs): -e for form, e, _ in net.values() if e < 0 and len(form.coeffs) == 1}
        for e in num.terms:
            if not cut:
                break
            exps = dict(e)
            cut = {v: min(k, exps[v]) for v, k in cut.items() if v in exps}
        if cut:
            num = MPoly({tuple((v, k - cut.get(v, 0)) for v, k in e if k != cut.get(v, 0)): c
                         for e, c in num.terms.items()})
            for v, k in cut.items():
                net[((v, 1),)][1] += k
        self.scalar = scalar
        self.num = num
        table = [entry for _, entry in sorted(net.items())]
        self.den = tuple(TaggedFactor(form, -e, allowed) for form, e, allowed in table if e < 0)
        self.factors = tuple((form, e) for form, e, _ in table if e > 0)

    def is_zero(self) -> bool:
        return self.scalar == 0

    def den_degree(self) -> int:
        return sum(f.multiplicity for f in self.den)

    def num_degree(self) -> int:
        """Total degree of the whole numerator, unexpanded factors included."""
        return self.num.degree() + sum(mult for _, mult in self.factors)

    def expand(self) -> FactoredRat:
        """The same function with every numerator factor multiplied into ``num``."""
        return FactoredRat(self.scalar, self.num * MPoly.factored(self.factors), self.den)

    def derivative(self, var: int) -> FactoredRat:
        """Exact partial derivative.

        Uses ``d/dz (N * prod f_i^{-m_i}) = (N' - N * sum m_i f_i'/f_i) * prod f_i^{-m_i}``
        with one combined numerator over ``prod f_i^{m_i+1}``; factors not
        involving ``var`` are left untouched.
        """
        if self.factors:
            return self.expand().derivative(var)
        involved = [f for f in self.den if var in f.form.support]
        others = [f for f in self.den if var not in f.form.support]
        n_prime = MPoly()
        for k, part in self.num.split(var).items():
            if k:
                n_prime = n_prime + part * MPoly.monomial({var: k - 1}, k)
        total = n_prime * MPoly.product(f.form for f in involved)
        for i, f in enumerate(involved):
            rest = MPoly.product(g.form for j, g in enumerate(involved) if j != i)
            total = total + (-f.form.coeff(var) * f.multiplicity) * (self.num * rest)
        new_den = others + [TaggedFactor(f.form, f.multiplicity + 1, f.allowed) for f in involved]
        return FactoredRat(self.scalar, total, new_den)

    def reduce(self) -> FactoredRat:
        """``self``: the constructor already cancelled every carried ``z_p`` power.
        Kept only because ``benchmarks/tracer.py`` wraps this method by name;
        nothing in the package calls it."""
        return self

    def subst(self, var: int, point: LinForm) -> FactoredRat:
        """Substitute ``z_var = point``; no denominator factor may vanish there."""
        if self.factors:
            return self.expand().subst(var, point)
        num = self.num.taylor(var, point, 1)[0]
        den = []
        for f in self.den:
            form = f.form.subst(var, point)
            if form.is_zero():
                raise ZeroDivisionError("substitution hits a denominator zero locus")
            allowed = (f.allowed - {var}) & form.support
            den.append((form, f.multiplicity, allowed))
        return FactoredRat(self.scalar, num, den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactoredRat)
            and self.scalar == other.scalar
            and self.num == other.num
            and self.den == other.den
            and self.factors == other.factors
        )

    __hash__ = None

    def render(self, names: str = "z") -> str:
        if self.is_zero():
            return "0"
        parts = [str(self.scalar), f"({self.num.render(names)})"]
        for form, mult in self.factors:
            parts.append(f"* ({form.render(names)})^{mult}")
        for f in self.den:
            parts.append(f"/ ({f.form.render(names)})^{f.multiplicity}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FactoredRat({self.render()})"

