"""Unit tests for the exact arithmetic layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from polys import dense, evaluate, homogeneous_degree, linform
from quasimap.exact import FactoredRat, LinForm, MPoly, TaggedFactor
from quasimap.residues import residue_at_point


def z(j):
    return MPoly.monomial({j: 1})


def test_mpoly_difference_of_squares():
    p = (z(0) + z(1)) * (z(0) + -1 * z(1))
    assert p == z(0) * z(0) + -1 * z(1) * z(1)


def test_mpoly_additive_identity():
    p = 3 * z(0) * z(1) + z(2) ** 2
    assert p + MPoly() == p


def test_mpoly_hand_expansion():
    # (2*z0 + z1) * (z0 + 2*z1) = 2*z0^2 + 5*z0*z1 + 2*z1^2
    p = (2 * z(0) + z(1)) * (z(0) + 2 * z(1))
    expected = dense({(2, 0): Fraction(2), (1, 1): Fraction(5), (0, 2): Fraction(2)})
    assert p == expected


@pytest.mark.parametrize("base", [2 * z(0), z(0) + -3 * z(1), z(0) + z(1) + 2 * z(2)], ids=["1-term", "2-term", "3-term"])
def test_mpoly_power_is_the_repeated_product(base):
    out = MPoly.const(1)
    for k in range(6):
        assert base ** k == out
        out = out * base
    with pytest.raises(ValueError, match="negative power"):
        base ** -1


def test_subst_linear_pole_locus():
    p = linform((1, 2), (2, -1)).to_mpoly()
    assert p.subst(1, linform((2, Fraction(1, 2)))).is_zero()


def test_subst_linear_by_zero():
    p = z(0) + 5 * z(1)
    assert p.subst(0, LinForm()) == 5 * z(1)


def test_subst_linear_wall_form():
    # 2*z2 - z1 - z3 at z1 = z2/2 becomes (3/2)*z2 - z3
    p = linform((1, -1), (2, 2), (3, -1)).to_mpoly()
    got = p.subst(1, linform((2, Fraction(1, 2))))
    expected = dense({(0, 0, 1, 0): Fraction(3, 2), (0, 0, 0, 1): Fraction(-1)})
    assert got == expected


def test_subst_is_multiplicative():
    rng = random.Random(20240611)
    for _ in range(20):
        nv = 3
        p = _random_poly(rng, nv)
        q = _random_poly(rng, nv)
        point = LinForm({1: Fraction(rng.randint(-3, 3)), 2: Fraction(rng.randint(-3, 3), 2)})
        lhs = (p * q).subst(0, point)
        rhs = p.subst(0, point) * q.subst(0, point)
        assert lhs == rhs


def _random_poly(rng, nvars, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return dense(terms)


@pytest.mark.parametrize("make", [
    lambda: LinForm({1.7: 1}),
    lambda: LinForm({"1": 1}),
    lambda: LinForm.variable(1.0),
    lambda: MPoly.monomial({0: 1.5}),
    lambda: MPoly.monomial({0.5: 2}),
    lambda: MPoly.monomial({"0": 1}),
], ids=["form-float-index", "form-str-index", "variable-float", "monomial-float-exponent",
        "monomial-float-index", "monomial-str-index"])
def test_a_non_integral_index_or_exponent_raises(make):
    # ``int()`` would truncate 1.7 to z1 or parse "1"; an index must be an integer.
    with pytest.raises(TypeError):
        make()


def test_int_and_bool_indices_still_work():
    assert LinForm({True: 2}) == LinForm({1: 2}) == 2 * LinForm.variable(True)
    assert MPoly.monomial({True: 2, 0: False}) == MPoly.monomial({1: 2})
    assert [type(v) for v in LinForm({True: 2}).coeffs] == [int]
    assert [type(x) for e in MPoly.monomial({True: True}).terms for x in e[0]] == [int, int]


def test_linform_canonicalization():
    scale, canon = linform((0, -1), (1, 2), (2, -1)).canonicalized()
    assert scale == -1
    assert canon == linform((0, 1), (1, -2), (2, 1))
    scale, canon = linform((2, Fraction(3, 2)), (3, -1)).canonicalized()
    assert scale == Fraction(1, 2)
    assert canon == linform((2, 3), (3, -2))


def test_linform_solve_for():
    wall = linform((0, -1), (1, 2), (2, -1))
    assert wall.solve_for(1) == linform((0, Fraction(1, 2)), (2, Fraction(1, 2)))
    # integer coefficients divide exactly, never into a float
    point = LinForm({0: 2, 1: 1}).solve_for(0)
    assert point.coeffs == {1: Fraction(-1, 2)} and type(point.coeffs[1]) is Fraction


def test_linform_render_literals():
    assert LinForm().render() == "0"
    assert LinForm({0: -1, 3: Fraction(1, 2)}).render() == "-z0 + 1/2*z3"
    assert LinForm({1: 3, 2: -1}).render("H") == "3*H1 - H2"


def test_fraction_field_identities():
    rng = random.Random(977)
    for _ in range(200):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1


def fr(scalar, num, den):
    return FactoredRat(scalar, num, den)


@pytest.mark.parametrize("num, bad, message", [
    (MPoly.const(1), (LinForm.variable(1), 0, frozenset({1})), "multiplicity must be positive"),
    (MPoly.const(1), (LinForm(), 1, frozenset()), "the zero form has no canonical representative"),
    # canonicalization comes before the support check
    (MPoly.const(1), (LinForm(), 1, frozenset({0})), "the zero form has no canonical representative"),
    (MPoly.const(1), (linform((0, 1), (1, 2)), 1, frozenset({2})), "allowed set must lie inside the support"),
    # the checks run before a zero numerator collapses the function
    (MPoly(), (LinForm.variable(1), 0, frozenset({1})), "multiplicity must be positive"),
], ids=["multiplicity-0", "zero-form", "zero-form-tagged", "allowed-outside-support", "zero-numerator"])
def test_fr_rejects_bad_denominator_factor(num, bad, message):
    with pytest.raises(ValueError, match=message):
        FactoredRat(1, num, [bad])


@pytest.mark.parametrize("factor, message", [
    ((LinForm({0: 2}), -1), "multiplicity must be positive"),
    ((LinForm({0: 1}), 0), "multiplicity must be positive"),
    ((LinForm(), 1), "the zero form has no canonical representative"),
], ids=["-1", "0", "zero-form"])
def test_fr_rejects_nonpositive_numerator_factor_multiplicity(factor, message):
    # (2 z0)^-1 as a numerator factor would leave a float 0.5 scalar and an untagged z0
    # denominator; the factors are checked before a zero numerator collapses the function
    for num in (MPoly.const(1), MPoly()):
        with pytest.raises(ValueError, match=message):
            FactoredRat(1, num, factors=[factor])


def test_fr_derivative_simple_pole():
    # d/dz0 [1/(2z1 - z0 - z2)] = 1/(2z1 - z0 - z2)^2
    wall = linform((0, -1), (1, 2), (2, -1))
    f = fr(1, MPoly.const(1), [(wall, 1, frozenset({1}))])
    g = f.derivative(0)
    assert g.num == MPoly.const(1)
    assert len(g.den) == 1 and g.den[0].multiplicity == 2
    # canonical form flips the sign of the wall; an even power leaves scalar +1
    assert g.scalar == 1
    assert g.den[0].allowed == frozenset({1})


def test_fr_derivative_kills_constants():
    f = fr(1, z(1), [])
    assert f.derivative(0).is_zero()


@pytest.mark.parametrize("var, num, scalar, deriv, pole", [
    # d/dz0 [z0^2/z1] = 2*z0/z1
    (0, z(0) ** 2, 2, z(0), 1),
    # d/dz1 [(3 z0 z1^3 + z1 - 5 z2^2)/z0] = (9 z0 z1^2 + 1)/z0: a power falls to
    # z1^0, a term free of z1 drops, and no denominator factor involves z1
    (1, dense({(1, 3, 0): 3, (0, 1, 0): 1, (0, 0, 2): -5}), 1, dense({(1, 2, 0): 9, (0, 0, 0): 1}), 0),
], ids=["z0-over-z1", "z1-over-z0"])
def test_fr_derivative_untagged_factor_untouched(var, num, scalar, deriv, pole):
    f = fr(1, num, [(LinForm.variable(pole), 1, frozenset({pole}))])
    g = f.derivative(var)
    assert g.scalar == scalar
    assert g.num == deriv
    assert g.den == (TaggedFactor(LinForm.variable(pole), 1, frozenset({pole})),)


def test_fr_product_rule():
    rng = random.Random(31337)
    wall = linform((0, -1), (1, 2), (2, -1))
    for _ in range(10):
        nf = _random_poly(rng, 4, nterms=3, maxdeg=2)
        ng = _random_poly(rng, 4, nterms=3, maxdeg=2)
        if nf.is_zero() or ng.is_zero():
            continue
        f = fr(Fraction(1, 2), nf, [(wall, 1, frozenset({1})), (LinForm.variable(0), 2, frozenset({0}))])
        g = fr(3, ng, [(LinForm.variable(1), 1, frozenset({1}))])
        prod = fr(f.scalar * g.scalar, f.num * g.num, list(f.den) + list(g.den))
        lhs = prod.derivative(0)
        # f'g + fg' recombined over the common denominator family
        f1 = f.derivative(0)
        g1 = g.derivative(0)
        pts = _non_pole_points(rng, [lhs, f1, g1, f, g])
        lv = evaluate(lhs, pts)
        rv = evaluate(f1, pts) * evaluate(g, pts) + evaluate(f, pts) * evaluate(g1, pts)
        assert lv == rv


def _non_pole_points(rng, funcs, nvars=4):
    while True:
        pts = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(nvars)]
        try:
            for fn in funcs:
                evaluate(fn, pts)
        except ZeroDivisionError:
            continue
        return pts


def test_fr_reduce_difference_of_squares():
    # z0 + z1 divides the numerator, but construction cancels single variables only.
    s = LinForm.variable(0) + LinForm.variable(1)
    f = fr(1, z(0) ** 2 + -1 * z(1) ** 2, [(s, 1, frozenset())])
    assert f.num == z(0) ** 2 + -1 * z(1) ** 2 and f.den == (TaggedFactor(s, 1, frozenset()),)
    assert f.reduce() is f


def test_fr_reduce_idempotent_and_value_preserving():
    rng = random.Random(4242)
    wall = linform((0, -1), (1, 2), (2, -1))
    num = (z(0) + z(1)) * wall.to_mpoly() * (z(2) + z(3)) * z(3) ** 2
    den = [(wall, 2, frozenset({1})), (LinForm.variable(3), 1, frozenset({3}))]
    f = fr(Fraction(5, 3), num, den)
    # every term carries z3^2, so construction cancels the z3 factor; the wall stays
    assert [fac.form for fac in f.den] == [wall.canonicalized()[1]]
    assert f.num == -1 * (z(0) + z(1)) * wall.to_mpoly() * (z(2) + z(3)) * z(3)
    assert FactoredRat(f.scalar, f.num, f.den, f.factors) == f
    assert f.reduce() is f
    # value equality with the uncancelled quotient at three random non-pole rational points
    for _ in range(3):
        pts = _non_pole_points(rng, [wall, LinForm.variable(3)])
        assert evaluate(f, pts) == Fraction(5, 3) * evaluate(num, pts) / (evaluate(wall, pts) ** 2 * pts[3])
    # a numerator that carries no denominator variable is left as given
    h = fr(1, z(0) + z(1), [(LinForm.variable(2), 1, frozenset({2}))])
    assert h.num == z(0) + z(1) and h.den == (TaggedFactor(LinForm.variable(2), 1, frozenset({2})),)


def test_fr_den_closed_under_derivative_and_subst():
    wall = linform((0, -1), (1, 2), (2, -1))
    f = fr(1, (z(0) + z(1)) ** 2, [(wall, 1, frozenset({1})), (LinForm.variable(3), 3, frozenset({3}))])
    g = f.derivative(0).derivative(1).subst(0, LinForm()).derivative(2)
    for fac in g.den:
        assert isinstance(fac, TaggedFactor)
        assert isinstance(fac.form, LinForm)
        assert fac.allowed <= fac.form.support


def test_fr_merges_proportional_factors():
    a = linform((0, 2), (1, -4))
    b = linform((0, -1), (1, 2))
    f = fr(1, MPoly.const(1), [(a, 1, frozenset({0})), (b, 2, frozenset({1}))])
    assert len(f.den) == 1
    fac = f.den[0]
    assert fac.multiplicity == 3
    assert fac.allowed == frozenset({0, 1})
    # scales: a = 2*(z0 - 2 z1), b = -(z0 - 2 z1) => scalar /= 2 * (-1)^2
    assert f.scalar == Fraction(1, 2)


def test_fr_zero_numerator_collapses():
    f = fr(7, MPoly(), [(LinForm.variable(0), 1, frozenset({0}))])
    assert f.is_zero()
    assert f.den == ()


def test_homogeneous_degree_report():
    p = z(0) * z(1) + z(2) ** 2
    assert homogeneous_degree(p) == 2
    q = p + z(0)
    assert homogeneous_degree(q) is None
    assert q.homogeneous_component(1) == z(0)


def test_fr_numerator_factor_cancels_fully():
    # (2 z0 + 2 z1)^2 / (z0 + z1)^2 = 4
    f = FactoredRat(1, MPoly.const(1), [(linform((0, 1), (1, 1)), 2, frozenset({0}))],
                    [(linform((0, 2), (1, 2)), 2)])
    assert f.scalar == 4 and f.den == () and f.factors == ()


def test_fr_numerator_factor_cancels_partly_and_keeps_allowed_set():
    s = linform((0, 1), (1, 1))
    f = FactoredRat(1, MPoly.const(1), [(s, 3, frozenset({0, 1}))], [(s, 1)])
    assert f.den == (TaggedFactor(s, 2, frozenset({0, 1})),) and f.factors == ()
    # more numerator than denominator: the rest survives as a factor
    g = FactoredRat(1, MPoly.const(1), [(s, 1, frozenset({0}))], [(s, 3)])
    assert g.den == () and g.factors == ((s, 2),)


def test_fr_numerator_factor_negative_scale():
    # (-3 z0 + 6 z1) / (z0 - 2 z1) = -3
    f = FactoredRat(1, MPoly.const(1), [(linform((0, 1), (1, -2)), 1, frozenset({0}))],
                    [(linform((0, -3), (1, 6)), 1)])
    assert f.scalar == -3 and f.den == () and f.factors == ()
    # -(z0 + z1) against (z0 + z1)^2 leaves -1/(z0 + z1)
    g = FactoredRat(1, MPoly.const(1), [(linform((0, 1), (1, 1)), 2, frozenset({0}))],
                    [(linform((0, -1), (1, -1)), 1)])
    assert g.scalar == -1 and g.den[0].multiplicity == 1 and g.factors == ()


def test_fr_numerator_survivors_merged_in_sorted_order():
    f = FactoredRat(1, MPoly.const(1), [(LinForm.variable(2), 1, frozenset({2}))], [
        (linform((1, 1), (2, 1)), 1),
        (linform((0, 2), (1, -4)), 1),
        (linform((2, 3)), 2),
        (linform((1, -2), (2, -2)), 2),
        (linform((0, -1), (1, 2)), 1),
    ])
    assert f.den == ()
    assert f.factors == (
        (linform((0, 1), (1, -2)), 2),
        (linform((1, 1), (2, 1)), 3),
        (LinForm.variable(2), 1),
    )
    # 2 * (-1) from the z0 - 2 z1 pair, 3^2 from z2, (-2)^2 from z1 + z2
    assert f.scalar == 2 * -1 * 9 * 4


def _forms(rows):
    return [(LinForm(dict(enumerate(row))), m) for row, m in rows]


_rows = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)
_points = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=3, max_size=3)


@given(
    num=st.lists(st.tuples(_rows, st.integers(1, 3)), max_size=5),
    den=st.lists(st.tuples(_rows, st.integers(1, 3)), max_size=5),
    scalar=st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
    point=_points,
)
def test_fr_factor_cancellation_preserves_value(num, den, scalar, point):
    num, den = _forms(num), _forms(den)
    assume(all(evaluate(form, point) for form, _ in den))
    f = FactoredRat(scalar, MPoly.const(1), [(g, m, frozenset({min(g.support)})) for g, m in den], num)
    expected = scalar
    for g, m in num:
        expected *= evaluate(g, point) ** m
    for g, m in den:
        expected /= evaluate(g, point) ** m
    assert evaluate(f, point) == expected
    keys = [g.key() for g, _ in f.factors]
    assert keys == sorted(set(keys))
    assert not set(keys) & {fac.form.key() for fac in f.den}


_small_forms = _rows.map(lambda row: LinForm(dict(enumerate(row))))
_general_forms = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(
    lambda row: sum(1 for c in row if c) >= 2).map(lambda row: LinForm(dict(enumerate(row))))
_single_forms = st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool)).map(
    lambda vc: LinForm({vc[0]: vc[1]}))
_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    max_size=4,
).map(dense)


def _exponent_vectors(p):
    """``p`` as ``{(e_0, e_1, e_2): c}``, its exponents written out densely."""
    out = {}
    for mono, c in p.terms.items():
        e = [0, 0, 0]
        for v, k in mono:
            e[v] = k
        out[tuple(e)] = c
    return out


@given(p=_polys, q=_polys, var=st.integers(0, 2))
def test_sparse_monomials_agree_with_exponent_vectors(p, q, var):
    parts = p.split(var)
    assert sum((part * z(var) ** k for k, part in parts.items()), MPoly()) == p
    assert all(var not in part.variables() for part in parts.values())
    product = {}
    for ea, ca in _exponent_vectors(p).items():
        for eb, cb in _exponent_vectors(q).items():
            e = tuple(x + y for x, y in zip(ea, eb))
            product[e] = product.get(e, 0) + ca * cb
    assert p * q == dense(product)
    # render lists the monomials in descending order of their exponent vectors
    terms = [dense({e: c}).render() for e, c in sorted(_exponent_vectors(p).items(), reverse=True)]
    expected = " ".join(terms[:1] + [f"- {t[1:]}" if t[0] == "-" else f"+ {t}" for t in terms[1:]])
    assert p.render() == (expected or "0")


_mixed_forms = st.lists(st.tuples(st.one_of(_single_forms, _general_forms), st.integers(1, 3)), max_size=4)


@given(p=_polys, num_forms=_mixed_forms, den=_mixed_forms, tagged=st.lists(st.booleans(), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_fr_reduce_cancels_carried_variable_powers_only(p, num_forms, den, tagged, seed):
    # Construction cancels each denominator z_v^m against the z_v^k that every numerator
    # term carries: z_v^(m-k) survives with its allowed set when k < m, none when k = m.
    # Every other factor stays, and no surviving z_v divides the numerator.
    assume(not p.is_zero())
    num = p * MPoly.factored(num_forms)
    den = [(form, m, frozenset({min(form.support)}) if t else frozenset()) for (form, m), t in zip(den, tagged)]
    f = fr(Fraction(2, 3), num, den)
    table = {}
    for form, m, allowed in den:
        canon = form.canonicalized()[1]
        _, total, tags = table.get(canon.key(), (canon, 0, frozenset()))
        table[canon.key()] = (canon, total + m, tags | allowed)
    expected = []
    for _, (canon, m, tags) in sorted(table.items()):
        if len(canon.coeffs) == 1:
            m -= min(m, *(dict(e).get(min(canon.coeffs), 0) for e in num.terms))
        if m:
            expected.append(TaggedFactor(canon, m, tags))
    assert f.den == tuple(expected)
    rng = random.Random(seed)
    for _ in range(2):
        pts = _non_pole_points(rng, [form for form, _, _ in den], nvars=3)
        raw = Fraction(2, 3) * evaluate(num, pts)
        for form, m, _ in den:
            raw /= evaluate(form, pts) ** m
        assert evaluate(f, pts) == raw
    assert FactoredRat(f.scalar, f.num, f.den, f.factors) == f and f.reduce() is f
    assert all(k > 0 for e in f.num.terms for _, k in e)
    for fac in f.den:
        if len(fac.form.support) == 1:
            assert 0 in f.num.split(min(fac.form.support))


@given(form=_small_forms, s=st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool))
def test_canonical_forms_left_alone(form, s):
    scale, canon = form.canonicalized()
    assert canon * scale == form
    assert (form * s).canonicalized()[1] == canon
    again = canon.canonicalized()
    assert again == (1, canon) and again[1] is canon


def _subst_by_powers(poly, var, point):
    """``poly`` at ``z_var = point``, each ``P_k z_var^k`` expanded as ``P_k point^k``."""
    p = point.to_mpoly()
    return sum((p_k * p ** k for k, p_k in poly.split(var).items()), MPoly())


@given(
    p=st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(-5, 5), max_size=5).map(dense),
    var=st.integers(0, 2),
    row=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_subst_matches_power_expansion(p, var, row):
    point = LinForm({v: c for v, c in enumerate(row) if v != var})
    got = p.subst(var, point)
    assert got == _subst_by_powers(p, var, point)
    assert var not in got.variables()


def _exact(c) -> bool:
    """An integral coefficient is an ``int``, any other a ``Fraction``; never a float or bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _typed(x) -> bool:
    if isinstance(x, MPoly):
        return all(map(_exact, x.terms.values()))
    if isinstance(x, LinForm):
        return all(map(_exact, x.coeffs.values()))
    return (type(x.scalar) is Fraction and _typed(x.num)
            and all(_typed(fac.form) for fac in x.den) and all(_typed(g) for g, _ in x.factors))


_coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
_rational_rows = st.tuples(_coeffs, _coeffs, _coeffs).map(list)
_rational_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _coeffs, max_size=4).map(dense)
_rational_forms = _rational_rows.filter(any).map(lambda row: LinForm(dict(enumerate(row))))


@given(p=_rational_polys, q=_rational_polys, form=_rational_forms, other=_rational_forms, s=_coeffs,
       var=st.integers(0, 2), k=st.integers(0, 3), pt=_rational_rows)
def test_coefficients_are_ints_where_integral(p, q, form, other, s, var, k, pt):
    # Every result of the exact layer keeps integral coefficients as ``int`` and the
    # others as ``Fraction``, with a ``Fraction`` scalar, and its value at ``pt`` is
    # the same expression evaluated in ``Fraction`` arithmetic.
    def at(j, value):
        return pt[:j] + [value] + pt[j + 1:]

    for got, value in [
        (p + q, evaluate(p, pt) + evaluate(q, pt)),
        (p * q, evaluate(p, pt) * evaluate(q, pt)),
        (p * s, evaluate(p, pt) * s),
        (p ** k, evaluate(p, pt) ** k),
    ]:
        assert _typed(got) and evaluate(got, pt) == value
    assert p * s == s * p == p * (s.numerator if s.denominator == 1 else s)
    parts = p.split(var)
    assert all(map(_typed, parts.values()))
    assert sum(evaluate(part, pt) * pt[var] ** e for e, part in parts.items()) == evaluate(p, pt)
    point = LinForm({v: c for v, c in other.coeffs.items() if v != var})
    substituted = p.subst(var, point)
    assert _typed(substituted) and evaluate(substituted, pt) == evaluate(p, at(var, evaluate(point, pt)))
    scale, canon = form.canonicalized()
    assert _typed(canon) and all(type(c) is int for c in canon.coeffs.values())
    assert scale * evaluate(canon, pt) == evaluate(form, pt)
    moved = form.subst(var, point)
    assert _typed(moved) and evaluate(moved, pt) == evaluate(form, at(var, evaluate(point, pt)))
    v = min(form.support)
    root = form.solve_for(v)
    assert _typed(root)
    v_pt = at(v, evaluate(root, pt))
    assert evaluate(form, v_pt) == 0
    # construction, which cancels the carried z_var^2, and one residue; the same scalar
    # given as an int gives an equal object
    assume(not p.is_zero() and not point.is_zero() and pt[var])
    assume(evaluate(form, pt) and evaluate(other, pt) and evaluate(other, v_pt))
    den = [(form, 1, frozenset({v})), (other, 1, frozenset()), (LinForm.variable(var), 2, frozenset({var}))]
    f = FactoredRat(s, p * z(var) ** 2, den, [(point, 1)])
    assume(not f.is_zero())
    assert _typed(f)
    assert evaluate(f, pt) == s * evaluate(p, pt) * evaluate(point, pt) / (evaluate(form, pt) * evaluate(other, pt))
    assert sum(fac.multiplicity for fac in f.den if fac.form == LinForm.variable(var)) <= \
        sum(g.support == {var} for g in (form, other))
    if s.denominator == 1:
        assert FactoredRat(s.numerator, p * z(var) ** 2, den, [(point, 1)]) == f
    h = FactoredRat(s, p * MPoly.factored([(point, 1)]), den[:2])
    pole = next((fac for fac in h.den if v in fac.allowed), None)
    assume(pole is not None)  # else a single-variable form was cancelled against the numerator
    assert pole.form.solve_for(v) == root
    r = residue_at_point(h, v, pole)
    assert _typed(r)
    expected = s * evaluate(p, v_pt) * evaluate(point, v_pt) / (form.coeffs[v] * evaluate(other, v_pt))
    assert evaluate(r, pt) == expected
