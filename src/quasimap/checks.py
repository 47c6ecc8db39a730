"""The verification ladder: every pinned value, exactly, with one line per check.

Each ``check_*`` function returns a list of :class:`CheckResult` whose
comparisons are exact (rational arithmetic, tolerance zero), and
:func:`run_verification` yields them all in ladder order.  The CLI ``verify``
subcommand and the acceptance test suite both run these.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from .exact import FactoredRat, LinForm, MPoly
from .intersection import (
    IntegrandSpec,
    compute_w,
    integrate_class,
    mixed_insertion_residues,
    r_inverse,
    telescoped_insertion_residue,
    w_sweep,
    wall_insertion_residue,
)
from .residues import iterated_residue, residue_states
from .series import (
    f0_coeff,
    f1_hat_coeff,
    j_from_w,
    j_modular,
    lagrange_oracle,
    mirror_w,
    mixed_insertion_closed_form,
    pf_first_failure,
)
from .toric import (
    build_fan,
    det_Bk,
    divisor_classes,
    orientation_enumeration,
    orientation_premises,
    relation_check,
    sr_ideal_factors,
    volume_form_factors,
)

W_KNOWN = (744, 473652, 451734080, 510531007770)
J_KNOWN = (744, 196884, 21493760, 864299970, 20245856256)

# Seeded monomials per ideal generator in check_ideal_annihilation, and their seed.
IDEAL_SAMPLES = 10
IDEAL_SEED = 1113

# Seeded off-degree monomials per degree in check_degree_selection, and their seed.
DEGREE_SELECTION_SAMPLES = 20
DEGREE_SELECTION_SEED = 62

# check_toric's ranges: ray relations and orientation premises up to d, corner determinants
# up to k, and the enumeration of every region up to d.
RELATION_DMAX = 10
DET_KMAX = 30
ORIENTATION_DMAX = 4


class CheckResult(NamedTuple):
    name: str
    ok: bool
    expected: str
    actual: str

    def line(self, fmt: str = "text") -> str:
        """The ``verify`` text line, or with ``fmt="json"`` the value under ``name``."""
        label = "PASS" if self.ok else "FAIL"
        if fmt == "json":
            return f"{label} expected={self.expected} actual={self.actual}"
        return f"{label} {self.name}: expected {self.expected}, actual {self.actual}"


def _cmp(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, expected == actual, str(expected), str(actual))


def _verdict(name: str, ok: bool, expected: str, good: str, bad: str) -> CheckResult:
    """A yes/no check: its actual text is ``good`` when it holds, else ``bad``."""
    return CheckResult(name, ok, expected, good if ok else bad)


def _all_zero(name: str, expected: str, misses: list) -> CheckResult:
    """A vanishing check; ``misses`` lists where it fails, and the first is shown."""
    return CheckResult(name, not misses, expected, f"nonzero at {misses[0]}" if misses else "all zero")


def check_w_coefficients(w: list[Fraction]) -> list[CheckResult]:
    """Half the two-point number w(O_z O_1)_{0,d} equals the d-th mirror coefficient.

    ``w`` is the sweep ``w_sweep(dmax, 1, 0)``, one value per ``d = 1..dmax``.
    """
    dmax = len(w)
    beyond = mirror_w(dmax)[len(W_KNOWN):] if dmax > len(W_KNOWN) else []
    expected = [Fraction(known) for known in W_KNOWN] + beyond
    return [_cmp(f"w-coefficient d={d}", expected[d - 1], value / 2)
            for d, value in enumerate(w, start=1)]


def check_period_coefficients(period: list[Fraction]) -> list[CheckResult]:
    """(d/2) * w(O_{z^2} O_{z^-1})_{0,d} equals the holomorphic period coefficient.

    ``period`` is the sweep ``w_sweep(dmax, 2, -1)``, one value per ``d = 1..dmax``.
    """
    return [
        _cmp(f"period coefficient d={d}", f0_coeff(d), Fraction(d, 2) * value)
        for d, value in enumerate(period, start=1)
    ]


def _integrate_volume(d: int, order: Sequence[int] | None = None) -> Fraction:
    """The volume class, kept factored: over ``R`` it cancels to ``1/prod z_j``."""
    scalar, factors = volume_form_factors(d)
    return integrate_class(d, MPoly.const(scalar), order, factors)


def ascending_volumes(dmax: int) -> list[Fraction]:
    """The volume class integrated in the ascending order, one value per ``d = 1..dmax``."""
    return [_integrate_volume(d) for d in range(1, dmax + 1)]


def check_volume_normalization(volumes: list[Fraction]) -> list[CheckResult]:
    """The volume class integrates to exactly 1; ``volumes`` is :func:`ascending_volumes`."""
    return [_cmp(f"volume normalization d={d}", Fraction(1), value)
            for d, value in enumerate(volumes, start=1)]


def _random_monomial(d: int, degree: int, rng: random.Random) -> MPoly:
    """A monomial of the given degree in ``H_0..H_d``, one seeded draw per factor."""
    return MPoly.monomial(Counter(rng.randrange(d + 1) for _ in range(degree)))


def _sampled_zeros(name: str, d: int, inverse: FactoredRat, monomials: list[MPoly],
                   factors: Iterable[tuple[LinForm, int]] = ()) -> CheckResult:
    """Each class ``mono * prod factors`` integrates to 0 over ``inverse``, ``1/R``; a miss is ``(monomial, value)``."""
    misses = [(mono.render(), str(value)) for mono in monomials
              if (value := integrate_class(d, mono, factors=factors, inverse=inverse))]
    return _all_zero(name, f"0 on {len(monomials)} samples", misses)


def check_ideal_annihilation(dmax: int) -> list[CheckResult]:
    """Each ideal generator times complementary-degree monomials integrates to 0.  Generator ``i``
    cancels every factor of ``R`` tagged ``{i}``, so the tags decide this check; unpruned, the engine gives 0 too."""
    rng = random.Random(IDEAL_SEED)
    out = []
    for d in range(1, dmax + 1):
        inverse = r_inverse(d)
        for gi, factors in enumerate(sr_ideal_factors(d)):
            comp = 6 * d + 2 - sum(mult for _, mult in factors)
            monomials = [_random_monomial(d, comp, rng) for _ in range(IDEAL_SAMPLES)]
            out.append(_sampled_zeros(f"ideal annihilation d={d} generator={gi}", d, inverse, monomials, factors))
    return out


def check_degree_selection(dmax: int) -> list[CheckResult]:
    """Monomials of total degree != 6d+2 integrate to 0.  ``homogeneity_filter`` drops
    them before any residue, so it decides this check; unfiltered, the engine gives 0 too."""
    rng = random.Random(DEGREE_SELECTION_SEED)
    out = []
    for d in range(1, dmax + 1):
        monomials = []
        for _ in range(DEGREE_SELECTION_SAMPLES):
            degree = rng.randrange(0, 8 * d + 4)
            if degree == 6 * d + 2:
                degree += 1
            monomials.append(_random_monomial(d, degree, rng))
        out.append(_sampled_zeros(f"degree selection d={d}", d, r_inverse(d), monomials))
    return out


def check_order_independence(dmax: int, w: list[Fraction], period: list[Fraction],
                             volumes: list[Fraction]) -> list[CheckResult]:
    """Ascending and descending integration orders agree on the insertion
    integrands and the volume class, for every ``d <= dmax``.

    The ascending values are the prefixes of the sweeps ``w`` (``(1, 0)``) and
    ``period`` (``(2, -1)``) and of :func:`ascending_volumes` ``volumes``, each of
    length at least ``dmax``, so each line ties them to a full descending residue."""
    if min(len(w), len(period), len(volumes)) < dmax:
        raise ValueError(f"need sweeps of length >= {dmax}")
    out = []
    for d in range(1, dmax + 1):
        for (a, b), sweep in (((1, 0), w), ((2, -1), period)):
            down = iterated_residue(IntegrandSpec.insertions(d, a, b).build(), range(d, -1, -1))
            out.append(_cmp(f"order independence d={d} insertions=({a},{b})", sweep[d - 1], down))
        down = _integrate_volume(d, range(d, -1, -1))
        out.append(_cmp(f"order independence d={d} volume", volumes[d - 1], down))
    return out


def check_insertion_identities(dmax: int, w: list[Fraction],
                               period: list[Fraction]) -> list[CheckResult]:
    """Mixed insertion closed form, chain splitting, telescoped insertion; the mixed
    values come from a residue sweep, and the product side of each chain split
    from the prefixes of the sweeps ``w`` (``(1, 0)``) and ``period`` (``(2, -1)``),
    each of length at least ``dmax - 1``."""
    out = [
        _cmp(f"mixed insertion d={d}", mixed_insertion_closed_form(d), value)
        for d, value in enumerate(mixed_insertion_residues(dmax), start=1)
    ]
    for d in range(2, dmax + 1):
        for f in range(1, d):
            product = (w[d - f - 1] / 2) * (period[f - 1] / 2)
            out.append(_cmp(f"chain splitting d={d} f={f}", product, wall_insertion_residue(d, f)))
    out += [_cmp(f"telescoped insertion d={d}", f1_hat_coeff(d), telescoped_insertion_residue(d))
            for d in range(1, dmax + 1)]
    return out


def _canonical_factors(factors: list[tuple[LinForm, int]]) -> tuple[tuple[LinForm, int], ...]:
    """``factors`` canonicalized and merged, as :class:`FactoredRat` keeps them."""
    return FactoredRat(1, MPoly.const(1), factors=factors).factors


def check_toric() -> list[CheckResult]:
    """Ray relations read off the divisor classes, corner determinants, orientation
    positivity region by region and by :func:`orientation_premises` (the proof that the
    fan is complete), ideal generators proportional to the fan's collection products."""
    out = []
    for d in range(1, RELATION_DMAX + 1):
        out.append(_cmp(f"ray relations d={d}", True, relation_check(build_fan(d))))
    dets_ok = all(det_Bk(k) == 9 * k - 6 for k in range(1, DET_KMAX + 1))
    out.append(_verdict(f"corner determinants k<={DET_KMAX}", dets_ok, "9k-6 for all k",
                        "all match", "mismatch"))
    for d in range(1, ORIENTATION_DMAX + 1):
        rep = orientation_enumeration(d)
        out.append(CheckResult(f"orientation d={d}", rep.all_positive and rep.region_count == 4 ** d,
                               f"{4 ** d} regions, all determinants positive",
                               f"{rep.region_count} regions, min determinant {rep.min_det}"))
    miss = next(filter(None, map(orientation_premises, range(1, RELATION_DMAX + 1))), None)
    out.append(CheckResult(f"orientation premises d<={RELATION_DMAX}", miss is None,
                           "diagonal 1 or 2, no sub-diagonal beside a 1, couplings at most 1",
                           miss or "all hold"))
    for d in (1, 2):
        classes = divisor_classes(d)
        products = [_canonical_factors([(classes[label], 1) for label in collection])
                    for collection in build_fan(d).primitive_collections]
        ok = products == [_canonical_factors(gen) for gen in sr_ideal_factors(d)]
        out.append(_verdict(f"ideal generators d={d}", ok, "stated factor lists", "match", "mismatch"))
    return out


def check_series() -> list[CheckResult]:
    """Differential-equation recursion, mirror coefficients, j-coefficients, three routes."""
    failure = pf_first_failure(20)
    out = [_verdict("differential-equation check N=20", failure is None,
                    "no failing order through 20", "none", f"fails at order {failure}")]
    w = mirror_w(20)
    for d in range(1, 5):
        out.append(_cmp(f"mirror coefficient w_{d}", Fraction(W_KNOWN[d - 1]), w[d - 1]))
    j = j_from_w(w)
    for d in range(1, 6):
        out.append(_cmp(f"j coefficient j_{d}", Fraction(J_KNOWN[d - 1]), j[d - 1]))
    agree = j == lagrange_oracle(w) == j_modular(20)
    out.append(_verdict("j reconstruction routes N=20", agree,
                        "composition, inversion and modular routes agree", "agree", "diverge"))
    return out


def linearity_samples() -> list[tuple[Fraction, Fraction]]:
    """Residues of ``alpha*f + beta*g`` against ``alpha*I(f) + beta*I(g)``.

    ``f`` and ``g`` are random monomials of the full numerator degree of the
    ``insertions(d, 1, 0)`` integrand, over its denominator, for ``d = 1, 2``;
    each is redrawn until its own integral ``I`` is nonzero, so no pair is ``0 = 0``.
    """
    rng = random.Random(90521)
    out = []
    for d in (1, 2):
        base = IntegrandSpec.insertions(d, 1, 0).build()
        order = range(d + 1)

        def draw() -> tuple[MPoly, Fraction]:
            while True:
                mono = _random_monomial(d, base.num_degree(), rng)
                if value := iterated_residue(FactoredRat(base.scalar, mono, base.den), order):
                    return mono, value

        for _ in range(3):
            alpha = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            beta = Fraction(rng.randint(-9, -1), rng.randint(1, 5))
            (nf, int_f), (ng, int_g) = draw(), draw()
            lhs = iterated_residue(FactoredRat(base.scalar, alpha * nf + beta * ng, base.den), order)
            out.append((lhs, alpha * int_f + beta * int_g))
    return out


def _denominators_closed(f: FactoredRat, order: Sequence[int]) -> bool:
    """After each engine step on ``f``, every branch denominator factor is linear, free
    of the integrated variables, and tagged inside its support."""
    for k, branches in enumerate(residue_states(f, order)):
        done = set(order[:k])
        if any(fac.form.support & done or not fac.allowed <= fac.form.support
               for branch in branches.values() for fac in branch.den):
            return False
    return True


def check_properties() -> list[CheckResult]:
    """Seeded property suite: degree zeros, residue linearity and denominator closure.
    ``homogeneity_filter`` decides the degree zeros; unfiltered, the engine gives 0 too."""
    misses = [(d, a, b) for d in (1, 2, 3) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2)
              if a + b != 1 and compute_w(d, a, b) != 0]
    out = [_all_zero("degree zeros a+b != 1", "w = 0 for all off-degree insertions", misses)]

    samples = linearity_samples()
    lin_ok = all(lhs == rhs and lhs for lhs, rhs in samples)
    out.append(_verdict("residue linearity", lin_ok, "linear in the numerator", "linear", "violation"))

    closure_ok = _denominators_closed(IntegrandSpec.insertions(2, 1, 0).build(), range(3))
    out.append(_verdict("denominator closure", closure_ok, "linear tagged factors only",
                        "closed", "violation"))
    return out


def run_verification(degree_max: int) -> Iterator[CheckResult]:
    """Yield every check of the ladder, each as soon as its family has run.

    The w-coefficient, period and volume normalization checks run for every
    ``d <= degree_max``; each of the two sweeps and the ascending volumes run
    once, and the order independence and insertion identities read their
    prefixes.  The other
    residue families keep the fixed ranges below, and the toric, series and
    property checks do not depend on ``degree_max``.  The command line bounds
    it above by ``cli.DEGREE_MAX``.
    """
    if degree_max < 1:
        raise ValueError("degree_max must be >= 1")
    w = w_sweep(degree_max, 1, 0)
    yield from check_w_coefficients(w)
    period = w_sweep(degree_max, 2, -1)
    yield from check_period_coefficients(period)
    volumes = ascending_volumes(degree_max)
    yield from check_volume_normalization(volumes)
    yield from check_ideal_annihilation(min(degree_max, 3))
    yield from check_degree_selection(min(degree_max, 3))
    yield from check_order_independence(min(degree_max, 3), w, period, volumes)
    yield from check_insertion_identities(min(degree_max, 4), w, period)
    yield from check_toric()
    yield from check_series()
    yield from check_properties()
