"""Toric data of the degree-d two-pointed quasi-map moduli of P(1,1,1,3).

The fan lives in dimension ``6d+2`` and has ``7d+3`` rays: three families
``v_{0,j}, v_{1,j}, v_{2,j}`` (one per coordinate block of the target), the
``3d+1`` rays ``v_{3,j}`` for the weight-3 coordinate, and the ``d-1``
compactifying rays ``u_k``.  Three functions state the data, each checked
against the one before it: :func:`build_fan`, the rays and primitive
collections; :func:`divisor_classes`, a Gale dual of the ray matrix (relation
``j`` of :func:`relation_check` is ``sum_rho D_rho(H_j) v_rho = 0``, and the
rays other than ``v_{0,j}`` form a lattice basis, so with ``D(v_{0,j}) = H_j``
no other table passes); and :func:`block_forms`, whose block ``i`` makes ideal
generator ``i``, proportional to the classes' product over collection ``i``.
Completeness and simpliciality reduce to finite linear algebra on the
tridiagonal linearity-region matrices of the gluing map: one depth-first walk
of their leading minors (:func:`_band_walk`) enumerates every region determinant
(:func:`orientation_enumeration`; the corner region gives :func:`det_Bk`), and
three premises on the rows alone make every determinant positive and the
recession map a homeomorphism at every degree (:func:`orientation_premises`).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .exact import LinForm, MPoly

P_VECTORS = ((-1, -1), (1, 0), (0, 1))


def _v_label(i: int, j: int) -> str:
    return f"v{i}_{j}"


def _u_label(k: int) -> str:
    return f"u{k}"


class FanData(NamedTuple):
    """The degree-d fan's ray columns keyed by label in :func:`build_fan` order, and its
    primitive collections; ``labels`` reads that order off the keys."""

    d: int
    rays: dict[str, tuple[int, ...]]
    primitive_collections: tuple[tuple[str, ...], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.rays)

    @property
    def dimension(self) -> int:
        return 6 * self.d + 2

    @property
    def ray_count(self) -> int:
        return len(self.rays)


def build_fan(d: int) -> FanData:
    """Assemble the rays and primitive collections for degree ``d >= 1``.

    Coordinates: ``2(d+1)`` rows of pair blocks, then ``3d+1`` rows for the
    weight-3 block, then ``d-1`` rows for the compactifying block.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    dim = 6 * d + 2
    pair_rows = 2 * (d + 1)
    mid_rows = 3 * d + 1
    rays: dict[str, tuple[int, ...]] = {}

    def w_entry(row: int, j: int) -> int:
        return max(0, 3 - abs(row - 3 * j))

    for i in range(3):
        for j in range(d + 1):
            col = [0] * dim
            col[2 * j] = P_VECTORS[i][0]
            col[2 * j + 1] = P_VECTORS[i][1]
            if i == 0:
                for r in range(mid_rows):
                    col[pair_rows + r] = -w_entry(r, j)
                # v'_j = -e_{j-1} + 2 e_j - e_{j+1} in the (d-1)-block, 1-indexed basis
                for basis, coeff in ((j - 1, -1), (j, 2), (j + 1, -1)):
                    if 1 <= basis <= d - 1:
                        col[pair_rows + mid_rows + basis - 1] = coeff
            rays[_v_label(i, j)] = tuple(col)
    for j in range(3 * d + 1):
        col = [0] * dim
        col[pair_rows + j] = 1
        rays[_v_label(3, j)] = tuple(col)
    for k in range(1, d):
        col = [0] * dim
        col[pair_rows + mid_rows + k - 1] = -1
        rays[_u_label(k)] = tuple(col)

    collections = [
        tuple(_v_label(i, 0) for i in range(3)) + (_v_label(3, 0), _v_label(3, 1))
    ]
    for i in range(1, d):
        collections.append(
            tuple(_v_label(t, i) for t in range(3))
            + (_v_label(3, 3 * i - 1), _v_label(3, 3 * i), _v_label(3, 3 * i + 1), _u_label(i))
        )
    collections.append(
        tuple(_v_label(i, d) for i in range(3)) + (_v_label(3, 3 * d - 1), _v_label(3, 3 * d))
    )
    return FanData(d, rays, tuple(collections))


def relation_defects(fan: FanData) -> list[int]:
    """Indices ``j`` whose relation ``sum_rho D_rho(H_j) v_rho = 0`` fails, with
    ``D_rho(H_j)`` the ``H_j`` coefficient of :func:`divisor_classes`."""
    classes = divisor_classes(fan.d)
    totals = [[0] * fan.dimension for _ in range(fan.d + 1)]
    for label, ray in fan.rays.items():
        entries = [(r, x) for r, x in enumerate(ray) if x]
        for j, c in classes[label].coeffs.items():
            total = totals[j]
            for r, x in entries:
                total[r] += c * x
    return [j for j, total in enumerate(totals) if any(total)]


def relation_check(fan: FanData) -> bool:
    """True iff all d+1 ray relations hold exactly."""
    return not relation_defects(fan)


def max_cone_count(d: int) -> int:
    """Number of maximal simplicial cones: one omitted ray per collection."""
    return 25 * 7 ** (d - 1)


def wall_form(i: int) -> LinForm:
    """``2 z_i - z_{i-1} - z_{i+1}``, the excluded-side chamber wall at ``i``."""
    return LinForm({i - 1: -1, i: 2, i + 1: -1})


def divisor_classes(d: int) -> dict[str, LinForm]:
    """Every ray's divisor class in the H basis.

    ``H_j`` is the class shared by ``v_{0,j}, v_{1,j}, v_{2,j}``; the weight-3
    classes are ``3H_j``, ``2H_j + H_{j+1}`` and ``H_j + 2H_{j+1}``, and
    ``u_k`` has the class of the wall at ``k``.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    table: dict[str, LinForm] = {}
    for i in range(3):
        for j in range(d + 1):
            table[_v_label(i, j)] = LinForm.variable(j)
    for m in range(3 * d + 1):
        j, r = divmod(m, 3)
        table[_v_label(3, m)] = LinForm({j: 3 - r, j + 1: r})
    for k in range(1, d):
        table[_u_label(k)] = wall_form(k)
    return table


def block_forms(d: int) -> list[list[LinForm]]:
    """The divisor forms of each primitive collection ``P_i``, one block per ``i``.

    Block ``i`` holds ``z_i``, ``z_{i-1} + 2 z_i``, ``2 z_i + z_{i+1}`` and the
    wall at ``i``, each where its indices lie in ``0..d`` (the end blocks hold
    two forms, the others four).  Block ``i`` is the ``i``-th ideal generator,
    the ``i``-th row of the recession map and the part of ``R`` whose zeros the
    ``z_i`` contour encloses.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    blocks = []
    for i in range(d + 1):
        block = [LinForm.variable(i)]
        if i > 0:
            block.append(LinForm({i - 1: 1, i: 2}))
        if i < d:
            block.append(LinForm({i: 2, i + 1: 1}))
        if 0 < i < d:
            block.append(wall_form(i))
        blocks.append(block)
    return blocks


def _block_factors(d: int, z_mult: int) -> list[list[tuple[LinForm, int]]]:
    """:func:`block_forms` as factor lists, ``z_i`` to the power ``z_mult``."""
    return [[(form, z_mult if k == 0 else 1) for k, form in enumerate(block)]
            for block in block_forms(d)]


def sr_ideal_factors(d: int) -> list[list[tuple[LinForm, int]]]:
    """The d+1 ideal generators as (linear form, multiplicity) factor lists."""
    return _block_factors(d, 4)


def sr_ideal(d: int) -> list[MPoly]:
    """Expanded generators of the intersection-ring ideal in H_0..H_d."""
    return [MPoly.factored(factors) for factors in sr_ideal_factors(d)]


def volume_form_factors(d: int) -> tuple[Fraction, list[tuple[LinForm, int]]]:
    """Scalar and factor list of the degree-(6d+2) volume class."""
    return Fraction(3 ** (d + 1)), [fac for gen in _block_factors(d, 3) for fac in gen]


def _band_walk(choices: list[list[dict[int, int]]]) -> Iterator[tuple[int, ...]]:
    """The leading minors ``f_0..f_d`` of each tridiagonal matrix whose row ``i`` is one of
    ``choices[i]`` (coefficient dicts), depth-first in the order of ``product``.  Cofactor
    expansion along the last row of the leading ``i+1`` minor gives
    ``f_i = M[i][i] f_{i-1} - M[i][i-1] M[i-1][i] f_{i-2}``, ``f_{-1} = 1``, ``f_{-2} = 0``:
    one ``int`` step per choice of row ``i``, shared by every matrix below it.
    """
    last = len(choices) - 1
    stack = [(0, (0, 1))]  # M[i-1][i] of the last row chosen; f_{-2}, f_{-1} and the minors so far
    while stack:
        upper, f = stack.pop()
        i = len(f) - 2
        if i > last:
            yield f[2:]
            continue
        for row in reversed(choices[i]):
            step = row.get(i, 0) * f[-1] - row.get(i - 1, 0) * upper * f[-2]
            stack.append((row.get(i + 1, 0), f + (step,)))


def _row_choices(d: int) -> list[list[dict[int, int]]]:
    """The gradients each row of the gluing map chooses from: block ``i`` of
    :func:`block_forms` as coefficient dicts.  Every use reads them as tridiagonal rows,
    so a form of block ``i`` with a coefficient off ``z_{i-1..i+1}`` raises ``ValueError``."""
    choices = [[form.coeffs for form in block] for block in block_forms(d)]
    for i, rows in enumerate(choices):
        if any(abs(j - i) > 1 or not 0 <= j <= d for row in rows for j in row):
            raise ValueError(f"row {i} leaves the tridiagonal band")
    return choices


def det_Bk(k: int) -> int:
    """Determinant of the (k+1)x(k+1) corner matrix; equals ``9k - 6``.

    The gluing map's region where each row takes the last form of its block
    of :func:`block_forms`: first row ``(2, 1, 0, ...)``, the walls
    ``(-1, 2, -1)`` inside, last row ``(..., 1, 2)``.  It is the one region of
    :func:`_band_walk` over these rows: ``O(k)`` ``int`` steps.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(_band_walk([[rows[-1]] for rows in _row_choices(k)]))[-1]


class OrientationReport(NamedTuple):
    """Outcome of enumerating every linearity region of the gluing map."""

    region_count: int
    min_det: int

    @property
    def all_positive(self) -> bool:
        return self.min_det > 0


def orientation_enumeration(d: int) -> OrientationReport:
    """Check ``det > 0`` on every linearity region of the piecewise map.

    Row 0 selects its gradient from two options, middle rows from four, row d
    from two, giving ``4 * 4^(d-1)`` regions in total; the report holds the
    region count and the least determinant.  A form of block ``i`` lives on
    ``z_{i-1..i+1}``, so each region matrix is tridiagonal and
    :func:`_band_walk` walks them all.
    """
    dets = [f[-1] for f in _band_walk(_row_choices(d))]
    return OrientationReport(len(dets), min(dets))


def orientation_premises(d: int) -> str | None:
    """The first premise of the orientation induction that the rows of :func:`_row_choices`
    break at degree ``d``, or None.  For every region matrix ``M``:

    1. every diagonal entry ``M[i][i]`` is 1 or 2;
    2. a row with diagonal 1 has no sub-diagonal entry;
    3. ``|M[i][i-1] M[i-1][i]| <= 1`` for every choice of two consecutive rows.

    In the recurrence of :func:`_band_walk` for the leading minors, a row with diagonal 1
    then gives ``f_i = f_{i-1}`` and one with diagonal 2 gives ``f_i >= 2 f_{i-1} - f_{i-2}``,
    so by induction ``1 <= f_{i-1} <= f_i``: every region determinant is at least 1.

    Then the recession map ``F``, whose row ``i`` is the minimum of the forms of block ``i``
    of :func:`block_forms`, is a homeomorphism.  Let ``F_s`` take as row ``i`` the minimum
    of ``(1-s) z_i + s r`` over the forms ``r`` of block ``i``, for ``0 <= s <= 1``.  A
    determinant is multilinear in its rows, so each region determinant of ``F_s`` is a sum
    over the sets ``S`` of rows of ``(1-s)^(d+1-|S|) s^|S|`` times the determinant with
    rows ``r_i`` for ``i`` in ``S`` and ``z_i`` elsewhere.  As ``z_i`` is itself in block
    ``i``, each is a region determinant of ``F``, and the sum is positive.  At every ``x``,
    ``F_s(x) = M x`` for the region ``M`` of the forms attaining the minima, so
    ``F_s^{-1}(0) = {0}`` and the degree of ``F_s`` is constant in ``s``.  ``F_0`` is the
    identity, so ``F`` is coherently oriented of degree 1: each regular value has exactly
    one preimage, ``F`` is a homeomorphism, and the fan is complete.  See Scholtes,
    *Introduction to Piecewise Differentiable Equations* (Springer 2012), ch. 2, and
    Eaves--Rothblum, *Relationships of properties of piecewise affine maps over ordered
    fields* (Linear Algebra Appl. 132, 1990).
    """
    choices = _row_choices(d)
    for i, rows in enumerate(choices):
        for row in rows:
            diagonal, below = row.get(i, 0), row.get(i - 1, 0)
            if diagonal not in (1, 2):
                return f"d={d}: row {i} has diagonal {diagonal}"
            if diagonal == 1 and below:
                return f"d={d}: row {i} has diagonal 1 and sub-diagonal {below}"
            for upper in choices[i - 1] if i else ():
                if abs(coupling := below * upper.get(i, 0)) > 1:
                    return f"d={d}: rows {i - 1} and {i} couple by {coupling}"
    return None
