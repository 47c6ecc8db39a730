"""Exact toric residue calculus for the quasi-map moduli of P(1,1,1,3).

The package constructs the fan, Chow ring and volume form of the degree-d
two-pointed quasi-map moduli of the weighted projective space P(1,1,1,3),
evaluates its intersection numbers by iterated multivariate residues in exact
rational arithmetic, and checks that they reproduce the expansion
coefficients of the inverse function of -log(j) and hence the Fourier
coefficients of the j-invariant.
"""

from __future__ import annotations

from .exact import FactoredRat, LinForm, MPoly, TaggedFactor, linform
from .residues import (
    ResidueError,
    ResiduePlan,
    homogeneity_filter,
    iterated_residue,
    residue_at_point,
)
from .toric import (
    DivisorClasses,
    FanData,
    OrientationReport,
    build_fan,
    det_Bk,
    eval_recession,
    max_cone_count,
    orientation_enumeration,
    relation_check,
    relation_defects,
    block_forms,
    sr_ideal,
    sr_ideal_factors,
    volume_form,
)
from .intersection import (
    IntegrandSpec,
    compute_w,
    e6_factors,
    integrate_class,
    mixed_insertion_closed_form,
    mixed_insertion_residue,
    r_denominator_factors,
    telescoped_insertion_residue,
    wall_form,
    wall_insertion_residue,
    wall_split_sides,
)
from .series import (
    LogSeries,
    SeriesQ,
    f0_coeff,
    f1_hat_coeff,
    harmonic_combo,
    j_from_w,
    lagrange_oracle,
    mirror_w,
    pf_first_failure,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredRat",
    "LinForm",
    "MPoly",
    "TaggedFactor",
    "linform",
    "ResidueError",
    "ResiduePlan",
    "homogeneity_filter",
    "iterated_residue",
    "residue_at_point",
    "DivisorClasses",
    "FanData",
    "OrientationReport",
    "build_fan",
    "det_Bk",
    "eval_recession",
    "max_cone_count",
    "orientation_enumeration",
    "relation_check",
    "relation_defects",
    "block_forms",
    "sr_ideal",
    "sr_ideal_factors",
    "volume_form",
    "IntegrandSpec",
    "compute_w",
    "e6_factors",
    "integrate_class",
    "mixed_insertion_closed_form",
    "mixed_insertion_residue",
    "r_denominator_factors",
    "telescoped_insertion_residue",
    "wall_form",
    "wall_insertion_residue",
    "wall_split_sides",
    "LogSeries",
    "SeriesQ",
    "f0_coeff",
    "f1_hat_coeff",
    "harmonic_combo",
    "j_from_w",
    "lagrange_oracle",
    "mirror_w",
    "pf_first_failure",
]
