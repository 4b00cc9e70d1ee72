"""Numerical toolkit for linear Weingarten surfaces."""

from .surface import (
    CurvatureData,
    JetPoint,
    LWRelation,
    ParamSurface,
    curvature,
    evaluate_jet,
    lw_residual_linear,
    lw_residual_poly,
    lw_residual_reduced,
    lw_residual_signed,
)
from .cyclic import (
    CyclicSurface,
    RiemannTypeSurface,
    build_cyclic,
    build_riemann_type,
    transport,
)
from .harmonics import (
    HarmonicSpectrum,
    circle_spectrum,
    closed_form_A3_B3,
    closed_form_A4_B4_branch,
    closed_form_A6_B6,
    closed_form_A12_B12,
    compare_coefficient,
)
from .generators import (
    RotationalProfile,
    gen_fixture,
    gen_riemann_example,
    gen_rotational_lw,
)
from .fitting import ClassificationReport, CurvatureSampleSet, classify, fit_lw

__version__ = "0.1.0"
