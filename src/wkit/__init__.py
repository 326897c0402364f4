"""Weitzenbock inequality toolkit.

The inequality a^2 + b^2 + c^2 >= 4*sqrt(3)*area is treated as an exact
identity with a geometric defect term, verified three ways: numerically
over random vector pairs, bit-exactly in Q[sqrt(3)] for planar rational
inputs, and through the half-disk model of triangle shapes. A corollary
bound on the curvature of unit-speed curves is checked the same way.
"""

from .curves import (
    CurveJet,
    CurvatureBoundReport,
    builtin_curve,
    builtin_position,
    circle_jet,
    circle_position,
    curvature,
    helix_jet,
    helix_position,
    jet_from_samples,
    line_jet,
    line_position,
    read_curve_csv,
    curvature_bound_report,
)
from .qsqrt3 import ONE, ZERO, QSqrt3
from .shape_space import (
    EQUILATERAL_TANGENT,
    INTERIOR,
    ISOSCELES_LIMIT,
    TANGENT_ANGLE,
    TANGENT_SLOPE,
    HalfDisk,
    ShapeCircle,
    ShapePoint,
    circle_of,
    circle_residual,
    classify,
    figure_dataset,
    halfdisk,
    halfdisk_contains,
    shape_point,
    tangent_line_slope,
    tangent_point,
    write_figure_csv,
)
from .sweeps import (
    ExactSweepResult,
    SweepResult,
    random_pairs,
    random_triangles,
    run_exact_sweep,
    run_identity_sweep,
)
from .vectors import (
    COLLINEAR_RTOL,
    inner,
    norm,
    perp_rotate,
    rotate_pi3,
    wedge,
    wedge_signed,
)
from .weitzenboeck import (
    IdentityReport,
    Triangle,
    area_heron,
    defect_explicit,
    defect_intrinsic,
    identity_batch,
    lhs_sum,
    triangle_defect,
    triangle_to_vectors,
    verify_exact,
    verify_identity,
)

__version__ = "0.1.0"
