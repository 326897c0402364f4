import types

import wkit

# The public names of ``wkit``, sorted. A name added to or removed from the
# package has to be added to or removed from this list as well.
PUBLIC = [
    "CurvatureBoundReport", "CurveJet", "EQUILATERAL_TANGENT", "ExactSweepResult",
    "HalfDisk", "INTERIOR", "ISOSCELES_LIMIT", "IdentityReport", "QSqrt3",
    "ShapeCircle", "ShapePoint", "SweepResult", "TANGENT_SLOPE", "Triangle",
    "builtin_curve", "circle_jet", "circle_of",
    "circle_residual", "classify", "curvature_bound_report", "figure_dataset",
    "halfdisk_contains", "helix_jet", "identity_batch",
    "jet_from_samples", "line_jet", "read_curve_csv", "rotate_pi3",
    "run_exact_sweep", "run_identity_sweep", "shape_point", "tangent_point",
    "triangle_defect", "triangle_to_vectors", "verify_exact", "verify_identity",
    "wedge",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(wkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
