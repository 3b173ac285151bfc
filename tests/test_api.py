"""The public surface of the package: refactors keep ``dageo.__all__``
exactly as it is, and every name in it importable."""

import dageo

PUBLIC_NAMES = [
    "CenterSet", "DATriangle", "DegenerateConfigurationError", "Gauge",
    "GeneratorExhaustedError", "IrrationalIntersectionError",
    "KernelInvariantError", "Line", "MeetResult", "Parabola", "Point",
    "QuadraticPoly", "Scalar", "bisector_at", "centers", "circumparabola",
    "da_norm", "dabct", "det3", "difference_angle", "foot_of_perpendicular",
    "format_scalar", "iso_angle_locus", "line_through", "meet", "midpoint",
    "midpoint_lemma_check", "naive_simson", "normalize_chart", "other_root",
    "parabola_meet", "parabolic_power", "parse_scalar", "second_intersection",
    "simson", "slope_between", "tangent_at", "tangents_from",
]


def test_all_is_pinned():
    assert sorted(dageo.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from dageo import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(dageo, name)
