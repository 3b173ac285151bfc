"""Exact difference-angle plane geometry.

A kernel for the geometry whose angular quantity is the difference of
slopes relative to a fixed reference structure, built entirely over
arbitrary-precision rationals, together with a randomized harness that
verifies the theory's theorems as zero-residual identities.
"""

from .errors import (DegenerateConfigurationError, GeneratorExhaustedError,
                     IrrationalIntersectionError, KernelInvariantError)
from .gauge import (Gauge, Line, MeetResult, Point, da_norm, difference_angle,
                    line_through, meet, midpoint, normalize_chart,
                    slope_between)
from .parabola import (Parabola, circumparabola, iso_angle_locus,
                       parabola_meet, parabolic_power, second_intersection,
                       tangent_at, tangents_from)
from .scalar import QuadraticPoly, Scalar, det3, format_scalar, other_root, parse_scalar
from .triangle import (CenterSet, DATriangle, bisector_at, centers, dabct,
                       foot_of_perpendicular, midpoint_lemma_check,
                       naive_simson, simson)

__all__ = [
    "CenterSet", "DATriangle", "DegenerateConfigurationError", "Gauge",
    "GeneratorExhaustedError", "IrrationalIntersectionError",
    "KernelInvariantError", "Line",
    "MeetResult", "Parabola", "Point", "QuadraticPoly", "Scalar",
    "bisector_at", "centers", "circumparabola", "da_norm", "dabct", "det3",
    "difference_angle", "foot_of_perpendicular", "format_scalar",
    "iso_angle_locus", "line_through", "meet", "midpoint",
    "midpoint_lemma_check", "naive_simson", "normalize_chart", "other_root",
    "parabola_meet", "parabolic_power", "parse_scalar", "second_intersection",
    "simson", "slope_between", "tangent_at", "tangents_from",
]

__version__ = "0.1.0"
