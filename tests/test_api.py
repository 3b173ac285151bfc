"""The public surface of the package: refactors keep ``dageo.__all__``
exactly as it is, and every name in it importable.  The benchmark's traced
run also rebinds kernel functions by name, so those names must stay where
it looks for them."""

import importlib
import importlib.util
from pathlib import Path

import dageo
import dageo.scalar
import dageo.triangle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

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


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kernel_functions_resolve():
    # perfbench/tracing.py rebinds a function in every dageo module that
    # holds it, and a method in its class's own namespace; a name that no
    # longer resolves there breaks the traced run, which this suite does
    # not start.
    for _, module_name, attr in _load_tracing().KERNEL_FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def test_triangle_module_holds_det3():
    # The traced scalar.det3 count includes the triangle layer's calls only
    # while dageo.triangle holds det3 by name, and perfbench's own tests
    # check that it is rebound there.
    assert dageo.triangle.det3 is dageo.scalar.det3
