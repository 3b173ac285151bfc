"""The public surface of the package: refactors keep ``dageo.__all__``
exactly as it is, and every name in it importable.  The benchmark's traced
run also rebinds kernel functions by name, so those names must stay where
it looks for them.  A public module-level function or class that nothing
in the package uses and ``__all__`` does not export is dead code unless
it has a stated reason to stay."""

import ast
import importlib
import importlib.util
from pathlib import Path

import dageo
import dageo.scalar
import dageo.triangle

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "dageo"

#: Public module-level definitions that no other code in ``src/dageo`` uses
#: and ``__all__`` does not export, each with the reason it stays.
UNUSED_ALLOWED = {
    "harness.generate_config":
        "rebuilds one trial's config; the engine of the planned replay "
        "command (ROADMAP item 4)",
}

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


def _top_level_statements():
    """(module, statement, names it mentions) for every top-level
    statement of every module in the package."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            yield path.stem, stmt, names


def test_every_public_definition_is_used_or_exported():
    statements = list(_top_level_statements())
    unused = set()
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or name in dageo.__all__:
            continue
        if not any(name in names for _, other, names in statements
                   if other is not stmt):
            unused.add(f"{module}.{name}")
    assert sorted(unused) == sorted(UNUSED_ALLOWED)


def test_only_svg_mentions_float():
    # Every reported statement is exact; binary64 is for drawing only.
    offenders = sorted({module for module, _, names in _top_level_statements()
                        if module != "svg" and "float" in names})
    assert offenders == []
