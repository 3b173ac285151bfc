"""Certificates and reports under ``python -O``, which strips every
``assert`` statement: the package must hold no ``assert`` in its source,
and every registered theorem and the Euclidean export must report byte
for byte what they report without the flag.  A source guard also keeps
the generator layer's one rejection rule in one place, and a cost guard keeps the exact kernel's
``Fraction`` constructions from creeping back."""

import ast
import cProfile
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

import dageo
from dageo.equivalence import classify_pair
from dageo.euclid import run_euclid_campaign
from dageo.gauge import (Gauge, Line, Point, difference_angle, line_through,
                         midpoint)
from dageo.generators import RandomRationals
from dageo.harness import REGISTRY, CampaignConfig, run_campaign
from dageo.parabola import (Parabola, circumparabola, iso_angle_locus,
                            parabola_meet, parabolic_power,
                            second_intersection, second_meet)
from dageo.scalar import det3, parse_scalar, ratio
from dageo.theorems import ceva_product, mn_division_check, ptolemy_residual
from dageo.triangle import DATriangle, bisector_at, centers

PACKAGE = Path(dageo.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _is_rejection_wrapper(node) -> bool:
    """``except DegenerateConfigurationError: return None``."""
    caught = node.type
    name = getattr(caught, "id", None) or getattr(caught, "attr", None)
    if name != "DegenerateConfigurationError" or len(node.body) != 1:
        return False
    body = node.body[0]
    return isinstance(body, ast.Return) and (
        body.value is None or (isinstance(body.value, ast.Constant)
                               and body.value.value is None))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_degenerate_rejection_wrappers(path):
    # RandomRationals.retrying alone turns a degenerate draw into a
    # rejection; a generator lets the kernel's error propagate to it.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler)
             and _is_rejection_wrapper(node)]
    assert lines == [], f"{path.name}: rejection wrapper at lines {lines}"


def test_reports_identical_under_optimize_flag():
    script = textwrap.dedent("""
        import json
        import sys
        from dageo.euclid import run_euclid_campaign
        from dageo.harness import REGISTRY, CampaignConfig, run_campaign
        if not sys.flags.optimize:
            sys.exit(3)
        reports = {tid: run_campaign(CampaignConfig(tid, 50, 42, 50)).to_json()
                   for tid in REGISTRY}
        reports["euclid_export"] = run_euclid_campaign(50, 42).to_json()
        print(json.dumps(reports))
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    assert sorted(optimized) == sorted([*REGISTRY, "euclid_export"])
    for tid in REGISTRY:
        plain = run_campaign(CampaignConfig(tid, 50, 42, 50)).to_json()
        assert optimized[tid] == plain, tid
    assert optimized["euclid_export"] == run_euclid_campaign(50, 42).to_json()


def _imported_modules(tree) -> set[str]:
    """Last component of every module a file imports from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            else:  # ``from . import x``
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def _parse(name: str):
    path = PACKAGE / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_generators_hold_only_generic_draws():
    # A draw that serves one theorem lives in that theorem's generator in
    # campaigns.py, so the generator layer needs no theorem code.
    imported = _imported_modules(_parse("generators.py"))
    assert imported.isdisjoint({"theorems", "campaigns", "harness"}), imported


def test_harness_holds_no_theorem_blocks():
    blocks = [node.name for node in ast.walk(_parse("harness.py"))
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith(("_gen_", "_check_"))]
    assert blocks == []


# A fixed triangle with mixed denominators and negative entries, its
# circumparabola and a fourth point on that curve.
_A, _B, _C = (Point(F(-7, 3), F(5, 2)), Point(F(4, 5), F(-1, 6)),
              Point(F(9, 2), F(11, 7)))
_CURVE = circumparabola(_A, _B, _C)
_D = _CURVE.point_at(F(13, 4))
_X = F(-5, 6)
# The triangle, its image with the labels reversed, and a foot inside
# each side (BC, CA, AB).
_T = DATriangle(_A, _B, _C)
_T_REVERSED = DATriangle(_C, _B, _A)
_FEET = tuple(Point(u.x + lam * (w.x - u.x), u.y + lam * (w.y - u.y))
              for u, w, lam in ((_B, _C, F(2, 7)), (_C, _A, F(3, 5)),
                                (_A, _B, F(1, 4))))


# A second curve through _D with another kappa and a sheared, reflected
# chart (its determinant is negative).
_OTHER_CURVE = Parabola(F(-2, 9), F(1, 4), _D.y + F(2, 9) * _D.x * _D.x
                        - F(1, 4) * _D.x)
_GAUGE = Gauge(Point(F(3, 4), F(-2)), (F(-7, 6), F(1, 5)), (F(1, 3), F(5, 2)))
# A curve that meets _CURVE at _A and _B only, and two base points on the
# reference line.
_THROUGH_AB = circumparabola(_A, _B, Point(F(1), F(1)))
_BASE = (Point(_A.x, F(0)), Point(_C.x, F(0)))


def _four_distinct_draws():
    # Seed 1, trial 0 draws its four values with no rejection.
    rng = RandomRationals(1, 0)
    rng.distinct_rationals(4)
    return rng.rejections


#: Most ``Fraction`` constructions (``Fraction.__new__`` or
#: ``scalar.ratio``) each exact primitive may make on the fixed inputs:
#: one per result it returns.  ``DATriangle`` stores its
#: circumparabola (3), angles (3) and side norms (3); its certificate reads
#: the norms back as integers and builds none.  ``contains`` and
#: ``classify_pair`` answer bools, so they build none; ``bisector_at``
#: builds the two numbers of its line, and ``point_on_side`` the drawn
#: ratio and the two coordinates of its point.  ``centers`` builds its
#: lines, meets, centroids and midpoint and one triangle, the tangent
#: triangle; ``midpoint`` builds its two coordinates.
#: ``Parabola`` lifts its coefficients to integers and builds none;
#: ``second_intersection`` builds its point's two coordinates, and a
#: drawn rational is one construction.  ``second_meet`` builds its
#: companion point's two coordinates (the eliminant stays in integers),
#: ``normalize_chart`` the two coordinates of each point it maps and
#: ``parse_scalar`` its one value.  ``parabolic_power`` builds its one
#: value, ``mn_division_check`` its two residuals, ``iso_angle_locus`` its
#: curve's three coefficients and ``parabola_meet`` the two coordinates of
#: each meet point.
FRACTION_BUDGET = {
    "circumparabola": (lambda: circumparabola(_A, _B, _C), 3),
    "DATriangle": (lambda: DATriangle(_A, _B, _C), 9),
    "ceva_product": (lambda: ceva_product(_T, *_FEET), 1),
    "classify_pair": (lambda: classify_pair(_T, _T_REVERSED), 0),
    "bisector_at": (lambda: bisector_at(_T, "A"), 2),
    "centers": (lambda: centers(_T), 35),
    "midpoint": (lambda: midpoint(_A, _B), 2),
    "point_on_side": (lambda: RandomRationals(1, 0).point_on_side(_A, _B),
                      3),
    "line_through": (lambda: line_through(_A, _B), 2),
    "Line.singular": (lambda: Line.singular(_X), 0),
    "det3": (lambda: det3((_A.x, _A.y, 1), (_B.x, _B.y, 1), (_C.x, 2, 1)),
             1),
    "Parabola": (lambda: Parabola(_CURVE.kappa, _CURVE.beta, _CURVE.gamma),
                 0),
    "Parabola.contains": (lambda: _CURVE.contains(_D), 0),
    "Parabola.point_at": (lambda: _CURVE.point_at(_X), 1),
    "Parabola.chord_slope": (lambda: _CURVE.chord_slope(_X, _D.x), 1),
    "second_intersection": (lambda: second_intersection(_CURVE, _D, _X), 2),
    "difference_angle": (lambda: difference_angle(_A, _B, _C), 1),
    "ptolemy_residual": (lambda: ptolemy_residual(_A, _B, _C, _D, _CURVE),
                         1),
    "distinct_rationals": (_four_distinct_draws, 4),
    "RandomRationals.rational": (lambda: RandomRationals(1, 0).rational(), 1),
    "second_meet": (lambda: second_meet(_CURVE, _OTHER_CURVE, _D), 2),
    "Gauge.normalize_chart": (lambda: _GAUGE.normalize_chart([_D]), 2),
    "parse_scalar": (lambda: parse_scalar(" -007.250 "), 1),
    "parabolic_power": (lambda: parabolic_power(_OTHER_CURVE, _A), 1),
    "mn_division_check": (lambda: mn_division_check(_A.x, _B.x, _C.x, 2, 3),
                          2),
    "iso_angle_locus": (lambda: iso_angle_locus(*_BASE, _X), 3),
    "parabola_meet": (lambda: parabola_meet(_CURVE, _THROUGH_AB), 4),
}


def test_budgeted_meet_has_two_finite_points():
    hits = parabola_meet(_CURVE, _THROUGH_AB)
    assert [h.point for h in hits] == [_A, _B]


def test_budgeted_draws_have_no_rejection():
    assert _four_distinct_draws() == 0


#: (code name, file name) of each way to build a ``Fraction``: its own
#: constructor, and ``scalar.ratio``, which fills the slots directly.
_FRACTION_BUILDERS = {("__new__", "fractions.py"), ("ratio", "scalar.py")}


def _fraction_constructions(call) -> int:
    """``Fraction`` constructions made by ``call()``: a cProfile count,
    which unlike a timing does not drift between runs or hosts."""
    profiler = cProfile.Profile()
    profiler.runcall(call)
    return sum(e.callcount for e in profiler.getstats()
               if not isinstance(e.code, str)
               and (e.code.co_name, Path(e.code.co_filename).name)
               in _FRACTION_BUILDERS)


def test_constructions_count_both_builders():
    # A budget that counted only one builder would pass at 0 for code
    # moved to the other.
    assert _fraction_constructions(lambda: F(3, 4)) == 1
    assert _fraction_constructions(lambda: ratio(3, 4)) == 1


@pytest.mark.parametrize("name", sorted(FRACTION_BUDGET))
def test_exact_primitives_build_few_fractions(name):
    call, budget = FRACTION_BUDGET[name]
    assert _fraction_constructions(call) <= budget
