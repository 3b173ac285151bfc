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
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import dageo
from conftest import _workloads, golden_scene_draws
from dageo.equivalence import classify_pair, shift
from dageo.euclid import run_euclid_campaign
from dageo.gauge import (Gauge, Line, Point, difference_angle, line_through,
                         midpoint)
from dageo.generators import RandomRationals
from dageo.harness import REGISTRY, CampaignConfig, jsonable, run_campaign
from dageo.parabola import (Parabola, circumparabola, inscribed_angle_check,
                            iso_angle_locus, opposite_angle_sum,
                            parabola_meet, parabolic_power,
                            second_intersection, second_meet)
from dageo.scalar import det3, parse_scalar, ratio
from dageo.svg import render_svg
from dageo.theorems import (CevianSpec, ceva_product, cevian_line,
                            mn_division_check, ptolemy_residual)
from dageo.triangle import (DATriangle, bisector_at, bisector_ratio_check,
                            centers, foot_of_perpendicular,
                            midpoint_lemma_check, perpendicular_bisectors,
                            simson)

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
# Read here, so that the Parabola row does not count their first build.
_CURVE_COEFFICIENTS = (_CURVE.kappa, _CURVE.beta, _CURVE.gamma)
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
_GAUGE_DIRECTIONS = ((F(-7, 6), F(1, 5)), (F(1, 3), F(5, 2)))
_GAUGE = Gauge(Point(F(3, 4), F(-2)), *_GAUGE_DIRECTIONS)
# A curve that meets _CURVE at _A and _B only, and two base points on the
# reference line.
_THROUGH_AB = circumparabola(_A, _B, Point(F(1), F(1)))
_BASE = (Point(_A.x, F(0)), Point(_C.x, F(0)))


_SPEC = CevianSpec((F(2), F(3)), base="C")
_THETA = F(5, 7)
_LINE = Line(F(2, 3), F(-1, 5))


def _cold(call):
    """``call`` on ``_T`` with its line cache emptied first, so that the
    count includes building the sides and bisectors it reads."""
    def run():
        _T._lines.clear()
        return call()
    return run


def _on_fresh(build, use):
    """``use`` of a value that ``build`` makes just before the count, so
    that the count is net of building it and finds none of the value's
    lazily built forms already built."""
    def call(value):
        return use(value)
    call.build = build
    return call


def _four_distinct_draws():
    # Seed 1, trial 0 draws its four values with no rejection.
    rng = RandomRationals(1, 0)
    rng.distinct_rationals(4)
    return rng.rejections


#: Most ``Fraction`` constructions (``Fraction.__new__`` or
#: ``scalar.ratio``) each exact primitive may make on the fixed inputs:
#: one per result it returns, and none for a value the kernel stores as
#: integers and builds only when read.
#:
#: * Curves.  A curve is an integer quadruple, so ``Parabola``,
#:   ``circumparabola``, ``iso_angle_locus`` and
#:   ``RandomRationals.parabola``, which draws integer pairs, build none.
#: * Points and lines.  A kernel-built ``Point`` is an integer triple and
#:   a ``Line`` one too, so ``midpoint``, ``Gauge`` (of a kernel-built
#:   origin), ``normalize_chart``, ``Parabola.point_at``,
#:   ``second_intersection``, ``second_meet``, ``line_through``,
#:   ``bisector_at``, ``cevian_line``,
#:   ``perpendicular_bisectors`` and ``midpoint_lemma_check`` (feet,
#:   meets and residuals) build none; ``contains``, ``Line.contains`` and
#:   ``classify_pair`` answer bools and build none.
#: * Triangles.  ``DATriangle`` stores its angles and side norms as
#:   integer triples, which its certificate and ``classify_pair`` read,
#:   so it builds none; so do ``centers``, whose one triangle is the
#:   tangent triangle, and ``shift``, which builds the image triangle.
#:   Each read of ``interior_angles`` or ``side_norms`` builds its three
#:   values from the stored triple and keeps none.
#:   ``RandomRationals.triangle`` draws its curve as integers and builds
#:   only its three abscissae, which its points keep.
#: * Values.  A drawn rational is one construction, and
#:   ``point_on_side`` builds only the drawn ratio.  ``parse_scalar``,
#:   ``parabolic_power`` and ``bisector_ratio_check`` at a positive
#:   vertex build their one value, and so do ``inscribed_angle_check``
#:   and ``opposite_angle_sum``, which read their angles as integer
#:   pairs; ``mn_division_check`` builds its two
#:   residuals, ``parabola_meet`` the abscissa of each meet point (its
#:   eliminant's roots) and ``simson`` only its int slope;
#:   ``foot_of_perpendicular`` reads the point's triple.
#: * Writers.  ``render_svg`` of a golden scene's figure and ``jsonable``
#:   of a kernel-built curve and two lines read the stored integers and
#:   build none.
FRACTION_BUDGET = {
    "circumparabola": (lambda: circumparabola(_A, _B, _C), 0),
    "DATriangle": (lambda: DATriangle(_A, _B, _C), 0),
    "DATriangle.interior_angles": (_on_fresh(
        lambda: DATriangle(_A, _B, _C), DATriangle.interior_angles), 3),
    "DATriangle.side_norms": (_on_fresh(
        lambda: DATriangle(_A, _B, _C), DATriangle.side_norms), 3),
    "ceva_product": (lambda: ceva_product(_T, *_FEET), 1),
    "classify_pair": (lambda: classify_pair(_T, _T_REVERSED), 0),
    "bisector_at": (lambda: bisector_at(_T, "A"), 0),
    "centers": (lambda: centers(_T), 0),
    "midpoint": (lambda: midpoint(_A, _B), 0),
    "point_on_side": (lambda: RandomRationals(1, 0).point_on_side(_A, _B),
                      1),
    "line_through": (lambda: line_through(_A, _B), 0),
    "Line.singular": (lambda: Line.singular(_X), 0),
    "det3": (lambda: det3((_A.x, _A.y, 1), (_B.x, _B.y, 1), (_C.x, 2, 1)),
             1),
    "Parabola": (lambda: Parabola(*_CURVE_COEFFICIENTS), 0),
    "Parabola.contains": (lambda: _CURVE.contains(_D), 0),
    "Parabola.point_at": (lambda: _CURVE.point_at(_X), 0),
    "Parabola.chord_slope": (lambda: _CURVE.chord_slope(_X, _D.x), 1),
    "second_intersection": (lambda: second_intersection(_CURVE, _D, _X), 0),
    "difference_angle": (lambda: difference_angle(_A, _B, _C), 1),
    "ptolemy_residual": (lambda: ptolemy_residual(_A, _B, _C, _D, _CURVE),
                         1),
    "distinct_rationals": (_four_distinct_draws, 4),
    "RandomRationals.rational": (lambda: RandomRationals(1, 0).rational(), 1),
    "RandomRationals.parabola": (lambda: RandomRationals(1, 0).parabola(), 0),
    "RandomRationals.triangle": (lambda: RandomRationals(1, 0).triangle(), 3),
    "second_meet": (lambda: second_meet(_CURVE, _OTHER_CURVE, _D), 0),
    "Gauge": (_on_fresh(lambda: midpoint(_A, _C),
                        lambda origin: Gauge(origin, *_GAUGE_DIRECTIONS)), 0),
    "Gauge.normalize_chart": (lambda: _GAUGE.normalize_chart([_D]), 0),
    "parse_scalar": (lambda: parse_scalar(" -007.250 "), 1),
    "parabolic_power": (lambda: parabolic_power(_OTHER_CURVE, _A), 1),
    "mn_division_check": (lambda: mn_division_check(_A.x, _B.x, _C.x, 2, 3),
                          2),
    "iso_angle_locus": (lambda: iso_angle_locus(*_BASE, _X), 0),
    "parabola_meet": (lambda: parabola_meet(_CURVE, _THROUGH_AB), 2),
    "cevian_line": (lambda: cevian_line(_T, "A", _SPEC), 0),
    "inscribed_angle_check": (
        lambda: inscribed_angle_check(_CURVE, _A, _B, _C, _D), 1),
    # x_A < x_B < x_D < x_C.
    "opposite_angle_sum": (lambda: opposite_angle_sum(_A, _B, _D, _C), 1),
    "shift": (lambda: shift(_T, _THETA), 0),
    "perpendicular_bisectors": (lambda: perpendicular_bisectors(_T), 0),
    "bisector_ratio_check": (_cold(lambda: bisector_ratio_check(_T, "A")),
                             1),
    "midpoint_lemma_check": (_cold(lambda: midpoint_lemma_check(_T)), 0),
    "Line.contains": (lambda: _LINE.contains(_A), 0),
    "render_svg": (_on_fresh(lambda: golden_scene_draws()[0], render_svg), 0),
    "jsonable": (_on_fresh(lambda: [circumparabola(_A, _B, _C),
                                    line_through(_A, _B), Line.singular(_X)],
                           jsonable), 0),
    "simson": (lambda: simson(_T, 2), 1),
    "foot_of_perpendicular": (_on_fresh(
        lambda: midpoint(_A, _C),
        lambda p: foot_of_perpendicular(p, _LINE)), 0),
}


def test_budgeted_bisector_vertex_is_positive():
    assert _T.negative_vertex_label != "A"


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
    which unlike a timing does not drift between runs or hosts.  A call
    from :func:`_on_fresh` gets its value built outside the count."""
    args = (call.build(),) if hasattr(call, "build") else ()
    profiler = cProfile.Profile()
    profiler.runcall(call, *args)
    return sum(e.callcount for e in profiler.getstats()
               if not isinstance(e.code, str)
               and (e.code.co_name, Path(e.code.co_filename).name)
               in _FRACTION_BUILDERS)


def test_constructions_count_both_builders():
    # A budget that missed one builder would pass at 0 for code moved to
    # it.
    assert _fraction_constructions(lambda: F(3, 4)) == 1
    assert _fraction_constructions(lambda: ratio(3, 4)) == 1


@pytest.mark.parametrize("name", sorted(FRACTION_BUDGET))
def test_exact_primitives_build_few_fractions(name):
    call, budget = FRACTION_BUDGET[name]
    assert _fraction_constructions(call) <= budget


def test_golden_scene_ops_make_no_abc_instance_checks():
    # Fraction is an ABC (numbers.Rational): isinstance(obj, Fraction) on
    # any value not of exactly that type runs ABCMeta.__instancecheck__.
    # jsonable tests it last, where only scalars reach.
    wl = _workloads()
    workload = wl.WORKLOADS["scene_documents"]
    texts = [workload.op_input(wl.GOLDEN_SEED, index)
             for index in range(workload.round_size)]
    profiler = cProfile.Profile()
    for text in texts:
        profiler.runcall(workload.run_op, text)
    checks = sum(e.callcount for e in profiler.getstats()
                 if not isinstance(e.code, str)
                 and e.code.co_name == "__instancecheck__")
    assert checks == 0


def test_cevian_line_lifts_no_vertices():
    # A cevian reads the triangle's lift of its vertices and lifts none
    # of them again.
    profiler = cProfile.Profile()
    profiler.runcall(cevian_line, _T, "A", _SPEC)
    lifts = sum(e.callcount for e in profiler.getstats()
                if not isinstance(e.code, str)
                and e.code.co_name == "_over_common_z")
    assert lifts == 0


@pytest.mark.parametrize("theorem", ["ptolemy", "simson"])
def test_one_random_per_campaign(theorem):
    # run_theorem reseeds one stream for each trial: one Random is built,
    # and it is seeded once per trial (first by its own __init__).
    profiler = cProfile.Profile()
    profiler.runcall(run_campaign, CampaignConfig(theorem, 12, 42, 50))
    calls = Counter()
    for e in profiler.getstats():
        if (not isinstance(e.code, str)
                and Path(e.code.co_filename).name == "random.py"):
            calls[e.code.co_name] += e.callcount
    assert (calls["__init__"], calls["seed"]) == (1, 12)
