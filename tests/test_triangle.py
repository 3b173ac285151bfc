import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dageo
from conftest import bounded, bounded_triangles, kernel_outcome
from dageo import triangle
from dageo.errors import DegenerateConfigurationError, KernelInvariantError
from dageo.gauge import (Line, MeetResult, Point, da_norm, meet, midpoint,
                         slope_between)
from dageo.generators import RandomRationals
from dageo.harness import REGISTRY, CampaignConfig, run_campaign
from dageo.parabola import Parabola
from dageo.scalar import det3
from dageo.theorems import menelaus_product
from dageo.triangle import (VERTICES, DATriangle, bisector_at,
                            bisector_ratio_check, centers,
                            circum_ortho_at_infinity, dabct,
                            foot_of_perpendicular, midpoint_lemma_check,
                            naive_simson, perpendicular_bisectors,
                            perpendicular_feet, simson)

STD = Parabola(F(1), F(0), F(0))
small = st.fractions(min_value=-30, max_value=30, max_denominator=10)


def pt(x, y):
    return Point(F(x), F(y))


def on_std(*xs):
    return DATriangle(*(STD.point_at(F(x)) for x in xs))


def fraction_chain_angles(pts):
    """Reference: the stored angles by the Fraction chains that the
    integer-lift constructor replaced, |kappa| * (r-q, p-r, q-p) in
    x-order with kappa the Newton second divided difference."""
    xs = [F(p.x) for p in pts]
    i, j, k = sorted(range(3), key=xs.__getitem__)
    lo, mid, hi = pts[i], pts[j], pts[k]
    d_lo = (F(mid.y) - lo.y) / (xs[j] - xs[i])
    d_hi = (F(hi.y) - mid.y) / (xs[k] - xs[j])
    scale = abs((d_hi - d_lo) / (xs[k] - xs[i]))
    angles = [None, None, None]
    angles[i] = scale * (xs[k] - xs[j])
    angles[j] = scale * (xs[i] - xs[k])
    angles[k] = scale * (xs[j] - xs[i])
    return tuple(angles)


class TestConstruction:
    def test_rejects_singular_side(self):
        with pytest.raises(DegenerateConfigurationError,
                           match="^singular side \\(shared x\\)$"):
            DATriangle(pt(0, 0), pt(0, 1), pt(2, 2))

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateConfigurationError,
                           match="^collinear vertices$"):
            DATriangle(pt(0, 0), pt(1, 1), pt(2, 2))

    @given(small, small, small, small, small)
    def test_rejects_collinear_triples(self, m, k, x1, x2, x3):
        if len({x1, x2, x3}) < 3:
            return
        with pytest.raises(DegenerateConfigurationError,
                           match="^collinear vertices$"):
            DATriangle(*(Point(x, m * x + k) for x in (x1, x2, x3)))

    def test_labels_preserved(self):
        t = DATriangle(pt(2, 4), pt(0, 0), pt(1, 1))
        assert t.vertex("A") == pt(2, 4)
        assert t.negative_vertex_label == "C"  # middle abscissa holds label C

    def test_unknown_label_rejected(self):
        t = on_std(0, 1, 2)
        with pytest.raises(ValueError, match="unknown vertex label 'D'"):
            t.vertex("D")

    def test_others_in_label_order(self):
        t = on_std(0, 1, 3)
        assert t.others("A") == (t.b, t.c)
        assert t.others("B") == (t.a, t.c)
        assert t.others("C") == (t.a, t.b)
        with pytest.raises(ValueError, match="unknown vertex label 'D'"):
            t.others("D")

    @given(bounded, bounded, bounded, bounded, bounded, bounded)
    def test_side_norms_match_da_norm(self, x1, y1, x2, y2, x3, y3):
        try:
            t = DATriangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
        except DegenerateConfigurationError:
            return
        norms = t.side_norms()
        assert norms == (da_norm(t.a, t.b), da_norm(t.b, t.c),
                         da_norm(t.c, t.a))
        assert all(type(n) is F for n in norms)

    @given(small, small, small, small, small, small)
    def test_stored_values_match_recomputation(self, x1, y1, x2, y2, x3, y3):
        pts = (Point(x1, y1), Point(x2, y2), Point(x3, y3))
        try:
            t = DATriangle(*pts)
        except DegenerateConfigurationError:
            return
        lo, mid, hi = sorted(pts, key=lambda p: p.x)
        assert t.sorted_vertices() == (lo, mid, hi)
        # |kappa| from the slopes alone: the second divided difference.
        scale = abs((slope_between(mid, hi) - slope_between(lo, mid))
                    / (hi.x - lo.x))
        by_x = {lo.x: scale * (hi.x - mid.x), mid.x: scale * (lo.x - hi.x),
                hi.x: scale * (mid.x - lo.x)}
        expected = tuple(by_x[p.x] for p in pts)
        assert t.interior_angles() == expected
        assert t.negative_vertex_label == "ABC"[pts.index(mid)]

    @given(bounded, bounded, bounded, bounded, bounded, bounded)
    def test_angles_match_fraction_chain(self, x1, y1, x2, y2, x3, y3):
        pts = (Point(x1, y1), Point(x2, y2), Point(x3, y3))
        if len({x1, x2, x3}) < 3:
            with pytest.raises(DegenerateConfigurationError,
                               match="^singular side \\(shared x\\)$"):
                DATriangle(*pts)
            return
        if det3(*((p.x, p.y, 1) for p in pts)) == 0:
            with pytest.raises(DegenerateConfigurationError,
                               match="^collinear vertices$"):
                DATriangle(*pts)
            return
        angles = DATriangle(*pts).interior_angles()
        assert all(type(theta) is F for theta in angles)
        assert angles == fraction_chain_angles(pts)

    def test_interior_angles_standard(self):
        assert on_std(0, 1, 2).interior_angles() == (1, -2, 1)

    def test_angle_sum_and_shift_invariance(self):
        t = on_std(0, 1, 2)
        shifted = on_std(2, 3, 4)
        assert sum(t.interior_angles()) == 0
        assert t.interior_angles() == shifted.interior_angles()

    def test_downward_parabola_single_negative_angle(self):
        down = Parabola(F(-1), F(0), F(0))
        t = DATriangle(*(down.point_at(F(x)) for x in (0, 1, 3)))
        angles = t.interior_angles()
        assert sum(angles) == 0
        assert sum(1 for v in angles if v < 0) == 1
        assert angles[1] < 0  # still the middle vertex

    def test_side_norm_equation(self):
        # the largest norm is the sum of the other two
        assert on_std(0, 1, 3).side_norms() == (1, 2, 3)
        assert on_std(0, 1, 2).side_norms() == (1, 1, 2)

    def test_no_equilateral(self):
        # forced by max = sum of others: three equal norms are impossible
        for t in (on_std(0, 1, 2), on_std(-4, 1, 2), on_std(0, F(1, 3), 5)):
            assert len(set(t.side_norms())) > 1


class TestCertificates:
    def test_broken_norm_equation_raises(self, monkeypatch):
        monkeypatch.setattr(DATriangle, "side_norms",
                            lambda self: (F(1), F(1), F(1)))
        with pytest.raises(KernelInvariantError,
                           match="side-norm equation") as info:
            on_std(0, 1, 3)
        # Callers that catch AssertionError still see certificate failures.
        assert isinstance(info.value, AssertionError)

    def test_broken_da_norm_raises(self, monkeypatch):
        # The stored norms are da_norm's values, so the side-norm equation
        # checks da_norm on every construction.
        monkeypatch.setattr("dageo.triangle.da_norm",
                            lambda p, q: da_norm(p, q) + 1)
        with pytest.raises(KernelInvariantError, match="side-norm equation"):
            on_std(0, 1, 3)

    def test_certificates_survive_optimize_flag(self):
        # Under -O every assert statement is stripped; the triangle
        # certificates must still raise.
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction as F
            from dageo.errors import KernelInvariantError
            from dageo.gauge import Point
            from dageo.triangle import DATriangle
            if not sys.flags.optimize:
                sys.exit(3)
            DATriangle.side_norms = lambda self: (F(1), F(1), F(1))
            try:
                DATriangle(Point(F(0), F(0)), Point(F(1), F(1)),
                           Point(F(3), F(9)))
            except KernelInvariantError as exc:
                print(exc)
                sys.exit(0)
            sys.exit(4)
        """)
        src = os.path.dirname(os.path.dirname(dageo.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "side-norm equation violated"


class TestAngleDefinition:
    """``triangle_invariants`` compares the stored angles, whose closed
    form sums to 0 with one negative angle for any abscissae, with the
    difference-angle definition."""

    @given(bounded, bounded, bounded, bounded, bounded, bounded)
    def test_checker_accepts_every_triangle(self, x1, y1, x2, y2, x3, y3):
        try:
            t = DATriangle(pt(x1, y1), pt(x2, y2), pt(x3, y3))
        except DegenerateConfigurationError:
            assume(False)
        check = REGISTRY["triangle_invariants"].check
        check({"T": t, "T_inscribed": t})  # raises Counterexample on a fail

    def test_wrong_kappa_fails_the_campaign(self, monkeypatch):
        # Twice kappa scales the stored angles but not the side slopes;
        # the stored angles still sum to 0 with one negative.
        # DATriangle builds its curve through the integer core that
        # circumparabola shares.
        core = dageo.triangle._parabola_through

        def doubled(*lift):
            par = core(*lift)
            return Parabola(2 * par.kappa, par.beta, par.gamma)

        monkeypatch.setattr("dageo.triangle._parabola_through", doubled)
        report = run_campaign(CampaignConfig("triangle_invariants", 50, 42,
                                             50))
        assert report.failures > 0
        assert "differs from its definition" in \
            report.first_counterexample["reason"]


class TestBisectors:
    def test_interior_at_leftmost(self):
        assert bisector_at(on_std(0, 1, 2), "A") == Line(F(3, 2), F(0))

    def test_interior_at_negative_vertex_is_singular(self):
        assert bisector_at(on_std(0, 1, 2), "B") == Line.singular(F(1))

    def test_positive_mode_at_negative_vertex(self):
        assert bisector_at(on_std(0, 1, 3), "B", "positive") \
            == Line(F(5, 2), F(-3, 2))

    def test_positive_mode_degenerates_to_tangent(self):
        # (0,1,2): the chord endpoint lands on B, so the mean-slope ray is
        # the tangent y = 2x - 1
        assert bisector_at(on_std(0, 1, 2), "B", "positive") \
            == Line(F(2), F(-1))

    @given(bounded, bounded, bounded, bounded, bounded, bounded,
           st.sampled_from("ABC"), st.sampled_from(("interior", "positive")))
    def test_matches_fraction_chain(self, x1, y1, x2, y2, x3, y3, lbl, mode):
        try:
            t = DATriangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
        except DegenerateConfigurationError:
            return
        # Reference: the mean side slope in Fraction arithmetic.
        v = t.vertex(lbl)
        if mode == "interior" and lbl == t.negative_vertex_label:
            want = Line.singular(v.x)
        else:
            u, w = (t.vertex(o) for o in "ABC" if o != lbl)
            m = (slope_between(v, u) + slope_between(v, w)) / 2
            want = Line(m, v.y - m * v.x)
        got = bisector_at(t, lbl, mode)
        assert got == want
        assert type(got.k) is F and (got.m is None or type(got.m) is F)

    def test_ratio_identity_reference(self):
        t = on_std(0, 1, 2)
        for lbl in ("A", "B", "C"):
            assert bisector_ratio_check(t, lbl) == 0

    def test_ratio_identity_general_curve(self):
        curve = Parabola(F(-3, 7), F(2), F(-5))
        t = DATriangle(*(curve.point_at(F(x)) for x in (-2, 1, F(7, 2))))
        for lbl in ("A", "B", "C"):
            assert bisector_ratio_check(t, lbl) == 0


class TestCenters:
    def test_reference_instance(self):
        cs = centers(on_std(0, 1, 2))
        assert cs.incenter == pt(1, F(3, 2))
        assert cs.excenter_a == pt(2, 3)
        assert cs.excenter_c == pt(0, -1)
        assert cs.centroid == pt(1, F(5, 3))
        assert cs.tangent_centroid == pt(1, F(2, 3))
        assert cs.bisector_centroid == pt(1, F(7, 6))
        assert cs.excenter_ideal == MeetResult.ideal(None)

    def test_incenter_on_negative_axis(self):
        t = on_std(-3, F(1, 2), 4)
        assert centers(t).incenter.x == F(1, 2)

    def test_tangent_triangle_vertices(self):
        cs = centers(on_std(0, 1, 2))
        tt = cs.tangent_triangle
        assert {tt.a, tt.b, tt.c} == {pt(F(3, 2), 2), pt(1, 0), pt(F(1, 2), 0)}

    def test_tangent_triangle_half_ratio(self):
        # tangent-triangle side norms are exactly half the original's
        t = on_std(-2, 1, 5)
        tt = centers(t).tangent_triangle
        assert sorted(tt.side_norms()) \
            == [n / 2 for n in sorted(t.side_norms())]

    @given(bounded, bounded, bounded, bounded, bounded, bounded)
    def test_tangent_points_match_fraction_chain(self, x1, y1, x2, y2, x3,
                                                 y3):
        try:
            t = DATriangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
            tt = centers(t).tangent_triangle
        except DegenerateConfigurationError:
            return
        # Reference: the meet of the tangents at U and W in Fraction
        # arithmetic, at x = (u + w)/2 and y = kappa*u*w + beta*x + gamma.
        par = t.parabola
        for lbl, got in zip("ABC", (tt.a, tt.b, tt.c)):
            u, w = (t.vertex(o).x for o in "ABC" if o != lbl)
            xm = (F(u) + w) / 2
            assert got == Point(xm, par.kappa * u * w + par.beta * xm
                                + par.gamma)

    def test_midpoint_identity_general_curve(self):
        curve = Parabola(F(2), F(-1), F(3))
        t = DATriangle(*(curve.point_at(F(x)) for x in (-1, 0, F(5, 3))))
        cs = centers(t)
        assert cs.bisector_centroid.x * 2 == cs.centroid.x + cs.tangent_centroid.x
        assert cs.bisector_centroid.y * 2 == cs.centroid.y + cs.tangent_centroid.y


class TestPerpendiculars:
    def test_foot(self):
        assert foot_of_perpendicular(pt(0, 0), Line(F(4), F(-3))) == pt(0, -3)

    def test_foot_of_incident_point(self):
        assert foot_of_perpendicular(pt(1, 1), Line(F(4), F(-3))) == pt(1, 1)

    def test_singular_target_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            foot_of_perpendicular(pt(0, 0), Line.singular(F(2)))

    def test_circum_ortho_at_infinity(self):
        t = on_std(0, 1, 2)
        circum, ortho = circum_ortho_at_infinity(t)
        assert circum == MeetResult.ideal(None)
        assert ortho == MeetResult.ideal(None)
        pbs = perpendicular_bisectors(t)
        assert {l.x0 for l in pbs.values()} == {F(3, 2), F(1), F(1, 2)}


class TestSimson:
    def test_naive_feet_share_abscissa(self):
        t = on_std(0, 1, 2)
        assert naive_simson(t, STD.point_at(F(5))) == Line.singular(F(5))

    def test_naive_foot_off_its_side_raises(self, monkeypatch):
        # The raised foot keeps the point's abscissa; only the check that
        # each foot lies on its side catches it.
        def raised_foot(p, l):
            foot = foot_of_perpendicular(p, l)
            return Point(foot.x, foot.y + 1)
        monkeypatch.setattr("dageo.triangle.foot_of_perpendicular",
                            raised_foot)
        with pytest.raises(KernelInvariantError, match="off its side"):
            naive_simson(on_std(0, 1, 2), STD.point_at(F(5)))

    def test_naive_feet_values(self):
        # feet follow the (a+b)p - ab pattern on the standard curve
        t = on_std(0, 1, 2)
        p = F(5)
        for lbl, expected in (("C", (0 + 1) * p - 0), ("A", (1 + 2) * p - 2),
                              ("B", (0 + 2) * p - 0)):
            side = t.side(lbl)
            assert side.y_at(p) == expected

    def test_directional_reference(self):
        result = simson(on_std(0, 1, 2), F(3))
        assert result.feet["A"] == pt(3, 7)
        assert result.feet["B"] == pt(2, 4)
        assert result.feet["C"] == pt(1, 1)
        assert result.line == Line(F(3), F(-2))
        assert result.drop_meet == MeetResult.ideal(None)

    def test_tangent_direction_still_collinear(self):
        # m = 0 is the tangent slope at the vertex over x=0: K_A = A there
        t = on_std(0, 1, 2)
        result = simson(t, F(0))
        assert result.chord_points["A"] == STD.point_at(F(0))
        assert result.line.m == 0

    def test_general_curve_slope(self):
        curve = Parabola(F(-2), F(1), F(4))
        t = DATriangle(*(curve.point_at(F(x)) for x in (-2, 0, 3)))
        result = simson(t, F(5, 7))
        assert result.line.m == F(5, 7)


class TestMidpointLemma:
    def test_reference_instance(self):
        result = midpoint_lemma_check(on_std(0, 1, 3))
        assert set(result.meets) == set("ABC")
        assert result.meets["A"] == pt(0, F(-3, 2))
        assert result.feet["A"] == pt(0, -3)
        assert all(r == pt(0, 0) for r in result.residuals.values())

    def test_feet_formula(self):
        # A' = (a, ab - bc + ca) on the standard curve
        result = midpoint_lemma_check(on_std(0, 1, 3))
        a, b, c = F(0), F(1), F(3)
        assert result.feet["A"] == Point(a, a * b - b * c + c * a)
        assert result.feet["B"] == Point(b, a * b + b * c - c * a)
        assert result.feet["C"] == Point(c, b * c + c * a - a * b)

    def test_general_curve(self):
        curve = Parabola(F(3), F(-2), F(1))
        t = DATriangle(*(curve.point_at(F(x)) for x in (-1, F(1, 2), 2)))
        result = midpoint_lemma_check(t)
        assert all(r == pt(0, 0) for r in result.residuals.values())

    def test_parallel_positive_bisectors_raise(self, monkeypatch):
        # Distinct positive bisectors always differ in slope, so a kernel
        # that makes them parallel is broken, not a degenerate draw.
        def slope_seven(t, vertex, mode="interior"):
            if mode == "positive":
                v = t.vertex(vertex)
                return Line(F(7), v.y - 7 * v.x)
            return bisector_at(t, vertex, mode)
        monkeypatch.setattr("dageo.triangle.bisector_at", slope_seven)
        report = run_campaign(CampaignConfig("midpoint_lemma", 50, 42, 50))
        assert report.errors == 50 and report.failures == 0
        assert report.first_error["type"] == "KernelInvariantError"
        assert "parallel" in report.first_error["message"]


coords = st.fractions(min_value=-12, max_value=12, max_denominator=5)
gaps = st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5)


class TestTheoremProperties:
    @given(coords, gaps, gaps, coords, coords, coords)
    def test_midpoint_lemma_everywhere(self, x0, g1, g2, kappa, beta, gamma):
        if kappa == 0:
            kappa = F(1)
        curve = Parabola(kappa, beta, gamma)
        t = DATriangle(*(curve.point_at(x)
                         for x in (x0, x0 + g1, x0 + g1 + g2)))
        result = midpoint_lemma_check(t)
        assert set(result.meets) == set("ABC")
        assert all(r == Point(F(0), F(0)) for r in result.residuals.values())

    @given(coords, gaps, gaps, coords)
    def test_dabct_everywhere(self, x0, g1, g2, kappa):
        if kappa == 0:
            kappa = F(1)
        if g1 == g2:
            g2 = g2 + 1  # keep the triangle scalene
        curve = Parabola(kappa, F(1, 3), F(-2))
        t = DATriangle(*(curve.point_at(x)
                         for x in (x0, x0 + g1, x0 + g1 + g2)))
        result = dabct(t)
        assert result.det_residual == 0 and result.concurrency_ok
        # No L point is a vertex, so the Menelaus product is defined.
        assert menelaus_product(t, *(result.l_points[k] for k in "ABC")) == -1

    @given(coords, gaps, gaps, coords, coords)
    def test_incenter_axis_everywhere(self, x0, g1, g2, kappa, beta):
        if kappa == 0:
            kappa = F(1)
        curve = Parabola(kappa, beta, F(0))
        t = DATriangle(*(curve.point_at(x)
                         for x in (x0, x0 + g1, x0 + g1 + g2)))
        cs = centers(t)
        assert cs.incenter.x == x0 + g1
        assert {cs.excenter_a.x, cs.excenter_c.x} == {x0, x0 + g1 + g2}

    @given(bounded, bounded, bounded, bounded, bounded, bounded, bounded)
    def test_simson_accepts_every_triangle_and_slope(self, x1, y1, x2, y2,
                                                     x3, y3, m):
        # The feet have the K points' abscissae (m - beta)/kappa - x_V,
        # pairwise distinct, so no triangle and slope is degenerate.
        try:
            t = DATriangle(pt(x1, y1), pt(x2, y2), pt(x3, y3))
        except DegenerateConfigurationError:
            assume(False)
        result = simson(t, m)
        assert result.line.m == m
        assert len({f.x for f in result.feet.values()}) == 3


class TestDABCT:
    def test_reference_instance(self):
        result = dabct(on_std(0, 1, 3))
        assert result.l_points["A"] == pt(F(3, 2), 3)
        assert result.l_points["B"] == pt(-3, -9)
        assert result.l_points["C"] == pt(F(3, 5), F(3, 5))
        assert result.det_residual == 0
        assert result.concurrency_ok
        # common transversal slope 8/3
        la, lb = result.l_points["A"], result.l_points["B"]
        assert (lb.y - la.y) / (lb.x - la.x) == F(8, 3)

    def test_concurrency_at_l_c(self):
        # AB: y=x, feet chord y=6x-3, bisector y=(7/2)x-3/2 all through L_C
        result = dabct(on_std(0, 1, 3))
        lc = result.l_points["C"]
        assert lc.y == lc.x
        assert 6 * lc.x - 3 == lc.y
        assert F(7, 2) * lc.x - F(3, 2) == lc.y

    def test_isosceles_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            dabct(on_std(0, 1, 2))

    def test_general_curve(self):
        curve = Parabola(F(-1, 2), F(3), F(-1))
        t = DATriangle(*(curve.point_at(F(x)) for x in (0, 1, 5)))
        result = dabct(t)
        assert result.det_residual == 0 and result.concurrency_ok
        # No L point is a vertex, so the Menelaus product is defined.
        assert menelaus_product(t, *(result.l_points[k] for k in "ABC")) == -1


# References: the Fraction chains that the triangle layer's integer lift
# replaced.

def fraction_chain_perpendicular_bisectors(t):
    out = {}
    for lbl in "ABC":
        u, w = t.others(lbl)
        out[lbl] = Line.singular((F(u.x) + w.x) / 2)
    return out


def fraction_chain_midpoint_lemma(t):
    bis = {lbl: bisector_at(t, lbl, "positive") for lbl in "ABC"}
    feet = perpendicular_feet(t)
    meets, residuals = {}, {}
    for lbl, (u, w) in (("A", "BC"), ("B", "CA"), ("C", "AB")):
        hit = meet(bis[u], bis[w])
        if not hit.is_finite:
            raise KernelInvariantError("positive bisectors are parallel")
        meets[lbl] = hit.point
        mid = midpoint(t.vertex(lbl), feet[lbl])
        residuals[lbl] = Point(hit.point.x - mid.x, hit.point.y - mid.y)
    return meets, feet, residuals


def fraction_chain_bisector_ratio(t, vertex):
    v = t.vertex(vertex)
    u, w = t.others(vertex)
    hit = triangle.meet(bisector_at(t, vertex, "interior"), t.side(vertex))
    if not hit.is_finite:
        raise KernelInvariantError(
            "interior bisector cannot miss the opposite side")
    d = hit.point
    return da_norm(u, d) * da_norm(v, w) - da_norm(d, w) * da_norm(v, u)


class TestLiftedTriangleLayer:
    @given(bounded_triangles())
    def test_perpendicular_bisectors_match_fraction_chain(self, t):
        got = perpendicular_bisectors(t)
        assert got == fraction_chain_perpendicular_bisectors(t)
        assert all(type(line.k) is F for line in got.values())

    @given(bounded_triangles())
    def test_midpoint_lemma_matches_fraction_chain(self, t):
        got = kernel_outcome(midpoint_lemma_check, t)
        assert got == kernel_outcome(fraction_chain_midpoint_lemma, t)
        assert all(type(c) is F for r in got.residuals.values() for c in r)

    @given(bounded_triangles(), st.sampled_from("ABC"), bounded, bounded)
    def test_bisector_ratio_matches_fraction_chain(self, t, vertex, dx, dy):
        # The foot moved by (dx, dy) off the bisector: the norm products
        # then differ, and both forms must agree on the nonzero residual.
        real_meet = triangle.meet

        def moved_meet(l1, l2):
            hit = real_meet(l1, l2)
            if not hit.is_finite:
                return hit
            return MeetResult.at(Point(hit.point.x + dx, hit.point.y + dy))

        with mock.patch.object(triangle, "meet", moved_meet):
            got = kernel_outcome(bisector_ratio_check, t, vertex)
            want = kernel_outcome(fraction_chain_bisector_ratio, t, vertex)
        assert got == want
        assert type(got) is F

    @given(bounded_triangles(), bounded, bounded.filter(bool),
           st.permutations(range(3)), st.booleans())
    def test_is_isosceles_matches_norm_set(self, free, mid, gap, order,
                                           symmetric):
        # symmetric: abscissae mid - gap, mid, mid + gap in any label
        # order, so every pair of sides takes its turn at being equal.
        t = free
        if symmetric:
            xs = (F(mid) - gap, F(mid), F(mid) + gap)
            pts = [Point(xs[i], v.y) for i, v in zip(order, (t.a, t.b, t.c))]
            try:
                t = DATriangle(*pts)
            except DegenerateConfigurationError:
                assume(False)
        assert t.is_isosceles == (len(set(t.side_norms())) < 3)

    @given(bounded_triangles(), st.sampled_from("ABC"))
    def test_x_rank_is_the_sorted_index(self, t, lbl):
        assert t.x_rank(lbl) == t.sorted_vertices().index(t.vertex(lbl))

    def test_x_rank_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="unknown vertex label 'D'"):
            on_std(0, 1, 2).x_rank("D")


class TestLineCache:
    def test_each_line_built_once(self):
        t = on_std(0, 1, 3)
        assert t.side("A") is t.side("A")
        for lbl in "ABC":
            for mode in ("interior", "positive"):
                assert bisector_at(t, lbl, mode) is bisector_at(t, lbl, mode)
        # At a positive vertex the interior bisector is the positive one.
        assert bisector_at(t, "A") is bisector_at(t, "A", "positive")

    def test_cache_is_not_part_of_the_value(self):
        t, fresh = on_std(0, 1, 3), on_std(0, 1, 3)
        centers(t)
        assert t == fresh and hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert "_lines" not in repr(t)

    def test_cached_lines_equal_fresh_ones(self):
        # Lines read from a warm cache equal those a fresh triangle builds.
        t = on_std(-2, F(1, 2), 4)
        dabct(t)
        for lbl in "ABC":
            fresh = on_std(-2, F(1, 2), 4)
            assert t.side(lbl) == fresh.side(lbl)
            assert bisector_at(t, lbl) == bisector_at(fresh, lbl)

    def test_bad_label_or_mode_is_not_cached(self):
        t = on_std(0, 1, 3)
        with pytest.raises(ValueError, match="unknown vertex label"):
            bisector_at(t, "D", "positive")
        with pytest.raises(ValueError, match="unknown bisector mode"):
            bisector_at(t, "A", "exterior")
        with pytest.raises(ValueError, match="unknown vertex label"):
            t.side("D")
        assert t._lines == {}


class TestEveryLabelling:
    """``RandomRationals.triangle`` labels its vertices A, B, C in
    increasing x, and so do the campaigns that draw on a fixed curve; a
    slip that is right for that labelling only shows under the other
    five.  Each relabelling must give the same results, vertex by
    vertex."""

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_checks_hold_under_relabelling(self, perm):
        for trial in range(12):
            drawn = RandomRationals(11, trial, 50).triangle()
            pts = (drawn.a, drawn.b, drawn.c)
            t = DATriangle(*(pts[i] for i in perm))
            # t's label -> drawn's label of the same vertex
            same = {VERTICES[k]: VERTICES[i] for k, i in enumerate(perm)}
            for lbl in VERTICES:
                assert bisector_ratio_check(t, lbl) == 0
            lemma, want = midpoint_lemma_check(t), midpoint_lemma_check(drawn)
            feet, want_feet = perpendicular_feet(t), perpendicular_feet(drawn)
            for lbl in VERTICES:
                assert lemma.residuals[lbl] == pt(0, 0)
                assert lemma.meets[lbl] == want.meets[same[lbl]]
                assert lemma.feet[lbl] == want.feet[same[lbl]]
                assert feet[lbl] == want_feet[same[lbl]]
            cs, want_cs = centers(t), centers(drawn)
            for name in ("incenter", "excenter_a", "excenter_c",
                         "excenter_ideal", "centroid", "tangent_centroid",
                         "bisector_centroid"):
                assert getattr(cs, name) == getattr(want_cs, name)
            for lbl in VERTICES:
                assert (cs.tangent_triangle.vertex(lbl)
                        == want_cs.tangent_triangle.vertex(same[lbl]))
