import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dageo
from dageo.errors import DegenerateConfigurationError, KernelInvariantError
from dageo.gauge import Line, MeetResult, Point, slope_between
from dageo.parabola import Parabola
from dageo.triangle import (DATriangle, bisector_at, bisector_ratio_check,
                            centers, circum_ortho_at_infinity, dabct,
                            foot_of_perpendicular, midpoint_lemma_check,
                            naive_simson, perpendicular_bisectors,
                            side_norm_equation, simson)

STD = Parabola(F(1), F(0), F(0))
small = st.fractions(min_value=-30, max_value=30, max_denominator=10)


def pt(x, y):
    return Point(F(x), F(y))


def on_std(*xs):
    return DATriangle(*(STD.point_at(F(x)) for x in xs))


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
        with pytest.raises(ValueError):
            t.angle_at("D")

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
        assert tuple(t.angle_at(lbl) for lbl in "ABC") == expected

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
        eqn = side_norm_equation(on_std(0, 1, 3))
        assert eqn.norms == (1, 2, 3)
        assert eqn.residual == 0
        eqn2 = side_norm_equation(on_std(0, 1, 2))
        assert eqn2.norms == (1, 1, 2)
        assert eqn2.residual == 0

    def test_no_equilateral(self):
        # forced by max = sum of others: three equal norms are impossible
        for t in (on_std(0, 1, 2), on_std(-4, 1, 2), on_std(0, F(1, 3), 5)):
            assert len(set(side_norm_equation(t).norms)) > 1


class TestCertificates:
    def test_broken_norm_equation_raises(self, monkeypatch):
        monkeypatch.setattr(DATriangle, "side_norms",
                            lambda self: (F(1), F(1), F(1)))
        with pytest.raises(KernelInvariantError,
                           match="side-norm equation") as info:
            on_std(0, 1, 3)
        # Callers that catch AssertionError still see certificate failures.
        assert isinstance(info.value, AssertionError)

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
        assert sorted(side_norm_equation(tt).norms) \
            == [n / 2 for n in sorted(side_norm_equation(t).norms)]

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
        assert result.skipped == []
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
        assert not result.skipped
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
