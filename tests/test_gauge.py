from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bounded
from dageo.errors import DegenerateConfigurationError
from dageo.gauge import (Gauge, Line, MeetResult, Point, angle_axiom_checks,
                         da_norm, difference_angle, line_through, meet,
                         midpoint, normalize_chart, slope_between)
from dageo.harness import CampaignConfig, run_campaign
from dageo.scalar import collinear

small = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def pt(x, y):
    return Point(F(x), F(y))


# References: the Fraction chains that the integer-lift primitives
# replaced.

def fraction_chain_slope(a, b):
    return (F(b.y) - a.y) / (F(b.x) - a.x)


def fraction_chain_line(a, b):
    m = fraction_chain_slope(a, b)
    return Line(m, a.y - m * a.x)


def fraction_chain_angle(a, p, b):
    if p == a or p == b:
        raise DegenerateConfigurationError(
            "angle vertex coincides with an endpoint")
    if p.x == a.x or p.x == b.x:
        return F(0)
    return fraction_chain_slope(p, b) - fraction_chain_slope(p, a)


def fraction_chain_meet_point(l1, l2):
    x = (l2.k - l1.k) / (l1.m - l2.m)
    return Point(x, l1.m * x + l1.k)


def fraction_chain_chart(origin, ref, proj, points):
    # Gauge's determinant check and normalize_chart's Cramer solve as
    # Fraction chains.
    rx, ry = ref
    px, py = proj
    det = F(rx * py - ry * px)
    if det == 0:
        raise DegenerateConfigurationError(
            "reference and projective directions are dependent")
    out = []
    for p in points:
        dx = p.x - origin.x
        dy = p.y - origin.y
        out.append(Point((dx * py - dy * px) / det, (rx * dy - ry * dx) / det))
    return out


def chart_outcome(call, *args):
    """``call(*args)``'s chart, or the type and message it raises."""
    try:
        return call(*args)
    except DegenerateConfigurationError as err:
        return (type(err), str(err))


class TestNormalizeChart:
    @given(st.tuples(bounded, bounded), st.tuples(bounded, bounded),
           st.tuples(bounded, bounded), st.lists(st.tuples(bounded, bounded),
                                                 max_size=4),
           st.booleans())
    def test_matches_fraction_chain(self, origin, ref, proj, points,
                                    reflect):
        # ``reflect`` swaps the directions, so the determinant changes sign
        # and both orientations are covered.
        if reflect:
            ref, proj = proj, ref
        origin, points = Point(*origin), [Point(*p) for p in points]

        def integer_lift():
            return normalize_chart(Gauge(origin, ref, proj), points)

        got = chart_outcome(integer_lift)
        want = chart_outcome(fraction_chain_chart, origin, ref, proj, points)
        assert got == want
        if isinstance(got, list):
            assert all(type(c) is F for p in got for c in p)

    @given(st.tuples(small, small), st.tuples(small, small), bounded)
    def test_dependent_directions_match_fraction_chain(self, origin, ref,
                                                       scale):
        proj = (ref[0] * scale, ref[1] * scale)
        got = chart_outcome(Gauge, Point(*origin), ref, proj)
        want = chart_outcome(fraction_chain_chart, Point(*origin), ref, proj,
                             [])
        assert isinstance(got, tuple) and got == want

    def test_identity(self):
        g = Gauge(pt(0, 0), (F(1), F(0)), (F(0), F(1)))
        assert normalize_chart(g, [pt(3, 4)]) == [pt(3, 4)]

    def test_oblique_projective_direction(self):
        # (2,2) = 0*(1,0) + 2*(1,1)  =>  chart point (0,2)
        g = Gauge(pt(0, 0), (F(1), F(0)), (F(1), F(1)))
        assert normalize_chart(g, [pt(2, 2)]) == [pt(0, 2)]

    def test_scaled_axes_with_offset_origin(self):
        # (3,4)-(1,1) = 1*(2,0) + 1*(0,3)  =>  chart point (1,1)
        g = Gauge(pt(1, 1), (F(2), F(0)), (F(0), F(3)))
        assert normalize_chart(g, [pt(3, 4)]) == [pt(1, 1)]

    def test_rejects_degenerate_gauge(self):
        with pytest.raises(DegenerateConfigurationError):
            Gauge(pt(0, 0), (F(1), F(2)), (F(2), F(4)))

    def test_round_trip_property(self):
        g = Gauge(pt(5, -3), (F(2), F(1)), (F(-1), F(3)))
        points = [pt(1, 7), pt(-2, 0), pt(4, 4)]
        chart = normalize_chart(g, points)
        for original, mapped in zip(points, chart):
            rx, ry = g.reference_direction
            px, py = g.projective_direction
            back = Point(g.origin.x + mapped.x * rx + mapped.y * px,
                         g.origin.y + mapped.x * ry + mapped.y * py)
            assert back == original


class TestMidpoint:
    @given(bounded, bounded, bounded, bounded)
    def test_matches_fraction_chain(self, px, py, qx, qy):
        got = midpoint(Point(px, py), Point(qx, qy))
        assert got == Point((F(px) + qx) / 2, (F(py) + qy) / 2)
        assert (type(got.x), type(got.y)) == (F, F)


class TestSlopeAndNorm:
    def test_chord_slope(self):
        assert slope_between(pt(1, 1), pt(2, 4)) == 3

    def test_singular(self):
        assert slope_between(pt(2, 0), pt(2, 9)) is None

    def test_reference_direction(self):
        assert slope_between(pt(0, 0), pt(5, 0)) == 0

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            slope_between(pt(1, 1), pt(1, 1))

    @given(bounded, bounded, bounded, bounded)
    def test_slope_matches_fraction_chain(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        if x1 == x2 and y1 == y2:
            with pytest.raises(DegenerateConfigurationError,
                               match="^slope of a degenerate segment$"):
                slope_between(a, b)
        elif x1 == x2:
            assert slope_between(a, b) is None
        else:
            got = slope_between(a, b)
            assert type(got) is F
            assert got == fraction_chain_slope(a, b)

    @given(bounded, bounded)
    def test_norm_matches_fraction_chain(self, x1, x2):
        got = da_norm(Point(x1, 0), Point(x2, 7))
        assert type(got) is F
        assert got == abs(F(x2) - x1)

    def test_norm_examples(self):
        assert da_norm(pt(0, 5), pt(3, 7)) == 3
        assert da_norm(pt(2, 1), pt(2, 99)) == 0  # not positive definite
        assert da_norm(pt(4, 4), pt(4, 4)) == 0

    @given(small, small, small, small)
    def test_norm_symmetry_nonnegative(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert da_norm(a, b) == da_norm(b, a) >= 0


class TestDifferenceAngle:
    def test_iso_angle_sample(self):
        # slopes: PB = 1, PA = -1 so the angle is 2
        assert difference_angle(pt(0, 0), pt(1, -1), pt(2, 0)) == 2

    def test_singular_ray_absorbed(self):
        assert difference_angle(pt(1, 5), pt(1, 0), pt(7, 3)) == 0

    def test_collinear_vanishes(self):
        assert difference_angle(pt(0, 0), pt(1, 1), pt(2, 2)) == 0

    def test_vertex_collision_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            difference_angle(pt(1, 1), pt(1, 1), pt(2, 2))

    @given(bounded, bounded, bounded, bounded, bounded, bounded,
           st.sampled_from(["free", "singular PA", "singular PB",
                            "vertex at A", "vertex at B"]))
    def test_matches_fraction_chain(self, ax, ay, px, py, bx, by, shape):
        if shape == "singular PA":
            ax = px
        elif shape == "singular PB":
            bx = px
        elif shape == "vertex at A":
            ax, ay = px, py
        elif shape == "vertex at B":
            bx, by = px, py
        a, p, b = Point(ax, ay), Point(px, py), Point(bx, by)
        if p in (a, b):
            with pytest.raises(
                    DegenerateConfigurationError,
                    match="^angle vertex coincides with an endpoint$"):
                difference_angle(a, p, b)
            return
        got = difference_angle(a, p, b)
        assert type(got) is F
        assert got == fraction_chain_angle(a, p, b)

    @given(small, small, small, small, small, small)
    def test_antisymmetry(self, ax, ay, px, py, bx, by):
        a, p, b = Point(ax, ay), Point(px, py), Point(bx, by)
        if p in (a, b):
            return
        assert difference_angle(a, p, b) == -difference_angle(b, p, a)

    @given(small, small, small, small, small, small)
    def test_telescoping_additivity(self, ax, ay, px, py, bx, by):
        # angle(A,P,C) + angle(C,P,B) telescopes for any non-singular rays
        a, p, b = Point(ax, ay), Point(px, py), Point(bx, by)
        c = Point(p.x + 1, p.y - 2)
        if p in (a, b) or p.x in (a.x, b.x):
            return
        assert (difference_angle(a, p, c) + difference_angle(c, p, b)
                == difference_angle(a, p, b))


class TestLinesAndMeet:
    def test_line_through(self):
        assert line_through(pt(0, 0), pt(1, 3)) == Line(F(3), F(0))
        assert line_through(pt(1, 1), pt(2, 4)) == Line(F(3), F(-2))
        assert line_through(pt(4, 0), pt(4, 9)) == Line.singular(F(4))

    @given(bounded, bounded, bounded, bounded)
    def test_line_through_matches_fraction_chain(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        if x1 == x2 and y1 == y2:
            with pytest.raises(DegenerateConfigurationError,
                               match="^two coincident points span no line$"):
                line_through(a, b)
        elif x1 == x2:
            assert line_through(a, b) == Line.singular(x1)
        else:
            got = line_through(a, b)
            assert (type(got.m), type(got.k)) == (F, F)
            assert got == fraction_chain_line(a, b)
            assert got.contains(a) and got.contains(b)

    @given(bounded, bounded, bounded)
    def test_line_y_at_matches_fraction_chain(self, m, k, x):
        line = Line(m, k)
        got = line.y_at(x)
        assert type(got) is F
        assert got == F(m) * x + k
        assert line.contains(Point(x, got))
        assert not line.contains(Point(x, got + 1))

    @given(bounded, bounded, bounded, bounded)
    def test_meet_matches_fraction_chain(self, m1, k1, m2, k2):
        assume(m1 != m2)
        l1, l2 = Line(F(m1), F(k1)), Line(F(m2), F(k2))
        hit = meet(l1, l2)
        assert hit == MeetResult.at(fraction_chain_meet_point(l1, l2))
        assert (type(hit.point.x), type(hit.point.y)) == (F, F)

    def test_meet_bisector_foot(self):
        # the (0,1,2) interior-bisector foot: y = 3x/2 meets y = 3x - 2
        hit = meet(Line(F(3, 2), F(0)), Line(F(3), F(-2)))
        assert hit == MeetResult.at(pt(F(4, 3), 2))

    def test_meet_parallels(self):
        assert meet(Line(F(1), F(0)), Line(F(1), F(5))) == MeetResult.ideal(F(1))

    def test_meet_singular_pair(self):
        assert meet(Line.singular(F(0)), Line.singular(F(7))) \
            == MeetResult.ideal(None)

    def test_meet_coincident(self):
        line = Line(F(2), F(1))
        assert meet(line, line).kind == MeetResult.COINCIDENT

    def test_meet_sloped_with_singular(self):
        hit = meet(Line(F(4), F(-3)), Line.singular(F(0)))
        assert hit == MeetResult.at(pt(0, -3))

    def test_line_contains(self):
        assert Line(F(2), F(-1)).contains(pt(1, 1))
        assert not Line(F(2), F(-1)).contains(pt(1, 2))
        assert Line.singular(F(2)).contains(pt(2, 77))


def fraction_chain_angle_axiom_checks(a, p, b, c_param, k_scale):
    """``angle_axiom_checks`` as it was before its points and sums were
    built one ratio each: every point and sum in Fraction arithmetic."""
    theta = difference_angle(a, p, b)
    if difference_angle(b, p, a) != -theta:
        return "A1 antisymmetry"
    c = Point(a.x + c_param * (b.x - a.x), a.y + c_param * (b.y - a.y))
    if c != p and c.x != p.x:
        if difference_angle(a, p, c) + difference_angle(c, p, b) != theta:
            return "A2 additivity"
    if collinear(a, p, b):
        if theta != 0:
            return "A3 vanishing on collinear triple"
    elif theta == 0:
        return "A3 converse (zero angle off a line)"
    collinear_probe = Point(p.x + (b.x - p.x) * 2, p.y + (b.y - p.y) * 2)
    if difference_angle(collinear_probe, p, b) != 0:
        return "A3 vanishing on a shared ray"
    scaled = [Point(k_scale * q.x, k_scale * q.y) for q in (a, p, b)]
    if difference_angle(*scaled) != theta:
        return "A4 scaling invariance"
    t = (slope_between(p, a) + slope_between(p, b)) / 2
    bis_pt = Point(p.x + 1, p.y + t)
    half1 = difference_angle(a, p, bis_pt)
    half2 = difference_angle(bis_pt, p, b)
    if not (half1 == half2 == theta / 2):
        return "A5(i) bisection"
    a2 = Point(2 * p.x - a.x, 2 * p.y - a.y)
    b2 = Point(2 * p.x - b.x, 2 * p.y - b.y)
    if difference_angle(a2, p, b2) != theta:
        return "vertical angle equality"
    if difference_angle(b2, p, a2) != -theta:
        return "oriented vertical-angle law"
    if difference_angle(a, p, a2) != 0:
        return "straight angle"
    above = Point(p.x, p.y + 1)
    if difference_angle(above, p, b) != 0 or difference_angle(a, p, above) != 0:
        return "absorptive boundary rule"
    if da_norm(a, b) != da_norm(b, a) or da_norm(a, b) < 0:
        return "norm symmetry/nonnegativity"
    lo, mid, hi = sorted((a, p, b), key=lambda q: q.x)
    if da_norm(lo, hi) != da_norm(lo, mid) + da_norm(mid, hi):
        return "norm triangle equality"
    if da_norm(p, Point(p.x, p.y + 5)) != 0:
        return "norm degeneracy on singular segment"
    return None


def axiom_outcome(call, *args):
    """``call(*args)``'s verdict, or the type and message it raises."""
    try:
        return call(*args)
    except Exception as err:
        return type(err), str(err)


#: Coordinates from a small range, so that shared abscissae, coincident
#: points and collinear triples are common, or from ``bounded``.
axiom_coords = st.one_of(st.integers(-2, 2), bounded)


class TestAxiomSuite:
    @given(st.lists(axiom_coords, min_size=6, max_size=6),
           st.fractions(min_value=0, max_value=1).filter(lambda v: 0 < v < 1),
           st.fractions(min_value=0, max_value=50).filter(bool))
    def test_matches_fraction_chain(self, coords, c_param, k_scale):
        a, p, b = (Point(F(coords[i]), F(coords[i + 1])) for i in (0, 2, 4))
        want = axiom_outcome(fraction_chain_angle_axiom_checks, a, p, b,
                             c_param, k_scale)
        got = axiom_outcome(angle_axiom_checks, a, p, b, c_param, k_scale)
        if isinstance(want, tuple) and want[0] is TypeError:
            # A singular ray reaches the bisection step, outside the
            # documented domain: the chain added None, the lift reads
            # None's denominator, and both raise.
            assert isinstance(got, tuple) and got[0] is AttributeError
        else:
            assert got == want

    def test_hand_checked_configuration(self):
        # antisymmetry example: P=(1,-1), A=(0,0), B=(2,0); slopes -1 and 1
        assert angle_axiom_checks(pt(0, 0), pt(1, -1), pt(2, 0),
                                  F(3, 4), F(5)) is None

    def test_additivity_with_interior_point(self):
        # C=(3/2,0) between A=(0,0), B=(2,0); slope(PC)=2 from P=(1,-1):
        # angle(A,P,C) = 3, angle(C,P,B) = -1, total 2
        a, p, b = pt(0, 0), pt(1, -1), pt(2, 0)
        c = pt(F(3, 2), 0)
        assert difference_angle(a, p, c) == 3
        assert difference_angle(c, p, b) == -1
        assert difference_angle(a, p, b) == 2

    def test_scaling_by_five(self):
        assert difference_angle(pt(0, 0), pt(5, -5), pt(10, 0)) == 2

    def test_suite_clean_run(self):
        report = run_campaign(CampaignConfig("angle_axioms", 60, 7, 20))
        assert report.failures == 0
        assert report.first_counterexample is None

    def test_squared_norm_fails_the_suite(self, monkeypatch):
        # |dx|^2 is symmetric, nonnegative and 0 on singular segments; only
        # the triangle equality along the x-order tells it from da_norm.
        monkeypatch.setattr("dageo.gauge.da_norm",
                            lambda a, b: (b.x - a.x) ** 2)
        report = run_campaign(CampaignConfig("angle_axioms", 50, 42, 50))
        assert report.failures > 0
        assert report.first_counterexample["reason"] == \
            "norm triangle equality"
