from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dageo.errors import (DegenerateConfigurationError,
                          IrrationalIntersectionError)
from dageo.gauge import MeetResult, Point, difference_angle
from dageo.parabola import (Parabola, circumparabola, conparabolic,
                            inscribed_angle_check, iso_angle_locus,
                            opposite_angle_sum, parabola_meet,
                            parabolic_power, second_intersection, tangent_at,
                            tangents_from)
from dageo.scalar import det3

STD = Parabola(F(1), F(0), F(0))
small = st.fractions(min_value=-30, max_value=30, max_denominator=10)


def pt(x, y):
    return Point(F(x), F(y))


def lagrange_circumparabola(a, b, c):
    """Reference implementation: the Lagrange form of the interpolating
    parabola, kept to check the Newton-form kernel against."""
    denom = (b.x - a.x) * (c.x - b.x) * (c.x - a.x)
    kappa = (a.y * (c.x - b.x) + b.y * (a.x - c.x) + c.y * (b.x - a.x)) / denom
    beta = -(a.y * (c.x * c.x - b.x * b.x)
             + b.y * (a.x * a.x - c.x * c.x)
             + c.y * (b.x * b.x - a.x * a.x)) / denom
    gamma = (b.x * c.x * a.y * (c.x - b.x)
             + a.x * c.x * b.y * (a.x - c.x)
             + a.x * b.x * c.y * (b.x - a.x)) / denom
    return Parabola(kappa, beta, gamma)


class TestCircumparabola:
    def test_standard_points(self):
        p = circumparabola(pt(0, 0), pt(1, 1), pt(2, 4))
        assert (p.kappa, p.beta, p.gamma) == (1, 0, 0)

    def test_lagrange_coefficients(self):
        # checks 1+1=2 and 4+2=6: the curve is y = x^2 + x
        p = circumparabola(pt(0, 0), pt(1, 2), pt(2, 6))
        assert (p.kappa, p.beta, p.gamma) == (1, 1, 0)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            circumparabola(pt(0, 0), pt(1, 1), pt(2, 2))

    def test_shared_x_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            circumparabola(pt(0, 0), pt(0, 1), pt(2, 2))

    @given(small, small, small, small, small, small)
    def test_matches_lagrange_reference(self, x1, y1, x2, y2, x3, y3):
        pts = (Point(x1, y1), Point(x2, y2), Point(x3, y3))
        if len({x1, x2, x3}) < 3:
            return
        if det3(*((p.x, p.y, 1) for p in pts)) == 0:
            return
        assert circumparabola(*pts) == lagrange_circumparabola(*pts)

    @given(small, small, small, small, small)
    def test_collinear_triples_rejected(self, m, k, x1, x2, x3):
        if len({x1, x2, x3}) < 3:
            return
        line = [Point(x, m * x + k) for x in (x1, x2, x3)]
        with pytest.raises(DegenerateConfigurationError,
                           match="^collinear points: no circumparabola$"):
            circumparabola(*line)

    @given(small, small, small, small, small,
           st.permutations([0, 1, 2]))
    def test_shared_abscissa_rejected(self, x, x_other, y1, y2, y3, order):
        pts = [Point(x, y1), Point(x, y2), Point(x_other, y3)]
        with pytest.raises(DegenerateConfigurationError,
                           match="^shared x-coordinate: singular side$"):
            circumparabola(*(pts[i] for i in order))

    @given(small, small, small, small, small)
    def test_uniqueness_round_trip(self, kappa, beta, gamma, u, v):
        if kappa == 0:
            return
        curve = Parabola(kappa, beta, gamma)
        xs = sorted({u, v, u + v + 1, u + 1})[:3]
        if len(set(xs)) < 3:
            return
        again = circumparabola(*(curve.point_at(x) for x in xs))
        assert again == curve


class TestMembershipAndPower:
    def test_contains(self):
        assert STD.contains(pt(3, 9))
        assert not STD.contains(pt(3, 8))
        assert Parabola(F(2), F(-2), F(1)).contains(pt(F(1, 2), F(1, 2)))

    def test_power_secant_oracle(self):
        # P=(0,1): the horizontal secant hits x = +-1, product = -1
        assert parabolic_power(STD, pt(0, 1)) == -1

    def test_power_on_curve_is_zero(self):
        assert parabolic_power(STD, pt(5, 25)) == 0

    def test_power_general_curve(self):
        assert parabolic_power(Parabola(F(2), F(-3), F(2)), pt(0, 0)) == 1

    @given(small, small, small, small, small, small)
    def test_power_invariant_over_secants(self, kappa, beta, gamma, px, py,
                                          x1):
        if kappa == 0:
            return
        curve = Parabola(kappa, beta, gamma)
        p = Point(px, py)
        expected = parabolic_power(curve, p)
        for shift in (0, 1, 2):
            x = x1 + shift
            hit = curve.point_at(x)
            if hit == p or x == p.x:
                continue
            m = (hit.y - p.y) / (hit.x - p.x)
            x2 = (m - curve.beta) / curve.kappa - x
            assert (x - p.x) * (x2 - p.x) == expected


class TestIsoAngleLocus:
    def test_reference_example(self):
        locus = iso_angle_locus(pt(0, 0), pt(2, 0), F(2))
        assert (locus.kappa, locus.beta, locus.gamma) == (1, -2, 0)
        spot = locus.point_at(F(1))
        assert spot == pt(1, -1)
        assert difference_angle(pt(0, 0), spot, pt(2, 0)) == 2

    def test_sampled_abscissae(self):
        locus = iso_angle_locus(pt(0, 0), pt(2, 0), F(2))
        for x in (F(-1), F(1, 2), F(3)):
            p = locus.point_at(x)
            assert difference_angle(pt(0, 0), p, pt(2, 0)) == 2

    def test_mirror_angle(self):
        locus = iso_angle_locus(pt(0, 0), pt(2, 0), F(-2))
        assert (locus.kappa, locus.beta, locus.gamma) == (-1, 2, 0)

    def test_endpoints_on_locus(self):
        locus = iso_angle_locus(pt(0, 0), pt(2, 0), F(2))
        assert locus.contains(pt(0, 0)) and locus.contains(pt(2, 0))

    def test_zero_angle_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            iso_angle_locus(pt(0, 0), pt(2, 0), F(0))

    def test_off_axis_endpoint_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            iso_angle_locus(pt(0, 1), pt(2, 0), F(2))


class TestTangency:
    def test_tangent_at_unit(self):
        assert tangent_at(STD, F(1)).m == 2
        assert tangent_at(STD, F(1)).k == -1

    def test_vertex_tangent(self):
        line = tangent_at(STD, F(0))
        assert (line.m, line.k) == (0, 0)

    def test_tangent_general(self):
        line = tangent_at(Parabola(F(2), F(-2), F(1)), F(1))
        assert (line.m, line.k) == (2, -1)

    @given(small, small, small, small)
    def test_tangent_touches_once(self, kappa, beta, gamma, x0):
        if kappa == 0:
            return
        curve = Parabola(kappa, beta, gamma)
        line = tangent_at(curve, x0)
        # eliminant kappa x^2 + (beta-m) x + (gamma-k): double root at x0
        disc = (curve.beta - line.m) ** 2 - 4 * curve.kappa * (curve.gamma - line.k)
        assert disc == 0
        assert line.contains(curve.point_at(x0))

    def test_tangents_from_symmetric_point(self):
        poly = tangents_from(STD, pt(0, -1))
        assert poly.rational_roots() == [F(-1), F(1)]

    def test_tangents_from_vieta_sum(self):
        # contact-parameter sum is 2 x_P even when the roots are surds
        poly = tangents_from(STD, pt(1, -1))
        assert poly.c1 == -2  # monic, so root sum = 2
        assert poly.rational_roots() is None  # t^2 - 2t - 1

    def test_tangents_from_inside_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            tangents_from(STD, pt(0, 1))


class TestSecondIntersection:
    def test_through_origin(self):
        assert second_intersection(STD, pt(0, 0), F(3)) == pt(3, 9)

    def test_tangent_fixed_point(self):
        assert second_intersection(STD, pt(1, 1), F(2)) == pt(1, 1)

    def test_shifted_curve(self):
        curve = Parabola(F(1), F(1), F(0))
        assert second_intersection(curve, pt(0, 0), F(0)) == pt(-1, 0)

    def test_off_curve_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            second_intersection(STD, pt(0, 1), F(3))

    @given(small, small, small, small, small)
    def test_involution(self, kappa, beta, gamma, x, m):
        if kappa == 0:
            return
        curve = Parabola(kappa, beta, gamma)
        start = curve.point_at(x)
        once = second_intersection(curve, start, m)
        assert second_intersection(curve, once, m) == start


class TestParabolaMeet:
    def test_two_rational_points(self):
        other = Parabola(F(2), F(-3), F(2))
        hits = parabola_meet(STD, other)
        assert [h.point for h in hits] == [pt(1, 1), pt(2, 4)]

    def test_equal_kappa_linear(self):
        p1 = Parabola(F(2), F(0), F(0))
        p2 = Parabola(F(2), F(-2), F(1))
        hits = parabola_meet(p1, p2)
        assert hits[0] == MeetResult.at(pt(F(1, 2), F(1, 2)))
        assert hits[1] == MeetResult.ideal(None)

    def test_parallel_translates_empty(self):
        assert parabola_meet(STD, Parabola(F(1), F(0), F(1))) \
            == [MeetResult.empty()]

    def test_coincident(self):
        assert parabola_meet(STD, Parabola(F(1), F(0), F(0)))[0].kind \
            == MeetResult.COINCIDENT

    def test_irrational_reported(self):
        # eliminant x^2 = 2: the meets exist but are not rational
        with pytest.raises(IrrationalIntersectionError):
            parabola_meet(STD, Parabola(F(2), F(0), F(-2)))

    def test_known_common_routes_vieta(self):
        other = Parabola(F(2), F(-3), F(2))
        hits = parabola_meet(STD, other, known_common=pt(1, 1))
        assert hits[1] == MeetResult.at(pt(2, 4))
        assert STD.contains(hits[1].point) and other.contains(hits[1].point)


class TestCyclicPredicates:
    def test_inscribed_angle_reference(self):
        a, b = STD.point_at(F(0)), STD.point_at(F(1))
        c, d = STD.point_at(F(2)), STD.point_at(F(3))
        assert inscribed_angle_check(STD, a, b, c, d) == 0
        # both views equal kappa*(b-a) = 1
        assert difference_angle(a, c, b) == 1

    def test_opposite_angle_sum_on_curve(self):
        quad = [STD.point_at(F(i)) for i in (0, 1, 2, 3)]
        assert opposite_angle_sum(*quad) == 0

    def test_opposite_angle_parts(self):
        # theta_B = a - c = -2 and theta_D = c - a = 2 on the standard curve
        a, b, c, d = (STD.point_at(F(i)) for i in (0, 1, 2, 3))
        from dageo.gauge import slope_between
        assert slope_between(b, a) - slope_between(b, c) == -2
        assert slope_between(d, c) - slope_between(d, a) == 2

    def test_opposite_angle_sum_off_curve(self):
        quad = [pt(0, 0), pt(1, 1), pt(2, 4), pt(3, 8)]
        assert opposite_angle_sum(*quad) == F(-2, 3)

    def test_requires_x_order(self):
        with pytest.raises(DegenerateConfigurationError):
            opposite_angle_sum(pt(1, 1), pt(0, 0), pt(2, 4), pt(3, 9))

    @given(small, small, st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_sum_zero_iff_conparabolic(self, kappa, x0, g1, g2, g3):
        if kappa == 0:
            return
        curve = Parabola(kappa, F(1, 3), F(-2))
        xs = [x0, x0 + g1, x0 + g1 + g2, x0 + g1 + g2 + g3]
        quad = [curve.point_at(x) for x in xs]
        assert opposite_angle_sum(*quad) == 0
        bent = quad[:3] + [Point(quad[3].x, quad[3].y + 1)]
        assert opposite_angle_sum(*bent) != 0
        assert conparabolic(*quad)
        assert not conparabolic(*bent)
