import copy
import pickle
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (bounded, fraction_chain_other_root,
                      fraction_chain_rational_roots)
from dageo import parabola
from dageo.errors import (DegenerateConfigurationError,
                          IrrationalIntersectionError)
from dageo.gauge import MeetResult, Point, difference_angle
from dageo.parabola import (Parabola, circumparabola, conparabolic,
                            inscribed_angle_check, iso_angle_locus,
                            opposite_angle_sum, parabola_meet,
                            parabolic_power, second_intersection, second_meet,
                            tangent_at, tangents_from)
from dageo.scalar import QuadraticPoly, det3

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


def fraction_chain_y_at(p, x):
    # Reference: the Horner chain that the integer-lift y_at replaced.
    return (F(p.kappa) * x + p.beta) * x + p.gamma


def outcome(call, *args):
    """``call(*args)``'s value, or the type and message it raises."""
    try:
        return call(*args)
    except ValueError as err:  # the kernel's errors subclass ValueError
        return type(err), str(err)


class TestMembershipAndPower:
    @given(bounded, bounded, bounded, bounded)
    def test_y_at_matches_fraction_chain(self, kappa, beta, gamma, x):
        assume(kappa != 0)
        curve = Parabola(kappa, beta, gamma)
        y = curve.y_at(x)
        assert type(y) is F
        assert y == fraction_chain_y_at(curve, x)
        assert curve.point_at(x) == Point(F(x), y)
        assert curve.contains(Point(x, y))
        assert not curve.contains(Point(x, y + 1))

    @given(bounded, bounded, bounded, bounded, bounded)
    def test_contains_matches_fraction_chain(self, kappa, beta, gamma, x, y):
        assume(kappa != 0)
        curve = Parabola(kappa, beta, gamma)
        on_y = fraction_chain_y_at(curve, x)
        assert curve.contains(Point(x, on_y))
        assert not curve.contains(Point(x, on_y + F(1, 97)))
        assert curve.contains(Point(x, y)) == (y == on_y)

    @given(bounded, bounded, bounded, bounded, bounded)
    def test_chord_slope_matches_fraction_chain(self, kappa, beta, gamma, u,
                                                v):
        assume(kappa != 0)
        got = Parabola(kappa, beta, gamma).chord_slope(u, v)
        assert type(got) is F
        assert got == F(kappa) * (u + v) + beta

    def test_point_at_keeps_a_fraction_and_lifts_an_int(self):
        x = F(-7, 3)
        assert STD.point_at(x).x == x
        p = STD.point_at(4)
        assert p == Point(F(4), F(16))
        assert (type(p.x), type(p.y)) == (F, F)

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

    @given(bounded, bounded, bounded, bounded, bounded)
    def test_power_matches_fraction_chain(self, kappa, beta, gamma, x, y):
        assume(kappa != 0)
        got = parabolic_power(Parabola(kappa, beta, gamma), Point(x, y))
        assert type(got) is F
        assert got == (F(kappa) * x * x + beta * x + gamma - y) / kappa

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


def fraction_chain_iso_angle_locus(a, b, theta):
    """The locus's coefficients as built before the integer lift."""
    if a.y != 0 or b.y != 0:
        raise DegenerateConfigurationError("locus endpoints must lie on y = 0")
    if a.x == b.x:
        raise DegenerateConfigurationError("coincident endpoints")
    theta = F(theta)
    if theta == 0:
        raise DegenerateConfigurationError("zero angle degenerates to a line")
    kappa = theta / (F(b.x) - a.x)
    return kappa, -kappa * (F(a.x) + b.x), kappa * a.x * b.x


class TestIsoAngleLocus:
    @given(bounded, bounded, bounded, st.sampled_from([0, 0, 0, 1]),
           st.booleans())
    def test_matches_fraction_chain(self, ax, bx, theta, ay, coincident):
        a, b = Point(ax, ay), Point(ax if coincident else bx, 0)
        got = outcome(iso_angle_locus, a, b, theta)
        if isinstance(got, Parabola):
            got = (got.kappa, got.beta, got.gamma)
            assert [type(c) for c in got] == [F, F, F]
        assert got == outcome(fraction_chain_iso_angle_locus, a, b, theta)

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

    @given(bounded, bounded, bounded, bounded, bounded)
    def test_matches_fraction_chain(self, kappa, beta, gamma, x, m):
        assume(kappa != 0)
        curve = Parabola(kappa, beta, gamma)
        got = second_intersection(curve, curve.point_at(x), m)
        x2 = (F(m) - curve.beta) / curve.kappa - x
        assert got == Point(x2, fraction_chain_y_at(curve, x2))
        assert (type(got.x), type(got.y)) == (F, F)

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

    def test_int_coefficients_stay_exact(self):
        # The equal-kappa branch used to divide plain ints into a float.
        hits = parabola_meet(Parabola(1, 0, 0), Parabola(1, 3, -1))
        assert hits == [MeetResult.at(pt(F(1, 3), F(1, 9))),
                        MeetResult.ideal(None)]
        assert (type(hits[0].point.x), type(hits[0].point.y)) == (F, F)

    @given(st.sampled_from(["free", "two", "double", "translate",
                            "coincident"]),
           bounded, bounded, bounded, bounded, bounded, bounded)
    @example("two", 1, 0, 0, 1, 2, 1)
    @example("translate", 1, 0, 0, 3, -1, 0)
    @example("free", 1, 0, 0, 0, 2, -2)
    def test_matches_fraction_chain(self, kind, kappa, beta, gamma, u, v, c):
        # p2 is p1 + c (x - u)(x - v) ("two"; "double" takes v = u), a
        # translate of p1, p1 itself, or a free curve (kappa u + 1).
        assume(kappa != 0)
        p1 = Parabola(kappa, beta, gamma)
        if kind in ("two", "double"):
            v = u if kind == "double" else v
            assume(c != 0 and kappa + c != 0)
            p2 = Parabola(F(kappa) + c, F(beta) - c * (u + v),
                          F(gamma) + c * u * v)
        elif kind == "translate":
            p2 = Parabola(kappa, F(beta) + u, F(gamma) + v)
        elif kind == "coincident":
            p2 = Parabola(F(kappa), F(beta), F(gamma))
        else:
            assume(u != 0)
            p2 = Parabola(u, v, c)
        got = outcome(parabola_meet, p1, p2)
        assert got == outcome(fraction_chain_parabola_meet, p1, p2)
        for hit in got if isinstance(got, list) else ():
            if hit.is_finite:
                assert (type(hit.point.x), type(hit.point.y)) == (F, F)

    def test_known_common_routes_vieta(self):
        other = Parabola(F(2), F(-3), F(2))
        hit = second_meet(STD, other, pt(1, 1))
        assert hit == MeetResult.at(pt(2, 4))
        assert STD.contains(hit.point) and other.contains(hit.point)


def fraction_chain_eliminant(p1, p2):
    """The difference polynomial of two curves in Fraction arithmetic."""
    return QuadraticPoly(F(p1.kappa) - p2.kappa, F(p1.beta) - p2.beta,
                         F(p1.gamma) - p2.gamma)


def fraction_chain_parabola_meet(p1, p2):
    # Reference: parabola_meet on the Fraction eliminant.
    if p1 == p2:
        return [MeetResult.coincident()]
    q = fraction_chain_eliminant(p1, p2)
    if q.c2 == 0:
        if q.c1 == 0:
            return [MeetResult.empty()]
        return [MeetResult.at(p1.point_at(-q.c0 / q.c1)),
                MeetResult.ideal(None)]
    roots = fraction_chain_rational_roots(q)
    if roots is None:
        raise IrrationalIntersectionError(
            "parabolas meet at irrational abscissae")
    if not roots:
        return [MeetResult.empty()]
    return [MeetResult.at(p1.point_at(x)) for x in roots]


def fraction_chain_second_meet(p1, p2, shared):
    # Reference: second_meet as Vieta on the Fraction eliminant.
    if p1 == p2:
        raise DegenerateConfigurationError("coincident circumparabolas")
    q = fraction_chain_eliminant(p1, p2)
    if q.c2 == 0:
        return MeetResult.ideal(None)
    return MeetResult.at(p1.point_at(fraction_chain_other_root(q, shared.x)))


class TestSecondMeet:
    @given(st.sampled_from(["finite", "ideal", "coincident", "tangent",
                            "stray"]),
           bounded, bounded, bounded, bounded, bounded, bounded, bounded)
    @example("finite", 1, 0, 0, 1, 2, -3, 0)
    @example("ideal", 1, 0, 0, 1, 5, 1, 0)
    @example("coincident", F(3, 2), F(-1, 3), 7, F(2, 5), 1, 0, 0)
    @example("tangent", 1, 0, 0, 1, 2, 0, 0)
    @example("stray", 1, 0, 0, 3, 2, -3, 2)
    def test_matches_fraction_chain(self, kind, k1, b1, g1, x, k2, b2, g2):
        # p2 passes through p1's point over x (except "stray", whose p2 is
        # drawn freely), with its own kappa ("finite"), p1's kappa
        # ("ideal"), p1 itself ("coincident") or p1's tangent there
        # ("tangent").
        assume(k1 != 0 and k2 != 0)
        p1 = Parabola(k1, b1, g1)
        shared = p1.point_at(x)
        if kind == "ideal":
            k2 = k1
        elif kind == "coincident":
            k2, b2 = k1, b1
        elif kind == "tangent":
            assume(k2 != k1)
            b2 = b1 + 2 * (k1 - k2) * x
        if kind != "stray":
            g2 = shared.y - (k2 * x + b2) * x
        p2 = Parabola(k2, b2, g2)
        got = outcome(second_meet, p1, p2, shared)
        assert got == outcome(fraction_chain_second_meet, p1, p2, shared)
        if isinstance(got, MeetResult) and got.is_finite:
            assert (type(got.point.x), type(got.point.y)) == (F, F)

    def test_coincident_curves_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="coincident"):
            second_meet(STD, Parabola(F(1), F(0), F(0)), pt(1, 1))

    def test_equal_kappa_is_ideal(self):
        # y = x^2 and y = x^2 + x - 1 share (1, 1); the companion is ideal
        assert second_meet(STD, Parabola(F(1), F(1), F(-1)), pt(1, 1)) \
            == MeetResult.ideal(None)

    def test_tangency_at_shared_point_gives_the_shared_point(self):
        # y = 2x^2 - 2x + 1 touches y = x^2 at (1, 1): the double root
        # x = 1 is its own companion
        assert second_meet(STD, Parabola(F(2), F(-2), F(1)), pt(1, 1)) \
            == MeetResult.at(pt(1, 1))

    def test_shared_point_must_be_common(self):
        # The abscissa, then the eliminant p1 - p2 at it, reduced.
        with pytest.raises(ValueError) as err:
            second_meet(STD, Parabola(F(2), F(-3), F(2)), pt(3, 9))
        assert str(err.value) == "3 is not a root (residual -2)"
        p1 = Parabola(F(1, 2), F(1, 3), F(0))
        with pytest.raises(ValueError) as err:
            second_meet(p1, Parabola(F(-2, 5), F(1), F(1, 7)),
                        p1.point_at(F(3, 4)))
        assert str(err.value) == "3/4 is not a root (residual -153/1120)"


def fraction_chain_inscribed_angle(p, a, b, c, d, angle=difference_angle):
    for pt_ in (a, b, c, d):
        if not p.contains(pt_):
            raise DegenerateConfigurationError("point off the parabola")
    if c in (a, b) or d in (a, b):
        raise DegenerateConfigurationError("viewing point on the chord")
    return angle(a, c, b) - angle(a, d, b)


class TestCyclicPredicates:
    @given(bounded.filter(bool), bounded, bounded,
           st.lists(bounded, min_size=4, max_size=4), bounded,
           st.integers(0, 4), bounded)
    def test_inscribed_angle_matches_fraction_chain(self, kappa, beta, gamma,
                                                    xs, lift, slot, bump):
        # slot < 4 lifts that point by ``lift``, off the curve unless 0;
        # repeated abscissae put a viewing point on the chord.  On the
        # curve both views agree, so the angle seen from D is bumped to
        # make the residual nonzero.
        curve = Parabola(kappa, beta, gamma)
        pts = [curve.point_at(x) for x in xs]
        if slot < 4:
            pts[slot] = Point(pts[slot].x, pts[slot].y + lift)

        def bumped(a, p, b):
            angle = difference_angle(a, p, b)
            return angle + bump if p is pts[3] else angle

        def bumped_terms(a, p, b):
            angle = bumped(a, p, b)
            return angle.numerator, angle.denominator

        with mock.patch.object(parabola, "_angle_terms", bumped_terms):
            got = outcome(inscribed_angle_check, curve, *pts)
        want = outcome(fraction_chain_inscribed_angle, curve, *pts, bumped)
        assert got == want
        if not isinstance(got, tuple):
            assert type(got) is F

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

    def test_conparabolic_rejects_collinear_triple(self):
        assert not conparabolic(pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3))
        assert not conparabolic(pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 9))

    @pytest.mark.parametrize("quad", [
        (pt(0, 0), pt(0, 1), pt(2, 4), pt(3, 9)),
        (pt(0, 0), pt(1, 1), pt(1, 1), pt(3, 9)),
        (pt(2, 0), pt(2, 1), pt(2, 2), pt(3, 9)),
    ])
    def test_conparabolic_shared_abscissa_raises(self, quad):
        with pytest.raises(DegenerateConfigurationError,
                           match="^shared x-coordinate: singular side$"):
            conparabolic(*quad)


nonzero_bounded = bounded.filter(lambda v: v != 0)


class TestParabolaContract:
    """``Parabola`` against the ``(kappa, beta, gamma)`` model, with int
    arguments among them: the public fields, equality, hash, repr and str,
    immutability, and the copies that ``copy`` and ``pickle`` make."""

    curves = [STD, Parabola(F(-3, 7), F(2), F(-5)), Parabola(2, 0, -1),
              Parabola(F(5, 6), F(-1, 4), 3),
              circumparabola(pt(-1, 2), pt(F(1, 3), 0), pt(4, F(7, 2)))]

    @given(nonzero_bounded, bounded, bounded)
    def test_fields_match_the_model(self, kappa, beta, gamma):
        curve = Parabola(kappa, beta, gamma)
        assert (curve.kappa, curve.beta, curve.gamma) == (kappa, beta, gamma)
        assert [type(v) for v in (curve.kappa, curve.beta, curve.gamma)] \
            == [type(v) for v in (kappa, beta, gamma)]
        x = F(3, 7)
        assert curve.y_at(x) == kappa * x * x + beta * x + gamma

    @given(st.lists(st.tuples(nonzero_bounded, bounded, bounded),
                    min_size=2, max_size=2))
    def test_equality_and_hash_match_the_model(self, specs):
        (k1, b1, g1), (k2, b2, g2) = specs
        c1, c2 = Parabola(k1, b1, g1), Parabola(k2, b2, g2)
        model1, model2 = (F(k1), F(b1), F(g1)), (F(k2), F(b2), F(g2))
        assert (c1 == c2) == (model1 == model2)
        assert (c1 != c2) == (model1 != model2)
        if c1 == c2:
            assert hash(c1) == hash(c2)
        assert len({c1, c2}) == len({model1, model2})

    def test_int_and_fraction_arguments_are_one_curve(self):
        assert Parabola(2, 0, -1) == Parabola(F(2), F(0), F(-1))
        assert hash(Parabola(2, 0, -1)) == hash(Parabola(F(2), F(0), F(-1)))

    @given(small, small, small, small, small, small)
    def test_circumparabola_equals_its_coefficients(self, x1, y1, x2, y2, x3,
                                                    y3):
        try:
            curve = circumparabola(Point(x1, y1), Point(x2, y2),
                                   Point(x3, y3))
        except DegenerateConfigurationError:
            assume(False)
        coefficients = (curve.kappa, curve.beta, curve.gamma)
        assert all(type(v) is F for v in coefficients)
        twin = Parabola(*coefficients)
        assert twin == curve and hash(twin) == hash(curve)
        assert repr(twin) == repr(curve)

    def test_zero_kappa_rejected(self):
        with pytest.raises(DegenerateConfigurationError,
                           match="^kappa must be nonzero$"):
            Parabola(F(0), F(1), F(2))

    def test_repr_and_str(self):
        assert repr(Parabola(F(3, 2), F(0), F(-1, 3))) == (
            "Parabola(kappa=Fraction(3, 2), beta=Fraction(0, 1), "
            "gamma=Fraction(-1, 3))")
        assert repr(Parabola(1, 0, 0)) == "Parabola(kappa=1, beta=0, gamma=0)"
        assert repr(circumparabola(pt(0, 0), pt(1, 1), pt(2, 4))) == (
            "Parabola(kappa=Fraction(1, 1), beta=Fraction(0, 1), "
            "gamma=Fraction(0, 1))")
        assert str(Parabola(F(3, 2), F(0), F(-1, 3))) \
            == "y = 3/2*x^2 + 0*x + -1/3"
        assert str(iso_angle_locus(pt(-1, 0), pt(2, 0), F(3))) \
            == "y = 1*x^2 + -1*x + -2"

    def test_immutable(self):
        curve = Parabola(F(1), F(2), F(3))
        for name in ("kappa", "beta", "gamma"):
            with pytest.raises(AttributeError):
                setattr(curve, name, F(5))
        assert curve == Parabola(F(1), F(2), F(3))

    def test_not_equal_to_other_types(self):
        assert Parabola(F(1), F(2), F(3)) != (F(1), F(2), F(3))
        assert STD != "y = 1*x^2 + 0*x + 0"

    @pytest.mark.parametrize("copier", ["deepcopy", "copy", "pickle"])
    def test_copies_round_trip(self, copier):
        for curve in self.curves:
            if copier == "pickle":
                twin = pickle.loads(pickle.dumps(curve))
            else:
                twin = getattr(copy, copier)(curve)
            assert twin == curve and hash(twin) == hash(curve)
            assert repr(twin) == repr(curve) and str(twin) == str(curve)
            p = twin.point_at(F(7, 3))
            assert curve.contains(p) and twin.contains(p)
