"""Vertical-axis parabolas: circumscription, power, iso-angle loci,
tangency, chords and parabolic-cyclic predicates.

Everything here works over exact rationals.  Pairs of parabolas are only
intersected along rational routes: either the eliminant factors through a
known shared point (Vieta), or its discriminant happens to be a perfect
rational square.  Nothing is ever approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegenerateConfigurationError, IrrationalIntersectionError
from .gauge import Line, MeetResult, Point, difference_angle, slope_between
from .scalar import (QuadraticPoly, integer_quadratic_roots, lift_row,
                     lift_triple, ratio)


@dataclass(frozen=True)
class Parabola:
    """The curve y = kappa*x^2 + beta*x + gamma with kappa != 0.

    Its axis is parallel to the projective direction by construction, so in
    the normalized chart the axis is vertical.
    """

    kappa: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        # (K, B, G, S): the coefficients as integers over their lcm S,
        # lifted once; y_at, contains, chord_slope and second_intersection
        # read only this and their arguments' integers.
        (K, B, G), S = lift_triple((self.kappa, self.beta, self.gamma))
        if not K:
            raise DegenerateConfigurationError("kappa must be nonzero")
        object.__setattr__(self, "_lifted", (K, B, G, S))

    def y_at(self, x: Fraction) -> Fraction:
        K, B, G, S = self._lifted
        xn, xd = x.numerator, x.denominator
        return ratio((K * xn + B * xd) * xn + G * xd * xd, S * xd * xd)

    def residual(self, p: Point) -> Fraction:
        """``y_at(p.x) - p.y``: zero iff the curve passes through ``p``."""
        K, B, G, S = self._lifted
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        return ratio(((K * xn + B * xd) * xn + G * xd * xd) * yd
                     - yn * S * xd * xd, S * xd * xd * yd)

    def point_at(self, x: Fraction) -> Point:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return Point(x, self.y_at(x))

    def contains(self, p: Point) -> bool:
        # y == (K x^2 + B x + G) / S, cross-multiplied over x's integers.
        K, B, G, S = self._lifted
        xn, xd = p.x.numerator, p.x.denominator
        y = p.y
        return (y.numerator * S * xd * xd
                == ((K * xn + B * xd) * xn + G * xd * xd) * y.denominator)

    def chord_slope(self, u: Fraction, v: Fraction) -> Fraction:
        """Slope of the chord joining the curve points at x=u and x=v.
        For u == v this degenerates to the tangent slope."""
        # (K (u + v) + B) / S over u's and v's integers.
        K, B, _, S = self._lifted
        un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
        return ratio(K * (un * vd + vn * ud) + B * ud * vd, S * ud * vd)

    def __str__(self) -> str:
        return f"y = {self.kappa}*x^2 + {self.beta}*x + {self.gamma}"


def circumparabola(a: Point, b: Point, c: Point) -> Parabola:
    """The unique vertical-axis parabola through three points with pairwise
    distinct x-coordinates (the Lagrange form over a common denominator).

    Collinear triples have a vanishing quadratic coefficient and are
    rejected, as are shared x-coordinates (a singular side).
    """
    # Abscissae as integers X_i over a shared D, ordinates Y_i over E.
    # Written out rather than through scalar.lift_triple: the curve
    # campaigns run this often, and the two calls cost about 1 us of 5.
    x1, x2, x3 = a.x, b.x, c.x
    q1, q2, q3 = x1.denominator, x2.denominator, x3.denominator
    D = lcm(q1, q2, q3)
    X1 = x1.numerator * (D // q1)
    X2 = x2.numerator * (D // q2)
    X3 = x3.numerator * (D // q3)
    d21, d31, d32 = X2 - X1, X3 - X1, X3 - X2
    if not (d21 and d31 and d32):
        raise DegenerateConfigurationError("shared x-coordinate: singular side")
    y1, y2, y3 = a.y, b.y, c.y
    s1, s2, s3 = y1.denominator, y2.denominator, y3.denominator
    E = lcm(s1, s2, s3)
    # Y_i times the Vandermonde factor that its Lagrange basis term lacks.
    t1 = y1.numerator * (E // s1) * d32
    t2 = y2.numerator * (E // s2) * d31
    t3 = y3.numerator * (E // s3) * d21
    K = t1 - t2 + t3
    if K == 0:
        raise DegenerateConfigurationError("collinear points: no circumparabola")
    B = t2 * (X3 + X1) - t1 * (X3 + X2) - t3 * (X2 + X1)
    G = t1 * X2 * X3 - t2 * X1 * X3 + t3 * X1 * X2
    # kappa = K*D^2/(E*V), beta = B*D/(E*V), gamma = G/(E*V) with
    # V = d21*d31*d32.
    EV = E * d21 * d31 * d32
    return Parabola(ratio(K * D * D, EV), ratio(B * D, EV), ratio(G, EV))


def parabolic_power(p: Parabola, pt: Point) -> Fraction:
    """The secant invariant of ``pt`` with respect to ``p``.

    Every line through ``pt`` hitting the curve at x = alpha, beta gives the
    same product (alpha - x)(beta - x); it equals
    (kappa*x^2 + beta*x + gamma - y) / kappa and is 0 exactly on the curve.
    """
    # The stored coefficients (not the lift: the campaign compares this
    # with secants through points that point_at builds from the lift) as
    # K, B, G over one scale D, and the whole quotient times xd**2 * yd.
    K, B, G, D = lift_row((p.kappa, p.beta, p.gamma))
    xn, xd = pt.x.numerator, pt.x.denominator
    yn, yd = pt.y.numerator, pt.y.denominator
    xd2 = xd * xd
    return ratio(((K * xn + B * xd) * xn + G * xd2) * yd - D * yn * xd2,
                 K * xd2 * yd)


def iso_angle_locus(a: Point, b: Point, theta: Fraction) -> Parabola:
    """The parabola of points seeing the segment AB on the reference line
    under the constant difference angle ``theta``.

    Both endpoints must sit on the reference line (y = 0) with distinct x,
    and theta must be nonzero (theta = 0 degenerates to the line AB).
    The curve is kappa = theta/(b-a) times (x-a)(x-b); the endpoints
    themselves belong to the locus.
    """
    if a.y != 0 or b.y != 0:
        raise DegenerateConfigurationError("locus endpoints must lie on y = 0")
    if a.x == b.x:
        raise DegenerateConfigurationError("coincident endpoints")
    if not isinstance(theta, Fraction):
        theta = Fraction(theta)
    if theta == 0:
        raise DegenerateConfigurationError("zero angle degenerates to a line")
    # With a = A/L and b = B/L: kappa = theta L/(B - A), beta = -kappa (a + b)
    # and gamma = kappa a b, each one ratio.
    ad, bd = a.x.denominator, b.x.denominator
    A, B, L = a.x.numerator * bd, b.x.numerator * ad, ad * bd
    tn, w = theta.numerator, theta.denominator * (B - A)
    return Parabola(ratio(tn * L, w), ratio(-tn * (A + B), w),
                    ratio(tn * A * B, w * L))


def tangent_at(p: Parabola, x0: Fraction) -> Line:
    """Tangent line at the curve point over ``x0``; touches with a double
    root there."""
    x0 = Fraction(x0)
    return Line(2 * p.kappa * x0 + p.beta, p.gamma - p.kappa * x0 * x0)


def tangents_from(p: Parabola, pt: Point) -> QuadraticPoly:
    """Contact parameters of the two tangents through an external point,
    as a monic quadratic in the contact x-coordinate.

    The root sum is exactly 2*x_P, so the two tangent segments have equal
    norms even when the individual contact points are irrational.  Points
    on or inside the curve (power <= 0) are rejected.
    """
    if parabolic_power(p, pt) <= 0:
        raise DegenerateConfigurationError("point is on or inside the parabola")
    return QuadraticPoly(
        Fraction(1),
        -2 * pt.x,
        (pt.y - p.beta * pt.x - p.gamma) / p.kappa,
    )


def second_intersection(p: Parabola, pt: Point, m: Fraction) -> Point:
    """Other intersection of the slope-``m`` line through a curve point.

    By Vieta the companion abscissa is (m - beta)/kappa - x; when the line
    is tangent the companion is the point itself.
    """
    if not p.contains(pt):
        raise DegenerateConfigurationError("point is not on the parabola")
    if not isinstance(m, Fraction):
        m = Fraction(m)
    # (m - beta)/kappa - x is (m S - B)/K - x over m's and x's integers.
    K, B, _, S = p._lifted
    mn, md = m.numerator, m.denominator
    xn, xd = pt.x.numerator, pt.x.denominator
    return p.point_at(ratio((mn * S - B * md) * xd - xn * K * md, K * md * xd))


def parabola_meet(p1: Parabola, p2: Parabola) -> list[MeetResult]:
    """Intersection of two vertical-axis parabolas.

    Distinct quadratic coefficients give a quadratic eliminant whose roots
    are produced only when its discriminant is a perfect rational square
    (otherwise :class:`IrrationalIntersectionError`); use
    :func:`second_meet` when a shared point is known.  Equal coefficients
    give at most one finite meet, and the second Miquel-style intersection
    is the ideal point of the common axis direction.
    """
    c2, c1, c0, _ = _eliminant_lift(p1, p2)
    if not (c2 or c1 or c0):
        return [MeetResult.coincident()]
    if not c2:
        # Same kappa: translates of one another.
        if not c1:
            return [MeetResult.empty()]
        return [MeetResult.at(p1.point_at(ratio(-c0, c1))),
                MeetResult.ideal(None)]
    roots = integer_quadratic_roots(c2, c1, c0)
    if roots is None:
        raise IrrationalIntersectionError(
            "parabolas meet at irrational abscissae")
    if not roots:
        return [MeetResult.empty()]
    return [MeetResult.at(p1.point_at(x)) for x in roots]


def _eliminant_lift(p1: Parabola,
                    p2: Parabola) -> tuple[int, int, int, int]:
    """The eliminant ``p1 - p2`` times ``S = S1*S2``, read from the two
    lifts: integer coefficients with the same roots, as
    ``(c2, c1, c0, S)``."""
    K1, B1, G1, S1 = p1._lifted
    K2, B2, G2, S2 = p2._lifted
    return (K1 * S2 - K2 * S1, B1 * S2 - B2 * S1, G1 * S2 - G2 * S1,
            S1 * S2)


def second_meet(p1: Parabola, p2: Parabola, shared: Point) -> MeetResult:
    """Companion intersection of two parabolas through their shared point,
    by Vieta on the eliminant; ideal when the quadratic coefficients
    agree."""
    c2, c1, c0, scale = _eliminant_lift(p1, p2)
    if not (c2 or c1 or c0):
        raise DegenerateConfigurationError("coincident circumparabolas")
    if not c2:
        return MeetResult.ideal(None)
    x = shared.x
    xn, xd = x.numerator, x.denominator
    residual = (c2 * xn + c1 * xd) * xn + c0 * xd * xd
    if residual:
        raise ValueError(f"{x} is not a root (residual "
                         f"{ratio(residual, scale * xd * xd)})")
    # The roots sum to -c1/c2, so the companion is -(c1*xd + c2*xn)/(c2*xd).
    n2 = -(c1 * xd + c2 * xn)
    if n2 == c2 * xn:
        raise DegenerateConfigurationError(
            "circumparabolas tangent at the shared point")
    return MeetResult.at(p1.point_at(ratio(n2, c2 * xd)))


def inscribed_angle_check(p: Parabola, a: Point, b: Point, c: Point,
                          d: Point) -> Fraction:
    """Residual of the inscribed-angle constancy: the chord AB seen from C
    and from D subtends the same difference angle, so the residual is 0.

    All four points must lie on ``p``; the viewing points must avoid the
    chord endpoints (C = D is allowed and trivially gives 0).
    """
    for pt in (a, b, c, d):
        if not p.contains(pt):
            raise DegenerateConfigurationError("point off the parabola")
    if c in (a, b) or d in (a, b):
        raise DegenerateConfigurationError("viewing point on the chord")
    return difference_angle(a, c, b) - difference_angle(a, d, b)


def opposite_angle_sum(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    """Sum of the two opposite interior angles (at B and at D) of the
    quadrilateral ABCD with x_A < x_B < x_C < x_D.

    The sum vanishes iff the four points lie on one vertical-axis parabola;
    the equivalence is asserted for this vertex ordering only.
    """
    if not (a.x < b.x < c.x < d.x):
        raise DegenerateConfigurationError(
            "opposite_angle_sum requires strictly increasing x-order")
    theta_b = slope_between(b, a) - slope_between(b, c)
    theta_d = slope_between(d, c) - slope_between(d, a)
    return theta_b + theta_d


def conparabolic(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether four points (pairwise distinct x) lie on one vertical-axis
    parabola."""
    try:
        par = circumparabola(a, b, c)
    except DegenerateConfigurationError:
        if len({a.x, b.x, c.x}) < 3:
            raise
        return False  # kappa == 0: A, B, C are collinear
    return par.contains(d)
