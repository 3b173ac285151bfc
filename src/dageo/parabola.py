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

from .errors import DegenerateConfigurationError, IrrationalIntersectionError
from .gauge import Line, MeetResult, Point, difference_angle, slope_between
from .scalar import QuadraticPoly, det3, other_root


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
        if self.kappa == 0:
            raise DegenerateConfigurationError("kappa must be nonzero")

    def y_at(self, x: Fraction) -> Fraction:
        return (self.kappa * x + self.beta) * x + self.gamma

    def point_at(self, x: Fraction) -> Point:
        x = Fraction(x)
        return Point(x, self.y_at(x))

    def contains(self, p: Point) -> bool:
        return p.y == self.y_at(p.x)

    def chord_slope(self, u: Fraction, v: Fraction) -> Fraction:
        """Slope of the chord joining the curve points at x=u and x=v.
        For u == v this degenerates to the tangent slope."""
        return self.kappa * (u + v) + self.beta

    def __str__(self) -> str:
        return f"y = {self.kappa}*x^2 + {self.beta}*x + {self.gamma}"


def circumparabola(a: Point, b: Point, c: Point) -> Parabola:
    """The unique vertical-axis parabola through three points with pairwise
    distinct x-coordinates (Newton divided differences).

    Collinear triples have a vanishing quadratic coefficient and are
    rejected, as are shared x-coordinates (a singular side).
    """
    if a.x == b.x or b.x == c.x or a.x == c.x:
        raise DegenerateConfigurationError("shared x-coordinate: singular side")
    d_ab = (b.y - a.y) / (b.x - a.x)
    d_bc = (c.y - b.y) / (c.x - b.x)
    kappa = (d_bc - d_ab) / (c.x - a.x)
    if kappa == 0:
        raise DegenerateConfigurationError("collinear points: no circumparabola")
    # y = a.y + d_ab*(x - a.x) + kappa*(x - a.x)*(x - b.x), expanded.
    beta = d_ab - kappa * (a.x + b.x)
    gamma = a.y - a.x * (d_ab - kappa * b.x)
    return Parabola(kappa, beta, gamma)


def contains(p: Parabola, pt: Point) -> bool:
    return p.contains(pt)


def parabolic_power(p: Parabola, pt: Point) -> Fraction:
    """The secant invariant of ``pt`` with respect to ``p``.

    Every line through ``pt`` hitting the curve at x = alpha, beta gives the
    same product (alpha - x)(beta - x); it equals
    (kappa*x^2 + beta*x + gamma - y) / kappa and is 0 exactly on the curve.
    """
    return (p.y_at(pt.x) - pt.y) / p.kappa


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
    theta = Fraction(theta)
    if theta == 0:
        raise DegenerateConfigurationError("zero angle degenerates to a line")
    kappa = theta / (b.x - a.x)
    return Parabola(kappa, -kappa * (a.x + b.x), kappa * a.x * b.x)


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
    x2 = (Fraction(m) - p.beta) / p.kappa - pt.x
    return p.point_at(x2)


def eliminant(p1: Parabola, p2: Parabola) -> QuadraticPoly:
    """Difference polynomial whose roots are the common abscissae."""
    return QuadraticPoly(p1.kappa - p2.kappa, p1.beta - p2.beta,
                         p1.gamma - p2.gamma)


def parabola_meet(p1: Parabola, p2: Parabola,
                  known_common: Point | None = None) -> list[MeetResult]:
    """Intersection of two vertical-axis parabolas.

    Distinct quadratic coefficients give a quadratic eliminant: with a known
    shared point the second meet comes from Vieta; without one, roots are
    produced only when the discriminant is a perfect rational square
    (otherwise :class:`IrrationalIntersectionError`).  Equal coefficients
    give at most one finite meet, and the second Miquel-style intersection
    is the ideal point of the common axis direction.
    """
    if p1 == p2:
        return [MeetResult.coincident()]
    q = eliminant(p1, p2)
    if q.c2 == 0:
        # Same kappa: translates of one another.
        if q.c1 == 0:
            return [MeetResult.empty()]
        x = -q.c0 / q.c1
        return [MeetResult.at(p1.point_at(x)), MeetResult.ideal(None)]
    if known_common is not None:
        if not (p1.contains(known_common) and p2.contains(known_common)):
            raise DegenerateConfigurationError(
                "known_common is not on both parabolas")
        x2 = other_root(q, known_common.x)
        return [MeetResult.at(known_common), MeetResult.at(p1.point_at(x2))]
    roots = q.rational_roots()
    if roots is None:
        raise IrrationalIntersectionError(
            "parabolas meet at irrational abscissae")
    if not roots:
        return [MeetResult.empty()]
    return [MeetResult.at(p1.point_at(x)) for x in roots]


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
    if det3((a.x, a.y, 1), (b.x, b.y, 1), (c.x, c.y, 1)) == 0:
        return False
    return circumparabola(a, b, c).contains(d)
