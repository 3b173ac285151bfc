"""Vertical-axis parabolas: circumscription, power, iso-angle loci,
tangency, chords and parabolic-cyclic predicates.

Everything here works over exact rationals.  Pairs of parabolas are only
intersected along rational routes: either the eliminant factors through a
known shared point (Vieta), or its discriminant happens to be a perfect
rational square.  Nothing is ever approximated.

A :class:`Parabola` is the primitive integer quadruple ``(K, B, G, S)`` of
S*y = K*x^2 + B*x + G, as a ``gauge.Line`` is an integer triple; the
constructions that compute integers (``circumparabola`` and the triangle
curve, ``iso_angle_locus``) store theirs through ``_parabola`` without
building a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateConfigurationError, IrrationalIntersectionError
from .gauge import Line, MeetResult, Point, _slope_terms, difference_angle
from .scalar import (QuadraticPoly, integer_quadratic_roots, lift_triple,
                     over_common_denominator, ratio)


class Parabola:
    """The curve y = kappa*x^2 + beta*x + gamma with kappa != 0.

    Its axis is parallel to the projective direction by construction, so in
    the normalized chart the axis is vertical.  In homogeneous integers it
    is Y*Z = kappa*X^2 + beta*X*Z + gamma*Z^2, stored as the primitive
    quadruple ``_lifted = (K, B, G, S)``: kappa = K/S, beta = B/S and
    gamma = G/S with S > 0 and gcd(K, B, G, S) = 1, one quadruple per
    curve, which equality and hash compare.  It is the lift of the three
    coefficients over their lcm S: that S is a common denominator, and if
    a prime p divided K, B, G and S then S/p would be a smaller one.
    ``y_at``, ``contains``, ``chord_slope`` and the meets read only the
    quadruple.  ``kappa``, ``beta`` and ``gamma`` return the constructor's
    arguments, ints included; a curve built from integers builds them as
    Fractions on first read and keeps them.
    """

    __slots__ = ("_lifted", "_kappa", "_beta", "_gamma")

    def __new__(cls, kappa: Fraction, beta: Fraction, gamma: Fraction):
        (K, B, G), S = lift_triple((kappa, beta, gamma))
        return _parabola(K, B, G, S, kappa, beta, gamma)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Parabola.{name}")

    def __reduce__(self):
        return Parabola, (self.kappa, self.beta, self.gamma)

    def __eq__(self, other):
        if not isinstance(other, Parabola):
            return NotImplemented
        return self._lifted == other._lifted

    def __hash__(self) -> int:
        return hash(self._lifted)

    @property
    def kappa(self) -> Fraction:
        if self._kappa is None:
            _set_kappa(self, ratio(self._lifted[0], self._lifted[3]))
        return self._kappa

    @property
    def beta(self) -> Fraction:
        if self._beta is None:
            _set_beta(self, ratio(self._lifted[1], self._lifted[3]))
        return self._beta

    @property
    def gamma(self) -> Fraction:
        if self._gamma is None:
            _set_gamma(self, ratio(self._lifted[2], self._lifted[3]))
        return self._gamma

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

    def __repr__(self) -> str:
        return (f"Parabola(kappa={self.kappa!r}, beta={self.beta!r}, "
                f"gamma={self.gamma!r})")

    def __str__(self) -> str:
        return f"y = {self.kappa}*x^2 + {self.beta}*x + {self.gamma}"


_set_lifted = Parabola._lifted.__set__
_set_kappa = Parabola._kappa.__set__
_set_beta = Parabola._beta.__set__
_set_gamma = Parabola._gamma.__set__


def _parabola(K: int, B: int, G: int, S: int, kappa=None, beta=None,
              gamma=None) -> Parabola:
    """The curve y = (K*x^2 + B*x + G)/S, ``S != 0``, reduced by the gcd
    and signed as :class:`Parabola` stores it; ``kappa``, ``beta`` and
    ``gamma``, when given, are the values the public constructor keeps."""
    if not K:
        raise DegenerateConfigurationError("kappa must be nonzero")
    g = gcd(K, B, G, S)
    if S < 0:
        g = -g
    curve = object.__new__(Parabola)
    _set_lifted(curve, (K // g, B // g, G // g, S // g))
    _set_kappa(curve, kappa)
    _set_beta(curve, beta)
    _set_gamma(curve, gamma)
    return curve


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
    y1, y2, y3 = a.y, b.y, c.y
    s1, s2, s3 = y1.denominator, y2.denominator, y3.denominator
    E = lcm(s1, s2, s3)
    return _parabola_through(
        x1.numerator * (D // q1), x2.numerator * (D // q2),
        x3.numerator * (D // q3), D, y1.numerator * (E // s1),
        y2.numerator * (E // s2), y3.numerator * (E // s3), E)


def _parabola_through(X1: int, X2: int, X3: int, D: int,
                      Y1: int, Y2: int, Y3: int, E: int) -> Parabola:
    """:func:`circumparabola` of the points ``(X_i/D, Y_i/E)``, from their
    integers; ``DATriangle`` builds its curve here from its own lift."""
    d21, d31, d32 = X2 - X1, X3 - X1, X3 - X2
    if not (d21 and d31 and d32):
        raise DegenerateConfigurationError("shared x-coordinate: singular side")
    # Y_i times the Vandermonde factor that its Lagrange basis term lacks.
    t1, t2, t3 = Y1 * d32, Y2 * d31, Y3 * d21
    K = t1 - t2 + t3
    if K == 0:
        raise DegenerateConfigurationError("collinear points: no circumparabola")
    B = t2 * (X3 + X1) - t1 * (X3 + X2) - t3 * (X2 + X1)
    G = t1 * X2 * X3 - t2 * X1 * X3 + t3 * X1 * X2
    # kappa = K*D^2/(E*V), beta = B*D/(E*V), gamma = G/(E*V) with
    # V = d21*d31*d32.
    return _parabola(K * D * D, B * D, G, E * d21 * d31 * d32)


def parabolic_power(p: Parabola, pt: Point) -> Fraction:
    """The secant invariant of ``pt`` with respect to ``p``.

    Every line through ``pt`` hitting the curve at x = alpha, beta gives the
    same product (alpha - x)(beta - x); it equals
    (kappa*x^2 + beta*x + gamma - y) / kappa and is 0 exactly on the curve.
    """
    # The public coefficients over their lcm D (not the stored quadruple:
    # the campaign compares this with secants through points that point_at
    # builds from the quadruple), and the whole quotient times xd**2 * yd.
    (K, B, G), D = lift_triple((p.kappa, p.beta, p.gamma))
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
    # and gamma = kappa a b, all over w L.
    ad, bd = a.x.denominator, b.x.denominator
    A, B, L = a.x.numerator * bd, b.x.numerator * ad, ad * bd
    tn, w = theta.numerator, theta.denominator * (B - A)
    return _parabola(tn * L * L, -tn * (A + B) * L, tn * A * B, w * L)


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
    agree, and the shared point itself when the curves are tangent there
    (a double root is its own companion)."""
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
    return MeetResult.at(p1.point_at(ratio(-(c1 * xd + c2 * xn), c2 * xd)))


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
    u, v = difference_angle(a, c, b), difference_angle(a, d, b)
    ud, vd = u.denominator, v.denominator
    return ratio(u.numerator * vd - v.numerator * ud, ud * vd)


def opposite_angle_sum(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    """Sum of the two opposite interior angles (at B and at D) of the
    quadrilateral ABCD with x_A < x_B < x_C < x_D.

    The sum vanishes iff the four points lie on one vertical-axis parabola;
    the equivalence is asserted for this vertex ordering only.
    """
    (xa, xb, xc, xd), _ = over_common_denominator((a.x, b.x, c.x, d.x))
    if not (xa < xb < xc < xd):
        raise DegenerateConfigurationError(
            "opposite_angle_sum requires strictly increasing x-order")
    # slope(BA) - slope(BC) + slope(DC) - slope(DA), built once.
    n1, d1 = _slope_terms(b, a)
    n2, d2 = _slope_terms(b, c)
    n3, d3 = _slope_terms(d, c)
    n4, d4 = _slope_terms(d, a)
    return ratio(((n1 * d2 - n2 * d1) * d3 + n3 * d1 * d2) * d4
                 - n4 * d1 * d2 * d3, d1 * d2 * d3 * d4)


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
