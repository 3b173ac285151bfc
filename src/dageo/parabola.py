"""Vertical-axis parabolas: circumscription, power, iso-angle loci,
tangency, chords and parabolic-cyclic predicates.

Everything here works over exact rationals.  Pairs of parabolas are only
intersected along rational routes: either the eliminant factors through a
known shared point (Vieta), or its discriminant happens to be a perfect
rational square.  Nothing is ever approximated.

A :class:`Parabola` is the primitive integer quadruple ``(K, B, G, S)`` of
S*y = K*x^2 + B*x + G, as a ``gauge.Line`` is an integer triple; the
constructions that compute integers (``circumparabola``, the drawn
curves of ``RandomRationals`` and ``iso_angle_locus``) store theirs
through ``_parabola`` without building a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateConfigurationError, IrrationalIntersectionError
from .gauge import (Line, MeetResult, Point, _over_common_z, _point,
                    _slope_terms, difference_angle)
from .scalar import (QuadraticPoly, _vieta_companion, integer_quadratic_roots,
                     lift_triple, ratio)


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
    quadruple, and the points they read and build are ``Point`` triples.
    ``kappa``, ``beta`` and ``gamma`` return the constructor's arguments,
    ints included; a curve built from integers builds them as Fractions
    on first read and keeps them.
    """

    __slots__ = ("_lifted", "_kappa", "_beta", "_gamma")

    def __new__(cls, kappa: Fraction, beta: Fraction, gamma: Fraction):
        return _parabola_over(kappa.numerator, kappa.denominator,
                              beta.numerator, beta.denominator,
                              gamma.numerator, gamma.denominator,
                              kappa, beta, gamma)

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
        # (K X^2 + B X Z + G Z^2 - S Y Z) / (S Z^2) over p's triple.
        K, B, G, S = self._lifted
        X, Y, Z = p.xyz
        return ratio((K * X + B * Z) * X + (G * Z - S * Y) * Z, S * Z * Z)

    def point_at(self, x: Fraction) -> Point:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return self._point_over(x.numerator, x.denominator, x)

    def _point_over(self, xn: int, xd: int,
                    x: Fraction | None = None) -> Point:
        """The curve point over ``x = xn/xd``, ``xd != 0``, as the triple
        ``(xn S xd, K xn^2 + B xn xd + G xd^2, S xd^2)``; ``x``, when
        given, is that abscissa as a Fraction, kept as the point's ``.x``."""
        K, B, G, S = self._lifted
        return _point(xn * S * xd, (K * xn + B * xd) * xn + G * xd * xd,
                      S * xd * xd, x)

    def contains(self, p: Point) -> bool:
        # Y Z S == K X^2 + B X Z + G Z^2 over p's triple.
        K, B, G, S = self._lifted
        X, Y, Z = p.xyz
        return Y * S * Z == (K * X + B * Z) * X + G * Z * Z

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


def _parabola_over(kn: int, kd: int, bn: int, bd: int, gn: int, gd: int,
                   kappa=None, beta=None, gamma=None) -> Parabola:
    """The curve with coefficients kn/kd, bn/bd and gn/gd over the common
    denominator kd*bd*gd != 0; it keeps ``kappa``, ``beta`` and ``gamma``
    when given."""
    return _parabola(kn * bd * gd, bn * kd * gd, gn * kd * bd, kd * bd * gd,
                     kappa, beta, gamma)


def circumparabola(a: Point, b: Point, c: Point) -> Parabola:
    """The unique vertical-axis parabola through three points with pairwise
    distinct x-coordinates (the Lagrange form over a common denominator).

    Collinear triples have a vanishing quadratic coefficient and are
    rejected, as are shared x-coordinates (a singular side).
    """
    (x1, x2, x3), (y1, y2, y3), L = _over_common_z(a, b, c)
    return _parabola_through(x1, x2, x3, L, y1, y2, y3, L)


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
    # builds from the quadruple), and the whole quotient times Z**2 over
    # pt's triple.
    (K, B, G), D = lift_triple((p.kappa, p.beta, p.gamma))
    X, Y, Z = pt.xyz
    return ratio((K * X + B * Z) * X + (G * Z - D * Y) * Z, K * Z * Z)


def iso_angle_locus(a: Point, b: Point, theta: Fraction) -> Parabola:
    """The parabola of points seeing the segment AB on the reference line
    under the constant difference angle ``theta``.

    Both endpoints must sit on the reference line (y = 0) with distinct x,
    and theta must be nonzero (theta = 0 degenerates to the line AB).
    The curve is kappa = theta/(b-a) times (x-a)(x-b); the endpoints
    themselves belong to the locus.
    """
    # On y = 0 a triple is (x's numerator, 0, x's denominator).
    A, Ya, ad = a.xyz
    B, Yb, bd = b.xyz
    if Ya or Yb:
        raise DegenerateConfigurationError("locus endpoints must lie on y = 0")
    if A * bd == B * ad:
        raise DegenerateConfigurationError("coincident endpoints")
    if not isinstance(theta, Fraction):
        theta = Fraction(theta)
    if theta == 0:
        raise DegenerateConfigurationError("zero angle degenerates to a line")
    # With a = A/L and b = B/L: kappa = theta L/(B - A), beta = -kappa (a + b)
    # and gamma = kappa a b, all over w L.
    A, B, L = A * bd, B * ad, ad * bd
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
    # (m - beta)/kappa - x is (m S - B)/K - X/Z over m's integers and
    # pt's triple.
    K, B, _, S = p._lifted
    mn, md = m.numerator, m.denominator
    X, _, Z = pt.xyz
    return p._point_over((mn * S - B * md) * Z - X * K * md, K * md * Z)


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
        return [MeetResult.at(p1._point_over(-c0, c1)),
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
    X, _, Z = shared.xyz
    return MeetResult.at(p1._point_over(*_vieta_companion(c2, c1, c0, scale,
                                                          X, Z)))


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
    # x_P < x_Q is X_P Z_Q < X_Q Z_P, the Z being positive.
    (Xa, _, Za), (Xb, _, Zb), (Xc, _, Zc), (Xd, _, Zd) = (
        a.xyz, b.xyz, c.xyz, d.xyz)
    if not (Xa * Zb < Xb * Za and Xb * Zc < Xc * Zb and Xc * Zd < Xd * Zc):
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
