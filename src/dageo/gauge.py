"""The projective reference structure and the quantities it induces.

A gauge is a reference line direction together with an independent
projective direction.  Once a scene is normalized (reference line to the
x-axis, projective direction to the y-axis) every angular quantity becomes
slope arithmetic:

* the slope of a segment is ``dy/dx``, or *singular* when the segment is
  parallel to the projective direction (``dx == 0`` in the chart);
* the difference angle at ``P`` between ``A`` and ``B`` is
  ``slope(PB) - slope(PA)``, an oriented exact rational;
* any ray pair involving the singular direction is absorbed to angle 0,
  and so is any straight angle (the absorptive boundary convention --
  the lift and divergent conventions are deliberately not implemented);
* the norm of a segment is ``|dx|``: a pseudo-metric that vanishes on
  singular segments and satisfies the triangle inequality with equality.

Slopes are represented as ``Fraction | None`` with ``None`` standing for
the singular slope (direction parallel to the projective direction).

A :class:`Line` is the integer triple of ``a*X + b*Y + c*Z = 0`` in
homogeneous coordinates, whose ideal points are ``Z = 0`` (Richter-Gebert,
*Perspectives on Projective Geometry*, ch. 1-2): join and meet are cross
products and concurrency a determinant, with no branch for ideal points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .errors import DegenerateConfigurationError
from .scalar import add, between, collinear, over_common_denominator, ratio

Slope = Optional[Fraction]  # None == singular slope


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def midpoint(p: Point, q: Point) -> Point:
    return Point(between(p.x, q.x, 1, 2), between(p.y, q.y, 1, 2))


@dataclass(frozen=True)
class Gauge:
    """Reference structure: an origin, the reference-line direction and the
    projective direction, which must be linearly independent."""

    origin: Point
    reference_direction: tuple[Fraction, Fraction]
    projective_direction: tuple[Fraction, Fraction]

    def __post_init__(self):
        # The origin and both directions as integers over one lcm L, and
        # the directions' determinant over L**2: (OX, OY, RX, RY, PX, PY,
        # det, L), lifted once; normalize_chart reads only this and its
        # points' integers.
        (ox, oy), (rx, ry), (px, py) = (self.origin, self.reference_direction,
                                        self.projective_direction)
        (OX, OY, RX, RY, PX, PY), L = over_common_denominator(
            (ox, oy, rx, ry, px, py))
        det = RX * PY - RY * PX
        if det == 0:
            raise DegenerateConfigurationError(
                "reference and projective directions are dependent"
            )
        object.__setattr__(self, "_lifted", (OX, OY, RX, RY, PX, PY, det, L))

    def normalize_chart(self, points: list[Point]) -> list[Point]:
        """Apply the unique affine map sending origin -> (0,0),
        reference_direction -> (1,0), projective_direction -> (0,1).

        Every other operation in the kernel assumes this chart.
        """
        OX, OY, RX, RY, PX, PY, det, L = self._lifted
        out = []
        for p in points:
            # Solve dx*e1 + dy*e2 = u*ref + v*proj by Cramer's rule, with
            # dx = DX/(xd*yd*L), dy = DY/(xd*yd*L) and the directions and
            # their determinant over L and L**2: the scales cancel.
            xn, xd = p.x.numerator, p.x.denominator
            yn, yd = p.y.numerator, p.y.denominator
            DX = (xn * L - OX * xd) * yd
            DY = (yn * L - OY * yd) * xd
            den = det * xd * yd
            out.append(Point(ratio(DX * PY - DY * PX, den),
                             ratio(RX * DY - RY * DX, den)))
        return out


def normalize_chart(g: Gauge, points: list[Point]) -> list[Point]:
    return g.normalize_chart(points)


def slope_between(a: Point, b: Point) -> Slope:
    """Slope of the segment AB, or None when AB is singular (equal x)."""
    n, d = _slope_terms(a, b)
    if d == 0:
        if n == 0:
            raise DegenerateConfigurationError("slope of a degenerate segment")
        return None
    return ratio(n, d)


def _slope_terms(a: Point, b: Point) -> tuple[int, int]:
    """Integers ``(n, d)`` with ``slope(AB) = n/d``: ``d`` is zero exactly
    when ``x_A == x_B``, and ``n`` exactly when ``y_A == y_B``."""
    # With a = (p1/q1, r1/s1) and b = (p2/q2, r2/s2), dx = dxn/(q1*q2)
    # and dy = dyn/(s1*s2).
    q1, q2 = a.x.denominator, b.x.denominator
    s1, s2 = a.y.denominator, b.y.denominator
    return ((b.y.numerator * s1 - a.y.numerator * s2) * q1 * q2,
            (b.x.numerator * q1 - a.x.numerator * q2) * s1 * s2)


def difference_angle(a: Point, p: Point, b: Point) -> Fraction:
    """Oriented difference angle at the vertex ``p``:
    ``slope(PB) - slope(PA)``.

    Absorptive boundary rule: if either ray is singular the angle is 0.
    Collinear triples give 0 as well, since the two slopes coincide.
    The vertex must be distinct from both endpoints.
    """
    # Each ray's dx and dy cross-multiplied as in slope_between:
    # slope(PA) = qp*qa*dya / (sp*sa*dxa), and likewise for PB.  A ray
    # with dx == dy == 0 has its end at the vertex.
    qp, sp = p.x.denominator, p.y.denominator
    pxn, pyn = p.x.numerator, p.y.numerator
    qa, sa = a.x.denominator, a.y.denominator
    qb, sb = b.x.denominator, b.y.denominator
    dxa = a.x.numerator * qp - pxn * qa
    dxb = b.x.numerator * qp - pxn * qb
    dya = a.y.numerator * sp - pyn * sa
    dyb = b.y.numerator * sp - pyn * sb
    if not (dxa or dya) or not (dxb or dyb):
        raise DegenerateConfigurationError("angle vertex coincides with an endpoint")
    if dxa == 0 or dxb == 0:
        return Fraction(0)
    ua, ub = sa * dxa, sb * dxb
    return ratio(qp * (dyb * qb * ua - dya * qa * ub), sp * ua * ub)


def da_norm(a: Point, b: Point) -> Fraction:
    """Segment norm |x_B - x_A|; zero exactly on singular segments."""
    ad, bd = a.x.denominator, b.x.denominator
    return ratio(abs(b.x.numerator * ad - a.x.numerator * bd), ad * bd)


class Line:
    """The line ``y = m*x + k``, or ``x = x0`` when singular, stored as the
    coprime integer triple of ``a*x + b*y + c = 0`` with ``b < 0``, or
    ``b == 0 < a``: one triple per line, which equality and hash compare.
    ``m`` (``None`` when singular) and ``k`` (then ``x0``) are built when
    read."""

    __slots__ = ("triple",)

    def __new__(cls, m: Slope, k: Fraction):
        kn, kd = k.numerator, k.denominator
        if m is None:
            return _line(kd, 0, -kn)
        md = m.denominator
        return _line(m.numerator * kd, -md * kd, kn * md)

    @classmethod
    def singular(cls, x0: Fraction) -> "Line":
        return cls(None, x0)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Line.{name}")

    def __reduce__(self):
        return _line, self.triple

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self) -> int:
        return hash(self.triple)

    @property
    def is_singular(self) -> bool:
        return not self.triple[1]

    @property
    def m(self) -> Slope:
        a, b, _ = self.triple
        return ratio(-a, b) if b else None

    @property
    def k(self) -> Fraction:
        a, b, c = self.triple
        return ratio(-c, b or a)

    @property
    def x0(self) -> Fraction:
        if self.triple[1]:
            raise ValueError("x0 is defined only for singular lines")
        return self.k

    def y_at(self, x: Fraction) -> Fraction:
        a, b, c = self.triple
        if not b:
            raise ValueError("a singular line has no y(x)")
        xn, xd = x.numerator, x.denominator
        return ratio(-(a * xn + c * xd), b * xd)

    def point_at(self, x: Fraction) -> Point:
        return Point(x, self.y_at(x))

    def contains(self, p: Point) -> bool:
        a, b, c = self.triple
        xn, xd = p.x.numerator, p.x.denominator
        return (a * xn + c * xd) * p.y.denominator + b * p.y.numerator * xd == 0

    def __repr__(self) -> str:
        return f"Line(m={self.m!r}, k={self.k!r})"

    def __str__(self) -> str:
        if self.is_singular:
            return f"x = {self.k}"
        return f"y = {self.m}*x + {self.k}"


_new, _new_tuple = object.__new__, tuple.__new__
_set_triple = Line.triple.__set__


def _line(a: int, b: int, c: int) -> Line:
    """The line ``a*x + b*y + c = 0``, ``(a, b) != (0, 0)``, reduced by the
    gcd and signed as :class:`Line` stores it."""
    g = gcd(a, b, c)
    if b > 0 or (not b and a < 0):
        g = -g
    line = _new(Line)
    _set_triple(line, (a // g, b // g, c // g))
    return line


def line_through(a: Point, b: Point) -> Line:
    # The cross product of the points' integers: dy*(x - x1) - dx*(y - y1)
    # with dx = dxn/(q1*q2) and dy = dyn/(s1*s2), times q1*q2*s1*s2.
    p1, q1 = a.x.numerator, a.x.denominator
    r1, s1 = a.y.numerator, a.y.denominator
    q2, s2 = b.x.denominator, b.y.denominator
    dxn = b.x.numerator * q1 - p1 * q2
    dyn = b.y.numerator * s1 - r1 * s2
    if not (dxn or dyn):
        raise DegenerateConfigurationError(
            "two coincident points span no line")
    return _line(dyn * q1 * q2, -dxn * s1 * s2, dxn * s2 * r1 - dyn * q2 * p1)


class MeetResult(NamedTuple):
    """Uniform answer type for incidence queries.

    Variants: a finite point, an ideal point carrying the shared direction
    (``direction is None`` is the singular-axis direction), coincident
    lines, or an empty intersection.
    """

    kind: str
    point: Point | None = None
    direction: Slope = None

    AT = "at"
    IDEAL = "ideal"
    COINCIDENT = "coincident"
    EMPTY = "empty"

    @classmethod
    def at(cls, p: Point) -> "MeetResult":
        return cls(cls.AT, point=p)

    @classmethod
    def ideal(cls, direction: Slope) -> "MeetResult":
        return cls(cls.IDEAL, direction=direction)

    @classmethod
    def coincident(cls) -> "MeetResult":
        return cls(cls.COINCIDENT)

    @classmethod
    def empty(cls) -> "MeetResult":
        return cls(cls.EMPTY)

    @property
    def is_finite(self) -> bool:
        return self.kind == self.AT

    @property
    def is_ideal(self) -> bool:
        return self.kind == self.IDEAL



def meet(l1: Line, l2: Line) -> MeetResult:
    """Exact intersection of two lines.

    Distinct parallels give the ideal point of their common direction; two
    distinct singular lines share the singular-direction ideal point.
    """
    # The cross product (X, Y, Z) of the triples: the point (X/Z, Y/Z), or
    # an ideal point when Z == 0, where equal triples are one line.
    a1, b1, c1 = t1 = l1.triple
    a2, b2, c2 = t2 = l2.triple
    z = a1 * b2 - b1 * a2
    if z:
        p = Point(ratio(b1 * c2 - c1 * b2, z), ratio(c1 * a2 - a1 * c2, z))
        return _new_tuple(MeetResult, (MeetResult.AT, p, None))
    if t1 == t2:
        return MeetResult.coincident()
    return _new_tuple(MeetResult, (MeetResult.IDEAL, None, l1.m))


def concurrent(l1: Line, l2: Line, l3: Line) -> bool:
    """Whether three lines share a point, finite or ideal (a coincident
    pair shares one with any line): their triples' determinant is 0."""
    a1, b1, c1 = l1.triple
    a2, b2, c2 = l2.triple
    a3, b3, c3 = l3.triple
    return (a1 * (b2 * c3 - c2 * b3) - b1 * (a2 * c3 - c2 * a3)
            + c1 * (a2 * b3 - b2 * a3)) == 0


# ---------------------------------------------------------------------------
# Executable angle axioms.
# ---------------------------------------------------------------------------

def angle_axiom_checks(a: Point, p: Point, b: Point, c_param: Fraction,
                       k_scale: Fraction) -> str | None:
    """Run every axiom assertion on one sampled configuration.

    ``a``, ``b`` are ray endpoints, ``p`` the vertex off the line AB with
    no singular ray among PA, PB; ``c_param`` in (0,1) places a point C
    strictly between A and B; ``k_scale`` is a positive rational scale.
    Returns None when every identity holds, otherwise a short description
    of the first failed assertion.
    """
    # Every point below is built one ratio per coordinate, and every sum
    # is compared cross-multiplied (_sums_to), not through Fraction's
    # generic arithmetic.
    theta = difference_angle(a, p, b)

    # A1 antisymmetry (also the boundary-pairing sign flip: it must hold
    # whether or not the opening contains the singular direction).
    if not _sums_to(difference_angle(b, p, a), theta, 0):
        return "A1 antisymmetry"

    # C strictly between A and B on the segment.
    n, d = c_param.numerator, c_param.denominator
    c = Point(between(a.x, b.x, n, d), between(a.y, b.y, n, d))
    if c != p and c.x != p.x:
        # A2 additivity.
        if not _sums_to(difference_angle(a, p, c), difference_angle(c, p, b),
                        theta):
            return "A2 additivity"

    # A3 vanishing <=> collinear (no singular ray by construction).
    if collinear(a, p, b):
        if theta != 0:
            return "A3 vanishing on collinear triple"
    elif theta == 0:
        return "A3 converse (zero angle off a line)"
    # P + 2 (B - P), on the ray PB.
    collinear_probe = Point(between(p.x, b.x, 2, 1), between(p.y, b.y, 2, 1))
    if difference_angle(collinear_probe, p, b) != 0:
        return "A3 vanishing on a shared ray"

    # A4 invariance under isotropic scaling about the origin.
    kn, kd = k_scale.numerator, k_scale.denominator
    scaled = [Point(ratio(kn * q.x.numerator, kd * q.x.denominator),
                    ratio(kn * q.y.numerator, kd * q.y.denominator))
              for q in (a, p, b)]
    if difference_angle(*scaled) != theta:
        return "A4 scaling invariance"

    # A5(i) bisection by the mean-slope ray.
    t = between(slope_between(p, a), slope_between(p, b), 1, 2)
    bis_pt = Point(add(p.x, 1), add(p.y, t))
    half1 = difference_angle(a, p, bis_pt)
    half2 = difference_angle(bis_pt, p, b)
    if not (half1 == half2 and _sums_to(half1, half1, theta)):
        return "A5(i) bisection"

    # Vertical angles: with A2 = reflection of A through P and B2 of B,
    # the oriented pair (PA->PB) equals (PA2->PB2), and the appendix form
    # angle(A,P,B) == -angle(B2,P,A2) holds with it.
    a2 = Point(between(a.x, p.x, 2, 1), between(a.y, p.y, 2, 1))
    b2 = Point(between(b.x, p.x, 2, 1), between(b.y, p.y, 2, 1))
    if difference_angle(a2, p, b2) != theta:
        return "vertical angle equality"
    if not _sums_to(difference_angle(b2, p, a2), theta, 0):
        return "oriented vertical-angle law"

    # Straight angle absorbed to zero.
    if difference_angle(a, p, a2) != 0:
        return "straight angle"

    # Singular-ray absorption: either ray singular forces angle 0.
    above = Point(p.x, add(p.y, 1))
    if difference_angle(above, p, b) != 0 or difference_angle(a, p, above) != 0:
        return "absorptive boundary rule"

    # Pseudo-metric triple: symmetry, nonnegativity, additivity along the
    # x-order (the triangle inequality holding with equality).
    norm_ab = da_norm(a, b)
    if norm_ab != da_norm(b, a) or norm_ab < 0:
        return "norm symmetry/nonnegativity"
    lo, mid, hi = sorted((a, p, b), key=lambda q: q.x)
    if not _sums_to(da_norm(lo, mid), da_norm(mid, hi), da_norm(lo, hi)):
        return "norm triangle equality"
    if da_norm(p, Point(p.x, add(p.y, 5))) != 0:
        return "norm degeneracy on singular segment"

    return None


def _sums_to(u: Fraction, v: Fraction, w: Fraction) -> bool:
    """Whether ``u + v == w``, cross-multiplied; ``w`` may be an ``int``."""
    ud, vd, wd = u.denominator, v.denominator, w.denominator
    return (u.numerator * vd + v.numerator * ud) * wd == w.numerator * ud * vd
