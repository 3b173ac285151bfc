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

A :class:`Point` stores, from construction, the primitive integer triple
``(X, Y, Z)`` of ``(X/Z, Y/Z)`` and a :class:`Line` the integer triple of
``a*X + b*Y + c*Z = 0`` in homogeneous coordinates, whose ideal points are
``Z = 0`` (Richter-Gebert, *Perspectives on Projective Geometry*, ch.
1-2): join and meet are cross products, incidence a dot product and
concurrency a determinant, with no branch for ideal points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import DegenerateConfigurationError
from .scalar import between, collinear, over_common_denominator, ratio

Slope = Optional[Fraction]  # None == singular slope


class Point:
    """The point ``(x, y)``, stored as the primitive integer triple
    ``xyz = (X, Y, Z)``: x = X/Z and y = Y/Z with Z > 0 and
    gcd(X, Y, Z) = 1, one triple per point, which equality compares.  It
    is the lift of the two coordinates over their lcm Z: that Z is a
    common denominator, and if a prime p divided X, Y and Z then Z/p would
    be a smaller one.  Every point holds its triple from construction.
    ``Point(x, y)`` also keeps its arguments, ints included, as ``.x`` and
    ``.y``; ``_point(X, Y, Z)`` builds them as Fractions on first read and
    keeps them.  The hash is that of the tuple ``(x, y)``, and a point
    unpacks to its two coordinates."""

    __slots__ = ("_x", "_y", "xyz")

    def __new__(cls, x: Fraction, y: Fraction):
        xd, yd = x.denominator, y.denominator
        Z = lcm(xd, yd)
        point = _new(Point)
        _set_x(point, x)
        _set_y(point, y)
        _set_xyz(point, (x.numerator * (Z // xd), y.numerator * (Z // yd), Z))
        return point

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Point.{name}")

    def __reduce__(self):
        return Point, (self.x, self.y)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.xyz == other.xyz

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __iter__(self):
        return iter((self.x, self.y))

    @property
    def x(self) -> Fraction:
        if self._x is None:
            X, _, Z = self.xyz
            _set_x(self, ratio(X, Z))
        return self._x

    @property
    def y(self) -> Fraction:
        if self._y is None:
            _, Y, Z = self.xyz
            _set_y(self, ratio(Y, Z))
        return self._y

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


_new, _new_tuple = object.__new__, tuple.__new__
_set_x, _set_y, _set_xyz = (Point._x.__set__, Point._y.__set__,
                            Point.xyz.__set__)


def _point(X: int, Y: int, Z: int, x: Fraction | None = None) -> Point:
    """The point ``(X/Z, Y/Z)``, ``Z != 0``, reduced by the gcd and signed
    as :class:`Point` stores it; ``x``, when given, is the abscissa X/Z
    that the caller already holds, kept as ``.x``."""
    g = gcd(X, Y, Z)
    if Z < 0:
        g = -g
    point = _new(Point)
    _set_x(point, x)
    _set_y(point, None)
    _set_xyz(point, (X // g, Y // g, Z // g))
    return point


def midpoint(p: Point, q: Point) -> Point:
    X1, Y1, Z1 = p.xyz
    X2, Y2, Z2 = q.xyz
    return _point(X1 * Z2 + X2 * Z1, Y1 * Z2 + Y2 * Z1, 2 * Z1 * Z2)


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
            # dx = DX/(Z*L), dy = DY/(Z*L) and the directions and their
            # determinant over L and L**2: the scales cancel.
            X, Y, Z = p.xyz
            DX = X * L - OX * Z
            DY = Y * L - OY * Z
            out.append(_point(DX * PY - DY * PX, RX * DY - RY * DX, det * Z))
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
    # dy/dx with dx = (X2 Z1 - X1 Z2)/(Z1 Z2), and dy likewise.
    X1, Y1, Z1 = a.xyz
    X2, Y2, Z2 = b.xyz
    return Y2 * Z1 - Y1 * Z2, X2 * Z1 - X1 * Z2


def _over_common_z(a: Point, b: Point, c: Point):
    """Three points' coordinates as integers over the lcm ``L`` of their
    Z: ``((x_a, x_b, x_c), (y_a, y_b, y_c), L)``."""
    (X1, Y1, Z1), (X2, Y2, Z2), (X3, Y3, Z3) = a.xyz, b.xyz, c.xyz
    L = lcm(Z1, Z2, Z3)
    l1, l2, l3 = L // Z1, L // Z2, L // Z3
    return (X1 * l1, X2 * l2, X3 * l3), (Y1 * l1, Y2 * l2, Y3 * l3), L


def _abscissae(points) -> tuple[list[int], int]:
    """The points' abscissae as integers over the lcm ``L`` of their Z,
    read from the triples: ``([X_1 * L/Z_1, ...], L)``."""
    triples = [p.xyz for p in points]
    L = lcm(*(Z for _, _, Z in triples))
    return [X * (L // Z) for X, _, Z in triples], L


def _angle_terms(a: Point, p: Point, b: Point) -> tuple[int, int]:
    """Integers ``(n, d)``, ``d != 0``, with ``difference_angle(a, p, b)
    = n/d``; a singular ray gives ``(0, 1)``."""
    # Each ray's dx and dy over Z_P times its end's Z, as in _slope_terms:
    # slope(PA) = dya/dxa.  A ray with dx == dy == 0 has its end at the
    # vertex.
    Xp, Yp, Zp = p.xyz
    Xa, Ya, Za = a.xyz
    Xb, Yb, Zb = b.xyz
    dxa, dya = Xa * Zp - Xp * Za, Ya * Zp - Yp * Za
    dxb, dyb = Xb * Zp - Xp * Zb, Yb * Zp - Yp * Zb
    if not (dxa or dya) or not (dxb or dyb):
        raise DegenerateConfigurationError("angle vertex coincides with an endpoint")
    if dxa == 0 or dxb == 0:
        return 0, 1
    return dyb * dxa - dya * dxb, dxa * dxb


def difference_angle(a: Point, p: Point, b: Point) -> Fraction:
    """Oriented difference angle at the vertex ``p``:
    ``slope(PB) - slope(PA)``.

    Absorptive boundary rule: if either ray is singular the angle is 0.
    Collinear triples give 0 as well, since the two slopes coincide.
    The vertex must be distinct from both endpoints.
    """
    n, d = _angle_terms(a, p, b)
    # A zero angle comes from Fraction itself: perfbench's traced count of
    # Fraction.__new__ calls on the curve campaigns rests on it.
    return ratio(n, d) if n else Fraction(0)


def da_norm(a: Point, b: Point) -> Fraction:
    """Segment norm |x_B - x_A|; zero exactly on singular segments."""
    Xa, _, Za = a.xyz
    Xb, _, Zb = b.xyz
    return ratio(abs(Xb * Za - Xa * Zb), Za * Zb)


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
        a, b, c = self.triple
        if not b:
            raise ValueError("a singular line has no y(x)")
        xn, xd = x.numerator, x.denominator
        return _point(b * xn, -(a * xn + c * xd), b * xd, x)

    def contains(self, p: Point) -> bool:
        a, b, c = self.triple
        X, Y, Z = p.xyz
        return a * X + b * Y + c * Z == 0

    def __repr__(self) -> str:
        return f"Line(m={self.m!r}, k={self.k!r})"

    def __str__(self) -> str:
        if self.is_singular:
            return f"x = {self.k}"
        return f"y = {self.m}*x + {self.k}"


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
    # The cross product of the points' triples, zero exactly when they
    # are one point.
    X1, Y1, Z1 = a.xyz
    X2, Y2, Z2 = b.xyz
    a_, b_, c_ = Y1 * Z2 - Z1 * Y2, Z1 * X2 - X1 * Z2, X1 * Y2 - Y1 * X2
    if not (a_ or b_):
        raise DegenerateConfigurationError(
            "two coincident points span no line")
    return _line(a_, b_, c_)


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
        p = _point(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, z)
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
    # Every point below is built from integer triples, and every angle is
    # an integer pair (n, d) compared cross-multiplied (_sums_to), not a
    # Fraction.  The singular-ray rule and the norms are read through the
    # public difference_angle and da_norm, whose own behaviour they are.
    theta = _angle_terms(a, p, b)
    zero = (0, 1)

    # A1 antisymmetry (also the boundary-pairing sign flip: it must hold
    # whether or not the opening contains the singular direction).
    if not _sums_to(_angle_terms(b, p, a), theta, zero):
        return "A1 antisymmetry"

    # C strictly between A and B on the segment.
    c = _point_between(a, b, c_param.numerator, c_param.denominator)
    Xc, _, Zc = c.xyz
    Xp, Yp, Zp = p.xyz
    if Xc * Zp != Xp * Zc:
        # A2 additivity.
        if not _sums_to(_angle_terms(a, p, c), _angle_terms(c, p, b), theta):
            return "A2 additivity"

    # A3 vanishing <=> collinear (no singular ray by construction).
    if collinear(a, p, b):
        if theta[0]:
            return "A3 vanishing on collinear triple"
    elif not theta[0]:
        return "A3 converse (zero angle off a line)"
    # P + 2 (B - P), on the ray PB.
    if _angle_terms(_point_between(p, b, 2, 1), p, b)[0]:
        return "A3 vanishing on a shared ray"

    # A4 invariance under isotropic scaling about the origin.
    kn, kd = k_scale.numerator, k_scale.denominator
    scaled = [_point(kn * X, kn * Y, kd * Z)
              for X, Y, Z in (a.xyz, p.xyz, b.xyz)]
    if not _sums_to(_angle_terms(*scaled), zero, theta):
        return "A4 scaling invariance"

    # A5(i) bisection by the mean-slope ray.
    t = between(slope_between(p, a), slope_between(p, b), 1, 2)
    tn, td = t.numerator, t.denominator
    bis_pt = _point((Xp + Zp) * td, Yp * td + tn * Zp, Zp * td)
    half1 = _angle_terms(a, p, bis_pt)
    half2 = _angle_terms(bis_pt, p, b)
    if not (_sums_to(half1, zero, half2) and _sums_to(half1, half1, theta)):
        return "A5(i) bisection"

    # Vertical angles: with A2 = reflection of A through P and B2 of B,
    # the oriented pair (PA->PB) equals (PA2->PB2), and the appendix form
    # angle(A,P,B) == -angle(B2,P,A2) holds with it.
    a2 = _point_between(a, p, 2, 1)
    b2 = _point_between(b, p, 2, 1)
    if not _sums_to(_angle_terms(a2, p, b2), zero, theta):
        return "vertical angle equality"
    if not _sums_to(_angle_terms(b2, p, a2), theta, zero):
        return "oriented vertical-angle law"

    # Straight angle absorbed to zero.
    if _angle_terms(a, p, a2)[0]:
        return "straight angle"

    # Singular-ray absorption: either ray singular forces angle 0.
    above = _point(Xp, Yp + Zp, Zp)
    if (difference_angle(above, p, b).numerator
            or difference_angle(a, p, above).numerator):
        return "absorptive boundary rule"

    # Pseudo-metric triple: symmetry, nonnegativity, additivity along the
    # x-order (the triangle inequality holding with equality).
    norm_ab, norm_ba = _terms(da_norm(a, b)), _terms(da_norm(b, a))
    if not _sums_to(norm_ab, zero, norm_ba) or norm_ab[0] < 0:
        return "norm symmetry/nonnegativity"
    lo, mid, hi = sorted((a, p, b), key=lambda q: q.x)
    if not _sums_to(_terms(da_norm(lo, mid)), _terms(da_norm(mid, hi)),
                    _terms(da_norm(lo, hi))):
        return "norm triangle equality"
    if da_norm(p, _point(Xp, Yp + 5 * Zp, Zp)).numerator:
        return "norm degeneracy on singular segment"

    return None


def _point_between(u: Point, w: Point, n: int, d: int) -> Point:
    """``u + (n/d)(w - u)``, that is ``((d - n) u + n w) / d``, from the
    two triples."""
    Xu, Yu, Zu = u.xyz
    Xw, Yw, Zw = w.xyz
    m = d - n
    return _point(m * Xu * Zw + n * Xw * Zu, m * Yu * Zw + n * Yw * Zu,
                  d * Zu * Zw)


def _terms(value: Fraction) -> tuple[int, int]:
    return value.numerator, value.denominator


def _sums_to(u: tuple[int, int], v: tuple[int, int],
             w: tuple[int, int]) -> bool:
    """Whether ``u + v == w`` for values given as integer pairs
    ``(numerator, denominator)``, cross-multiplied."""
    (un, ud), (vn, vd), (wn, wd) = u, v, w
    return (un * vd + vn * ud) * wd == wn * ud * vd
