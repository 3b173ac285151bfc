"""Euclidean bisector-collinearity export, checked exactly.

Construction, for a triangle ABC: take the internal bisectors at A and C
and the external bisector at B.  Their pairwise meets are the incenter
and two excenters; the cevians from the vertices through those meets cut
the opposite sides at H_A, H_B, H_C, while the bisectors themselves cut
the opposite sides at J_A, J_B, J_C.  Then each side, its bisector and the
matching feet chord concur at the J point, and the three J points are
collinear.

Ordinary bisectors need unit side vectors, and so square roots.  The
campaign draws only triangles whose side lengths are rational, where the
square roots are exact: with half-angle tangents t_A = tan(A/2) and
t_B = tan(B/2) positive rationals and t_A t_B < 1 (so that C > 0), the
cosines and sines of A, B and C are rational, and by the law of sines the
triangle with sides sin A, sin B, sin C has rational sides.  A rotation
with rational half-angle tangent t_r and a rational shift keep every
coordinate and every side length rational.  Each verdict is then the
vanishing of a rational function of the drawn parameters; a nonzero one
vanishes on only a thin set of draws (Schwartz, J. ACM 1980), so zero on
every one of a campaign's random draws rules out a false statement far
more strongly than a float tolerance would.
"""

from __future__ import annotations

from fractions import Fraction

from .campaigns import Counterexample, Theorem
from .errors import DegenerateConfigurationError
from .gauge import Line, Point, line_through, meet
from .generators import RandomRationals
from .harness import TheoremReport, run_theorem
from .scalar import collinear, rational_sqrt

_REASONS = ("J points not collinear",
           "side BC, bisector at A and chord H_B H_C not concurrent",
           "side CA, bisector at B and chord H_C H_A not concurrent",
           "side AB, bisector at C and chord H_A H_B not concurrent")


def _unit(v: Point, u: Point) -> tuple[Fraction, Fraction]:
    """Exact unit vector from V towards U."""
    dx, dy = u.x - v.x, u.y - v.y
    length = rational_sqrt(dx * dx + dy * dy)
    if length is None:
        raise DegenerateConfigurationError("side of irrational length")
    return dx / length, dy / length


def _bisector(v: Point, u: Point, w: Point, sign: int) -> Line:
    """Bisector at V of the angle UVW: internal for sign 1, external for
    sign -1."""
    (ux, uy), (wx, wy) = _unit(v, u), _unit(v, w)
    return line_through(v, Point(v.x + ux + sign * wx, v.y + uy + sign * wy))


def _at(l1: Line, l2: Line) -> Point:
    hit = meet(l1, l2)
    if not hit.is_finite:
        raise DegenerateConfigurationError("bisector construction meets "
                                           "at infinity")
    return hit.point


def euclid_bisector_collinearity(a: Point, b: Point,
                                 c: Point) -> tuple[bool, bool, bool, bool]:
    """Four verdicts for triangle ABC: the J points are collinear, then
    each side, its bisector and its feet chord concur at its J point.

    Raises :class:`DegenerateConfigurationError` for collinear vertices, a
    side of irrational length or a meet at infinity."""
    if collinear(a, b, c):
        raise DegenerateConfigurationError("collinear vertices")
    int_a = _bisector(a, b, c, 1)
    ext_b = _bisector(b, a, c, -1)
    int_c = _bisector(c, a, b, 1)
    bc, ca, ab = line_through(b, c), line_through(c, a), line_through(a, b)

    d = _at(ext_b, int_c)   # excenter opposite C
    e = _at(int_c, int_a)   # incenter
    f = _at(int_a, ext_b)   # excenter opposite A

    h_a = _at(line_through(a, d), bc)
    h_b = _at(line_through(b, e), ca)
    h_c = _at(line_through(c, f), ab)

    j_a = _at(int_a, bc)
    j_b = _at(ext_b, ca)
    j_c = _at(int_c, ab)

    return (collinear(j_a, j_b, j_c), collinear(h_b, h_c, j_a),
            collinear(h_c, h_a, j_b), collinear(h_a, h_b, j_c))


def _cos_sin(t: Fraction) -> tuple[Fraction, Fraction]:
    """Cosine and sine of the angle whose half-angle tangent is ``t``."""
    s = 1 + t * t
    return (1 - t * t) / s, 2 * t / s


def _gen_rational_triangle(rng: RandomRationals) -> dict:
    def make():
        t_a, t_b = rng.positive_rational(), rng.positive_rational()
        if t_a * t_b >= 1:
            return None
        cos_a, sin_a = _cos_sin(t_a)
        cos_b, sin_b = _cos_sin(t_b)
        sin_c = sin_a * cos_b + cos_a * sin_b
        cos_r, sin_r = _cos_sin(rng.positive_rational())
        shift = rng.point()

        def place(x: Fraction, y: Fraction) -> Point:
            return Point(shift.x + cos_r * x - sin_r * y,
                         shift.y + sin_r * x + cos_r * y)
        a, b, c = (shift, place(sin_c, Fraction(0)),
                   place(sin_b * cos_a, sin_b * sin_a))
        euclid_bisector_collinearity(a, b, c)
        return {"A": a, "B": b, "C": c}
    return rng.retrying(make)


def _check(cfg: dict) -> None:
    verdicts = euclid_bisector_collinearity(cfg["A"], cfg["B"], cfg["C"])
    for holds, reason in zip(verdicts, _REASONS):
        if not holds:
            raise Counterexample(reason)


# Not registered: the registry holds the pinned theorems of the
# difference-angle geometry.
EUCLID_EXPORT = Theorem(
    "euclid_export",
    "Euclidean bisectors (internal at A and C, external at B) cut the "
    "sides in three collinear points, on rational-sided triangles",
    _gen_rational_triangle, _check)


def run_euclid_campaign(trials: int, seed: int) -> TheoremReport:
    return run_theorem(EUCLID_EXPORT, trials, seed, bound=50)
