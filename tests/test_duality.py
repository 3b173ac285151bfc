"""The polarity in y = x**2/2 as a second route to a triangle's norms and
angles.

The point (a, b) and the line y = a*x - b are pole and polar, so a
non-singular line y = m*x + k is the polar of the point (m, -k).  The dual
of a triangle ABC has as vertices A', B', C' the poles of the sides BC,
CA, AB, and its sides are the polars of C, A, B.  The angle at A' is
then the difference of the slopes x_B and x_C, that is, +- the norm of
BC: the dual of "the angles sum to 0" is "the largest norm is the sum of
the other two", the abstract's triangle inequality with equality.
``dual`` is built from that definition and the public constructors, not
from the kernel's lift helpers, so it shares no route with ``da_norm``."""

import functools

from dageo import gauge
from dageo.gauge import (Line, MeetResult, Point, da_norm, difference_angle,
                         line_through, meet)
from dageo.generators import RandomRationals


def dual(obj):
    """The polar line of a point, or the pole of a non-singular line."""
    if isinstance(obj, Point):
        return Line(obj.x, -obj.y)
    return Point(obj.m, -obj.k)


@functools.cache
def triangles():
    """250 free and 250 inscribed triangles at bound 50."""
    out = []
    for trial in range(250):
        rng = RandomRationals(21, trial)
        out += [rng.free_triangle(), rng.triangle()]
    return out


def dual_angles(t):
    """The angles of the dual triangle A'B'C' at A', B' and C', each
    between the other two vertices in cyclic order."""
    a, b, c = t.a, t.b, t.c
    a2, b2, c2 = (dual(line_through(b, c)), dual(line_through(c, a)),
                  dual(line_through(a, b)))
    return (difference_angle(b2, a2, c2), difference_angle(c2, b2, a2),
            difference_angle(a2, c2, b2))


def dual_angle_mismatches(t) -> list[str]:
    """The labels whose dual angle is not +- the norm of the opposite
    side: the angle at A' against |BC|, and cyclically."""
    norms = da_norm(t.b, t.c), da_norm(t.c, t.a), da_norm(t.a, t.b)
    return [lbl for lbl, angle, norm in zip("ABC", dual_angles(t), norms)
            if abs(angle) != norm]


def test_dual_is_an_involution():
    for t in triangles():
        for p in (t.a, t.b, t.c):
            assert dual(dual(p)) == p


def test_meet_of_duals_is_dual_of_join():
    for t in triangles():
        for p, q in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
            assert meet(dual(p), dual(q)) == MeetResult.at(
                dual(line_through(p, q)))


def test_dual_angles_are_side_norms():
    for t in triangles():
        assert dual_angle_mismatches(t) == [], t


def test_dual_angles_sum_to_zero():
    for t in triangles():
        assert sum(dual_angles(t)) == 0


def test_doubled_norm_fails_the_angle_check(monkeypatch):
    # 2*|dx| keeps the triangle equality (it is homogeneous), so only a
    # route that does not share da_norm's code tells it apart.
    norm_terms = gauge._norm_terms

    def doubled(a, b):
        n, d = norm_terms(a, b)
        return 2 * n, d

    monkeypatch.setattr(gauge, "_norm_terms", doubled)
    for t in triangles():
        assert dual_angle_mismatches(t) == ["A", "B", "C"]
