"""Triangles with no singular side, and the constructions attached to them:
interior angles, bisectors, centers, perpendicular feet, Simson
configurations, the feet-midpoint lemma and the bisector collinearity
theorem.

A valid triangle here has three non-collinear vertices with pairwise
distinct x-coordinates.  Internally the vertices are sorted by x (the
proofs' convention); the public API keeps the user's labels "A", "B", "C"
and maps every result back.  The side norms are computed once, on
construction, by ``da_norm``, and stored; ``side_norms()`` returns the
stored values.  The interior angles are stored in the closed form of
``interior_angles``, which sums to 0 with only the x-middle angle negative
for any three distinct abscissae; the ``triangle_invariants`` campaign
checks them against the difference-angle definition.  Construction
certifies the side-norm equation on the stored norms, read as integers
over a common denominator: the largest equals the sum of the other two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateConfigurationError, KernelInvariantError
from .gauge import (Line, MeetResult, Point, da_norm, line_through, meet,
                    midpoint)
from .parabola import Parabola, circumparabola, second_intersection
from .scalar import collinear, det3, lift_triple, ratio

VERTICES = ("A", "B", "C")
#: Indices into (a, b, c) of the two vertices other than each label.
_OTHERS = {"A": (1, 2), "B": (0, 2), "C": (0, 1)}
#: The two labels other than each label, in cyclic order.
_CYCLIC_OTHERS = {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")}


@dataclass(frozen=True)
class DATriangle:
    a: Point
    b: Point
    c: Point
    parabola: Parabola = field(init=False, compare=False)
    _sorted: tuple[Point, Point, Point] = field(init=False, compare=False,
                                                repr=False)
    _angles: tuple[Fraction, Fraction, Fraction] = field(
        init=False, compare=False, repr=False)
    _norms: tuple[Fraction, Fraction, Fraction] = field(
        init=False, compare=False, repr=False)
    _middle: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = (self.a, self.b, self.c)
        # Abscissae as integers over a shared denominator D.
        xs, D = lift_triple((self.a.x, self.b.x, self.c.x))
        if xs[0] == xs[1] or xs[1] == xs[2] or xs[0] == xs[2]:
            raise DegenerateConfigurationError("singular side (shared x)")
        try:
            par = circumparabola(*pts)
        except DegenerateConfigurationError:
            # With distinct abscissae the only rejection left is kappa == 0,
            # and det3 of the rows (x, y, 1) is kappa times the Vandermonde
            # determinant, so kappa == 0 is exactly collinearity.
            raise DegenerateConfigurationError("collinear vertices") from None
        object.__setattr__(self, "parabola", par)
        # i, j, k index the vertices in increasing x; the angle formula is
        # in the interior_angles docstring, here over kappa's denominator
        # times D.
        i, j, k = sorted(range(3), key=xs.__getitem__)
        scale = abs(par.kappa.numerator)
        den = par.kappa.denominator * D
        angles = [None, None, None]
        angles[i] = ratio(scale * (xs[k] - xs[j]), den)
        angles[j] = ratio(scale * (xs[i] - xs[k]), den)
        angles[k] = ratio(scale * (xs[j] - xs[i]), den)
        angles = tuple(angles)
        norms = (da_norm(self.a, self.b), da_norm(self.b, self.c),
                 da_norm(self.c, self.a))
        object.__setattr__(self, "_sorted", (pts[i], pts[j], pts[k]))
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "_middle", j)
        # Structural certificate, a theorem, so a failure here means the
        # kernel itself is broken: the largest stored norm is the sum of
        # the other two, i.e. twice it is their total.
        nums, _ = lift_triple(self.side_norms())
        if 2 * max(nums) != sum(nums):
            raise KernelInvariantError("side-norm equation violated")

    # -- vertex bookkeeping -------------------------------------------------

    def vertex(self, label: str) -> Point:
        if label == "A":
            return self.a
        if label == "B":
            return self.b
        if label == "C":
            return self.c
        raise ValueError(f"unknown vertex label {label!r}")

    def others(self, label: str) -> tuple[Point, Point]:
        """The two vertices other than ``label``, in label order."""
        if label not in _OTHERS:
            raise ValueError(f"unknown vertex label {label!r}")
        i, j = _OTHERS[label]
        pts = (self.a, self.b, self.c)
        return pts[i], pts[j]

    def sorted_vertices(self) -> tuple[Point, Point, Point]:
        """Vertices in increasing x-order; the middle one carries the
        negative interior angle."""
        return self._sorted

    @property
    def negative_vertex_label(self) -> str:
        return VERTICES[self._middle]

    # -- sides and side norms ----------------------------------------------

    def side(self, label: str) -> Line:
        """Side line opposite the given vertex."""
        u, w = self.others(label)
        return line_through(u, w)

    def side_norms(self) -> tuple[Fraction, Fraction, Fraction]:
        """Norms of (AB, BC, CA), stored on construction."""
        return self._norms

    @property
    def is_isosceles(self) -> bool:
        n = self.side_norms()
        return len({n[0], n[1], n[2]}) < 3

    # -- angles ---------------------------------------------------------------

    def interior_angles(self) -> tuple[Fraction, Fraction, Fraction]:
        """Oriented interior angles at (A, B, C).

        In x-order (p < q < r) with circumparabola coefficient kappa the
        angles are |kappa| * (r-q, p-r, q-p): the interior opening at the
        middle vertex contains the singular direction, which makes that
        angle the negative one whichever way the parabola opens.
        """
        return self._angles

    def __str__(self) -> str:
        return f"Triangle[A={self.a}, B={self.b}, C={self.c}]"


# ---------------------------------------------------------------------------
# Bisectors and centers.
# ---------------------------------------------------------------------------

def bisector_at(t: DATriangle, vertex: str, mode: str = "interior") -> Line:
    """Angle bisector at a vertex.

    ``mode="positive"`` always bisects the positive angle at the vertex:
    the mean-slope ray of the two adjacent sides, equivalently the chord
    through the circumparabola point above the midpoint of the other two
    abscissae (the tangent when those coincide).  ``mode="interior"``
    returns the same line at the two positive vertices and the singular
    line through the vertex where the interior angle is negative.
    """
    if mode not in ("interior", "positive"):
        raise ValueError(f"unknown bisector mode {mode!r}")
    v = t.vertex(vertex)
    if mode == "interior" and vertex == t.negative_vertex_label:
        return Line.singular(v.x)
    u, w = t.others(vertex)
    # The side slopes are dy*X / (dx*Y) over the abscissae's common
    # denominator X and the ordinates' Y; their mean m and the intercept
    # y_V - m*x_V then share the denominator 2*Y*du*dw.
    (xv, xu, xw), X = lift_triple((v.x, u.x, w.x))
    (yv, yu, yw), Y = lift_triple((v.y, u.y, w.y))
    du, dw = xu - xv, xw - xv
    num = (yu - yv) * dw + (yw - yv) * du
    den = 2 * Y * du * dw
    return Line(ratio(num * X, den), ratio(2 * yv * du * dw - num * xv, den))


def bisector_ratio_check(t: DATriangle, vertex: str) -> Fraction:
    """Residual of the bisector ratio identity at a vertex: with D the
    foot of the interior bisector on the opposite side,
    |UD| * |VW| - |DW| * |VU| = 0 (labels: V the vertex, U, W the others).

    At the negative vertex the interior bisector is singular and the foot
    simply splits the opposite side at x = x_V; the identity still holds.
    """
    v = t.vertex(vertex)
    u, w = t.others(vertex)
    hit = meet(bisector_at(t, vertex, "interior"), t.side(vertex))
    if not hit.is_finite:
        raise KernelInvariantError(
            "interior bisector cannot miss the opposite side")
    d = hit.point
    return da_norm(u, d) * da_norm(v, w) - da_norm(d, w) * da_norm(v, u)


@dataclass(frozen=True)
class CenterSet:
    """The classical centers of a triangle in this geometry.

    The incenter is the common point of the three interior bisectors and
    always lies on the singular line through the negative vertex.  Two
    excenters are finite (their x-coordinates are the abscissae of the two
    positive vertices); the third is the singular-direction ideal point.
    """

    incenter: Point
    excenter_a: Point          # on the singular line through the largest-x vertex
    excenter_c: Point          # on the singular line through the smallest-x vertex
    excenter_ideal: MeetResult
    centroid: Point
    tangent_triangle: DATriangle
    tangent_centroid: Point
    bisector_centroid: Point


def _centroid(p: Point, q: Point, r: Point) -> Point:
    xs, X = lift_triple((p.x, q.x, r.x))
    ys, Y = lift_triple((p.y, q.y, r.y))
    return Point(ratio(sum(xs), 3 * X), ratio(sum(ys), 3 * Y))


def centers(t: DATriangle) -> CenterSet:
    """Incenter, excenters, centroid and tangent triangle, all exact.

    The centroid of the incenter and the two finite excenters (the
    bisector triangle's vertices) is certified to be the midpoint of the
    triangle centroid and the tangent-triangle centroid.
    """
    lo, mid, hi = t.sorted_vertices()
    neg = t.negative_vertex_label
    pos_labels = [lbl for lbl in VERTICES if lbl != neg]
    lo_label = next(l for l in pos_labels if t.vertex(l) == lo)
    hi_label = next(l for l in pos_labels if t.vertex(l) == hi)

    bis_lo = bisector_at(t, lo_label, "interior")
    bis_hi = bisector_at(t, hi_label, "interior")
    bis_neg = bisector_at(t, neg, "positive")

    incenter = meet(bis_lo, Line.singular(mid.x))
    if not (incenter.is_finite
            and meet(bis_hi, Line.singular(mid.x)) == incenter):
        raise KernelInvariantError("interior bisectors miss a common incenter")

    ex_a = meet(bis_lo, bis_neg)   # lands on x = hi.x
    ex_c = meet(bis_hi, bis_neg)   # lands on x = lo.x
    if not (ex_a.is_finite and ex_a.point.x == hi.x):
        raise KernelInvariantError("excenter off the high vertex axis")
    if not (ex_c.is_finite and ex_c.point.x == lo.x):
        raise KernelInvariantError("excenter off the low vertex axis")
    ex_ideal = meet(Line.singular(lo.x), Line.singular(hi.x))

    par = t.parabola
    kn, kd = par.kappa.numerator, par.kappa.denominator
    bn, bd = par.beta.numerator, par.beta.denominator
    gn, gd = par.gamma.numerator, par.gamma.denominator
    xs, D = lift_triple((t.a.x, t.b.x, t.c.x))
    tangent_pts = {}
    for label, (i, j) in _OTHERS.items():
        # Tangent-triangle vertex opposite `label`: the meet of the tangents
        # at the other two vertices, at abscissae u, w, is at their midpoint
        # xm and height kappa*u*w + beta*xm + gamma, here over 2*D^2*kd*bd*gd.
        u, w = xs[i], xs[j]
        y = (2 * kn * u * w * bd * gd + bn * (u + w) * D * kd * gd
             + 2 * gn * D * D * kd * bd)
        tangent_pts[label] = Point(ratio(u + w, 2 * D),
                                   ratio(y, 2 * D * D * kd * bd * gd))
    tangent_triangle = DATriangle(tangent_pts["A"], tangent_pts["B"],
                                  tangent_pts["C"])

    g = _centroid(t.a, t.b, t.c)
    g_t = _centroid(*(tangent_pts[lbl] for lbl in VERTICES))
    g_i = _centroid(incenter.point, ex_a.point, ex_c.point)
    if g_i != midpoint(g, g_t):
        raise KernelInvariantError("bisector centroid is not the midpoint")

    return CenterSet(incenter.point, ex_a.point, ex_c.point, ex_ideal,
                     g, tangent_triangle, g_t, g_i)


# ---------------------------------------------------------------------------
# Perpendiculars and Simson configurations.
# ---------------------------------------------------------------------------

def foot_of_perpendicular(p: Point, l: Line) -> Point:
    """Foot of the perpendicular from a point onto a sloped line.

    Perpendiculars are singular lines, so the foot shares the abscissa of
    the point; a singular target line has no foot.
    """
    if l.is_singular:
        raise DegenerateConfigurationError(
            "no perpendicular foot on a singular line")
    return l.point_at(p.x)


def perpendicular_feet(t: DATriangle) -> dict[str, Point]:
    """Feet of the perpendiculars dropped from each vertex onto the
    opposite side line."""
    return {lbl: foot_of_perpendicular(t.vertex(lbl), t.side(lbl))
            for lbl in VERTICES}


def perpendicular_bisectors(t: DATriangle) -> dict[str, Line]:
    """Perpendicular bisectors of the sides, keyed by the opposite vertex;
    each is the singular line through the side midpoint."""
    out = {}
    for lbl in VERTICES:
        u, w = t.others(lbl)
        out[lbl] = Line.singular((u.x + w.x) / 2)
    return out


def altitudes(t: DATriangle) -> dict[str, Line]:
    return {lbl: Line.singular(t.vertex(lbl).x) for lbl in VERTICES}


def circum_ortho_at_infinity(t: DATriangle) -> tuple[MeetResult, MeetResult]:
    """The circumcenter and orthocenter analogues: the perpendicular
    bisectors and the altitudes are each three parallel singular lines, so
    both families concur at the singular-direction ideal point."""
    pbs = list(perpendicular_bisectors(t).values())
    alts = list(altitudes(t).values())
    circum = meet(pbs[0], pbs[1])
    ortho = meet(alts[0], alts[1])
    if not (circum == meet(pbs[1], pbs[2]) == MeetResult.ideal(None)):
        raise KernelInvariantError("perpendicular bisectors not concurrent "
                                   "at the singular ideal point")
    if not (ortho == meet(alts[1], alts[2]) == MeetResult.ideal(None)):
        raise KernelInvariantError("altitudes not concurrent at the "
                                   "singular ideal point")
    return circum, ortho


def naive_simson(t: DATriangle, p: Point) -> Line:
    """Feet of the perpendiculars from a circumparabola point to the three
    sides: all share the point's abscissa, so the 'Simson line' of this
    naive construction is the singular line through the point."""
    if not t.parabola.contains(p):
        raise DegenerateConfigurationError("point is not on the circumparabola")
    if p in (t.a, t.b, t.c):
        raise DegenerateConfigurationError("point coincides with a vertex")
    feet = {lbl: foot_of_perpendicular(p, t.side(lbl)) for lbl in VERTICES}
    if not all(f.x == p.x for f in feet.values()):
        raise KernelInvariantError("perpendicular foot off the point's axis")
    # A second route: each foot lies on the line through its side's ends.
    if not all(collinear(f, *t.others(lbl)) for lbl, f in feet.items()):
        raise KernelInvariantError("perpendicular foot off its side")
    return Line.singular(p.x)


class SimsonResult(NamedTuple):
    chord_points: dict[str, Point]   # K_A, K_B, K_C
    feet: dict[str, Point]           # H_A, H_B, H_C
    line: Line                       # the common line of the feet
    drop_meet: MeetResult            # shared ideal point of the drop lines


def simson(t: DATriangle, m: Fraction) -> SimsonResult:
    """Directional Simson configuration for a slope ``m``.

    Chords of slope m through each vertex meet the circumparabola again at
    K_A, K_B, K_C (the vertex itself when the chord is tangent); the
    perpendiculars dropped from those points to the opposite sides are
    parallel singular lines (one shared ideal point), and their feet are
    collinear on a line whose slope is exactly m.
    """
    m = Fraction(m)
    par = t.parabola
    ks = {lbl: second_intersection(par, t.vertex(lbl), m) for lbl in VERTICES}
    feet = {lbl: foot_of_perpendicular(ks[lbl], t.side(lbl))
            for lbl in VERTICES}
    pts = list(feet.values())
    drops = [Line.singular(k.x) for k in ks.values()]
    drop_meet = meet(drops[0], drops[1])
    # Each foot has its K point's abscissa (m - beta)/kappa - x_V, and the
    # x_V are distinct, so the feet span a line.
    line = line_through(pts[0], pts[1])
    if not line.contains(pts[2]):
        raise KernelInvariantError("Simson feet not collinear")
    if line.m != m:
        raise KernelInvariantError("Simson line slope differs from m")
    if drop_meet != MeetResult.ideal(None):
        raise KernelInvariantError("drop lines not parallel singular lines")
    return SimsonResult(ks, feet, line, drop_meet)


# ---------------------------------------------------------------------------
# Feet-midpoint lemma and the bisector collinearity theorem.
# ---------------------------------------------------------------------------

class MidpointLemmaResult(NamedTuple):
    meets: dict[str, Point]       # D (= l_B ^ l_C) keyed "A", etc.
    feet: dict[str, Point]        # perpendicular feet A', B', C'
    residuals: dict[str, Point]   # meets minus midpoints, componentwise


def midpoint_lemma_check(t: DATriangle) -> MidpointLemmaResult:
    """Pairwise meets of the positive-angle bisectors against the
    perpendicular feet.

    With l_A, l_B, l_C the positive-mode bisectors, l_B ^ l_C is the
    midpoint of A and the foot of the perpendicular from A, and cyclically.
    Every pair meets at a finite point: the positive bisector at V has
    slope kappa*(x_V + (x_U + x_W)/2) + beta, so two of them differ in
    slope by kappa*(x_V - x_U)/2, which is nonzero.
    """
    bis = {lbl: bisector_at(t, lbl, "positive") for lbl in VERTICES}
    feet = perpendicular_feet(t)
    meets, residuals = {}, {}
    for lbl, (u, w) in _CYCLIC_OTHERS.items():
        hit = meet(bis[u], bis[w])
        if not hit.is_finite:
            raise KernelInvariantError("positive bisectors are parallel")
        meets[lbl] = hit.point
        mid = midpoint(t.vertex(lbl), feet[lbl])
        residuals[lbl] = Point(hit.point.x - mid.x, hit.point.y - mid.y)
    return MidpointLemmaResult(meets, feet, residuals)


class DABCTResult(NamedTuple):
    l_points: dict[str, Point]   # L_A, L_B, L_C
    feet: dict[str, Point]
    det_residual: Fraction
    concurrency_ok: bool


def dabct(t: DATriangle) -> DABCTResult:
    """Bisector collinearity: with the positive-mode bisectors l_V and the
    perpendicular feet H_V,

    * side AB, bisector l_C and the feet chord H_A H_B concur at
      L_C = AB ^ l_C (and cyclically), and
    * L_A, L_B, L_C are collinear.

    The bisector at the negative vertex is deliberately the positive-mode
    (external) one; reading it as the singular interior bisector instead
    sends that L point to infinity and breaks the collinearity, so that
    variant is not asserted.  Triangles with two equal side norms are
    rejected: there the meet at the middle vertex degenerates to an ideal
    point.
    """
    if t.is_isosceles:
        raise DegenerateConfigurationError(
            "two equal side norms: bisector meet degenerates")
    bis = {lbl: bisector_at(t, lbl, "positive") for lbl in VERTICES}
    feet = perpendicular_feet(t)
    l_points = {}
    concurrency_ok = True
    for lbl in VERTICES:
        hit = meet(t.side(lbl), bis[lbl])
        if not hit.is_finite:
            raise KernelInvariantError(
                "non-isosceles triangles have finite L points")
        l_points[lbl] = hit.point
        u, w = _CYCLIC_OTHERS[lbl]
        chord = line_through(feet[u], feet[w])
        if not chord.contains(hit.point):
            concurrency_ok = False
    la, lb, lc = l_points["A"], l_points["B"], l_points["C"]
    residual = det3((la.x, la.y, 1), (lb.x, lb.y, 1), (lc.x, lc.y, 1))
    return DABCTResult(l_points, feet, residual, concurrency_ok)
