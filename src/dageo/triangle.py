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
The vertices' triples are brought over the lcm of their Z once; the
curve (an integer quadruple), angles, sides and positive bisectors are
built from that lift, each side line and bisector once, on first use,
and kept: ``side`` and ``bisector_at`` read that cache, so the
constructions and checkers that share a triangle share its lines.  The angles read the curve's
quadruple, and the certificate's integer lift of the side norms is kept
for the equality tests of ``is_isosceles`` and ``classify_pair``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import DegenerateConfigurationError, KernelInvariantError
from .gauge import (Line, MeetResult, Point, _line, _point, da_norm,
                    line_through, meet, midpoint)
from .parabola import Parabola, _parabola_through, second_intersection
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
    #: (X, Y, L): the vertices' abscissae X and ordinates Y over one L.
    _lift: tuple = field(init=False, compare=False, repr=False)
    #: (N, L): the stored side norms as integers N over their lcm L.
    _norm_lift: tuple = field(init=False, compare=False, repr=False)
    #: Side lines keyed by the opposite label, bisectors by (label, mode).
    _lines: dict = field(init=False, compare=False, repr=False,
                         default_factory=dict)

    def __post_init__(self):
        pts = (self.a, self.b, self.c)
        # The three triples over the lcm L of their Z.
        (X1, Y1, Z1), (X2, Y2, Z2), (X3, Y3, Z3) = (
            self.a.xyz, self.b.xyz, self.c.xyz)
        L = lcm(Z1, Z2, Z3)
        l1, l2, l3 = L // Z1, L // Z2, L // Z3
        xs, ys = (X1 * l1, X2 * l2, X3 * l3), (Y1 * l1, Y2 * l2, Y3 * l3)
        if xs[0] == xs[1] or xs[1] == xs[2] or xs[0] == xs[2]:
            raise DegenerateConfigurationError("singular side (shared x)")
        try:
            par = _parabola_through(*xs, L, *ys, L)
        except DegenerateConfigurationError:
            # With distinct abscissae the only rejection left is kappa == 0,
            # and det3 of the rows (x, y, 1) is kappa times the Vandermonde
            # determinant, so kappa == 0 is exactly collinearity.
            raise DegenerateConfigurationError("collinear vertices") from None
        object.__setattr__(self, "parabola", par)
        # i, j, k index the vertices in increasing x; the angle formula is
        # in the interior_angles docstring, with kappa = K/S, here over
        # S times L.
        i, j, k = sorted(range(3), key=xs.__getitem__)
        K, _, _, S = par._lifted
        scale = abs(K)
        den = S * L
        angles = [None, None, None]
        angles[i] = ratio(scale * (xs[k] - xs[j]), den)
        angles[j] = ratio(scale * (xs[i] - xs[k]), den)
        angles[k] = ratio(scale * (xs[j] - xs[i]), den)
        angles = tuple(angles)
        norms = (da_norm(self.a, self.b), da_norm(self.b, self.c),
                 da_norm(self.c, self.a))
        object.__setattr__(self, "_lift", (xs, ys, L))
        object.__setattr__(self, "_sorted", (pts[i], pts[j], pts[k]))
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "_middle", j)
        # Structural certificate, a theorem, so a failure here means the
        # kernel itself is broken: the largest stored norm is the sum of
        # the other two, i.e. twice it is their total.  The lift is kept
        # for the equality tests of is_isosceles and classify_pair.
        nums, _ = norm_lift = lift_triple(self.side_norms())
        object.__setattr__(self, "_norm_lift", norm_lift)
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

    def x_rank(self, label: str) -> int:
        """Position of a vertex in the x-order: 0, 1 or 2."""
        v = self.vertex(label)
        # _sorted holds the vertex objects themselves.
        return next(i for i, q in enumerate(self._sorted) if q is v)

    @property
    def negative_vertex_label(self) -> str:
        return VERTICES[self._middle]

    # -- sides and side norms ----------------------------------------------

    def side(self, label: str) -> Line:
        """Side line opposite the given vertex, built once."""
        line = self._lines.get(label)
        if line is None:
            if label not in _OTHERS:
                raise ValueError(f"unknown vertex label {label!r}")
            i, j = _OTHERS[label]
            xs, ys, L = self._lift
            # The cross product of the lifted triples (x_i, y_i, L).
            line = self._lines[label] = _line(
                (ys[i] - ys[j]) * L, (xs[j] - xs[i]) * L,
                xs[i] * ys[j] - xs[j] * ys[i])
        return line

    def side_norms(self) -> tuple[Fraction, Fraction, Fraction]:
        """Norms of (AB, BC, CA), stored on construction."""
        return self._norms

    @property
    def is_isosceles(self) -> bool:
        p, q, r = self._norm_lift[0]
        return p == q or q == r or p == r

    # -- angles ---------------------------------------------------------------

    def interior_angles(self) -> tuple[Fraction, Fraction, Fraction]:
        """Oriented interior angles at (A, B, C).

        In x-order (p < q < r) with circumparabola coefficient kappa the
        angles are |kappa| * (r-q, p-r, q-p): the interior opening at the
        middle vertex contains the singular direction, which makes that
        angle the negative one whichever way the parabola opens.
        """
        return self._angles


# ---------------------------------------------------------------------------
# Bisectors and centers.
# ---------------------------------------------------------------------------

def bisector_at(t: DATriangle, vertex: str, mode: str = "interior") -> Line:
    """Angle bisector at a vertex.

    ``mode="positive"`` always bisects the positive angle at the vertex:
    the mean-slope ray of the two adjacent sides (the 1:1 divider_line),
    equivalently the chord through the circumparabola point above the
    midpoint of the other two abscissae (the tangent when those coincide).
    ``mode="interior"`` returns the same line at the two positive vertices
    and the singular line through the vertex where the interior angle is
    negative.  Each line is built once per triangle.
    """
    if mode not in ("interior", "positive"):
        raise ValueError(f"unknown bisector mode {mode!r}")
    key = (vertex, mode)
    line = t._lines.get(key)
    if line is not None:
        return line
    v = t.vertex(vertex)
    if mode == "interior":
        line = (Line.singular(v.x) if vertex == t.negative_vertex_label
                else bisector_at(t, vertex, "positive"))
        t._lines[key] = line
        return line
    # The 1:1 divider from the triangle's own lift.
    i = VERTICES.index(vertex)
    j, k = _OTHERS[vertex]
    xs, ys, L = t._lift
    line = t._lines[key] = _divider_line(xs[i], xs[j], xs[k], ys[i], ys[j],
                                         ys[k], L, 1, 1)
    return line


def divider_line(v: Point, b: Point, f: Point, m, n) -> Line:
    """The line through ``v`` that divides the angle between the sides VB
    and VF m:n from VB: its slope is ``(n*slope(VB) + m*slope(VF))/(m + n)``.
    The three abscissae must be distinct; the weights may be ``int`` or
    ``Fraction``, and 1:1 gives the positive bisector."""
    (Xv, Yv, Zv), (Xb, Yb, Zb), (Xf, Yf, Zf) = v.xyz, b.xyz, f.xyz
    L = lcm(Zv, Zb, Zf)
    lv, lb, lf = L // Zv, L // Zb, L // Zf
    return _divider_line(Xv * lv, Xb * lb, Xf * lf, Yv * lv, Yb * lb,
                         Yf * lf, L, m, n)


def _divider_line(xv: int, xb: int, xf: int, yv: int, yb: int, yf: int,
                  L: int, m, n) -> Line:
    """:func:`divider_line` of the points ``(x_i/L, y_i/L)``, from their
    integers; ``bisector_at`` calls it with the triangle's lift."""
    mn, md, nn, nd = m.numerator, m.denominator, n.numerator, n.denominator
    if mn * nd + nn * md == 0:
        raise DegenerateConfigurationError("degenerate division weights")
    # The side slopes are dy/dx, so (n*s_base + m*s_far)/(m + n) is P/Q,
    # and the intercept y_V - slope*x_V is over L*Q.
    dx_b, dx_f, dy_b, dy_f = xb - xv, xf - xv, yb - yv, yf - yv
    p = nn * md * dy_b * dx_f + mn * nd * dy_f * dx_b
    q = (mn * nd + nn * md) * dx_b * dx_f
    if not q:
        raise DegenerateConfigurationError("shared abscissa: no side slope")
    return _line(L * p, -L * q, yv * q - p * xv)


def bisector_ratio_check(t: DATriangle, vertex: str) -> Fraction:
    """Residual of the bisector ratio identity at a vertex: with D the
    foot of the interior bisector on the opposite side,
    |UD| * |VW| - |DW| * |VU| = 0 (labels: V the vertex, U, W the others).

    At the negative vertex the interior bisector is singular and the foot
    simply splits the opposite side at x = x_V; the identity still holds.
    """
    v = VERTICES.index(vertex)
    u, w = _OTHERS[vertex]
    hit = meet(bisector_at(t, vertex, "interior"), t.side(vertex))
    if not hit.is_finite:
        raise KernelInvariantError(
            "interior bisector cannot miss the opposite side")
    # The four abscissae as integers over one scale, the triangle's L
    # times the foot's Z; each norm product is then over its square.
    xs, _, L = t._lift
    X, _, Z = hit.point.xyz
    xu, xd, xv, xw = xs[u] * Z, X * L, xs[v] * Z, xs[w] * Z
    scale = L * Z
    return ratio(abs(xd - xu) * abs(xw - xv) - abs(xw - xd) * abs(xu - xv),
                 scale * scale)


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
    (X1, Y1, Z1), (X2, Y2, Z2), (X3, Y3, Z3) = p.xyz, q.xyz, r.xyz
    return _point((X1 * Z2 + X2 * Z1) * Z3 + X3 * Z1 * Z2,
                  (Y1 * Z2 + Y2 * Z1) * Z3 + Y3 * Z1 * Z2, 3 * Z1 * Z2 * Z3)


def centers(t: DATriangle) -> CenterSet:
    """Incenter, excenters, centroid and tangent triangle, all exact.

    The centroid of the incenter and the two finite excenters (the
    bisector triangle's vertices) is certified to be the midpoint of the
    triangle centroid and the tangent-triangle centroid.
    """
    lo, mid, hi = t.sorted_vertices()
    neg = t.negative_vertex_label
    lo_label = next(l for l in VERTICES if t.vertex(l) is lo)
    hi_label = next(l for l in VERTICES if t.vertex(l) is hi)

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

    # The curve's coefficients as integers over S, the abscissae over D.
    K, B, G, S = t.parabola._lifted
    xs, _, D = t._lift
    tangent_pts = {}
    for label, (i, j) in _OTHERS.items():
        # Tangent-triangle vertex opposite `label`: the meet of the tangents
        # at the other two vertices, at abscissae u, w, is at their midpoint
        # xm and height kappa*u*w + beta*xm + gamma, here over 2*D^2*S.
        u, w = xs[i], xs[j]
        y = 2 * K * u * w + B * (u + w) * D + 2 * G * D * D
        tangent_pts[label] = _point((u + w) * D * S, y, 2 * D * D * S)
    tangent_triangle = DATriangle(*tangent_pts.values())

    g = _centroid(t.a, t.b, t.c)
    g_t = _centroid(*tangent_pts.values())
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
    xs, _, D = t._lift
    return {lbl: _line(2 * D, 0, -xs[i] - xs[j])
            for lbl, (i, j) in _OTHERS.items()}


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
    if not isinstance(m, Fraction):
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
        p = meets[lbl] = hit.point
        # p - (v + f)/2 over 2 Zp Zv Zf, from the three triples.
        (Xp, Yp, Zp), (Xv, Yv, Zv), (Xf, Yf, Zf) = (
            p.xyz, t.vertex(lbl).xyz, feet[lbl].xyz)
        residuals[lbl] = _point(2 * Xp * Zv * Zf - (Xv * Zf + Xf * Zv) * Zp,
                                2 * Yp * Zv * Zf - (Yv * Zf + Yf * Zv) * Zp,
                                2 * Zp * Zv * Zf)
    return MidpointLemmaResult(meets, feet, residuals)


class DABCTResult(NamedTuple):
    l_points: dict[str, Point]   # L_A, L_B, L_C
    feet: dict[str, Point]
    det_residual: Fraction       # det3 of the L points' triples
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
    residual = det3(*(l_points[lbl].xyz for lbl in VERTICES))
    return DABCTResult(l_points, feet, residual, concurrency_ok)
