"""Classical-analogue theorem suite: quadrilateral identities, Miquel
points, Ceva/Menelaus, and the isogonal machinery.

Every operation returns an exact residual (or an exact verdict); the
randomized campaigns in the harness drive these over thousands of
configurations.  Miquel points are computed without any root-finding: each
pair of circumscribing parabolas shares a named point of the
configuration, so the companion intersection is a Vieta extraction and
stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateConfigurationError, KernelInvariantError
from .gauge import (Line, MeetResult, Point, _abscissae, _slope_terms,
                    concurrent, line_through, meet)
from .parabola import (Parabola, circumparabola, conparabolic,
                       opposite_angle_sum, parabola_meet, second_intersection,
                       second_meet)
from .scalar import lift_triple, ratio
from .triangle import DATriangle, VERTICES, _divider, _singular_through


def _require_on(p: Parabola, *pts: Point) -> None:
    for pt in pts:
        if not p.contains(pt):
            raise DegenerateConfigurationError(f"{pt} is not on {p}")


def ptolemy_residual(a: Point, b: Point, c: Point, d: Point,
                     curve: Parabola) -> Fraction:
    """|AB||CD| + |AD||BC| - |AC||BD| with oriented lengths (plain
    x-differences); identically zero for four points on one vertical-axis
    parabola."""
    _require_on(curve, a, b, c, d)
    # Abscissae as integers over one L; each product is then over L^2.
    (xa, xb, xc, xd), scale = _abscissae((a, b, c, d))
    ab, cd = xb - xa, xd - xc
    ad, bc = xd - xa, xc - xb
    ac, bd = xc - xa, xd - xb
    return ratio(ab * cd + ad * bc - ac * bd, scale * scale)


def brahmagupta_check(curve: Parabola, e: Point, a: Point, b: Point,
                      d: Point) -> Fraction:
    """Residual of the chord-bisection property: for E, A, B, D on the
    curve in x-order with DE parallel to AB, the crossing AD ^ EB sits on
    the singular line through the midpoint of AB.

    Returns x(AD ^ EB) - (x_A + x_B)/2, exactly 0.
    """
    _require_on(curve, e, a, b, d)
    (xe, xa, xb, xd), scale = _abscissae((e, a, b, d))
    if not (xe < xa < xb < xd):
        raise DegenerateConfigurationError("need x-order e < a < b < d")
    # The chords' slopes, cross-multiplied; the x-order keeps both dx
    # nonzero.
    n1, d1 = _slope_terms(d, e)
    n2, d2 = _slope_terms(a, b)
    if n1 * d2 != n2 * d1:
        raise DegenerateConfigurationError("DE is not parallel to AB")
    crossing = meet(line_through(a, d), line_through(e, b))
    if not crossing.is_finite:
        raise KernelInvariantError("diagonals AD and EB do not cross")
    # x - (xa + xb)/(2 scale) over the crossing's triple.
    X, _, Z = crossing.point.xyz
    return ratio(2 * scale * X - (xa + xb) * Z, 2 * scale * Z)


class TrapezoidVerdict(NamedTuple):
    is_isosceles_trapezoid: bool
    is_inscribed_with_parallel_pair: bool


def trapezoid_equivalence(a: Point, b: Point, c: Point,
                          d: Point) -> TrapezoidVerdict:
    """Evaluate both sides of the trapezoid characterization.

    A quadrilateral ABCD (sides AB, BC, CD, DA, no side or diagonal
    singular) is an isosceles trapezoid when exactly one pair of opposite
    sides is parallel and the other pair has equal norms; the theorem makes
    that equivalent to being inscribed in a vertical-axis parabola with a
    parallel pair of opposite sides.
    """
    # Each side's and diagonal's (dy, dx) as in slope_between, over the
    # product of its ends' Z: slopes compare cross-multiplied, and the
    # norm |x_Q - x_P| of PQ is |dx| / (Z_P Z_Q).
    ab, bc, cd, da, ac, bd = (_slope_terms(p, q) for p, q in (
        (a, b), (b, c), (c, d), (d, a), (a, c), (b, d)))
    if not (ab[1] and bc[1] and cd[1] and da[1] and ac[1] and bd[1]):
        raise DegenerateConfigurationError("singular side or diagonal")
    ab_cd = ab[0] * cd[1] == cd[0] * ab[1]
    bc_da = bc[0] * da[1] == da[0] * bc[1]
    one_pair = ab_cd != bc_da
    za, zb, zc, zd = a.xyz[2], b.xyz[2], c.xyz[2], d.xyz[2]
    is_iso = one_pair and (abs(bc[1]) * zd * za == abs(da[1]) * zb * zc
                           if ab_cd
                           else abs(ab[1]) * zc * zd == abs(cd[1]) * za * zb)
    inscribed = conparabolic(a, b, c, d)
    return TrapezoidVerdict(is_iso, inscribed and one_pair)


def intersecting_parabolas_check(gamma: Parabola, delta: Parabola,
                                 m_a: Fraction, m_b: Fraction) -> Fraction:
    """Residual of the two-parabola chord parallelism.

    The curves must meet at two rational points A and B.  A line of slope
    m_a through A re-meets gamma at P and delta at Q; a line of slope m_b
    through B re-meets them at R and S.  PR and QS are parallel, so the
    returned slope difference is 0.  Tangent choices of slope (which
    collapse a chord to a point) are rejected.
    """
    hits = parabola_meet(gamma, delta)
    finite = [h.point for h in hits if h.is_finite]
    if len(finite) != 2:
        raise DegenerateConfigurationError(
            "parabolas must meet at two rational points")
    # parabola_meet lists its finite meets in increasing x.
    a, b = finite
    p = second_intersection(gamma, a, m_a)
    q = second_intersection(delta, a, m_a)
    r = second_intersection(gamma, b, m_b)
    s = second_intersection(delta, b, m_b)
    if a in (p, q) or b in (r, s):
        raise DegenerateConfigurationError("tangent chord at a common point")
    # slope(PR) - slope(QS), each slope's dy and dx cross-multiplied as
    # in slope_between, built once; dx == 0 is a singular chord.
    n1, d1 = _slope_terms(p, r)
    n2, d2 = _slope_terms(q, s)
    if not (d1 and d2):
        raise DegenerateConfigurationError("singular cross-chord")
    return ratio(n1 * d2 - n2 * d1, d1 * d2)


def arc_symmetry_check(t: DATriangle, p_param: Fraction) -> bool:
    """Reflection symmetry of cevian crossings on a parabola arc.

    For a triangle on its circumparabola with sorted abscissae a < b < c
    and a parameter b < p < c, the crossing D = BC ^ AP together with
    D' = CA ^ BP' (P' the reflection of P at x = c) is conparabolic with
    A and B.  Verified through the opposite-angle-sum predicate (plus a
    direct membership check).
    """
    lo, mid, hi = t.sorted_vertices()
    (xm, xp, xh), scale = lift_triple((mid.x, p_param, hi.x))
    if not (xm < xp < xh):
        raise DegenerateConfigurationError("parameter must lie on the arc")
    par = t.parabola
    p = par.point_at(p_param)
    p_refl = par.point_at(ratio(2 * xh - xp, scale))
    d_hit = meet(line_through(mid, hi), line_through(lo, p))
    d2_hit = meet(line_through(hi, lo), line_through(mid, p_refl))
    if not (d_hit.is_finite and d2_hit.is_finite):
        raise DegenerateConfigurationError("cevian parallel to a side")
    d, d2 = d_hit.point, d2_hit.point
    quad = [lo, mid, d, d2]
    xs, _ = _abscissae(quad)
    if len(set(xs)) < 4:
        raise DegenerateConfigurationError("coincident abscissae in quadruple")
    ok = conparabolic(*quad)
    if xs == sorted(xs):
        ok = ok and opposite_angle_sum(*quad) == 0
    return ok


# ---------------------------------------------------------------------------
# Ceva / Menelaus.
# ---------------------------------------------------------------------------

#: For D, E, F: the foot's index in (A, B, C, D, E, F), the indices of its
#: side's ends U, W in ratio order (BC, CA, AB), and the opposite label.
_FEET = ((3, 1, 2, "A"), (4, 2, 0, "B"), (5, 0, 1, "C"))


def _require_feet(t: DATriangle, d: Point, e: Point,
                  f: Point) -> list[tuple[int, int]]:
    """Reject a foot off its side line or at a vertex; return each foot
    X's directed ratio UX : XW in the segment norm (x-differences) as an
    integer pair ``(num, den)``, for D on BC, E on CA and F on AB."""
    pts = (t.a, t.b, t.c, d, e, f)
    xs, _ = _abscissae(pts)
    ratios = []
    for x, u, w, lbl in _FEET:
        if not t.side(lbl).contains(pts[x]):
            raise DegenerateConfigurationError(f"foot {pts[x]} off side {lbl}")
        num, den = xs[x] - xs[u], xs[w] - xs[x]
        # A point of the sloped line UW shares its abscissa only with U or
        # W, so this is the vertex test, and it keeps den nonzero.
        if num == 0 or den == 0:
            raise DegenerateConfigurationError("foot at a vertex")
        ratios.append((num, den))
    return ratios


def ceva_product(t: DATriangle, d: Point, e: Point, f: Point) -> Fraction:
    """Signed cevian product (BD/DC)(CE/EA)(AF/FB) in directed segment
    norms; equals 1 exactly when AD, BE, CF are concurrent."""
    # One Fraction over the product of the ratio denominators.
    (n1, d1), (n2, d2), (n3, d3) = _require_feet(t, d, e, f)
    return ratio(n1 * n2 * n3, d1 * d2 * d3)


def cevians_concurrent(t: DATriangle, d: Point, e: Point, f: Point) -> bool:
    """Meet-based concurrency oracle, independent of the ratio product."""
    return concurrent(line_through(t.a, d), line_through(t.b, e),
                      line_through(t.c, f))


def menelaus_product(t: DATriangle, d: Point, e: Point, f: Point) -> Fraction:
    """Same signed product as Ceva over points of the side lines (external
    positions allowed); equals -1 exactly when D, E, F are collinear."""
    return ceva_product(t, d, e, f)


# ---------------------------------------------------------------------------
# Miquel configurations.
# ---------------------------------------------------------------------------

class MiquelResult(NamedTuple):
    point: MeetResult
    memberships: dict[str, Fraction]   # curve label -> residual (finite case)
    kind: str                          # "finite" | "ideal"
    curves: dict[str, Parabola]        # curve label -> circumparabola


def _miquel_result(m: MeetResult,
                   curves: dict[str, Parabola]) -> MiquelResult:
    """Package a common point with each curve's membership residual."""
    if m.is_ideal:
        return MiquelResult(m, {}, "ideal", curves)
    memberships = {name: curve.residual(m.point)
                   for name, curve in curves.items()}
    return MiquelResult(m, memberships, "finite", curves)


def miquel_triangle(t: DATriangle, d: Point, e: Point,
                    f: Point) -> MiquelResult:
    """Common point of the three cevian-feet circumparabolas.

    With D, E, F interior to sides BC, CA, AB, the parabolas through
    (A,E,F), (B,F,D), (C,D,E) concur.  The point is extracted from the
    pair through the shared foot F and certified exactly against the third
    curve; equal quadratic coefficients put it at the axis ideal point,
    and C_AEF tangent to C_BFD at F puts it at F, which is then on C_CDE.
    All three pairings are cross-checked for consistency.
    """
    _require_feet(t, d, e, f)
    curves = {"C_AEF": circumparabola(t.a, e, f),
              "C_BFD": circumparabola(t.b, f, d),
              "C_CDE": circumparabola(t.c, d, e)}
    c_aef, c_bfd, c_cde = curves.values()

    m = second_meet(c_aef, c_bfd, f)
    via_e = second_meet(c_aef, c_cde, e)
    via_d = second_meet(c_bfd, c_cde, d)

    if m.is_ideal or via_e.is_ideal or via_d.is_ideal:
        # Every vertical-axis parabola passes through the axis ideal point,
        # so an ideal companion anywhere forces the common point there.
        if not (m.is_ideal and via_e.is_ideal and via_d.is_ideal):
            raise DegenerateConfigurationError(
                "inconsistent finite/ideal Miquel pairings")
    elif not (m == via_e == via_d):
        raise KernelInvariantError(
            "Miquel pairings disagree on the common point")
    return _miquel_result(m, curves)


@dataclass(frozen=True)
class CompleteQuadrilateral:
    """Four lines in general position, none singular, with the six labeled
    intersection points A, B, C, D (cyclic) and E = AB ^ CD, F = BC ^ AD.

    Construction enforces the nonsingularity assumptions: finite pairwise
    meets and no three lines concurrent, which keep every circumscribing
    triple off a shared abscissa and off a common line.
    """

    l1: Line  # carries A, B
    l2: Line  # carries B, C
    l3: Line  # carries C, D
    l4: Line  # carries D, A
    _points: dict[str, Point] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lines = (self.l1, self.l2, self.l3, self.l4)
        if any(l.is_singular for l in lines):
            raise DegenerateConfigurationError("singular line in quadrilateral")
        pts = {}
        for label, (i, j) in (("A", (3, 0)), ("B", (0, 1)), ("C", (1, 2)),
                              ("D", (2, 3)), ("E", (0, 2)), ("F", (1, 3))):
            hit = meet(lines[i], lines[j])
            if not hit.is_finite:
                raise DegenerateConfigurationError(
                    "parallel or coincident lines")
            pts[label] = hit.point
        object.__setattr__(self, "_points", pts)
        if any(concurrent(*lines[:i], *lines[i + 1:]) for i in range(4)):
            raise DegenerateConfigurationError("three lines concurrent")
        # That is also the whole test for the defining triples: any two
        # points of one triple lie on a common sloped line, so with six
        # distinct points they have distinct abscissae, and a third point
        # on that line would put three lines through one point.

    def points(self) -> dict[str, Point]:
        return dict(self._points)

    def defining_triples(self) -> dict[str, tuple[Point, Point, Point]]:
        p = self._points
        return {
            "C_ABF": (p["A"], p["B"], p["F"]),
            "C_BCE": (p["B"], p["C"], p["E"]),
            "C_CDF": (p["C"], p["D"], p["F"]),
            "C_DAE": (p["D"], p["A"], p["E"]),
        }


def miquel_quadrilateral(q: CompleteQuadrilateral) -> MiquelResult:
    """Common point of the four circumparabolas of a complete
    quadrilateral.

    The candidate is the companion of the pair (C_ABF, C_BCE) through the
    shared point B; its exact membership in C_CDF and C_DAE is the
    certificate.  Pairs with equal quadratic coefficient push the common
    point to the axis ideal point, which all four curves contain.
    """
    curves = {name: circumparabola(*pts)
              for name, pts in q.defining_triples().items()}
    m = second_meet(curves["C_ABF"], curves["C_BCE"], q.points()["B"])
    return _miquel_result(m, curves)


# ---------------------------------------------------------------------------
# Isogonal machinery.
# ---------------------------------------------------------------------------

def _chord_height(p: int, x0: int, q: int) -> int:
    """(p + q) x0 - p q for integer parameters: the
    :func:`singular_projective_length` of ``p/s``, ``x0/s`` and ``q/s``
    times ``s**2``, for any common scale ``s``."""
    return (p + q) * x0 - p * q


def singular_projective_length(p: Fraction, x0: Fraction,
                               q: Fraction) -> Fraction:
    """Height at which the chord from parameter p to parameter q of the
    standard parabola crosses the singular line x = x0:
    (p + q) x0 - p q, affine-linear in q."""
    (pn, xn, qn), scale = lift_triple((p, x0, q))
    if pn == qn:
        raise DegenerateConfigurationError("degenerate chord")
    return ratio(_chord_height(pn, xn, qn), scale * scale)


def mn_division_check(a: Fraction, b: Fraction, p: Fraction, m: int,
                      n: int) -> tuple[Fraction, Fraction]:
    """Residual pair of the angle-division/segment-division correspondence
    on the standard parabola, for integer weights ``m`` and ``n``.

    With C at parameter (n a + m b)/(m + n), the chord P C cuts the
    singular lines at A and B so that A A_C : A_C A_B = m : n and
    B B_C : B_C B_A = n : m (directed vertical measures).  Both residuals
    are exactly 0.
    """
    if m <= 0 or n <= 0:
        raise DegenerateConfigurationError("division weights must be positive")
    # a, b, p as integers over one scale s, then over w s with w = m + n,
    # where c is n a + m b: every term below is over (w s)**2.
    (A, B, P), s = lift_triple((a, b, p))
    if A == B or A == P or B == P:
        raise DegenerateConfigurationError("parameters must be distinct")
    w = m + n
    C = n * A + m * B
    A, B, P, ws = w * A, w * B, w * P, w * s
    if C == P:
        raise DegenerateConfigurationError("chord PC is degenerate")
    a_c = _chord_height(P, A, C)
    b_c = _chord_height(P, B, C)
    res_a = n * (a_c - A * A) - m * (_chord_height(P, A, B) - a_c)
    res_b = m * (b_c - B * B) - n * (_chord_height(P, B, A) - b_c)
    return ratio(res_a, ws * ws), ratio(res_b, ws * ws)


@dataclass(frozen=True)
class CevianSpec:
    """An angle divider at a vertex.

    ``ratio = (m, n)`` splits the angle m:n measured from ``base`` (the
    side named by its far endpoint, e.g. base "B" at vertex A measures
    from side AB).  ``singular=True`` requests the singular line through
    the vertex instead (the interior bisector at the negative vertex).
    """

    ratio: tuple[Fraction, Fraction] = (Fraction(1), Fraction(1))
    base: str = ""
    singular: bool = False

    def swapped(self) -> "CevianSpec":
        """The isogonal image of this spec: the division ratio inverts
        (reflection across the positive-angle bisector); the singular
        cevian is a fixed point of the map, making the map an involution."""
        if self.singular:
            return self
        return CevianSpec((self.ratio[1], self.ratio[0]), self.base,
                          self.singular)


def cevian_line(t: DATriangle, vertex: str, spec: CevianSpec) -> Line:
    """Concrete line of a cevian spec at a vertex: the slope interpolates
    the two adjacent side slopes with weights m:n starting at the base
    side."""
    v = t.vertex(vertex)
    if spec.singular:
        return _singular_through(v)
    # The vertices have distinct abscissae, so a label other than the
    # vertex's names one of the two adjacent sides.
    base = spec.base
    if base not in VERTICES or base == vertex:
        raise DegenerateConfigurationError(
            f"base {base!r} is not adjacent to vertex {vertex}")
    return _divider(t, vertex, base, *spec.ratio)


class IsogonalVerdict(NamedTuple):
    original_concurrent: bool
    isogonal_concurrent: bool


def isogonal_concurrency_check(t: DATriangle,
                               specs: dict[str, CevianSpec]) -> IsogonalVerdict:
    """Whether a cevian triple and its isogonal images are concurrent.

    Concurrency is decided by the exact meet oracle over the three cevian
    lines; the theorem asserts that concurrency survives the isogonal map.
    """
    def concurrent_for(ss: dict[str, CevianSpec]) -> bool:
        return concurrent(*(cevian_line(t, v, ss[v]) for v in VERTICES))

    mirrored = {v: s.swapped() for v, s in specs.items()}
    round_trip = {v: s.swapped() for v, s in mirrored.items()}
    if round_trip != specs:
        raise KernelInvariantError("isogonal map must be an involution")
    return IsogonalVerdict(concurrent_for(specs), concurrent_for(mirrored))
