"""Similarity and congruence tiers, the shift group along a parabola, and
the two capstone collinearity results.

The tiers, from weakest to strongest: side-ratio (SSS) similarity, angle
(AA) similarity (equivalent to signed-SAS similarity), norm congruence
(equal side norms), and full congruence (equal side norms and equal
oriented angles).  Norm congruence upgrades to full congruence exactly
when the circumparabola quadratic coefficients agree in absolute value.
A pair is compared label to label (A with A, B with B, C with C): a
congruence is a statement about that vertex pairing, never a best match.
To pair the vertices differently, relabel a triangle, e.g.
``DATriangle(t2.c, t2.b, t2.a)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateConfigurationError, KernelInvariantError
from .gauge import Point, _abscissae, line_through, meet
from .parabola import conparabolic
from .scalar import det3
from .theorems import menelaus_product
from .triangle import VERTICES, DATriangle, foot_of_perpendicular


class EquivalenceVerdict(NamedTuple):
    sim_sss: bool
    sim_aa: bool
    sim_sas_signed: bool
    norm_congruent: bool
    da_congruent: bool


def classify_pair(t1: DATriangle, t2: DATriangle) -> EquivalenceVerdict:
    """Evaluate every tier for a pair of triangles compared label to
    label, asserting the tier-chain invariants."""
    # Norms of (AB, BC, CA) and the angles at (A, B, C), each tuple as
    # integers over its own common denominator, as each triangle stores
    # them: a ratio cross-product is then one of integers (the
    # denominators cancel), and an equality takes the other tuple's
    # denominator as a factor.
    p, P = t1._norm_lift
    q, Q = t2._norm_lift
    u, U = t1._angle_lift
    v, V = t2._angle_lift
    same_angle = [u[k] * V == v[k] * U for k in range(3)]

    sss = p[0] * q[1] == p[1] * q[0] and p[1] * q[2] == p[2] * q[1]
    aa = sum(same_angle) >= 2
    sas = any(
        p[i] * q[j] == p[j] * q[i] and same_angle[k]
        # the angle at vertex k is included between the sides that meet there
        for k, (i, j) in ((0, (0, 2)), (1, (0, 1)), (2, (1, 2)))
    )
    norm_cong = all(p[i] * Q == q[i] * P for i in range(3))
    da_cong = norm_cong and all(same_angle)

    verdict = EquivalenceVerdict(sss, aa, sas, norm_cong, da_cong)
    # The coefficient bridge, independent of the tier formulas above (not
    # of the angles' closed form, which is |kappa| times a norm): in a
    # norm-congruent pair the longest side, hence the negative vertex, is
    # the same label, and each angle is +-|kappa| times the opposite side
    # norm, so the angles agree exactly when |kappa| does.
    if norm_cong and da_cong != _same_abs_kappa(t1, t2):
        raise KernelInvariantError("congruence disagrees with |kappa| match")
    if verdict.sim_sas_signed != verdict.sim_aa:
        raise KernelInvariantError("signed-SAS and AA similarity disagree")
    if verdict.sim_aa and not verdict.sim_sss:
        raise KernelInvariantError("AA similarity without SSS similarity")
    return verdict


def _same_abs_kappa(t1: DATriangle, t2: DATriangle) -> bool:
    """Whether |kappa| agrees: |K1|/S1 == |K2|/S2, cross-multiplied."""
    K1, _, _, S1 = t1.parabola._lifted
    K2, _, _, S2 = t2.parabola._lifted
    return abs(K1) * S2 == abs(K2) * S1


def shift(t: DATriangle, theta: Fraction) -> DATriangle:
    """Slide a triangle along its own circumparabola by the difference
    angle ``theta``.

    The abscissae move by theta/kappa (the inscribed angle subtended by
    each displacement arc is then exactly theta), which preserves all side
    norms and, the parabola being unchanged, all oriented angles: the
    image is congruent to the original.  The map is an additive group
    action in theta.
    """
    par = t.parabola
    # x + theta/kappa = X/Z + theta*S/K over Z*td*K, each vertex's triple
    # read directly.
    tn, td = theta.numerator, theta.denominator
    K, _, _, S = par._lifted
    moved = [par._point_over(X * td * K + tn * S * Z, Z * td * K)
             for X, _, Z in (t.a.xyz, t.b.xyz, t.c.xyz)]
    image = DATriangle(*moved)
    if image.parabola != par:
        raise KernelInvariantError("shift moved the triangle off its parabola")
    return image


class DiagSectionVerdict(NamedTuple):
    xab_xcd: bool
    xbc_xad: bool


def diag_section_similarity(a: Point, b: Point, c: Point,
                            d: Point) -> DiagSectionVerdict:
    """AA-similarity of the diagonal sections of an inscribed quadrilateral.

    With X = AC ^ BD, triangle XAB is angle-similar to XDC (the inscribed
    angle over the chord AB pairs A with D and B with C; the angles at X
    are vertical) and triangle XBC to XAD (B with A, C with D).
    """
    if not conparabolic(a, b, c, d):
        raise DegenerateConfigurationError("points are not conparabolic")
    if a.x == c.x or b.x == d.x:
        raise DegenerateConfigurationError("singular diagonal")
    hit = meet(line_through(a, c), line_through(b, d))
    if not hit.is_finite:
        raise DegenerateConfigurationError("parallel diagonals")
    x = hit.point

    def aa(p1, q1, r1, p2, q2, r2) -> bool:
        u = classify_pair(DATriangle(p1, q1, r1), DATriangle(p2, q2, r2))
        return u.sim_aa

    return DiagSectionVerdict(aa(x, a, b, x, d, c), aa(x, b, c, x, a, d))


class FeetCollinearity(NamedTuple):
    feet: tuple[Point, Point, Point]
    det_residual: Fraction   # det3 of the feet's triples: 0 iff collinear
    menelaus_product: Fraction | None


def final_theorem_feet(t: DATriangle, t2: DATriangle) -> FeetCollinearity:
    """Capstone collinearity: perpendicular feet across a mirror-congruent
    pair.

    ``t`` and ``t2`` live on parabolas with a common axis direction and
    equal |kappa| (opening may be reversed).  Label the second triangle so
    that paired vertices carry the same letter; the pair must then be
    congruent label-to-label while the x-order reverses (the label that is
    leftmost in ``t`` is rightmost in ``t2``): an orientation-reversing
    congruence.  Dropping the perpendicular from each vertex of ``t`` onto
    the same-letter side of ``t2`` (A onto the side opposite t2's A, and
    so on) produces three exactly collinear feet.  The Menelaus product of
    the feet along the transversal, taken with respect to ``t2``, is -1
    whenever all three ratios are defined.

    Same-gap translated copies (label-congruent without the orientation
    reversal) do not satisfy the theorem and are rejected.
    """
    if not _same_abs_kappa(t, t2):
        raise DegenerateConfigurationError(
            "parabolas must share |kappa| for congruence")
    verdict = classify_pair(t, t2)
    if not verdict.da_congruent:
        raise DegenerateConfigurationError(
            "triangles are not congruent label-to-label")
    if not all(t.x_rank(lbl) + t2.x_rank(lbl) == 2 for lbl in VERTICES):
        raise DegenerateConfigurationError(
            "correspondence does not reverse the x-orientation")
    feet = [foot_of_perpendicular(t.vertex(lbl), t2.side(lbl))
            for lbl in VERTICES]
    residual = det3(*(h.xyz for h in feet))

    try:
        menelaus = menelaus_product(t2, *feet)
    except DegenerateConfigurationError:
        menelaus = None
    return FeetCollinearity(tuple(feet), residual, menelaus)


def intro_observation_check(t: DATriangle, t2: DATriangle) -> FeetCollinearity:
    """Translated-parabola collinearity.

    ``t2`` lives on a translate of ``t``'s circumparabola (same kappa) and
    its abscissae, read right to left, repeat the spacing of ``t``:
    with sorted abscissae a < b < c and c' < b' < a',
    b - a = a' - b' and c - b = b' - c'.  The points of the sides BC, CA,
    AB over the abscissae a', b', c' are then exactly collinear.
    """
    K1, _, _, S1 = t.parabola._lifted
    K2, _, _, S2 = t2.parabola._lifted
    if K1 * S2 != K2 * S1:
        raise DegenerateConfigurationError(
            "second parabola is not a translate (kappa differs)")
    a, b, c = t.sorted_vertices()
    cp, bp, ap = t2.sorted_vertices()
    # b - a == a' - b' and c - b == b' - c', over one common denominator.
    (xa, xb, xc, xap, xbp, xcp), _ = _abscissae((a, b, c, ap, bp, cp))
    if not (xb - xa == xap - xbp and xc - xb == xbp - xcp):
        raise DegenerateConfigurationError("spacing hypothesis violated")
    h_a = line_through(b, c).point_at(ap.x)
    h_b = line_through(c, a).point_at(bp.x)
    h_c = line_through(a, b).point_at(cp.x)
    residual = det3(h_a.xyz, h_b.xyz, h_c.xyz)
    return FeetCollinearity((h_a, h_b, h_c), residual, None)
