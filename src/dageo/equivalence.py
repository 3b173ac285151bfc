"""Similarity and congruence tiers, the shift group along a parabola, and
the two capstone collinearity results.

The tiers, from weakest to strongest: side-ratio (SSS) similarity, angle
(AA) similarity (equivalent to signed-SAS similarity), norm congruence
(equal side norms), and full congruence (equal side norms and equal
oriented angles).  Norm congruence upgrades to full congruence exactly
when the circumparabola quadratic coefficients agree in absolute value.
Correspondences are always explicit: a congruence is a statement about a
specific vertex pairing, never a best match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateConfigurationError, KernelInvariantError
from .gauge import Point, line_through, meet
from .parabola import Parabola
from .scalar import det3
from .triangle import VERTICES, DATriangle, foot_of_perpendicular

Correspondence = dict[str, str]  # vertex label of T1 -> vertex label of T2

IDENTITY: Correspondence = {"A": "A", "B": "B", "C": "C"}
REVERSING: Correspondence = {"A": "C", "B": "B", "C": "A"}


def _check_correspondence(corr: Correspondence) -> None:
    if sorted(corr) != list(VERTICES) or sorted(corr.values()) != list(VERTICES):
        raise DegenerateConfigurationError(f"invalid correspondence {corr}")


@dataclass(frozen=True)
class EquivalenceVerdict:
    sim_sss: bool
    sim_aa: bool
    sim_sas_signed: bool
    norm_congruent: bool
    da_congruent: bool
    side_pairs: tuple[tuple[Fraction, Fraction], ...]
    angle_pairs: tuple[tuple[Fraction, Fraction], ...]


def _side_norm(t: DATriangle, u: str, w: str) -> Fraction:
    return abs(t.vertex(u).x - t.vertex(w).x)


def classify_pair(t1: DATriangle, t2: DATriangle,
                  corr: Correspondence = IDENTITY) -> EquivalenceVerdict:
    """Evaluate every tier for a pair of triangles under an explicit
    vertex correspondence, asserting the tier-chain invariants."""
    _check_correspondence(corr)
    side_labels = [("A", "B"), ("B", "C"), ("C", "A")]
    sides = tuple(
        (_side_norm(t1, u, w), _side_norm(t2, corr[u], corr[w]))
        for u, w in side_labels
    )
    angles1 = {lbl: t1.angle_at(lbl) for lbl in VERTICES}
    angles2 = {lbl: t2.angle_at(lbl) for lbl in VERTICES}
    angles = tuple((angles1[lbl], angles2[lbl2])
                   for lbl, lbl2 in ((v, corr[v]) for v in VERTICES))

    sss = (sides[0][0] * sides[1][1] == sides[1][0] * sides[0][1]
           and sides[1][0] * sides[2][1] == sides[2][0] * sides[1][1])
    aa = sum(1 for x, y in angles if x == y) >= 2
    sas = any(
        sides[i][0] * sides[j][1] == sides[j][0] * sides[i][1]
        and angles[k][0] == angles[k][1]
        # the angle at vertex k is included between the sides that meet there
        for k, (i, j) in ((0, (0, 2)), (1, (0, 1)), (2, (1, 2)))
    )
    norm_cong = all(x == y for x, y in sides)
    da_cong = norm_cong and all(x == y for x, y in angles)

    verdict = EquivalenceVerdict(sss, aa, sas, norm_cong, da_cong,
                                 sides, angles)
    if verdict.da_congruent and not verdict.norm_congruent:
        raise KernelInvariantError("full congruence without norm congruence")
    if verdict.sim_sas_signed != verdict.sim_aa:
        raise KernelInvariantError("signed-SAS and AA similarity disagree")
    if verdict.sim_aa and not verdict.sim_sss:
        raise KernelInvariantError("AA similarity without SSS similarity")
    return verdict


def coefficient_bridge(t1: DATriangle, t2: DATriangle,
                       corr: Correspondence = IDENTITY) -> bool:
    """For a norm-congruent pair: full congruence holds iff the
    circumparabola quadratic coefficients agree in absolute value.
    Verified in both directions on the instance; returns the shared truth
    value."""
    verdict = classify_pair(t1, t2, corr)
    if not verdict.norm_congruent:
        raise DegenerateConfigurationError("pair is not norm congruent")
    kappas_match = abs(t1.parabola.kappa) == abs(t2.parabola.kappa)
    assert verdict.da_congruent == kappas_match
    return kappas_match


def sss_not_aa_witness(a: Fraction, b: Fraction, c: Fraction,
                       k: Fraction) -> tuple[DATriangle, DATriangle,
                                             EquivalenceVerdict]:
    """Witness family separating the SSS and AA tiers: the triangles at
    abscissae (a, b, c) and (ka, kb, kc) on the standard parabola are
    SSS-similar with ratio k but their angles scale by k."""
    a, b, c, k = Fraction(a), Fraction(b), Fraction(c), Fraction(k)
    if not (a < b < c) or k <= 0 or k == 1:
        raise DegenerateConfigurationError("need a < b < c and k > 0, k != 1")
    std = Parabola(Fraction(1), Fraction(0), Fraction(0))
    t1 = DATriangle(std.point_at(a), std.point_at(b), std.point_at(c))
    t2 = DATriangle(std.point_at(k * a), std.point_at(k * b),
                    std.point_at(k * c))
    verdict = classify_pair(t1, t2)
    assert verdict.sim_sss and not verdict.sim_aa
    return t1, t2, verdict


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
    delta = Fraction(theta) / par.kappa
    moved = [par.point_at(v.x + delta) for v in (t.a, t.b, t.c)]
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
    from .parabola import conparabolic

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
    det_residual: Fraction
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
    if abs(t.parabola.kappa) != abs(t2.parabola.kappa):
        raise DegenerateConfigurationError(
            "parabolas must share |kappa| for congruence")
    verdict = classify_pair(t, t2, IDENTITY)
    if not verdict.da_congruent:
        raise DegenerateConfigurationError(
            "triangles are not congruent label-to-label")
    rank1 = {v: i for i, v in enumerate(t.sorted_vertices())}
    rank2 = {v: i for i, v in enumerate(t2.sorted_vertices())}
    if not all(rank1[t.vertex(lbl)] + rank2[t2.vertex(lbl)] == 2
               for lbl in VERTICES):
        raise DegenerateConfigurationError(
            "correspondence does not reverse the x-orientation")
    feet = []
    for lbl in VERTICES:
        feet.append(foot_of_perpendicular(t.vertex(lbl), t2.side(lbl)))
    h_a, h_b, h_c = feet
    residual = det3((h_a.x, h_a.y, 1), (h_b.x, h_b.y, 1), (h_c.x, h_c.y, 1))

    menelaus = None
    ratios = []
    cyclic = {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")}
    for foot, lbl in zip(feet, VERTICES):
        u, w = cyclic[lbl]
        du = foot.x - t2.vertex(u).x
        dw = t2.vertex(w).x - foot.x
        if dw == 0:
            break
        ratios.append(du / dw)
    else:
        menelaus = ratios[0] * ratios[1] * ratios[2]
    return FeetCollinearity(tuple(feet), residual, menelaus)


def intro_observation_check(t: DATriangle, t2: DATriangle) -> FeetCollinearity:
    """Translated-parabola collinearity.

    ``t2`` lives on a translate of ``t``'s circumparabola (same kappa) and
    its abscissae, read right to left, repeat the spacing of ``t``:
    with sorted abscissae a < b < c and c' < b' < a',
    b - a = a' - b' and c - b = b' - c'.  The points of the sides BC, CA,
    AB over the abscissae a', b', c' are then exactly collinear.
    """
    if t.parabola.kappa != t2.parabola.kappa:
        raise DegenerateConfigurationError(
            "second parabola is not a translate (kappa differs)")
    a, b, c = t.sorted_vertices()
    cp, bp, ap = t2.sorted_vertices()
    if not (b.x - a.x == ap.x - bp.x and c.x - b.x == bp.x - cp.x):
        raise DegenerateConfigurationError("spacing hypothesis violated")
    h_a = line_through(b, c).point_at(ap.x)
    h_b = line_through(c, a).point_at(bp.x)
    h_c = line_through(a, b).point_at(cp.x)
    residual = det3((h_a.x, h_a.y, 1), (h_b.x, h_b.y, 1), (h_c.x, h_c.y, 1))
    return FeetCollinearity((h_a, h_b, h_c), residual, None)
