"""The theorem registry: one campaign per result of the theory.

Each :class:`Theorem` pairs a generator, which draws a trial's whole
configuration from one :class:`RandomRationals` stream, with an exact
checker.  Generic draws live in :mod:`dageo.generators`; a draw that serves
one theorem lives in its generator here.  A generator rejects only on a
named non-degeneracy condition and never runs the function its checker
tests, so a kernel fault there is an error, not a rejection.
"ptolemy_broken" is a mutation control: its checker is deliberately
wrong, and a healthy harness must catch it within a few trials.

A checker returns (optionally a kind, which the report counts) or raises
:class:`Counterexample`; any other exception is a kernel error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from . import equivalence as eq
from . import theorems as th
from .errors import DegenerateConfigurationError
from .gauge import (Line, Point, _abscissae, _angle_terms, _point,
                    _slope_terms, angle_axiom_checks, difference_angle,
                    line_through, meet, midpoint, slope_between)
from .generators import RandomRationals
from .parabola import (Parabola, circumparabola, inscribed_angle_check,
                       iso_angle_locus, parabolic_power)
from .scalar import between, collinear, lift_triple, ratio
from .triangle import (DATriangle, VERTICES, _weighted_mean, bisector_at,
                       bisector_ratio_check, centers,
                       circum_ortho_at_infinity, dabct, midpoint_lemma_check,
                       simson)


class Counterexample(Exception):
    """A trial's configuration violates the statement under test; the
    message is the report's ``reason``."""


@dataclass(frozen=True)
class Theorem:
    id: str
    description: str
    generate: Callable[[RandomRationals], dict]
    check: Callable[[dict], str | None]


REGISTRY: dict[str, Theorem] = {}


def register(theorem: Theorem) -> Theorem:
    if theorem.id in REGISTRY:
        raise ValueError(f"duplicate theorem id {theorem.id}")
    REGISTRY[theorem.id] = theorem
    return theorem


def _gen_angle_axioms(rng: RandomRationals) -> dict:
    def make():
        # P off the line AB, and both rays from P non-singular.
        a, p, b = (rng.point() for _ in range(3))
        if p.x in (a.x, b.x) or collinear(a, p, b):
            return None
        return a, p, b
    a, p, b = rng.retrying(make)
    return {"A": a, "P": p, "B": b,
            "c_param": rng.fraction_in_unit_interval(),
            "k_scale": rng.positive_rational()}


def _check_angle_axioms(cfg: dict) -> None:
    verdict = angle_axiom_checks(cfg["A"], cfg["P"], cfg["B"],
                                 cfg["c_param"], cfg["k_scale"])
    if verdict is not None:
        raise Counterexample(verdict)


register(Theorem("angle_axioms",
                 "angle axioms: antisymmetry, additivity, vanishing, "
                 "scaling, bisection, vertical/straight angles, norm triple",
                 _gen_angle_axioms, _check_angle_axioms))


def _gen_parabolic_power(rng: RandomRationals) -> dict:
    # The draws of rng.parabola(), kept as the curve's coefficients: the
    # checker reads them, never the stored quadruple, so a wrong quadruple
    # (tests/test_mutants.py's lift mutant) cannot agree with them.
    curve = Parabola(rng.nonzero_rational(), rng.rational(), rng.rational())
    p = rng.point()
    # Reduced Fractions are equal iff their integer pairs are.
    px = p.x.numerator, p.x.denominator
    secant_xs = rng.retrying(
        lambda: rng.distinct_rationals(3),
        lambda xs: all((x.numerator, x.denominator) != px for x in xs))
    return {"curve": curve, "P": p, "secant_xs": secant_xs}


def _check_parabolic_power(cfg: dict) -> None:
    curve, p = cfg["curve"], cfg["P"]
    power = parabolic_power(curve, p)
    # The secant's points come from the curve's lift (point_at); its second
    # abscissa and the power read the stored kappa and beta, so a wrong
    # lift cannot agree with itself.
    kn, kd = curve.kappa.numerator, curve.kappa.denominator
    bn, bd = curve.beta.numerator, curve.beta.denominator
    # P's abscissa X/Z from its triple: the test below is homogeneous in
    # (X, Z).
    pn, _, pd = p.xyz
    wn, wd = power.numerator, power.denominator
    for x1 in cfg["secant_xs"]:
        m = slope_between(p, curve.point_at(x1))
        # Second curve intersection of the secant, via the root sum:
        # x2 = (m - beta)/kappa - x1 = x2n/x2d.
        mn, md = m.numerator, m.denominator
        un, ud = x1.numerator, x1.denominator
        x2n = (mn * bd - bn * md) * kd * ud - un * md * bd * kn
        x2d = md * bd * kn * ud
        # (x1 - px)(x2 - px) == power, cross-multiplied.
        if ((un * pd - pn * ud) * (x2n * pd - pn * x2d) * wd
                != wn * ud * x2d * pd * pd):
            raise Counterexample(f"secant through x={x1} disagrees")


register(Theorem("parabolic_power",
                 "secant product through a point is the parabolic power",
                 _gen_parabolic_power, _check_parabolic_power))


def _gen_iso_angle(rng: RandomRationals) -> dict:
    a, b = rng.distinct_rationals(2)
    theta = rng.nonzero_rational()
    # Reduced Fractions are equal iff their integer pairs are.
    ends = (a.numerator, a.denominator), (b.numerator, b.denominator)
    xs = rng.retrying(
        lambda: rng.distinct_rationals(5),
        lambda vals: all((v.numerator, v.denominator) not in ends
                         for v in vals))
    offsets = [rng.nonzero_rational() for _ in range(5)]
    return {"a": a, "b": b, "theta": theta, "sample_xs": xs,
            "offsets": offsets}


_ZERO = Fraction(0)
_STANDARD_PARABOLA = Parabola(Fraction(1), _ZERO, _ZERO)


def _check_iso_angle(cfg: dict) -> None:
    a = Point(cfg["a"], _ZERO)
    b = Point(cfg["b"], _ZERO)
    theta = cfg["theta"]
    locus = iso_angle_locus(a, b, theta)
    if not (locus.contains(a) and locus.contains(b)):
        raise Counterexample("endpoints escaped the locus")
    # Each angle n/d against theta, cross-multiplied.
    tn, td = theta.numerator, theta.denominator
    for x, off in zip(cfg["sample_xs"], cfg["offsets"]):
        on = locus.point_at(x)
        n, d = _angle_terms(a, on, b)
        if n * td != tn * d:
            raise Counterexample(f"on-locus angle wrong at x={x}")
        # (x, y + off) from the curve point's triple.
        X, Y, Z = on.xyz
        wn, wd = off.numerator, off.denominator
        n, d = _angle_terms(a, _point(X * wd, Y * wd + wn * Z, Z * wd), b)
        if n * td == tn * d:
            raise Counterexample(f"off-locus point matched at x={x}")


register(Theorem("iso_angle_locus",
                 "constant-angle locus over a base segment is a parabola",
                 _gen_iso_angle, _check_iso_angle))


def _gen_triangle_invariants(rng: RandomRationals) -> dict:
    return {"T": rng.free_triangle(), "T_inscribed": rng.triangle()}


def _check_triangle_invariants(cfg: dict) -> None:
    # The stored angles, whose closed form sums to 0 with one negative
    # angle, against the definition: the angle at a vertex is sign(kappa)
    # times the difference angle from the next vertex in x-order to the
    # previous one, cyclically.  Swapping next and previous negates a
    # difference angle, so for kappa < 0 the x-order is walked backwards.
    # Certificates carry the rest: DATriangle's side-norm equation and
    # circum_ortho_at_infinity's ideal-point meets.
    for t in (cfg["T"], cfg["T_inscribed"]):
        circum_ortho_at_infinity(t)
        order = t.sorted_vertices()
        backwards = t.parabola._lifted[0] < 0
        if backwards:
            order = order[::-1]
        for lbl, angle in zip(VERTICES, t.interior_angles()):
            k = 2 - t.x_rank(lbl) if backwards else t.x_rank(lbl)
            v = order[k]
            if difference_angle(order[(k + 1) % 3], v, order[k - 1]) != angle:
                raise Counterexample(
                    f"angle at x={v.x} differs from its definition")


register(Theorem("triangle_invariants",
                 "angle sum 0, unique negative angle, side-norm equation",
                 _gen_triangle_invariants, _check_triangle_invariants))


def _gen_bisector_centers(rng: RandomRationals) -> dict:
    return {"T": rng.triangle()}


def _check_bisector_centers(cfg: dict) -> None:
    t = cfg["T"]
    for lbl in VERTICES:
        if bisector_ratio_check(t, lbl) != 0:
            raise Counterexample(f"bisector ratio fails at {lbl}")
    cs = centers(t)  # internal certificates cover excenters and G_I
    X, _, Z = cs.incenter.xyz
    Xv, _, Zv = t.vertex(t.negative_vertex_label).xyz
    if X * Zv != Xv * Z:
        raise Counterexample("incenter off the negative-vertex axis")
    for lbl in VERTICES:
        line = bisector_at(t, lbl, "interior")
        if not line.contains(cs.incenter):
            raise Counterexample(f"incenter misses bisector at {lbl}")
    verdict = eq.classify_pair(cs.tangent_triangle, t)
    if not verdict.sim_sss:
        raise Counterexample("tangent triangle not SSS-similar")


register(Theorem("bisector_centers",
                 "bisector ratio, incenter/excenters, centroid midpoint",
                 _gen_bisector_centers, _check_bisector_centers))


def _gen_quadruple_on_parabola(rng: RandomRationals) -> dict:
    curve = rng.parabola()
    xs = rng.distinct_rationals(4)
    return {"curve": curve, "xs": xs}


def _check_ptolemy(cfg: dict) -> None:
    curve = cfg["curve"]
    a, b, c, d = (curve.point_at(x) for x in cfg["xs"])
    if th.ptolemy_residual(a, b, c, d, curve) != 0:
        raise Counterexample("ptolemy residual nonzero")


register(Theorem("ptolemy",
                 "oriented product identity for conparabolic quadruples "
                 "(identically 0 for any four abscissae: Euler's "
                 "four-point identity, which cannot fail)",
                 _gen_quadruple_on_parabola, _check_ptolemy))


def _check_ptolemy_broken(cfg: dict) -> None:
    # Deliberate sign flip: a mutation control for the harness itself.
    # It reads only the drawn xs, the curve points' abscissae, over one lcm.
    xs = cfg["xs"]
    scale = lcm(*(x.denominator for x in xs))
    xa, xb, xc, xd = (x.numerator * (scale // x.denominator) for x in xs)
    ab, cd = xb - xa, xd - xc
    ad, bc = xd - xa, xc - xb
    ac, bd = xc - xa, xd - xb
    if ab * cd - ad * bc - ac * bd != 0:
        raise Counterexample("mutant residual nonzero (expected)")


register(Theorem("ptolemy_broken",
                 "mutation control: sign-flipped product identity "
                 "(must produce counterexamples)",
                 _gen_quadruple_on_parabola, _check_ptolemy_broken))


def _gen_brahmagupta(rng: RandomRationals) -> dict:
    curve = rng.parabola()
    e, a, b = rng.distinct_rationals(3)
    # d = a + b - e: exact parallelism constraint, and d > b automatically.
    (ne, na, nb), scale = lift_triple((e, a, b))
    return {"curve": curve, "xs": (e, a, b, ratio(na + nb - ne, scale))}


def _check_brahmagupta(cfg: dict) -> None:
    curve = cfg["curve"]
    e, a, b, d = (curve.point_at(x) for x in cfg["xs"])
    if th.brahmagupta_check(curve, e, a, b, d) != 0:
        raise Counterexample("crossing is off the midpoint axis")


register(Theorem("brahmagupta",
                 "parallel-chord crossing bisects the opposite chord",
                 _gen_brahmagupta, _check_brahmagupta))


def _gen_trapezoid(rng: RandomRationals) -> dict:
    curve = rng.parabola()
    a, b, c = rng.distinct_rationals(3)
    # d = b + c - a: inscribed trapezoid, AD parallel to BC, equal legs.
    (na, nb, nc), scale = lift_triple((a, b, c))
    d = ratio(nb + nc - na, scale)

    def make_negative():
        # A genuine one-parallel-pair quadrilateral that is NOT inscribed:
        # slide D along the parallel through A, off the curve.
        s = rng.nonzero_rational()
        slope_bc = curve.chord_slope(b, c)
        # (x_A + s, y_A + s*slope_bc) from A's triple.
        X, Y, Z = curve.point_at(a).xyz
        sn, sd = s.numerator, s.denominator
        mn, md = slope_bc.numerator, slope_bc.denominator
        d_off = _point((X * sd + sn * Z) * md, Y * sd * md + sn * mn * Z,
                       Z * sd * md)
        # No singular side CD or diagonal BD (x_D != x_A as s != 0); the
        # verdict is the checker's to judge.
        X, _, Z = d_off.xyz
        if curve.contains(d_off) or any(X * v.denominator == v.numerator * Z
                                        for v in (b, c)):
            return None
        return d_off
    d_off = rng.retrying(make_negative)
    return {"curve": curve, "xs": (a, b, c, d), "D_off": d_off}


def _check_trapezoid(cfg: dict) -> None:
    curve = cfg["curve"]
    a, b, c, d = cfg["xs"]
    pts = (curve.point_at(a), curve.point_at(b), curve.point_at(c),
           curve.point_at(d))
    verdict = th.trapezoid_equivalence(*pts)
    if verdict != (True, True):
        raise Counterexample(f"inscribed trapezoid verdict {verdict}")
    neg = th.trapezoid_equivalence(pts[0], pts[1], pts[2], cfg["D_off"])
    if neg.is_isosceles_trapezoid or neg.is_inscribed_with_parallel_pair:
        raise Counterexample(f"off-curve trapezoid verdict {neg}")


register(Theorem("trapezoid",
                 "isosceles trapezoid <=> inscribed with a parallel pair",
                 _gen_trapezoid, _check_trapezoid))


def _cross_chords_degenerate(gamma: Parabola, delta: Parabola, xa, xb,
                             m_a, m_b) -> bool:
    """Whether ``th.intersecting_parabolas_check`` rejects two distinct
    curves through the points over ``xa != xb``, with chord slopes
    ``m_a``, ``m_b`` tangent to neither curve at those points.

    The check rejects in three places.  (1) Fewer than two finite meets:
    never, since ``delta - gamma`` is a nonzero polynomial of degree at
    most 2 with the two roots ``xa`` and ``xb``, so its kappa is nonzero
    and ``parabola_meet`` returns exactly those two points.  (2) A chord
    collapsed to A or B: only at a tangent slope, which the caller
    excluded.  (3) A singular cross-chord: by Vieta the second point of
    a curve on the slope-m line through the point over x lies over
    ``(m - beta)/kappa - x``, so P, R on gamma (and Q, S on delta) share
    an abscissa iff ``m_a - m_b == kappa * (xa - xb)``.
    """
    # dm = m_a - m_b and dx = xa - xb over their integers; each test is
    # dm == kappa dx cross-multiplied.
    dm = m_a.numerator * m_b.denominator - m_b.numerator * m_a.denominator
    dx = xa.numerator * xb.denominator - xb.numerator * xa.denominator
    lhs = dm * xa.denominator * xb.denominator
    rhs = dx * m_a.denominator * m_b.denominator
    k1, k2 = gamma.kappa, delta.kappa
    return (lhs * k1.denominator == k1.numerator * rhs
            or lhs * k2.denominator == k2.numerator * rhs)


def _gen_intersecting_parabolas(rng: RandomRationals) -> dict:
    def make():
        gamma = rng.parabola()
        xa, xb = rng.distinct_rationals(2)
        a, b = gamma.point_at(xa), gamma.point_at(xb)
        x = rng.point()
        if x.x in (xa, xb) or gamma.contains(x):
            return None
        delta = circumparabola(a, b, x)
        # Neither chord slope may be tangent to either curve.
        m_a = rng.rational()
        if m_a in (gamma.chord_slope(xa, xa), delta.chord_slope(xa, xa)):
            return None
        m_b = rng.rational()
        if m_b in (gamma.chord_slope(xb, xb), delta.chord_slope(xb, xb)):
            return None
        if _cross_chords_degenerate(gamma, delta, xa, xb, m_a, m_b):
            return None
        return {"gamma": gamma, "delta": delta, "m_a": m_a, "m_b": m_b}
    return rng.retrying(make)


def _check_intersecting_parabolas(cfg: dict) -> None:
    residual = th.intersecting_parabolas_check(cfg["gamma"], cfg["delta"],
                                               cfg["m_a"], cfg["m_b"])
    if residual != 0:
        raise Counterexample("cross-chords not parallel")


register(Theorem("intersecting_parabolas",
                 "chords through the two common points stay parallel",
                 _gen_intersecting_parabolas, _check_intersecting_parabolas))


def _check_inscribed_angle(cfg: dict) -> None:
    curve = cfg["curve"]
    a, b, c, d = (curve.point_at(x) for x in cfg["xs"])
    if inscribed_angle_check(curve, a, b, c, d) != 0:
        raise Counterexample("inscribed angle differs between viewpoints")
    # kappa (x_B - x_A) == angle(A, C, B), cross-multiplied over the
    # triples.
    kappa = curve.kappa
    n, d = _angle_terms(a, c, b)
    (Xa, _, Za), (Xb, _, Zb) = a.xyz, b.xyz
    if (kappa.numerator * (Xb * Za - Xa * Zb) * d
            != n * kappa.denominator * Za * Zb):
        raise Counterexample("inscribed angle value mismatch")


register(Theorem("inscribed_angle",
                 "a chord subtends the same angle from every curve point",
                 _gen_quadruple_on_parabola, _check_inscribed_angle))


def _gen_arc_symmetry(rng: RandomRationals) -> dict:
    # Any p inside the arc gives finite crossings and distinct abscissae.
    t = rng.triangle()
    _, mid, hi = t.sorted_vertices()
    lam = rng.fraction_in_unit_interval()
    return {"T": t, "p": between(mid.x, hi.x, lam.numerator,
                                 lam.denominator)}


def _check_arc_symmetry(cfg: dict) -> None:
    if not th.arc_symmetry_check(cfg["T"], cfg["p"]):
        raise Counterexample("reflected crossing left the parabola")


register(Theorem("arc_symmetry",
                 "arc-reflected cevian crossings stay conparabolic",
                 _gen_arc_symmetry, _check_arc_symmetry))


def _gen_miquel_triangle(rng: RandomRationals) -> dict:
    if rng.trial_index == 0:
        # Midpoint cevians force equal coefficients, hence the ideal case.
        t = rng.free_triangle()
        return {"T": t, "D": midpoint(t.b, t.c), "E": midpoint(t.c, t.a),
                "F": midpoint(t.a, t.b)}

    def make():
        # A foot shares no abscissa with the ends of its side, so the only
        # side of a sub-triangle that can be singular joins two feet.
        t = rng.free_triangle()
        d, e, f = rng.cevian_feet(t)
        (Xd, _, Zd), (Xe, _, Ze), (Xf, _, Zf) = d.xyz, e.xyz, f.xyz
        if Xd * Ze == Xe * Zd or Xe * Zf == Xf * Ze or Xf * Zd == Xd * Zf:
            return None
        return {"T": t, "D": d, "E": e, "F": f}
    return rng.retrying(make)


def _miquel_verdict(result: th.MiquelResult) -> str:
    if result.kind == "finite" and any(
            r != 0 for r in result.memberships.values()):
        raise Counterexample("membership residual nonzero")
    return result.kind


def _check_miquel_triangle(cfg: dict) -> str:
    return _miquel_verdict(
        th.miquel_triangle(cfg["T"], cfg["D"], cfg["E"], cfg["F"]))


register(Theorem("miquel_triangle",
                 "three cevian-feet circumparabolas share a point",
                 _gen_miquel_triangle, _check_miquel_triangle))


#: Complete quadrilateral whose first two circumscribing parabolas share
#: a quadratic coefficient, forcing the ideal common point.
EQUAL_KAPPA_QUADRILATERAL = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(6)),
    (Fraction(2), Fraction(6)),
)


def _gen_miquel_quadrilateral(rng: RandomRationals) -> dict:
    if rng.trial_index == 0:
        lines = [Line(m, k) for m, k in EQUAL_KAPPA_QUADRILATERAL]
        return {"quad": th.CompleteQuadrilateral(*lines)}

    # CompleteQuadrilateral's own rejections are the whole ndg condition:
    # C_ABF and C_BCE are tangent at B only when l3 is parallel to l4.
    return {"quad": rng.retrying(lambda: th.CompleteQuadrilateral(
        *(Line(rng.rational(), rng.rational()) for _ in range(4))))}


def _check_miquel_quadrilateral(cfg: dict) -> str:
    return _miquel_verdict(th.miquel_quadrilateral(cfg["quad"]))


register(Theorem("miquel_quadrilateral",
                 "four circumparabolas of a complete quadrilateral concur",
                 _gen_miquel_quadrilateral, _check_miquel_quadrilateral))


def _gen_ceva(rng: RandomRationals) -> dict:
    t = rng.free_triangle()

    # Cevians through a point with positive barycentric weights: it lies
    # strictly inside the triangle, so each foot is finite and strictly
    # inside its side.
    # q = (w1 A + w2 B + w3 C)/(w1 + w2 + w3), the weights lifted to
    # integers over their own scale.
    weights, _ = lift_triple([rng.positive_rational() for _ in range(3)])
    q = _weighted_mean(t.a, t.b, t.c, *weights)
    concurrent_feet = tuple(meet(line_through(t.vertex(lbl), q),
                                 t.side(lbl)).point for lbl in VERTICES)

    # Feet strictly inside their sides always pass ceva_product's checks.
    return {"T": t, "concurrent": concurrent_feet, "free": rng.cevian_feet(t)}


def _check_ceva(cfg: dict) -> None:
    t = cfg["T"]
    d, e, f = cfg["concurrent"]
    if th.ceva_product(t, d, e, f) != 1:
        raise Counterexample("concurrent cevians with product != 1")
    if not th.cevians_concurrent(t, d, e, f):
        raise Counterexample("meet oracle rejected concurrent cevians")
    d, e, f = cfg["free"]
    product_one = th.ceva_product(t, d, e, f) == 1
    concur = th.cevians_concurrent(t, d, e, f)
    if product_one != concur:
        raise Counterexample("ceva biconditional violated")


register(Theorem("ceva",
                 "cevian product is 1 exactly at concurrency",
                 _gen_ceva, _check_ceva))


def _gen_menelaus(rng: RandomRationals) -> dict:
    t = rng.free_triangle()

    def make_transversal():
        m = rng.rational()
        k = rng.rational()
        line = Line(m, k)
        feet = []
        for lbl in VERTICES:
            hit = meet(line, t.side(lbl))
            if not hit.is_finite or hit.point in (t.a, t.b, t.c):
                return None
            feet.append(hit.point)
        return tuple(feet)
    collinear_feet = rng.retrying(make_transversal)
    # Feet strictly inside their sides always pass menelaus_product's checks.
    return {"T": t, "collinear": collinear_feet, "free": rng.cevian_feet(t)}


def _check_menelaus(cfg: dict) -> None:
    t = cfg["T"]
    d, e, f = cfg["collinear"]
    if th.menelaus_product(t, d, e, f) != -1:
        raise Counterexample("transversal feet with product != -1")
    if not collinear(d, e, f):
        raise Counterexample("det oracle rejected transversal feet")
    d, e, f = cfg["free"]
    minus_one = th.menelaus_product(t, d, e, f) == -1
    collin = collinear(d, e, f)
    if minus_one != collin:
        raise Counterexample("menelaus biconditional violated")


register(Theorem("menelaus",
                 "side-line product is -1 exactly at collinearity",
                 _gen_menelaus, _check_menelaus))


def _gen_simson(rng: RandomRationals) -> dict:
    std = _STANDARD_PARABOLA
    xs = rng.distinct_rationals(3)
    t = DATriangle(*(std.point_at(x) for x in xs))
    general = rng.triangle()
    return {"T": t, "m": rng.rational(), "T_general": general,
            "m2": rng.rational()}


def _check_simson(cfg: dict) -> None:
    t, m = cfg["T"], cfg["m"]
    # simson() certifies both slopes; the checker adds the intercept
    # m (a + b + c) - m**2 - (ab + bc + ca), here with a, b, c over one
    # scale L and m = mn/md, all over (md L)**2, cross-multiplied.
    result = simson(t, m)
    (a, b, c), scale = _abscissae((t.a, t.b, t.c))
    mn, md = m.numerator, m.denominator
    intercept = (mn * (a + b + c) * md * scale - mn * mn * scale * scale
                 - (a * b + b * c + c * a) * md * md)
    k = result.line.k
    if k.numerator * md * md * scale * scale != intercept * k.denominator:
        raise Counterexample("simson line formula mismatch")
    simson(cfg["T_general"], cfg["m2"])


register(Theorem("simson",
                 "directional Simson line: slope equals the direction, "
                 "standard-chart intercept closed form",
                 _gen_simson, _check_simson))


def _check_midpoint_lemma(cfg: dict) -> None:
    result = midpoint_lemma_check(cfg["T"])
    if any(res.xyz[:2] != (0, 0) for res in result.residuals.values()):
        raise Counterexample("bisector meet is not the feet midpoint")


register(Theorem("midpoint_lemma",
                 "positive-bisector meets are midpoints of the "
                 "perpendicular feet segments",
                 _gen_bisector_centers, _check_midpoint_lemma))


def _gen_dabct(rng: RandomRationals) -> dict:
    return {"T": rng.retrying(rng.triangle, lambda t: not t.is_isosceles)}


def _check_dabct(cfg: dict) -> None:
    result = dabct(cfg["T"])
    if not result.concurrency_ok:
        raise Counterexample("side/bisector/feet-chord concurrency fails")
    if result.det_residual != 0:
        raise Counterexample("L points not collinear")
    # No L point is a vertex: L_V = U would make the bisector at V, of the
    # mean slope of VU and VW, the line VU, and the triangle collinear.
    feet = [result.l_points[k] for k in VERTICES]
    if th.menelaus_product(cfg["T"], *feet) != -1:
        raise Counterexample("L points fail the Menelaus cross-check")


register(Theorem("dabct",
                 "bisector collinearity: concurrency triples plus a "
                 "collinear L-point transversal",
                 _gen_dabct, _check_dabct))


def _gen_mn_division(rng: RandomRationals) -> dict:
    # distinct_rationals returns a < b < p, so the chord foot
    # (n a + m b)/(m + n), strictly between a and b, is never p.
    a, b, p = rng.distinct_rationals(3)
    return {"a": a, "b": b, "p": p, "m": rng.small_positive_int(),
            "n": rng.small_positive_int()}


def _check_mn_division(cfg: dict) -> None:
    res_a, res_b = th.mn_division_check(cfg["a"], cfg["b"], cfg["p"],
                                        cfg["m"], cfg["n"])
    if res_a != 0 or res_b != 0:
        raise Counterexample("division residual nonzero")
    # The singular projective length against its definition: the height
    # of the standard parabola's chord from p to b over x = a.
    a, b, p = cfg["a"], cfg["b"], cfg["p"]
    std = _STANDARD_PARABOLA
    chord = line_through(std.point_at(p), std.point_at(b))
    if th.singular_projective_length(p, a, b) != chord.y_at(a):
        raise Counterexample("projective length is not the chord's height")


register(Theorem("mn_division",
                 "m:n angle division realizes m:n on the singular line",
                 _gen_mn_division, _check_mn_division))


def _gen_isogonal(rng: RandomRationals) -> dict:
    t = rng.triangle()
    mixed = rng.trial_index % 2 == 0
    if mixed:
        # Singular at the negative vertex, the same m:n at the two
        # positive vertices, bases toward the negative vertex.
        neg = t.negative_vertex_label
        m = ratio(rng.small_positive_int(), 1)
        n = ratio(rng.small_positive_int(), 1)
        specs = {lbl: th.CevianSpec(singular=True) if lbl == neg
                 else th.CevianSpec((m, n), base=neg) for lbl in VERTICES}
        return {"T": t, "specs": specs, "mixed": mixed}

    def make():
        # Two ratios are free; the third is solved from concurrency.
        bases = {}
        for lbl in VERTICES:
            u, w = [v for v in VERTICES if v != lbl]
            bases[lbl] = u if rng.coin() else w
        alpha = rng.fraction_in_unit_interval()
        beta = rng.fraction_in_unit_interval()
        sa = th.CevianSpec((alpha, _complement(alpha)), base=bases["A"])
        sb = th.CevianSpec((beta, _complement(beta)), base=bases["B"])
        la = th.cevian_line(t, "A", sa)
        lb = th.cevian_line(t, "B", sb)
        hit = meet(la, lb)
        if not hit.is_finite:
            return None
        # gamma = (s_CQ - s_base)/(s_far - s_base) for the slopes dy/dx
        # at C, whose two sides never share a slope, so den != 0.  A
        # divider whose ratio lies in (0, 1) is neither side at its
        # vertex, so Q is neither A nor B, and CQ is neither side at C:
        # gamma is neither 0 nor 1.
        dy_q, dx_q = _slope_terms(t.c, hit.point)
        if dx_q == 0:
            return None
        ab = (t.a, t.b)
        b = VERTICES.index(bases["C"])   # the far vertex is 1 - b
        dy_b, dx_b = _slope_terms(t.c, ab[b])
        dy_f, dx_f = _slope_terms(t.c, ab[1 - b])
        num = (dy_q * dx_b - dy_b * dx_q) * dx_f
        den = (dy_f * dx_b - dy_b * dx_f) * dx_q
        sc = th.CevianSpec((ratio(num, den), ratio(den - num, den)),
                           base=bases["C"])
        return {"A": sa, "B": sb, "C": sc}
    return {"T": t, "specs": rng.retrying(make), "mixed": mixed}


def _complement(lam: Fraction) -> Fraction:
    """``1 - lam`` as one ratio."""
    return ratio(lam.denominator - lam.numerator, lam.denominator)


def _check_isogonal(cfg: dict) -> str:
    verdict = th.isogonal_concurrency_check(cfg["T"], cfg["specs"])
    if not verdict.original_concurrent:
        raise Counterexample("generated cevians not concurrent")
    if not verdict.isogonal_concurrent:
        raise Counterexample("isogonal cevians lost concurrency")
    return "mixed" if cfg["mixed"] else "common-base"


register(Theorem("isogonal",
                 "isogonal images of concurrent cevians stay concurrent",
                 _gen_isogonal, _check_isogonal))


def _gen_equivalence_chain(rng: RandomRationals) -> dict:
    std = _STANDARD_PARABOLA
    xs = rng.distinct_rationals(3)
    t1 = DATriangle(*(std.point_at(x) for x in xs))
    case = rng.trial_index % 4
    if case == 0:  # x-scaled copy: SSS without AA
        k = rng.retrying(rng.positive_rational, lambda v: v != 1)
        kn, kd = k.numerator, k.denominator
        t2 = DATriangle(*(std.point_at(ratio(kn * x.numerator,
                                             kd * x.denominator))
                          for x in xs))
    elif case == 1:  # shifted copy: fully congruent
        t2 = eq.shift(t1, rng.rational())
    elif case == 2:  # same abscissae, different coefficient
        k2 = rng.retrying(rng.nonzero_rational, lambda v: abs(v) != 1)
        curve = Parabola(k2, Fraction(0), Fraction(0))
        t2 = DATriangle(*(curve.point_at(x) for x in xs))
    else:  # unrelated pair
        t2 = rng.free_triangle()
    return {"T1": t1, "T2": t2, "case": case}


def _check_equivalence_chain(cfg: dict) -> str:
    verdict = eq.classify_pair(cfg["T1"], cfg["T2"])  # chain asserted inside
    case = cfg["case"]
    if case == 0 and not (verdict.sim_sss and not verdict.sim_aa):
        raise Counterexample("scaled pair not SSS-without-AA")
    if case == 1 and not verdict.da_congruent:
        raise Counterexample("shifted pair not congruent")
    if case == 2 and (not verdict.norm_congruent or verdict.da_congruent):
        raise Counterexample("coefficient bridge case misclassified")
    return f"case{case}"


register(Theorem("equivalence_chain",
                 "similarity/congruence tier chain on generated pairs",
                 _gen_equivalence_chain, _check_equivalence_chain))


def _gen_shift_group(rng: RandomRationals) -> dict:
    return {"T": rng.triangle(), "theta1": rng.rational(),
            "theta2": rng.rational()}


def _check_shift_group(cfg: dict) -> None:
    t = cfg["T"]
    th1, th2 = cfg["theta1"], cfg["theta2"]
    moved = eq.shift(t, th1)
    if not eq.classify_pair(t, moved).da_congruent:
        raise Counterexample("shift image not congruent")
    if eq.shift(moved, th2) != eq.shift(t, th1 + th2):
        raise Counterexample("shift composition law fails")
    if eq.shift(t, _ZERO) != t:
        raise Counterexample("zero shift is not the identity")
    if eq.shift(moved, ratio(-th1.numerator, th1.denominator)) != t:
        raise Counterexample("shift inverse fails")
    # The rate, from the difference-angle definition: the arc from each
    # vertex V to its image V' subtends theta1 at any other curve point.
    # The viewing point lies one unit right of the rightmost of the six,
    # so it is none of them and no ray to it is singular.
    xs, L = _abscissae((t.a, t.b, t.c, moved.a, moved.b, moved.c))
    view = t.parabola._point_over(max(xs) + L, L)
    tn, td = th1.numerator, th1.denominator
    for v, image in zip((t.a, t.b, t.c), (moved.a, moved.b, moved.c)):
        n, d = _angle_terms(v, view, image)
        if n * td != tn * d:
            raise Counterexample("shift slides at the wrong rate")


register(Theorem("shift_group",
                 "parabola shifts act as an exact additive group",
                 _gen_shift_group, _check_shift_group))


def _translated_pair(rng: RandomRationals, sign: int):
    """A triangle on a drawn curve at drawn ``(a, b, c)``, a drawn curve
    with ``sign`` times its kappa, and ``(t0 + (c - a), t0 + (c - b), t0)``
    for a drawn ``t0``."""
    curve = rng.parabola()
    xs = rng.distinct_rationals(3)
    t1 = DATriangle(*(curve.point_at(x) for x in xs))
    delta = Parabola(curve.kappa if sign > 0 else -curve.kappa,
                     rng.rational(), rng.rational())
    t0 = rng.rational()
    (a, b, c), scale = lift_triple(xs)
    tn, td = t0.numerator, t0.denominator
    return t1, delta, (ratio(tn * scale + (c - a) * td, td * scale),
                       ratio(tn * scale + (c - b) * td, td * scale), t0)


def _gen_final_collinearity(rng: RandomRationals) -> dict:
    sign = 1 if rng.trial_index % 2 == 0 else -1
    # Mirror congruence: same-letter ranks reverse, so the gap sequence of
    # the primed abscissae, left to right, is (c-b, b-a).
    t1, delta, primed = _translated_pair(rng, sign)  # labels A', B', C'
    t2 = DATriangle(*(delta.point_at(x) for x in primed))
    return {"T1": t1, "T2": t2, "sign": sign}


def _check_final_collinearity(cfg: dict) -> str:
    result = eq.final_theorem_feet(cfg["T1"], cfg["T2"])
    if result.det_residual != 0:
        raise Counterexample("feet not collinear")
    if result.menelaus_product is not None and result.menelaus_product != -1:
        raise Counterexample("feet transversal fails Menelaus")
    return "reversed" if cfg["sign"] < 0 else "same"


register(Theorem("final_collinearity",
                 "perpendicular feet across a reversed congruent pair "
                 "are collinear",
                 _gen_final_collinearity, _check_final_collinearity))


def _check_diag_section(cfg: dict) -> None:
    curve = cfg["curve"]
    pts = [curve.point_at(x) for x in cfg["xs"]]
    verdict = eq.diag_section_similarity(*pts)
    if not (verdict.xab_xcd and verdict.xbc_xad):
        raise Counterexample("diagonal sections not angle-similar")
    X, Y, Z = pts[3].xyz
    bent = pts[:3] + [_point(X, Y + Z, Z)]
    try:
        eq.diag_section_similarity(*bent)
    except DegenerateConfigurationError:
        pass
    else:
        raise Counterexample("off-curve quadruple accepted")


# The diagonals of any such draw cross strictly between its middle two x.
register(Theorem("diag_section",
                 "diagonal sections of an inscribed quadrilateral are "
                 "angle-similar",
                 _gen_quadruple_on_parabola, _check_diag_section))


def _gen_intro_observation(rng: RandomRationals) -> dict:
    t1, delta, primed = _translated_pair(rng, 1)
    t2 = DATriangle(*(delta.point_at(x) for x in reversed(primed)))
    return {"T1": t1, "T2": t2}


def _check_intro_observation(cfg: dict) -> None:
    result = eq.intro_observation_check(cfg["T1"], cfg["T2"])
    if result.det_residual != 0:
        raise Counterexample("sampled side points not collinear")


register(Theorem("intro_observation",
                 "translated-parabola side samples are collinear",
                 _gen_intro_observation, _check_intro_observation))
