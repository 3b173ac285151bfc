from contextlib import nullcontext
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bounded, bounded_triangles, kernel_outcome
from dageo import campaigns, euclid
from dageo.campaigns import REGISTRY, Counterexample
from dageo import equivalence as eq
from dageo.errors import DegenerateConfigurationError
from dageo.gauge import (Line, MeetResult, Point, difference_angle,
                         line_through, meet, slope_between)
from dageo.generators import RandomRationals
from dageo.harness import CampaignConfig, jsonable, run_campaign
from dageo.parabola import (Parabola, circumparabola, conparabolic,
                            inscribed_angle_check, iso_angle_locus,
                            opposite_angle_sum, parabola_meet,
                            second_intersection)
from dageo.scalar import collinear
from dageo.theorems import (CevianSpec, CompleteQuadrilateral, _miquel_result,
                            ceva_product,
                            cevians_concurrent, brahmagupta_check,
                            intersecting_parabolas_check, isogonal_concurrency_check,
                            arc_symmetry_check, cevian_line,
                            menelaus_product,
                            miquel_quadrilateral, miquel_triangle,
                            mn_division_check, ptolemy_residual,
                            singular_projective_length, trapezoid_equivalence)
from dageo.triangle import (VERTICES, DATriangle, bisector_at,
                            circum_ortho_at_infinity)

STD = Parabola(F(1), F(0), F(0))


def pt(x, y):
    return Point(F(x), F(y))


def on_std(*xs):
    return DATriangle(*(STD.point_at(F(x)) for x in xs))


class TestPtolemy:
    def test_unit_spacing(self):
        pts = [STD.point_at(F(i)) for i in (0, 1, 2, 3)]
        assert ptolemy_residual(*pts, STD) == 0

    def test_permuted_orders(self):
        pts = [STD.point_at(F(x)) for x in (-2, F(1, 3), 1, 7)]
        import itertools
        for perm in itertools.permutations(pts):
            assert ptolemy_residual(*perm, STD) == 0

    def test_degenerate_pair_collapses(self):
        c = STD.point_at(F(2))
        assert ptolemy_residual(STD.point_at(F(0)), STD.point_at(F(1)),
                                c, c, STD) == 0

    def test_membership_enforced(self):
        with pytest.raises(DegenerateConfigurationError):
            ptolemy_residual(pt(0, 1), STD.point_at(F(1)),
                             STD.point_at(F(2)), STD.point_at(F(3)), STD)


# References: the Fraction chains that the integer-lift residuals replaced.

def fraction_chain_ptolemy_terms(a, b, c, d):
    ab, cd = F(b.x) - a.x, F(d.x) - c.x
    ad, bc = F(d.x) - a.x, F(c.x) - b.x
    ac, bd = F(c.x) - a.x, F(d.x) - b.x
    return ab * cd, ad * bc, ac * bd


def fraction_chain_projective_length(p, x0, q):
    p, x0, q = F(p), F(x0), F(q)
    if p == q:
        raise DegenerateConfigurationError("degenerate chord")
    return (p + q) * x0 - p * q


def fraction_chain_mn_division(a, b, p, m, n):
    a, b, p = F(a), F(b), F(p)
    if m <= 0 or n <= 0:
        raise DegenerateConfigurationError("division weights must be positive")
    if len({a, b, p}) != 3:
        raise DegenerateConfigurationError("parameters must be distinct")
    c = (n * a + m * b) / (m + n)
    if c == p:
        raise DegenerateConfigurationError("chord PC is degenerate")
    a_c = fraction_chain_projective_length(p, a, c)
    a_b = fraction_chain_projective_length(p, a, b)
    b_c = fraction_chain_projective_length(p, b, c)
    b_a = fraction_chain_projective_length(p, b, a)
    return (n * (a_c - a * a) - m * (a_b - a_c),
            m * (b_c - b * b) - n * (b_a - b_c))


def fraction_chain_feet_ratio(t, d, e, f):
    """The cevian ratio product as built before the integer lift: each foot
    tested in Fraction arithmetic, then three directed ratios multiplied."""
    for foot, lbl in ((d, "A"), (e, "B"), (f, "C")):
        u, w = (t.vertex(v) for v in "ABC" if v != lbl)
        if (F(foot.y) - u.y) * (F(w.x) - u.x) \
                != (F(w.y) - u.y) * (F(foot.x) - u.x):
            raise DegenerateConfigurationError(f"foot {foot} off side {lbl}")
        if foot in (t.a, t.b, t.c):
            raise DegenerateConfigurationError("foot at a vertex")

    def directed_ratio(u, x, w):
        if x.x == w.x:
            raise DegenerateConfigurationError("ratio denominator vanishes")
        return (F(x.x) - u.x) / (F(w.x) - x.x)

    return (directed_ratio(t.b, d, t.c) * directed_ratio(t.c, e, t.a)
            * directed_ratio(t.a, f, t.b))


def fraction_chain_brahmagupta(curve, e, a, b, d):
    for q in (e, a, b, d):
        if not curve.contains(q):
            raise DegenerateConfigurationError(f"{q} is not on {curve}")
    if not (e.x < a.x < b.x < d.x):
        raise DegenerateConfigurationError("need x-order e < a < b < d")
    if curve.chord_slope(d.x, e.x) != curve.chord_slope(a.x, b.x):
        raise DegenerateConfigurationError("DE is not parallel to AB")
    crossing = meet(line_through(a, d), line_through(e, b))
    return crossing.point.x - (F(a.x) + b.x) / 2


def fraction_chain_quadrilateral(lines):
    """``CompleteQuadrilateral``'s checks as they were, with Fraction
    sets: its six points, or the first check's message."""
    if any(l.is_singular for l in lines):
        raise DegenerateConfigurationError("singular line in quadrilateral")
    pts = {}
    for label, (i, j) in (("A", (3, 0)), ("B", (0, 1)), ("C", (1, 2)),
                          ("D", (2, 3)), ("E", (0, 2)), ("F", (1, 3))):
        hit = meet(lines[i], lines[j])
        if not hit.is_finite:
            raise DegenerateConfigurationError("parallel or coincident lines")
        pts[label] = hit.point
    if len(set(pts.values())) != 6:
        raise DegenerateConfigurationError("three lines concurrent")
    for labels in ("ABF", "BCE", "CDF", "DAE"):
        triple = [pts[lbl] for lbl in labels]
        if len({q.x for q in triple}) != 3:
            raise DegenerateConfigurationError(
                "shared abscissa in a defining triple; re-normalizing "
                "the gauge to another chart would restore generality")
        if collinear(*triple):
            raise DegenerateConfigurationError("collinear defining triple")
    return pts


def outcome(call, *args):
    """What ``call(*args)`` gives: its value, or the message of the
    DegenerateConfigurationError it raises."""
    try:
        return call(*args)
    except DegenerateConfigurationError as err:
        return f"raised: {err}"


class TestLiftedResiduals:
    @given(bounded, bounded, bounded, bounded, bounded, bounded, bounded)
    def test_ptolemy_matches_fraction_chain(self, kappa, beta, gamma,
                                            xa, xb, xc, xd):
        assume(kappa != 0)
        curve = Parabola(kappa, beta, gamma)
        pts = [Point(x, curve.y_at(x)) for x in (xa, xb, xc, xd)]
        p1, p2, p3 = fraction_chain_ptolemy_terms(*pts)
        got = ptolemy_residual(*pts, curve)
        assert type(got) is F
        assert got == p1 + p2 - p3
        # The sign-flipped mutant fails exactly when its chain is nonzero.
        expectation = (pytest.raises(Counterexample) if p1 - p2 - p3 != 0
                       else nullcontext())
        with expectation:
            REGISTRY["ptolemy_broken"].check(
                {"curve": curve, "xs": [xa, xb, xc, xd]})

    @given(st.data(), st.sampled_from(
        ("interior", "external", "far_end", "near_end", "off_side")))
    def test_feet_ratio_matches_fraction_chain(self, data, kind):
        coords = [data.draw(bounded) for _ in range(6)]
        try:
            t = DATriangle(*(Point(*coords[i:i + 2]) for i in (0, 2, 4)))
        except DegenerateConfigurationError:
            assume(False)
        # lam places a foot on its side line at U + lam (W - U): inside
        # the side for Ceva, outside it for Menelaus, at W (where the old
        # ratio's denominator vanished) or at U; "off_side" lifts one foot
        # off its line.
        inside = st.fractions(min_value=0, max_value=1).filter(
            lambda v: 0 < v < 1)
        outside = bounded.filter(lambda v: not 0 <= v <= 1)
        lams = [data.draw(outside if kind == "external" else inside)
                for _ in range(3)]
        odd = data.draw(st.integers(0, 2))
        if kind in ("far_end", "near_end"):
            lams[odd] = 1 if kind == "far_end" else 0
        feet = []
        for k, (u, w) in enumerate(((t.b, t.c), (t.c, t.a), (t.a, t.b))):
            lift = data.draw(bounded.filter(bool)) \
                if kind == "off_side" and k == odd else 0
            feet.append(Point(u.x + lams[k] * (w.x - u.x),
                              u.y + lams[k] * (w.y - u.y) + lift))
        want = outcome(fraction_chain_feet_ratio, t, *feet)
        assert outcome(ceva_product, t, *feet) == want
        assert outcome(menelaus_product, t, *feet) == want
        assert isinstance(want, str) == (kind not in ("interior",
                                                      "external"))

    @given(bounded, bounded, bounded)
    def test_projective_length_matches_fraction_chain(self, p, x0, q):
        got = outcome(singular_projective_length, p, x0, q)
        assert got == outcome(fraction_chain_projective_length, p, x0, q)
        if p != q:
            assert type(got) is F

    @given(bounded, bounded, bounded, st.integers(0, 9), st.integers(1, 9))
    def test_mn_division_matches_fraction_chain(self, a, b, p, m, n):
        got = outcome(mn_division_check, a, b, p, m, n)
        assert got == outcome(fraction_chain_mn_division, a, b, p, m, n)
        if not isinstance(got, str):
            assert [type(r) for r in got] == [F, F]


    @given(bounded, bounded, bounded, st.lists(bounded, min_size=4,
                                               max_size=4),
           st.booleans())
    def test_brahmagupta_matches_fraction_chain(self, kappa, beta, gamma, xs,
                                               parallel):
        # parallel: d = a + b - e, so DE is parallel to AB; the x-order
        # and the parallelism are the check's to judge.
        assume(kappa != 0)
        curve = Parabola(kappa, beta, gamma)
        e, a, b, d = xs
        if parallel:
            d = F(a) + b - e
        pts = [curve.point_at(x) for x in (e, a, b, d)]
        got = outcome(brahmagupta_check, curve, *pts)
        assert got == outcome(fraction_chain_brahmagupta, curve, *pts)
        if not isinstance(got, str):
            assert type(got) is F

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=4, max_size=4),
           st.lists(st.tuples(bounded, bounded), min_size=4, max_size=4),
           st.sampled_from(["small", "bounded", "concurrent", "shared_x"]))
    def test_quadrilateral_matches_fraction_chain(self, small_mk, mk, kind):
        # Small slopes and intercepts make parallel and concurrent lines
        # common.  "concurrent" sends l3 through B = l1 ^ l2; "shared_x"
        # sends l3 through the point of l2 over A's abscissa, so that C
        # shares it with A.  Two points of one defining triple lie on a
        # common line, so they share an abscissa only by coinciding.
        lines = [Line(F(m), F(k)) for m, k in
                 (small_mk if kind == "small" else mk)]
        if kind == "concurrent":
            hit = meet(lines[0], lines[1])
        elif kind == "shared_x":
            hit = meet(lines[3], lines[0])
            if hit.is_finite:
                hit = MeetResult.at(lines[1].point_at(hit.point.x))
        if kind in ("concurrent", "shared_x") and hit.is_finite:
            x, y = hit.point
            lines[2] = Line(lines[2].m, y - lines[2].m * x)
        want = outcome(fraction_chain_quadrilateral, lines)
        try:
            got = CompleteQuadrilateral(*lines).points()
        except DegenerateConfigurationError as err:
            got = f"raised: {err}"
        assert got == want
        if kind == "shared_x" and not isinstance(got, str):
            assert got["A"].x == got["C"].x

    @given(st.lists(bounded, min_size=6, max_size=6))
    def test_cross_chords_degenerate_matches_fraction_chain(self, values):
        k1, k2, xa, xb, m_a, m_b = values
        assume(k1 != 0 and k2 != 0)
        for m_b in (m_b, m_a - F(k1) * (F(xa) - xb),
                    m_a - F(k2) * (F(xa) - xb)):
            gamma, delta = Parabola(k1, 0, 0), Parabola(k2, 1, 0)
            dm, dx = F(m_a) - m_b, F(xa) - xb
            want = dm == gamma.kappa * dx or dm == delta.kappa * dx
            assert campaigns._cross_chords_degenerate(
                gamma, delta, F(xa), F(xb), F(m_a), F(m_b)) == want


coords = st.fractions(min_value=-15, max_value=15, max_denominator=6)
gaps = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4)


class TestPtolemyProperty:
    @given(coords, gaps, gaps, gaps, coords, coords, coords)
    def test_zero_polynomial(self, x0, g1, g2, g3, kappa, beta, gamma):
        if kappa == 0:
            kappa = F(1)
        curve = Parabola(kappa, beta, gamma)
        xs = (x0, x0 + g1, x0 + g1 + g2, x0 + g1 + g2 + g3)
        pts = [curve.point_at(x) for x in xs]
        assert ptolemy_residual(*pts, curve) == 0


class TestBrahmaguptaProperty:
    @given(coords, gaps, gaps, coords, coords)
    def test_midpoint_crossing(self, e0, g1, g2, kappa, beta):
        if kappa == 0:
            kappa = F(1)
        curve = Parabola(kappa, beta, F(0))
        e, a, b = e0, e0 + g1, e0 + g1 + g2
        d = a + b - e
        pts = [curve.point_at(x) for x in (e, a, b, d)]
        assert brahmagupta_check(curve, *pts) == 0


class TestBrahmagupta:
    def test_reference_instance(self):
        # AD: y=3x and EB: y=-x+2 cross at x = 1/2 = (0+1)/2
        e, a, b, d = (STD.point_at(F(x)) for x in (-2, 0, 1, 3))
        assert brahmagupta_check(STD, e, a, b, d) == 0

    def test_parallelism_enforced(self):
        e, a, b, d = (STD.point_at(F(x)) for x in (-2, 0, 1, 4))
        with pytest.raises(DegenerateConfigurationError):
            brahmagupta_check(STD, e, a, b, d)

    def test_order_enforced(self):
        e, a, b, d = (STD.point_at(F(x)) for x in (0, -2, 1, -1))
        with pytest.raises(DegenerateConfigurationError):
            brahmagupta_check(STD, e, a, b, d)


class TestTrapezoid:
    def test_inscribed_is_isosceles(self):
        # a+d = b+c chooses the parallel pair (BC, DA) with equal legs
        pts = [STD.point_at(F(x)) for x in (0, 1, 2, 3)]
        verdict = trapezoid_equivalence(*pts)
        assert verdict == (True, True)

    def test_parallel_chord_identity(self):
        # chords over (0,3) and (1,2): 3-2 = 1-0 so the legs match
        assert STD.chord_slope(F(0), F(3)) == STD.chord_slope(F(1), F(2))

    def test_true_trapezoid_off_curve(self):
        # parallel pair present, legs unequal, fourth vertex off the curve
        a, b, c = (STD.point_at(F(x)) for x in (0, 1, 2))
        slope_bc = STD.chord_slope(F(1), F(2))
        d = Point(a.x + 5, a.y + 5 * slope_bc)
        verdict = trapezoid_equivalence(a, b, c, d)
        assert verdict == (False, False)

    def test_singular_side_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            trapezoid_equivalence(pt(0, 0), pt(0, 1), pt(2, 2), pt(3, 3))

    def test_isosceles_verdict_off_curve_is_reported(self, monkeypatch):
        # The off-curve control is the checker's to judge: a verdict that
        # calls it isosceles must fail the campaign, not exhaust the
        # generator.
        real = trapezoid_equivalence
        monkeypatch.setattr(
            "dageo.theorems.trapezoid_equivalence",
            lambda *pts: real(*pts)._replace(is_isosceles_trapezoid=True))
        report = run_campaign(CampaignConfig("trapezoid", 50, 42, 50))
        assert report.failures > 0
        assert report.first_counterexample["reason"].startswith(
            "off-curve trapezoid verdict")


class TestIntersectingParabolas:
    def test_reference_instance(self):
        delta = Parabola(F(2), F(-3), F(2))
        assert intersecting_parabolas_check(STD, delta, F(0), F(-1)) == 0

    def test_chord_points(self):
        # P=(-1,1), Q=(1/2,1), R=(-3,9), S=(-1,7): both cross-chords slope -4
        from dageo.parabola import second_intersection
        delta = Parabola(F(2), F(-3), F(2))
        a, b = pt(1, 1), pt(2, 4)
        assert second_intersection(STD, a, F(0)) == pt(-1, 1)
        assert second_intersection(delta, a, F(0)) == pt(F(1, 2), 1)
        assert second_intersection(STD, b, F(-1)) == pt(-3, 9)
        assert second_intersection(delta, b, F(-1)) == pt(-1, 7)

    def test_equal_slopes_trivially_parallel(self):
        delta = Parabola(F(2), F(-3), F(2))
        assert intersecting_parabolas_check(STD, delta, F(7), F(7)) == 0

    def test_tangent_slope_rejected(self):
        delta = Parabola(F(2), F(-3), F(2))
        with pytest.raises(DegenerateConfigurationError):
            intersecting_parabolas_check(STD, delta, F(2), F(-1))  # tangent at A

    def test_generator_rejects_exactly_what_the_check_rejects(self,
                                                              monkeypatch):
        # The generator rejects a candidate by a closed form instead of
        # running the whole check on it; over the candidates it reaches,
        # the two must agree.  Small bounds make singular cross-chords
        # common.
        closed_form = campaigns._cross_chords_degenerate
        verdicts = []

        def compare(gamma, delta, xa, xb, m_a, m_b):
            rejected = closed_form(gamma, delta, xa, xb, m_a, m_b)
            try:
                intersecting_parabolas_check(gamma, delta, m_a, m_b)
                raised = False
            except DegenerateConfigurationError:
                raised = True
            verdicts.append((rejected, raised, gamma, delta, m_a, m_b))
            return rejected

        monkeypatch.setattr(campaigns, "_cross_chords_degenerate", compare)
        for bound in (2, 3, 5, 50):
            for seed in (11, 12, 13):
                for trial in range(180):
                    campaigns._gen_intersecting_parabolas(
                        RandomRationals(seed, trial, bound))
        assert len(verdicts) >= 2000
        assert [v for v in verdicts if v[0] != v[1]] == []
        assert sum(v[0] for v in verdicts) >= 50


class TestArcSymmetry:
    def test_reference_instance(self):
        assert arc_symmetry_check(on_std(0, 1, 3), F(2))

    def test_constructed_points(self):
        # D = BC ^ AP = (3/2,3); D' = CA ^ BP' = (2,6); conparabolic with A,B
        t = on_std(0, 1, 3)
        d = meet(line_through(t.b, t.c), line_through(t.a, STD.point_at(F(2))))
        d2 = meet(line_through(t.c, t.a), line_through(t.b, STD.point_at(F(4))))
        assert d.point == pt(F(3, 2), 3)
        assert d2.point == pt(2, 6)
        curve = circumparabola(t.a, t.b, d.point)
        assert curve.contains(d2.point)

    def test_parameter_outside_arc_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            arc_symmetry_check(on_std(0, 1, 3), F(5))

    @given(st.lists(bounded, min_size=3, max_size=3, unique=True),
           bounded.filter(bool), bounded, bounded,
           st.fractions(min_value=0, max_value=1, max_denominator=50)
           .filter(lambda lam: 0 < lam < 1))
    def test_every_arc_parameter_is_admissible(self, xs, kappa, beta, gamma,
                                               lam):
        # The arc_symmetry generator draws without probing the kernel:
        # every parameter strictly inside the arc (mid, hi) is admissible.
        curve = Parabola(kappa, beta, gamma)
        t = DATriangle(*(curve.point_at(x) for x in xs))
        _, mid, hi = t.sorted_vertices()
        assert arc_symmetry_check(t, mid.x + lam * (hi.x - mid.x))


class TestCevaMenelaus:
    def test_medians(self):
        from dageo.gauge import midpoint
        t = on_std(0, 1, 3)
        d, e, f = midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)
        assert ceva_product(t, d, e, f) == 1
        assert cevians_concurrent(t, d, e, f)
        # midpoints are never collinear: Menelaus must reject them
        assert menelaus_product(t, d, e, f) == 1
        assert not collinear(d, e, f)

    def test_incenter_cevians(self):
        t = on_std(0, 1, 2)
        d, e, f = pt(F(4, 3), 2), pt(1, 2), pt(F(2, 3), F(2, 3))
        assert t.side("A").contains(d) and t.side("B").contains(e)
        assert ceva_product(t, d, e, f) == 1
        assert cevians_concurrent(t, d, e, f)

    def test_perturbed_foot_breaks_both(self):
        t = on_std(0, 1, 2)
        d, e, f = pt(F(3, 2), F(5, 2)), pt(1, 2), pt(F(2, 3), F(2, 3))
        assert t.side("A").contains(d)
        assert ceva_product(t, d, e, f) != 1
        assert not cevians_concurrent(t, d, e, f)

    def test_dabct_transversal(self):
        # L points of the (0,1,3) instance: product (1/3)(-2)(3/2) = -1
        t = on_std(0, 1, 3)
        d, e, f = pt(F(3, 2), 3), pt(-3, -9), pt(F(3, 5), F(3, 5))
        assert menelaus_product(t, d, e, f) == -1
        assert collinear(d, e, f)

    def test_random_transversal(self):
        t = on_std(-1, 0, 2)
        cut = Line(F(7), F(1))
        feet = [meet(cut, t.side(lbl)).point for lbl in ("A", "B", "C")]
        assert menelaus_product(t, *feet) == -1
        assert collinear(*feet)

    @pytest.mark.parametrize("label", ["A", "B", "C"])
    def test_foot_off_its_side_rejected(self, label):
        t = on_std(0, 1, 3)
        feet = {lbl: t.side(lbl).point_at(F(-1)) for lbl in "ABC"}
        off = feet[label]
        feet[label] = Point(off.x, off.y + 1)
        with pytest.raises(DegenerateConfigurationError,
                           match=f"off side {label}"):
            menelaus_product(t, *feet.values())

    def test_vertex_foot_rejected(self):
        t = on_std(0, 1, 2)
        with pytest.raises(DegenerateConfigurationError):
            ceva_product(t, t.b, pt(1, 2), pt(F(2, 3), F(2, 3)))

    @given(st.lists(bounded, min_size=6, max_size=6),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_feet_inside_the_sides_are_admissible(self, coords, seed):
        # The ceva and menelaus generators draw their free feet without
        # probing the kernel: point_on_side feet are never rejected, and
        # each directed ratio is positive.
        try:
            t = DATriangle(*(Point(x, y) for x, y in zip(coords[::2],
                                                         coords[1::2])))
        except DegenerateConfigurationError:
            assume(False)
        feet = RandomRationals(seed, 0).cevian_feet(t)
        assert ceva_product(t, *feet) > 0


class TestMiquelMemberships:
    @given(st.lists(st.tuples(bounded, bounded, bounded), min_size=1,
                    max_size=3),
           bounded, bounded)
    def test_match_fraction_chain(self, coefficients, x, y):
        # The point is drawn freely, so most residuals are nonzero.
        assume(all(k != 0 for k, _, _ in coefficients))
        curves = {f"C{i}": Parabola(*c) for i, c in enumerate(coefficients)}
        result = _miquel_result(MeetResult.at(Point(x, y)), curves)
        want = {name: (F(c.kappa) * x + c.beta) * x + c.gamma - y
                for name, c in curves.items()}
        assert result.memberships == want
        assert all(type(r) is F for r in result.memberships.values())
        assert (result.kind, result.curves) == ("finite", curves)

    def test_ideal_point_has_no_memberships(self):
        result = _miquel_result(MeetResult.ideal(None), {"C": STD})
        assert (result.memberships, result.kind) == ({}, "ideal")


class TestMiquelTriangle:
    def test_midpoints_force_ideal(self):
        from dageo.gauge import midpoint
        t = on_std(0, 1, 2)
        d, e, f = midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)
        # all three circumparabolas share kappa = 2
        assert circumparabola(t.a, e, f).kappa == 2
        assert circumparabola(t.b, f, d).kappa == 2
        assert circumparabola(t.c, d, e).kappa == 2
        result = miquel_triangle(t, d, e, f)
        assert result.kind == "ideal"

    def test_generic_feet_finite_point(self):
        t = on_std(0, 1, 2)
        d = t.side("A").point_at(F(5, 4))
        e = t.side("B").point_at(F(3, 2))
        f = t.side("C").point_at(F(1, 4))
        result = miquel_triangle(t, d, e, f)
        assert result.kind == "finite"
        assert all(r == 0 for r in result.memberships.values())

    def test_tangent_pair_meets_at_the_foot(self):
        # C_AEF and C_BFD are tangent at F, so F lies on C_CDE and is the
        # common point of all three.
        t = DATriangle(pt(1, 1), pt(-2, -1), pt(0, 1))
        d, e, f = pt(F(-2, 3), F(1, 3)), pt(F(1, 3), 1), pt(-1, F(-1, 3))
        result = miquel_triangle(t, d, e, f)
        assert (result.kind, result.point) == ("finite", MeetResult.at(f))
        assert all(r == 0 for r in result.memberships.values())

    def test_vertex_foot_rejected(self):
        t = on_std(0, 1, 2)
        with pytest.raises(DegenerateConfigurationError):
            miquel_triangle(t, t.c, pt(1, 2), pt(F(1, 4), F(1, 4)))

    @pytest.mark.parametrize("xs", [(F(5, 4), F(3, 2), F(1, 4)),
                                    (F(3, 2), F(1), F(1, 2))])
    def test_curves_are_the_circumparabolas(self, xs):
        t = on_std(0, 1, 2)
        d, e, f = (t.side(lbl).point_at(x) for lbl, x in zip("ABC", xs))
        result = miquel_triangle(t, d, e, f)
        triples = {"C_AEF": (t.a, e, f), "C_BFD": (t.b, f, d),
                   "C_CDE": (t.c, d, e)}
        assert result.curves == {name: circumparabola(*pts)
                                 for name, pts in triples.items()}

    def test_tangent_at_f_iff_f_on_third_curve(self):
        # On a curve the tangent slope at P is s(PQ) + s(PR) - s(QR) for
        # any two other curve points Q, R (chord slopes kappa (u + v) +
        # beta).  With A, F, B collinear, E on CA and D on BC, C_AEF and
        # C_BFD are tangent at F iff s(FE) - s(FD) = s(CE) - s(CD), that
        # is iff angle(D, F, E) = angle(D, C, E): iff F lies on C_CDE.
        # Interior feet of distinct abscissae need nothing more; bounds 2
        # and 3 draw tangent triples often enough to see both sides.
        tangent = 0
        for bound in (2, 3):
            for trial in range(1500):
                rng = RandomRationals(7, trial, bound)
                t = rng.free_triangle()
                d, e, f = rng.cevian_feet(t)
                if d.x == e.x or e.x == f.x or f.x == d.x:
                    continue
                at_f = (circumparabola(t.a, e, f).chord_slope(f.x, f.x)
                        == circumparabola(t.b, f, d).chord_slope(f.x, f.x))
                assert at_f == circumparabola(t.c, d, e).contains(f)
                tangent += at_f
        assert tangent > 0


class TestMiquelQuadrilateral:
    def make_quad(self):
        return CompleteQuadrilateral(Line(F(0), F(0)), Line(F(1), F(0)),
                                     Line(F(-1), F(7)), Line(F(3), F(5)))

    def test_labeled_points(self):
        quad = self.make_quad()
        pts = quad.points()
        assert pts["B"] == pt(0, 0)
        assert pts["E"] == pt(7, 0)  # l1 ^ l3
        assert meet(quad.l2, quad.l4).point == pts["F"]

    def test_points_returns_a_copy(self):
        quad = self.make_quad()
        triples = quad.defining_triples()
        pts = quad.points()
        pts["B"] = pt(100, 100)
        del pts["A"]
        assert quad.defining_triples() == triples
        assert quad.points()["B"] == pt(0, 0)

    @pytest.mark.parametrize("lines", [
        (Line(F(0), F(0)), Line(F(1), F(0)), Line(F(-1), F(7)),
         Line(F(3), F(5))),
        (Line(F(0), F(0)), Line(F(1), F(0)), Line(F(-1), F(6)),
         Line(F(2), F(6))),
    ])
    def test_curves_are_the_circumparabolas(self, lines):
        quad = CompleteQuadrilateral(*lines)
        result = miquel_quadrilateral(quad)
        assert result.curves == {name: circumparabola(*pts)
                                 for name, pts in quad.defining_triples().items()}

    def test_generic_concurrency(self):
        result = miquel_quadrilateral(self.make_quad())
        assert result.kind == "finite"
        assert all(r == 0 for r in result.memberships.values())

    def test_equal_kappa_ideal(self):
        quad = CompleteQuadrilateral(Line(F(0), F(0)), Line(F(1), F(0)),
                                     Line(F(-1), F(6)), Line(F(2), F(6)))
        triples = quad.defining_triples()
        k1 = circumparabola(*triples["C_ABF"]).kappa
        k2 = circumparabola(*triples["C_BCE"]).kappa
        assert k1 == k2 == F(-1, 3)
        assert miquel_quadrilateral(quad).kind == "ideal"

    def test_membership_fails_off_configuration(self):
        quad = self.make_quad()
        curves = {name: circumparabola(*pts)
                  for name, pts in quad.defining_triples().items()}
        result = miquel_quadrilateral(quad)
        m = result.point.point
        wrong = Point(m.x, m.y + 1)
        assert any(curve.y_at(wrong.x) != wrong.y for curve in curves.values())

    def test_singular_line_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            CompleteQuadrilateral(Line.singular(F(0)), Line(F(1), F(0)),
                                  Line(F(-1), F(7)), Line(F(3), F(5)))

    def test_parallel_lines_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            CompleteQuadrilateral(Line(F(1), F(0)), Line(F(1), F(3)),
                                  Line(F(-1), F(7)), Line(F(3), F(5)))

    def test_tangent_at_b_iff_af_parallel_ec(self):
        # The tangent slope at B is s(BA) + s(BF) - s(AF) on C_ABF and
        # s(BC) + s(BE) - s(EC) on C_BCE (chord slopes kappa (u + v) +
        # beta).  BA, BE lie on l1 and BF, BC on l2, so the two curves are
        # tangent at B iff AF (l4) and EC (l3) are parallel, which
        # CompleteQuadrilateral rejects.  The points are placed on l1 and
        # l2 directly, so parallel pairs are drawn too.
        tangent = 0
        for bound in (2, 3):
            for trial in range(1500):
                rng = RandomRationals(7, trial, bound)
                l1 = Line(rng.rational(), rng.rational())
                l2 = Line(rng.rational(), rng.rational())
                hit = meet(l1, l2)
                xa, xe, xf, xc = (rng.rational() for _ in range(4))
                if (not hit.is_finite or hit.point.x in (xa, xe, xf, xc)
                        or xa == xf or xe == xc):
                    continue
                b = hit.point
                a, e = l1.point_at(xa), l1.point_at(xe)
                f, c = l2.point_at(xf), l2.point_at(xc)
                at_b = (circumparabola(a, b, f).chord_slope(b.x, b.x)
                        == circumparabola(b, c, e).chord_slope(b.x, b.x))
                assert at_b == (slope_between(a, f) == slope_between(e, c))
                tangent += at_b
        assert tangent > 0


class TestSingularProjectiveLength:
    def test_reference_values(self):
        assert singular_projective_length(F(-1), F(0), F(1)) == 1
        assert singular_projective_length(F(2), F(3), F(3)) == 9  # q = x0

    def test_affine_linearity(self):
        p, x0 = F(2, 3), F(-1)
        q1, q2 = F(4), F(-7, 2)
        for lam in (F(0), F(1), F(2, 5), F(-3)):
            mixed = lam * q1 + (1 - lam) * q2
            assert singular_projective_length(p, x0, mixed) \
                == lam * singular_projective_length(p, x0, q1) \
                + (1 - lam) * singular_projective_length(p, x0, q2)

    def test_second_difference_zero(self):
        p, x0 = F(7), F(2)
        values = [singular_projective_length(p, x0, F(q)) for q in (1, 3, 5)]
        assert values[2] - 2 * values[1] + values[0] == 0


class TestMnDivision:
    def test_reference_instance(self):
        # a=0, b=3, p=-1, (m,n)=(1,2): c=1, A_C=(0,1), A_B=(0,3)
        assert singular_projective_length(F(-1), F(0), F(1)) == 1
        assert singular_projective_length(F(-1), F(0), F(3)) == 3
        assert mn_division_check(F(0), F(3), F(-1), 1, 2) == (0, 0)

    def test_midpoint_case(self):
        assert mn_division_check(F(0), F(4), F(-2), 1, 1) == (0, 0)

    def test_degenerate_chord_rejected(self):
        # (2*0 + 1*3)/3 = 1 = p: the chord PC collapses
        with pytest.raises(DegenerateConfigurationError):
            mn_division_check(F(0), F(3), F(1), 1, 2)


class TestIsogonal:
    def test_mixed_reference_instance(self):
        # hand check: cevians meet at (1, 5/3) and isogonals at (1, 7/3)
        t = on_std(0, 1, 3)
        specs = {"A": CevianSpec((F(1), F(2)), base="B"),
                 "B": CevianSpec(singular=True),
                 "C": CevianSpec((F(1), F(2)), base="B")}
        verdict = isogonal_concurrency_check(t, specs)
        assert verdict == (True, True)

    def test_bisectors_self_isogonal(self):
        t = on_std(0, 1, 3)
        specs = {"A": CevianSpec((F(1), F(1)), base="B"),
                 "B": CevianSpec(singular=True),
                 "C": CevianSpec((F(1), F(1)), base="B")}
        verdict = isogonal_concurrency_check(t, specs)
        assert verdict == (True, True)

    @given(bounded_triangles(), st.sampled_from(VERTICES))
    def test_bisectors_are_the_one_to_one_cevians(self, t, vertex):
        # The positive bisector divides the angle 1:1 from either adjacent
        # side, and the interior bisector at the negative vertex is the
        # singular cevian.
        for base in VERTICES:
            if base != vertex:
                assert bisector_at(t, vertex, "positive") == cevian_line(
                    t, vertex, CevianSpec((F(1), F(1)), base=base))
        neg = t.negative_vertex_label
        assert bisector_at(t, neg, "interior") == cevian_line(
            t, neg, CevianSpec(singular=True))

    def test_involution(self):
        spec = CevianSpec((F(2), F(5)), base="B")
        assert spec.swapped().swapped() == spec
        assert CevianSpec(singular=True).swapped() == CevianSpec(singular=True)

    def test_medians_isogonal(self):
        # medians are concurrent; their isogonals must stay concurrent
        from dageo.gauge import slope_between
        t = on_std(0, 1, 3)
        specs = {}
        for lbl in ("A", "B", "C"):
            v = t.vertex(lbl)
            u, w = t.others(lbl)
            mid = Point((u.x + w.x) / 2, (u.y + w.y) / 2)
            s_base = slope_between(v, u)
            s_far = slope_between(v, w)
            s_med = slope_between(v, mid)
            alpha = (s_med - s_base) / (s_far - s_base)
            base_lbl = next(l for l in ("A", "B", "C")
                            if l != lbl and t.vertex(l) == u)
            specs[lbl] = CevianSpec((alpha, 1 - alpha), base=base_lbl)
        verdict = isogonal_concurrency_check(t, specs)
        assert verdict == (True, True)


# References: the curve checkers' Fraction chains that the integer lift
# replaced, run on drawn configurations.

def fraction_chain_check_parabolic_power(cfg):
    curve, p = cfg["curve"], cfg["P"]
    power = (curve.y_at(p.x) - p.y) / curve.kappa
    for x1 in cfg["secant_xs"]:
        m = slope_between(p, curve.point_at(x1))
        x2 = (m - curve.beta) / curve.kappa - x1
        if (x1 - p.x) * (x2 - p.x) != power:
            raise Counterexample(f"secant through x={x1} disagrees")


def fraction_chain_check_iso_angle(cfg):
    a, b = Point(cfg["a"], F(0)), Point(cfg["b"], F(0))
    locus = iso_angle_locus(a, b, cfg["theta"])
    if not (locus.contains(a) and locus.contains(b)):
        raise Counterexample("endpoints escaped the locus")
    for x, off in zip(cfg["sample_xs"], cfg["offsets"]):
        on = locus.point_at(x)
        if difference_angle(a, on, b) != cfg["theta"]:
            raise Counterexample(f"on-locus angle wrong at x={x}")
        if difference_angle(a, Point(on.x, on.y + off), b) == cfg["theta"]:
            raise Counterexample(f"off-locus point matched at x={x}")


def fraction_chain_check_inscribed_angle(cfg):
    curve = cfg["curve"]
    a, b, c, d = (curve.point_at(x) for x in cfg["xs"])
    if inscribed_angle_check(curve, a, b, c, d) != 0:
        raise Counterexample("inscribed angle differs between viewpoints")
    if curve.kappa * (b.x - a.x) != difference_angle(a, c, b):
        raise Counterexample("inscribed angle value mismatch")


def fraction_chain_check_mn_division(cfg):
    res = fraction_chain_mn_division(cfg["a"], cfg["b"], cfg["p"], cfg["m"],
                                     cfg["n"])
    if res != (0, 0):
        raise Counterexample("division residual nonzero")
    # The chord from (p, p**2) to (b, b**2) has slope p + b.
    a, b, p = cfg["a"], cfg["b"], cfg["p"]
    if fraction_chain_projective_length(p, a, b) != p * p + (p + b) * (a - p):
        raise Counterexample("projective length is not the chord's height")


LIFTED_CHECKERS = {
    "parabolic_power": fraction_chain_check_parabolic_power,
    "iso_angle_locus": fraction_chain_check_iso_angle,
    "inscribed_angle": fraction_chain_check_inscribed_angle,
    "mn_division": fraction_chain_check_mn_division,
}


def check_outcome(check, cfg):
    """``check(cfg)``'s verdict, or the type and message it raises."""
    try:
        return check(cfg)
    except (Counterexample, DegenerateConfigurationError) as err:
        return type(err), str(err)


class TestLiftedCheckers:
    @given(st.sampled_from(sorted(LIFTED_CHECKERS)), st.integers(0, 2**32),
           st.integers(0, 500), st.sampled_from([2, 3, 5, 50]), bounded,
           st.integers(0, 4))
    def test_match_fraction_chain(self, theorem, seed, trial, bound, value,
                                  slot):
        # value replaces one sample's offset (iso_angle_locus: a zero one
        # puts the off-locus point on the locus) or the weight m
        # (mn_division: 0 and below are rejected); the other checkers
        # judge the drawn configuration.
        cfg = REGISTRY[theorem].generate(RandomRationals(seed, trial, bound))
        if theorem == "iso_angle_locus":
            cfg["offsets"][slot] = F(value)
        elif theorem == "mn_division" and value <= 0:
            cfg["m"] = int(value)
        got = check_outcome(REGISTRY[theorem].check, cfg)
        assert got == check_outcome(LIFTED_CHECKERS[theorem], cfg)

    def test_projective_length_checked_against_chord(self, monkeypatch):
        # (p + q) x0 + p q is affine in q like the true length, so only
        # the chord's height at x0 tells the two apart.
        cfg = {"a": F(0), "b": F(3), "p": F(2), "m": 1, "n": 1}
        assert REGISTRY["mn_division"].check(cfg) is None
        monkeypatch.setattr(campaigns.th, "singular_projective_length",
                            lambda p, x0, q: (p + q) * x0 + p * q)
        with pytest.raises(Counterexample, match="chord's height"):
            REGISTRY["mn_division"].check(cfg)


# References: the Fraction chains that the triangle layer's integer lift
# replaced in the kernel, the checkers and the generators.

def fraction_chain_cevian_line(t, vertex, spec):
    v = t.vertex(vertex)
    if spec.singular:
        return Line.singular(v.x)
    u, w = t.others(vertex)
    if spec.base not in ("A", "B", "C") or t.vertex(spec.base) not in (u, w):
        raise DegenerateConfigurationError(
            f"base {spec.base!r} is not adjacent to vertex {vertex}")
    base_pt = t.vertex(spec.base)
    far_pt = w if base_pt == u else u
    m, n = spec.ratio
    if m + n == 0:
        raise DegenerateConfigurationError("degenerate division weights")
    s_base = slope_between(v, base_pt)
    s_far = slope_between(v, far_pt)
    slope = (n * s_base + m * s_far) / (m + n)
    return Line(slope, v.y - slope * v.x)


def fraction_chain_intersecting_parabolas(gamma, delta, m_a, m_b):
    finite = [h.point for h in parabola_meet(gamma, delta) if h.is_finite]
    if len(finite) != 2:
        raise DegenerateConfigurationError(
            "parabolas must meet at two rational points")
    a, b = sorted(finite, key=lambda p: p.x)
    p = second_intersection(gamma, a, m_a)
    q = second_intersection(delta, a, m_a)
    r = second_intersection(gamma, b, m_b)
    s = second_intersection(delta, b, m_b)
    if a in (p, q) or b in (r, s):
        raise DegenerateConfigurationError("tangent chord at a common point")
    if p.x == r.x or q.x == s.x:
        raise DegenerateConfigurationError("singular cross-chord")
    return slope_between(p, r) - slope_between(q, s)


def fraction_chain_opposite_angle_sum(a, b, c, d):
    if not (a.x < b.x < c.x < d.x):
        raise DegenerateConfigurationError(
            "opposite_angle_sum requires strictly increasing x-order")
    theta_b = slope_between(b, a) - slope_between(b, c)
    theta_d = slope_between(d, c) - slope_between(d, a)
    return theta_b + theta_d


def fraction_chain_arc_symmetry(t, p_param):
    lo, mid, hi = t.sorted_vertices()
    p_param = F(p_param)
    if not (mid.x < p_param < hi.x):
        raise DegenerateConfigurationError("parameter must lie on the arc")
    par = t.parabola
    p = par.point_at(p_param)
    p_refl = par.point_at(2 * hi.x - p_param)
    d_hit = meet(line_through(mid, hi), line_through(lo, p))
    d2_hit = meet(line_through(hi, lo), line_through(mid, p_refl))
    if not (d_hit.is_finite and d2_hit.is_finite):
        raise DegenerateConfigurationError("cevian parallel to a side")
    d, d2 = d_hit.point, d2_hit.point
    quad = [lo, mid, d, d2]
    if len({q.x for q in quad}) < 4:
        raise DegenerateConfigurationError("coincident abscissae in quadruple")
    ok = conparabolic(*quad)
    ordered = sorted(quad, key=lambda q: q.x)
    if [q.x for q in quad] == [q.x for q in ordered]:
        ok = ok and fraction_chain_opposite_angle_sum(*quad) == 0
    return ok


weights = st.one_of(bounded, st.integers(-3, 3))


class TestLiftedTriangleKernel:
    @given(bounded_triangles(), st.sampled_from("ABC"),
           st.sampled_from(["A", "B", "C", "", "D"]), weights, weights,
           st.booleans(), st.booleans())
    def test_cevian_line_matches_fraction_chain(self, t, vertex, base, m, n,
                                                opposite, singular):
        # opposite: n = -m, the degenerate weights.
        if opposite:
            n = -m
        spec = CevianSpec((m, n), base=base, singular=singular)
        got = kernel_outcome(cevian_line, t, vertex, spec)
        want = kernel_outcome(fraction_chain_cevian_line, t, vertex, spec)
        assert got == want
        if isinstance(got, Line):
            assert type(got.k) is F and (got.m is None or type(got.m) is F)

    @given(st.integers(0, 2**32), st.integers(0, 300), bounded, bounded,
           st.booleans())
    def test_intersecting_parabolas_matches_fraction_chain(
            self, seed, trial, m_a, m_b, drawn):
        # drawn: the generator's slopes, which always pass; otherwise free
        # slopes, which also reach the tangent and singular rejections.
        cfg = REGISTRY["intersecting_parabolas"].generate(
            RandomRationals(seed, trial, 5))
        if drawn:
            m_a, m_b = cfg["m_a"], cfg["m_b"]
        args = (cfg["gamma"], cfg["delta"], F(m_a), F(m_b))
        got = kernel_outcome(intersecting_parabolas_check, *args)
        assert got == kernel_outcome(fraction_chain_intersecting_parabolas,
                                  *args)
        if not isinstance(got, tuple):
            assert type(got) is F

    @given(st.lists(st.tuples(bounded, bounded), min_size=4, max_size=4))
    def test_opposite_angle_sum_matches_fraction_chain(self, coords):
        quad = [Point(x, y) for x, y in coords]
        got = kernel_outcome(opposite_angle_sum, *quad)
        assert got == kernel_outcome(fraction_chain_opposite_angle_sum, *quad)
        if not isinstance(got, tuple):
            assert type(got) is F

    @given(bounded_triangles(), st.one_of(bounded, st.integers(-3, 3)))
    def test_arc_symmetry_matches_fraction_chain(self, t, p_param):
        got = kernel_outcome(arc_symmetry_check, t, p_param)
        assert got == kernel_outcome(fraction_chain_arc_symmetry, t, p_param)


def fraction_chain_check_simson(cfg):
    t, m = cfg["T"], cfg["m"]
    a, b, c = (v.x for v in t.sorted_vertices())
    result = campaigns.simson(t, m)
    intercept = m * (a + b + c) - m * m - (a * b + b * c + c * a)
    if result.line.k != intercept:
        raise Counterexample("simson line formula mismatch")
    campaigns.simson(cfg["T_general"], cfg["m2"])


def fraction_chain_check_triangle_invariants(cfg):
    for t in (cfg["T"], cfg["T_inscribed"]):
        circum_ortho_at_infinity(t)
        order = t.sorted_vertices()
        if t.parabola.kappa < 0:
            order = order[::-1]
        for v, angle in zip((t.a, t.b, t.c), t.interior_angles()):
            k = order.index(v)
            if difference_angle(order[(k + 1) % 3], v, order[k - 1]) != angle:
                raise Counterexample(
                    f"angle at x={v.x} differs from its definition")


def fraction_chain_check_midpoint_lemma(cfg):
    result = campaigns.midpoint_lemma_check(cfg["T"])
    zero = Point(F(0), F(0))
    if any(res != zero for res in result.residuals.values()):
        raise Counterexample("bisector meet is not the feet midpoint")


def _bumped_simson(value):
    """``simson`` with ``value`` added to its line's intercept."""
    real = campaigns.simson

    def bumped(t, m):
        result = real(t, m)
        line = Line(result.line.m, result.line.k + value)
        return result._replace(line=line)
    return bumped


def _bumped_residual(value, slot):
    """``midpoint_lemma_check`` with ``value`` added to one residual."""
    real = campaigns.midpoint_lemma_check

    def bumped(t):
        result = real(t)
        lbl = "ABC"[slot % 3]
        res = result.residuals[lbl]
        moved = (Point(res.x + value, res.y) if slot < 3
                 else Point(res.x, res.y + value))
        return result._replace(residuals={**result.residuals, lbl: moved})
    return bumped


class TestLiftedTriangleCheckers:
    @given(st.integers(0, 2**32), st.integers(0, 500),
           st.sampled_from([2, 3, 50]), bounded)
    def test_simson_intercept_matches_fraction_chain(self, seed, trial,
                                                     bound, value):
        cfg = REGISTRY["simson"].generate(RandomRationals(seed, trial, bound))
        with mock.patch.object(campaigns, "simson", _bumped_simson(value)):
            got = check_outcome(REGISTRY["simson"].check, cfg)
            want = check_outcome(fraction_chain_check_simson, cfg)
        assert got == want
        assert (got is None) == (value == 0)

    @given(st.integers(0, 2**32), st.integers(0, 500),
           st.sampled_from([2, 3, 50]), bounded, st.integers(0, 5))
    def test_triangle_invariants_matches_fraction_chain(self, seed, trial,
                                                        bound, value, slot):
        # value is added to one stored angle of one triangle.
        cfg = REGISTRY["triangle_invariants"].generate(
            RandomRationals(seed, trial, bound))
        t = cfg["T" if slot < 3 else "T_inscribed"]
        # The stored triple and value over den * value.denominator.
        (u, v, w), den = t._angle_lift
        vn, vd = value.numerator, value.denominator
        angles = [u * vd, v * vd, w * vd]
        angles[slot % 3] += vn * den
        object.__setattr__(t, "_angle_lift", (tuple(angles), den * vd))
        got = check_outcome(REGISTRY["triangle_invariants"].check, cfg)
        assert got == check_outcome(fraction_chain_check_triangle_invariants,
                                    cfg)
        assert (got is None) == (value == 0)

    @given(st.integers(0, 2**32), st.integers(0, 500),
           st.sampled_from([2, 3, 50]), bounded, st.integers(0, 5))
    def test_midpoint_lemma_matches_fraction_chain(self, seed, trial, bound,
                                                   value, slot):
        cfg = REGISTRY["midpoint_lemma"].generate(
            RandomRationals(seed, trial, bound))
        with mock.patch.object(campaigns, "midpoint_lemma_check",
                               _bumped_residual(value, slot)):
            got = check_outcome(REGISTRY["midpoint_lemma"].check, cfg)
            want = check_outcome(fraction_chain_check_midpoint_lemma, cfg)
        assert got == want
        assert (got is None) == (value == 0)


def fraction_chain_gen_ceva(rng):
    t = rng.free_triangle()
    wts = [rng.positive_rational() for _ in range(3)]
    s = sum(wts)
    q = Point(sum(w * v.x for w, v in zip(wts, (t.a, t.b, t.c))) / s,
              sum(w * v.y for w, v in zip(wts, (t.a, t.b, t.c))) / s)
    concurrent_feet = tuple(meet(line_through(t.vertex(lbl), q),
                                 t.side(lbl)).point for lbl in "ABC")
    return {"T": t, "concurrent": concurrent_feet, "free": rng.cevian_feet(t)}


def fraction_chain_gen_isogonal(rng):
    t = rng.triangle()
    mixed = rng.trial_index % 2 == 0
    if mixed:
        neg = t.negative_vertex_label
        m = F(rng.small_positive_int())
        n = F(rng.small_positive_int())
        specs = {lbl: CevianSpec(singular=True) if lbl == neg
                 else CevianSpec((m, n), base=neg) for lbl in "ABC"}
        return {"T": t, "specs": specs, "mixed": mixed}

    def make():
        bases = {}
        for lbl in "ABC":
            u, w = [v for v in "ABC" if v != lbl]
            bases[lbl] = u if rng.rng.random() < 0.5 else w
        alpha = rng.fraction_in_unit_interval()
        beta = rng.fraction_in_unit_interval()
        sa = CevianSpec((alpha, 1 - alpha), base=bases["A"])
        sb = CevianSpec((beta, 1 - beta), base=bases["B"])
        hit = meet(cevian_line(t, "A", sa), cevian_line(t, "B", sb))
        if not hit.is_finite:
            return None
        q = hit.point
        cpt = t.vertex("C")
        if q == cpt or q.x == cpt.x:
            return None
        slope_cq = (q.y - cpt.y) / (q.x - cpt.x)
        base_pt = t.vertex(bases["C"])
        far_lbl = next(v for v in ("A", "B") if v != bases["C"])
        s_base = slope_between(cpt, base_pt)
        s_far = slope_between(cpt, t.vertex(far_lbl))
        if s_base == s_far or slope_cq in (s_base, s_far):
            return None
        gamma = (slope_cq - s_base) / (s_far - s_base)
        if gamma in (0, 1):
            return None
        sc = CevianSpec((gamma, 1 - gamma), base=bases["C"])
        return {"A": sa, "B": sb, "C": sc}
    return {"T": t, "specs": rng.retrying(make), "mixed": mixed}


def fraction_chain_gen_final_collinearity(rng):
    curve = rng.parabola()
    xs = rng.distinct_rationals(3)
    t1 = DATriangle(*(curve.point_at(x) for x in xs))
    sign = 1 if rng.trial_index % 2 == 0 else -1
    delta = Parabola(sign * curve.kappa, rng.rational(), rng.rational())
    t0 = rng.rational()
    a, b, c = xs
    primed = (t0 + (c - a), t0 + (c - b), t0)
    t2 = DATriangle(*(delta.point_at(x) for x in primed))
    return {"T1": t1, "T2": t2, "sign": sign}


def fraction_chain_gen_intro_observation(rng):
    curve = rng.parabola()
    xs = rng.distinct_rationals(3)
    a, b, c = xs
    t1 = DATriangle(*(curve.point_at(x) for x in xs))
    delta = Parabola(curve.kappa, rng.rational(), rng.rational())
    t0 = rng.rational()
    primed = (t0, t0 + (c - b), t0 + (c - a))
    t2 = DATriangle(*(delta.point_at(x) for x in primed))
    return {"T1": t1, "T2": t2}


def fraction_chain_gen_trapezoid(rng):
    curve = rng.parabola()
    a, b, c = rng.distinct_rationals(3)
    d = b + c - a

    def make_negative():
        s = rng.nonzero_rational()
        slope_bc = curve.chord_slope(b, c)
        pa = curve.point_at(a)
        d_off = Point(pa.x + s, pa.y + s * slope_bc)
        if curve.contains(d_off):
            return None
        trapezoid_equivalence(pa, curve.point_at(b), curve.point_at(c),
                              d_off)
        return d_off
    d_off = rng.retrying(make_negative)
    return {"curve": curve, "xs": (a, b, c, d), "D_off": d_off}


def fraction_chain_gen_equivalence_chain(rng):
    xs = rng.distinct_rationals(3)
    t1 = DATriangle(*(STD.point_at(x) for x in xs))
    case = rng.trial_index % 4
    if case == 0:
        k = rng.retrying(rng.positive_rational, lambda v: v != 1)
        t2 = DATriangle(*(STD.point_at(k * x) for x in xs))
    elif case == 1:
        t2 = eq.shift(t1, rng.rational())
    elif case == 2:
        k2 = rng.retrying(rng.nonzero_rational, lambda v: abs(v) != 1)
        curve = Parabola(k2, F(0), F(0))
        t2 = DATriangle(*(curve.point_at(x) for x in xs))
    else:
        t2 = rng.free_triangle()
    return {"T1": t1, "T2": t2, "case": case}


LIFTED_GENERATORS = {
    "ceva": fraction_chain_gen_ceva,
    "isogonal": fraction_chain_gen_isogonal,
    "final_collinearity": fraction_chain_gen_final_collinearity,
    "intro_observation": fraction_chain_gen_intro_observation,
    "trapezoid": fraction_chain_gen_trapezoid,
    "equivalence_chain": fraction_chain_gen_equivalence_chain,
}


class TestLiftedGenerators:
    @given(st.sampled_from(sorted(LIFTED_GENERATORS)), st.integers(0, 2**32),
           st.integers(0, 2000), st.sampled_from([2, 3, 5, 50]))
    def test_match_fraction_chain(self, theorem, seed, trial, bound):
        # The same configuration, the same rejections and the same stream
        # state afterwards: no draw moves, past the pinned first 50 too.
        new, old = (RandomRationals(seed, trial, bound) for _ in range(2))
        cfg = REGISTRY[theorem].generate(new)
        want = LIFTED_GENERATORS[theorem](old)
        assert jsonable(cfg) == jsonable(want)
        assert new.rejections == old.rejections
        assert new.rng.getstate() == old.rng.getstate()


def test_no_generator_runs_its_theorem(monkeypatch):
    # A generator that ran its theorem inside retrying would count a
    # kernel fault there as a silent rejection: with the theorems raising,
    # every draw must still come through.
    def refuse(*args):
        raise DegenerateConfigurationError("theorem run by its generator")
    monkeypatch.setattr(campaigns.th, "miquel_triangle", refuse)
    monkeypatch.setattr(campaigns.th, "miquel_quadrilateral", refuse)
    monkeypatch.setattr(euclid, "euclid_bisector_collinearity", refuse)
    generators = (REGISTRY["miquel_triangle"].generate,
                  REGISTRY["miquel_quadrilateral"].generate,
                  euclid.EUCLID_EXPORT.generate)
    for bound in (2, 3, 50):
        for trial in range(50):
            for generate in generators:
                generate(RandomRationals(42, trial, bound))
