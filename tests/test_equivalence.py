from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bounded, kernel_outcome
from dageo.equivalence import (classify_pair, diag_section_similarity,
                               final_theorem_feet, intro_observation_check,
                               shift)
from dageo.errors import DegenerateConfigurationError, KernelInvariantError
from dageo.gauge import Point, da_norm, line_through
from dageo.parabola import Parabola
from dageo.scalar import det3
from dageo.theorems import menelaus_product
from dageo.triangle import DATriangle, foot_of_perpendicular

STD = Parabola(F(1), F(0), F(0))
small = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def on_curve(curve, *xs):
    return DATriangle(*(curve.point_at(F(x)) for x in xs))


def on_std(*xs):
    return on_curve(STD, *xs)


@st.composite
def _triangle(draw):
    pts = [Point(draw(small), draw(small)) for _ in range(3)]
    try:
        return DATriangle(*pts)
    except DegenerateConfigurationError:
        assume(False)


triangles = _triangle()


def label_lookup_tiers(t1, t2):
    """The tiers read through vertex labels, side by side and angle by
    angle, as classify_pair once computed them under the identity pairing."""
    sides = tuple((da_norm(t1.vertex(u), t1.vertex(w)),
                   da_norm(t2.vertex(u), t2.vertex(w)))
                  for u, w in (("A", "B"), ("B", "C"), ("C", "A")))
    angles = tuple(zip(t1.interior_angles(), t2.interior_angles()))
    sss = (sides[0][0] * sides[1][1] == sides[1][0] * sides[0][1]
           and sides[1][0] * sides[2][1] == sides[2][0] * sides[1][1])
    aa = sum(1 for x, y in angles if x == y) >= 2
    sas = any(sides[i][0] * sides[j][1] == sides[j][0] * sides[i][1]
              and angles[k][0] == angles[k][1]
              for k, (i, j) in ((0, (0, 2)), (1, (0, 1)), (2, (1, 2))))
    norm_cong = all(x == y for x, y in sides)
    da_cong = norm_cong and all(x == y for x, y in angles)
    return sss, aa, sas, norm_cong, da_cong


class TestClassifyPair:
    def test_scaled_pair_sss_not_aa(self):
        t1, t2 = on_std(0, 1, 2), on_std(0, 2, 4)
        verdict = classify_pair(t1, t2)
        assert verdict.sim_sss and not verdict.sim_aa
        # the middle angles differ: -2 against -4
        assert t1.interior_angles()[1] == -2 and t2.interior_angles()[1] == -4

    def test_shifted_pair_congruent(self):
        t = on_std(0, 1, 3)
        verdict = classify_pair(t, shift(t, F(2)))
        assert verdict.da_congruent and verdict.norm_congruent
        assert verdict.sim_aa and verdict.sim_sas_signed and verdict.sim_sss

    def test_norm_congruent_not_congruent(self):
        t1 = on_std(0, 1, 3)
        t2 = on_curve(Parabola(F(2), F(0), F(0)), 0, 1, 3)
        verdict = classify_pair(t1, t2)
        assert verdict.norm_congruent and not verdict.da_congruent

    def test_symmetry_under_swap(self):
        t1, t2 = on_std(0, 1, 3), on_std(5, 7, 8)
        v12 = classify_pair(t1, t2)
        v21 = classify_pair(t2, t1)
        assert (v12.sim_sss, v12.sim_aa, v12.norm_congruent) \
            == (v21.sim_sss, v21.sim_aa, v21.norm_congruent)

    @given(st.data())
    def test_matches_label_lookup(self, data):
        t1 = data.draw(triangles)
        scaled = small.filter(bool).map(lambda k: on_curve(
            t1.parabola, *(k * v.x for v in (t1.a, t1.b, t1.c))))
        t2 = data.draw(st.one_of(
            triangles,
            small.filter(bool).map(lambda theta: shift(t1, theta)),
            scaled,
            st.just(DATriangle(t1.c, t1.b, t1.a))))
        verdict = classify_pair(t1, t2)
        assert (verdict.sim_sss, verdict.sim_aa, verdict.sim_sas_signed,
                verdict.norm_congruent, verdict.da_congruent) \
            == label_lookup_tiers(t1, t2)

    @given(small, small, small, st.fractions(min_value=F(1, 6), max_value=9,
                                             max_denominator=6))
    def test_chain_invariants_random(self, x0, g1, g2, k):
        if g1 <= 0 or g2 <= 0:
            return
        xs = (x0, x0 + g1, x0 + g1 + g2)
        t1 = on_std(*xs)
        t2 = on_std(*(k * x for x in xs))
        verdict = classify_pair(t1, t2)  # chain asserted internally
        assert verdict.sim_sss


class TestBridgeCertificate:
    """classify_pair certifies the coefficient bridge on every
    norm-congruent pair, so angles that disagree with |kappa| raise."""

    def test_equal_angles_at_different_kappa_raise(self):
        t1 = on_std(0, 1, 3)
        t2 = on_curve(Parabola(F(2), F(0), F(0)), 0, 1, 3)
        # classify_pair reads the stored angle lifts: both (2, -3, 1).
        for t in (t1, t2):
            object.__setattr__(t, "_angle_lift", ((2, -3, 1), 1))
        with pytest.raises(KernelInvariantError, match="kappa"):
            classify_pair(t1, t2)

    def test_unequal_angles_at_equal_kappa_raise(self):
        t1 = on_std(0, 1, 3)
        t2 = shift(t1, F(2))
        angles, den = t2._angle_lift
        object.__setattr__(t2, "_angle_lift",
                           (tuple(2 * v for v in angles), den))
        with pytest.raises(KernelInvariantError, match="kappa"):
            classify_pair(t1, t2)


class TestCoefficientBridge:
    """A norm-congruent pair is fully congruent exactly when the
    circumparabola coefficients agree in absolute value."""

    def verdict(self, t1, t2):
        verdict = classify_pair(t1, t2)
        assert verdict.norm_congruent
        return verdict.da_congruent

    def test_opposite_openings_congruent(self):
        t1 = on_std(0, 1, 3)
        t2 = on_curve(Parabola(F(-1), F(0), F(0)), 0, 1, 3)
        assert self.verdict(t1, t2) is True

    def test_different_magnitude_not_congruent(self):
        t1 = on_std(0, 1, 3)
        t2 = on_curve(Parabola(F(2), F(0), F(0)), 0, 1, 3)
        assert self.verdict(t1, t2) is False

    def test_same_coefficient(self):
        t1 = on_std(0, 1, 3)
        assert self.verdict(t1, shift(t1, F(5))) is True

    def test_requires_norm_congruence(self):
        verdict = classify_pair(on_std(0, 1, 3), on_std(0, 1, 4))
        assert not verdict.norm_congruent and not verdict.da_congruent


class TestWitnessFamily:
    """An x-scaled copy on the standard parabola separates the SSS and AA
    tiers: its side norms scale by k, and so do its angles, which AA
    similarity needs equal."""

    def test_default_witness(self):
        verdict = classify_pair(on_std(0, 1, 3), on_std(0, 2, 6))
        assert verdict.sim_sss and not verdict.sim_aa

    def test_rejects_trivial_scale(self):
        # k = 1 is no witness: the copy is the same triangle.
        verdict = classify_pair(on_std(0, 1, 3), on_std(0, 1, 3))
        assert verdict.sim_sss and verdict.sim_aa and verdict.da_congruent


class TestShift:
    def test_reference_shift(self):
        t = on_std(0, 1, 3)
        image = shift(t, F(2))
        assert [v.x for v in (image.a, image.b, image.c)] == [2, 3, 5]
        assert classify_pair(t, image).da_congruent

    def test_identity_and_inverse(self):
        t = on_std(0, 1, 3)
        assert shift(t, F(0)) == t
        assert shift(shift(t, F(1)), F(-1)) == t

    def test_general_curve_scaling(self):
        # on y = 2x^2 a shift by angle theta moves abscissae by theta/2
        curve = Parabola(F(2), F(0), F(0))
        t = on_curve(curve, 0, 1, 3)
        image = shift(t, F(2))
        assert [v.x for v in (image.a, image.b, image.c)] == [1, 2, 4]

    @given(small, small)
    def test_group_law(self, th1, th2):
        t = on_std(0, 1, 3)
        assert shift(shift(t, th1), th2) == shift(t, th1 + th2)


class TestDiagSection:
    def test_unit_spacing(self):
        pts = [STD.point_at(F(x)) for x in (0, 1, 2, 3)]
        verdict = diag_section_similarity(*pts)
        assert verdict.xab_xcd and verdict.xbc_xad

    def test_symmetric_spacing(self):
        pts = [STD.point_at(F(x)) for x in (0, 1, 3, 4)]
        verdict = diag_section_similarity(*pts)
        assert verdict.xab_xcd and verdict.xbc_xad

    def test_off_curve_rejected(self):
        pts = [STD.point_at(F(x)) for x in (0, 1, 3)]
        with pytest.raises(DegenerateConfigurationError):
            diag_section_similarity(*pts, Point(F(4), F(15)))

    @given(st.lists(small, min_size=4, max_size=4, unique=True),
           bounded.filter(bool), bounded, bounded)
    def test_every_sorted_quadruple_is_admissible(self, xs, kappa, beta,
                                                  gamma):
        # The diag_section generator draws without probing the kernel:
        # four sorted distinct abscissae on any parabola are never
        # degenerate.
        curve = Parabola(kappa, beta, gamma)
        pts = [curve.point_at(x) for x in sorted(xs)]
        verdict = diag_section_similarity(*pts)
        assert verdict.xab_xcd and verdict.xbc_xad


class TestFinalTheorem:
    def make_pair(self):
        gamma = STD
        delta = Parabola(F(1), F(-10), F(25))  # y = (x-5)^2
        t1 = on_curve(gamma, 0, 1, 2)
        t2 = DATriangle(delta.point_at(F(7)), delta.point_at(F(6)),
                        delta.point_at(F(5)))
        return t1, t2

    def test_reference_instance(self):
        t1, t2 = self.make_pair()
        result = final_theorem_feet(t1, t2)
        assert result.feet == (Point(F(0), F(-5)), Point(F(1), F(-8)),
                               Point(F(2), F(-11)))
        assert result.det_residual == 0
        assert result.menelaus_product == -1

    def test_reversed_opening(self):
        gamma = STD
        delta = Parabola(F(-1), F(3), F(2))
        t1 = on_curve(gamma, 0, 1, 3)
        # mirror congruence: label A gets the rightmost primed abscissa
        t2 = DATriangle(delta.point_at(F(13)), delta.point_at(F(12)),
                        delta.point_at(F(10)))
        result = final_theorem_feet(t1, t2)
        assert result.det_residual == 0

    def test_nonuniform_spacing(self):
        t1 = on_std(0, 1, 3)
        t2 = DATriangle(STD.point_at(F(13)), STD.point_at(F(12)),
                        STD.point_at(F(10)))
        assert final_theorem_feet(t1, t2).det_residual == 0

    def test_foot_over_vertex_has_no_menelaus_product(self):
        # primed abscissae (3, 2, 0), i.e. t0 = 0 in the campaign generator:
        # the foot from A is the vertex C' and the foot from C is A', so a
        # directed ratio has a zero denominator and no product is reported
        t1 = on_std(0, 1, 3)
        t2 = on_std(3, 2, 0)
        result = final_theorem_feet(t1, t2)
        assert result.det_residual == 0
        assert result.menelaus_product is None

    def test_same_order_translate_rejected(self):
        # same-gap translate is label-congruent but orientation-preserving
        t1 = on_std(0, 1, 3)
        t2 = DATriangle(STD.point_at(F(10)), STD.point_at(F(11)),
                        STD.point_at(F(13)))
        with pytest.raises(DegenerateConfigurationError):
            final_theorem_feet(t1, t2)

    def test_broken_congruence_rejected(self):
        t1, _ = self.make_pair()
        delta = Parabola(F(1), F(-10), F(25))
        stretched = DATriangle(delta.point_at(F(8)), delta.point_at(F(6)),
                               delta.point_at(F(5)))
        with pytest.raises(DegenerateConfigurationError):
            final_theorem_feet(t1, stretched)

    def test_kappa_mismatch_rejected(self):
        t1, _ = self.make_pair()
        delta = Parabola(F(2), F(0), F(0))
        other = DATriangle(delta.point_at(F(7)), delta.point_at(F(6)),
                           delta.point_at(F(5)))
        with pytest.raises(DegenerateConfigurationError):
            final_theorem_feet(t1, other)


class TestIntroObservation:
    def test_reference_instance(self):
        t1 = on_std(0, 1, 2)
        delta = Parabola(F(1), F(-10), F(25))
        t2 = on_curve(delta, 5, 6, 7)
        result = intro_observation_check(t1, t2)
        assert result.feet == (Point(F(7), F(19)), Point(F(6), F(12)),
                               Point(F(5), F(5)))
        assert result.det_residual == 0

    def test_translation_amount_irrelevant(self):
        t1 = on_std(0, 1, 2)
        delta = Parabola(F(1), F(-30), F(225))  # shifted by +15
        t2 = on_curve(delta, 15, 16, 17)
        assert intro_observation_check(t1, t2).det_residual == 0

    def test_unequal_spacing_rejected(self):
        t1 = on_std(0, 1, 2)
        delta = Parabola(F(1), F(-10), F(25))
        t2 = on_curve(delta, 5, 6, 8)
        with pytest.raises(DegenerateConfigurationError):
            intro_observation_check(t1, t2)

    def test_non_translate_rejected(self):
        t1 = on_std(0, 1, 2)
        t2 = on_curve(Parabola(F(2), F(0), F(0)), 5, 6, 7)
        with pytest.raises(DegenerateConfigurationError):
            intro_observation_check(t1, t2)

    def test_nonuniform_gaps(self):
        t1 = on_std(0, 1, 4)
        # primed gaps reverse: (3, 1)
        t2 = on_curve(STD, 10, 13, 14)
        assert intro_observation_check(t1, t2).det_residual == 0


# References: the Fraction chains that the integer lift of shift, the
# intro observation's spacing test and the capstone's guards replaced.

def fraction_chain_shift(t, theta):
    par = t.parabola
    delta = F(theta) / par.kappa
    image = DATriangle(*(par.point_at(v.x + delta) for v in (t.a, t.b, t.c)))
    if image.parabola != par:
        raise KernelInvariantError("shift moved the triangle off its parabola")
    return image


def fraction_chain_intro_observation(t, t2):
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
    return (h_a, h_b, h_c), residual, None


def fraction_chain_final_theorem_feet(t, t2):
    if abs(t.parabola.kappa) != abs(t2.parabola.kappa):
        raise DegenerateConfigurationError(
            "parabolas must share |kappa| for congruence")
    if not classify_pair(t, t2).da_congruent:
        raise DegenerateConfigurationError(
            "triangles are not congruent label-to-label")
    rank1 = {v: i for i, v in enumerate(t.sorted_vertices())}
    rank2 = {v: i for i, v in enumerate(t2.sorted_vertices())}
    if not all(rank1[t.vertex(lbl)] + rank2[t2.vertex(lbl)] == 2
               for lbl in "ABC"):
        raise DegenerateConfigurationError(
            "correspondence does not reverse the x-orientation")
    feet = tuple(foot_of_perpendicular(t.vertex(lbl), t2.side(lbl))
                 for lbl in "ABC")
    h_a, h_b, h_c = feet
    residual = det3((h_a.x, h_a.y, 1), (h_b.x, h_b.y, 1), (h_c.x, h_c.y, 1))
    try:
        menelaus = menelaus_product(t2, *feet)
    except DegenerateConfigurationError:
        menelaus = None
    return feet, residual, menelaus


def copy_pair(curve, xs, delta, primed):
    return (DATriangle(*(curve.point_at(x) for x in xs)),
            DATriangle(*(delta.point_at(x) for x in primed)))


class TestLiftedAgainstFractionChains:
    @given(triangles, st.one_of(bounded, st.integers(-3, 3)))
    def test_shift_matches_fraction_chain(self, t, theta):
        got = kernel_outcome(shift, t, theta)
        assert got == kernel_outcome(fraction_chain_shift, t, theta)
        assert all(type(c) is F for v in (got.a, got.b, got.c) for c in v)

    def test_shift_keeps_fraction_coercion(self):
        t = on_std(0, 1, 3)
        assert shift(t, "1/2") == shift(t, F(1, 2))
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            shift(t, "half")

    @given(small.filter(bool), small, small,
           st.lists(small, min_size=3, max_size=3, unique=True),
           small, small, small, st.sampled_from(
               ["spaced", "reversed", "one gap off", "other kappa",
                "mirrored kappa"]))
    def test_intro_observation_matches_fraction_chain(
            self, kappa, beta, gamma, xs, beta2, gamma2, t0, shape):
        # "spaced" repeats the gaps right to left (the hypothesis),
        # "reversed" left to right, "one gap off" moves one primed point;
        # a mirrored curve has the same |kappa| but is no translate.
        a, b, c = sorted(xs)
        primed = {"spaced": (t0, t0 + (c - b), t0 + (c - a)),
                  "reversed": (t0, t0 + (b - a), t0 + (c - a)),
                  "one gap off": (t0, t0 + (c - b) + 1, t0 + (c - a))
                  }.get(shape, (t0, t0 + (c - b), t0 + (c - a)))
        delta_kappa = {"other kappa": kappa + 1,
                       "mirrored kappa": -kappa}.get(shape, kappa)
        assume(delta_kappa != 0 and len(set(primed)) == 3)
        t1, t2 = copy_pair(Parabola(kappa, beta, gamma), xs,
                           Parabola(delta_kappa, beta2, gamma2), primed)
        got = kernel_outcome(intro_observation_check, t1, t2)
        assert got == kernel_outcome(fraction_chain_intro_observation, t1, t2)
        if shape == "spaced":
            assert got.det_residual == 0

    @given(small.filter(bool), small, small,
           st.lists(small, min_size=3, max_size=3, unique=True),
           small, small, small, st.sampled_from(
               ["mirror", "mirror reversed", "translate", "stretched",
                "other kappa"]))
    def test_final_theorem_feet_matches_fraction_chain(
            self, kappa, beta, gamma, xs, beta2, gamma2, t0, shape):
        a, b, c = xs
        primed = (t0 + (c - a), t0 + (c - b), t0)
        delta_kappa = {"mirror reversed": -kappa,
                       "other kappa": 2 * kappa}.get(shape, kappa)
        if shape == "translate":
            primed = (t0, t0 + (b - a), t0 + (c - a))
        elif shape == "stretched":
            primed = (t0 + 2 * (c - a), t0 + (c - b), t0)
        # "stretched" repeats an abscissa when c = 2a - b.
        assume(len(set(primed)) == 3)
        t1, t2 = copy_pair(Parabola(kappa, beta, gamma), xs,
                           Parabola(delta_kappa, beta2, gamma2), primed)
        got = kernel_outcome(final_theorem_feet, t1, t2)
        assert got == kernel_outcome(fraction_chain_final_theorem_feet, t1, t2)
        if shape.startswith("mirror"):
            assert got.det_residual == 0
