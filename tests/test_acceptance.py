"""Acceptance suite: every release criterion as one test, each printing a
single PASS/FAIL line.

Every criterion is exact: campaigns run 1000 trials at seed 42 with
coordinate bound 50 and demand zero failures.  Fixed instances pin the
closed-form values the constructions must reproduce.
"""

from fractions import Fraction as F

import pytest

from conftest import reference_report
from dageo.equivalence import (classify_pair, final_theorem_feet,
                               intro_observation_check, shift)
from dageo.euclid import run_euclid_campaign
from dageo.gauge import Point
from dageo.harness import (CampaignConfig, REGISTRY, generate_config,
                           run_campaign)
from dageo.parabola import Parabola
from dageo.theorems import CevianSpec, isogonal_concurrency_check, miquel_triangle
from dageo.triangle import DATriangle, centers, dabct

SEED = 42
TRIALS = 1000
BOUND = 50

STD = Parabola(F(1), F(0), F(0))


def on_std(*xs):
    return DATriangle(*(STD.point_at(F(x)) for x in xs))


def campaign(theorem: str, trials: int = TRIALS):
    if trials == TRIALS:
        return reference_report(theorem)
    return run_campaign(CampaignConfig(theorem, trials=trials, seed=SEED,
                                       bound=BOUND))


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {criterion}{suffix}")
    return ok


def test_criterion_01_angle_axioms():
    rep = campaign("angle_axioms")
    assert report("1 angle-axiom suite", rep.failures == 0,
                  f"{rep.trials} trials, {rep.failures} failures")


def test_criterion_02_parabolic_power():
    rep = campaign("parabolic_power")
    assert report("2 parabolic power", rep.failures == 0,
                  "3 rational secants per trial")


def test_criterion_03_iso_angle_locus():
    rep = campaign("iso_angle_locus")
    assert report("3 iso-angle locus", rep.failures == 0,
                  "5 on-locus and 5 off-locus points per trial")


def test_criterion_04_triangle_invariants():
    rep = campaign("triangle_invariants")
    assert report("4 triangle invariants", rep.failures == 0,
                  "angle sum, unique negative angle, side-norm equation")


def test_criterion_05_bisectors_and_centers():
    rep = campaign("bisector_centers")
    cs = centers(on_std(0, 1, 2))
    fixed = (cs.incenter == Point(F(1), F(3, 2))
             and cs.excenter_a == Point(F(2), F(3))
             and cs.excenter_c == Point(F(0), F(-1))
             and cs.bisector_centroid == Point(F(1), F(7, 6)))
    assert report("5 bisector theorem and centers",
                  rep.failures == 0 and fixed,
                  "campaign plus the (0,1,2) closed-form instance")


def test_criterion_06_quadrilateral_suite():
    ids = ("ptolemy", "brahmagupta", "trapezoid", "intersecting_parabolas",
           "inscribed_angle", "arc_symmetry")
    reps = {tid: campaign(tid) for tid in ids}
    ok = all(r.failures == 0 for r in reps.values())
    assert report("6 quadrilateral suite", ok,
                  ", ".join(f"{tid}:{r.failures}" for tid, r in reps.items()))


def test_criterion_07_miquel():
    rep_tri = campaign("miquel_triangle")
    rep_quad = campaign("miquel_quadrilateral")
    kinds_seen = (rep_tri.kinds.get("finite", 0) > 0
                  and rep_tri.kinds.get("ideal", 0) > 0
                  and rep_quad.kinds.get("finite", 0) > 0
                  and rep_quad.kinds.get("ideal", 0) > 0)
    # the seeded trial 0 is the midpoint configuration: ideal by design
    from dageo.gauge import midpoint
    cfg = generate_config("miquel_triangle", SEED, 0, BOUND)
    t = cfg["T"]
    forced_ideal = (cfg["D"] == midpoint(t.b, t.c)
                    and miquel_triangle(t, cfg["D"], cfg["E"],
                                        cfg["F"]).kind == "ideal")
    ok = (rep_tri.failures == 0 and rep_quad.failures == 0 and kinds_seen
          and forced_ideal)
    assert report("7 Miquel triangle and quadrilateral", ok,
                  f"triangle kinds {rep_tri.kinds}, "
                  f"quadrilateral kinds {rep_quad.kinds}")


def test_criterion_08_ceva_menelaus():
    rep_c = campaign("ceva")
    rep_m = campaign("menelaus")
    ok = rep_c.failures == 0 and rep_m.failures == 0
    assert report("8 Ceva and Menelaus biconditionals", ok,
                  "cross-validated against meet and determinant oracles")


def test_criterion_09_simson():
    rep = campaign("simson")
    assert report("9 Simson direction and intercept", rep.failures == 0,
                  "slope m and closed-form intercept in the unit chart")


def test_criterion_10_midpoint_lemma_and_dabct():
    rep_mid = campaign("midpoint_lemma")
    rep_dab = campaign("dabct")
    result = dabct(on_std(0, 1, 3))
    la, lb = result.l_points["A"], result.l_points["B"]
    fixed = (result.l_points["A"] == Point(F(3, 2), F(3))
             and result.l_points["B"] == Point(F(-3), F(-9))
             and result.l_points["C"] == Point(F(3, 5), F(3, 5))
             and (lb.y - la.y) / (lb.x - la.x) == F(8, 3))
    ok = rep_mid.failures == 0 and rep_dab.failures == 0 and fixed
    assert report("10 midpoint lemma and bisector collinearity", ok,
                  "campaigns plus the (0,1,3) instance with slope 8/3")


def test_criterion_11_isogonal_suite():
    rep_mn = campaign("mn_division")
    rep_iso = campaign("isogonal", trials=500)
    # exact involution on a sampled spec triple
    t = on_std(0, 1, 3)
    specs = {"A": CevianSpec((F(2), F(7)), base="B"),
             "B": CevianSpec(singular=True),
             "C": CevianSpec((F(2), F(7)), base="B")}
    mirrored = {v: s.swapped() for v, s in specs.items()}
    involution = {v: s.swapped() for v, s in mirrored.items()} == specs
    concurrency = isogonal_concurrency_check(t, specs) == (True, True)
    ok = (rep_mn.failures == 0 and rep_iso.failures == 0 and involution
          and concurrency)
    assert report("11 isogonal suite", ok,
                  f"m:n division and {rep_iso.trials} concurrent configs")


def test_criterion_12_equivalence_hierarchy():
    rep_chain = campaign("equivalence_chain")
    rep_shift = campaign("shift_group")
    rep_final = campaign("final_collinearity")
    rep_intro = campaign("intro_observation")

    witness = classify_pair(on_std(0, 1, 3), on_std(0, 2, 6))
    gamma, delta = STD, Parabola(F(1), F(-10), F(25))
    t1 = on_std(0, 1, 2)
    t2 = DATriangle(delta.point_at(F(7)), delta.point_at(F(6)),
                    delta.point_at(F(5)))
    final = final_theorem_feet(t1, t2)
    intro = intro_observation_check(
        t1, DATriangle(*(delta.point_at(F(x)) for x in (5, 6, 7))))
    fixed = (final.feet == (Point(F(0), F(-5)), Point(F(1), F(-8)),
                            Point(F(2), F(-11)))
             and final.det_residual == 0
             and intro.feet == (Point(F(7), F(19)), Point(F(6), F(12)),
                                Point(F(5), F(5)))
             and intro.det_residual == 0)
    ok = (all(r.failures == 0 for r in (rep_chain, rep_shift, rep_final,
                                        rep_intro))
          and witness.sim_sss and not witness.sim_aa and fixed)
    assert report("12 equivalence hierarchy and capstone collinearity", ok,
                  "chain, witness family, shift group, both fixed instances")


def test_criterion_13_euclid_export():
    rep = run_euclid_campaign(TRIALS, SEED)
    assert report("13 Euclidean export", rep.failures == 0,
                  f"{rep.trials} rational-sided triangles, exact zero "
                  f"residuals, {rep.rejections} rejections")


def test_criterion_14_harness_determinism():
    cfg = CampaignConfig("dabct", trials=50, seed=SEED, bound=BOUND)
    identical = run_campaign(cfg).to_json() == run_campaign(cfg).to_json()
    broken = run_campaign(CampaignConfig("ptolemy_broken", trials=10,
                                         seed=SEED, bound=BOUND))
    caught = (broken.failures >= 1
              and broken.first_counterexample["trial"] < 10)
    assert report("14 harness determinism and mutation control",
                  identical and caught,
                  f"byte-identical reports; mutant caught at trial "
                  f"{broken.first_counterexample['trial']}")
