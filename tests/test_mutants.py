"""Mutation controls: each row breaks one kernel function that a checker
relies on, and the registry's campaign for one theorem must then report
failures at the reference seed.  A campaign that passes a broken kernel
shows nothing, so each row is evidence that the campaign's pass means
something."""

import pytest

from dageo import campaigns, gauge, parabola, theorems
from dageo.gauge import MeetResult
from dageo.harness import REGISTRY, CampaignConfig, run_campaign
from dageo.scalar import lift_triple, ratio


def _lift_with_beta_plus_one(values):
    (kappa, beta, gamma), scale = lift_triple(values)
    return (kappa, beta + 1, gamma), scale


def _chord_height_sign_flipped(p, x0, q):
    return (p + q) * x0 + p * q


def _half_sum_over_three(a, b):
    ad, bd = a.denominator, b.denominator
    return ratio(a.numerator * bd + b.numerator * ad, 3 * ad * bd)


def _iso_angle_locus_endpoints_swapped(a, b, theta):
    return parabola.iso_angle_locus(b, a, theta)


def _second_intersection_without_known_root(p, pt, m):
    # Vieta's companion (m - beta)/kappa - x with the "- x" dropped; the
    # point stays on the curve.
    return p.point_at((m - p.beta) / p.kappa)


def _meet_with_x_negated(l1, l2):
    hit = gauge.meet(l1, l2)
    if not hit.is_finite:
        return hit
    return MeetResult.at(l1.point_at(-hit.point.x))


#: (mutant id, module, attribute, replacement, theorem that must catch it).
#: ``Parabola`` lifts its coefficients once and both ``y_at`` and
#: ``contains`` read that lift, so a wrong lift agrees with itself;
#: ``parabolic_power`` also reads ``kappa`` and ``beta`` directly.  Each
#: later row breaks a kernel function that an integer-lifted checker still
#: reads, so that checker cannot have become a tautology: the chord height
#: behind both m:n residuals, the mean-slope halving of the bisection
#: axiom, the locus's orientation, the chords through the two common
#: points, and the crossing of the diagonals.
MUTANTS = [
    ("parabola_lift_beta_plus_one", parabola, "lift_triple",
     _lift_with_beta_plus_one, "parabolic_power"),
    ("chord_height_sign_flipped", theorems, "_chord_height",
     _chord_height_sign_flipped, "mn_division"),
    ("half_sum_over_three", gauge, "_half_sum", _half_sum_over_three,
     "angle_axioms"),
    ("iso_angle_locus_endpoints_swapped", campaigns, "iso_angle_locus",
     _iso_angle_locus_endpoints_swapped, "iso_angle_locus"),
    ("second_intersection_without_known_root", theorems,
     "second_intersection", _second_intersection_without_known_root,
     "intersecting_parabolas"),
    ("meet_with_x_negated", theorems, "meet", _meet_with_x_negated,
     "brahmagupta"),
]


@pytest.mark.parametrize("module, attribute, replacement, theorem",
                         [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_campaign(monkeypatch, module, attribute,
                                   replacement, theorem):
    monkeypatch.setattr(module, attribute, replacement)
    report = run_campaign(CampaignConfig(theorem, 50, 42, 50))
    assert report.failures > 0


#: Campaigns that the lift mutant must reach, by a counterexample or by a
#: kernel error.  The other campaigns either never read a curve through
#: its lift in their checker or read it consistently with their points.
LIFT_CAUGHT_BY = {
    "parabolic_power", "iso_angle_locus", "ptolemy_broken", "trapezoid",
    "arc_symmetry", "miquel_quadrilateral",          # failures
    "intersecting_parabolas", "miquel_triangle", "simson",
    "equivalence_chain", "shift_group", "diag_section",  # errors
}


@pytest.mark.parametrize("theorem", sorted(REGISTRY))
def test_lift_mutant_leaves_every_campaign_a_report(monkeypatch, theorem):
    monkeypatch.setattr(parabola, "lift_triple", _lift_with_beta_plus_one)
    report = run_campaign(CampaignConfig(theorem, 50, 42, 50))
    if theorem in LIFT_CAUGHT_BY:
        assert report.failures + report.errors > 0
