"""Mutation controls: each row breaks one kernel function that a checker
relies on, and the registry's campaign for one theorem must then report
failures at the reference seed.  A campaign that passes a broken kernel
shows nothing, so each row is evidence that the campaign's pass means
something."""

import pytest

from dageo import parabola
from dageo.harness import REGISTRY, CampaignConfig, run_campaign
from dageo.scalar import lift_triple


def _lift_with_beta_plus_one(values):
    (kappa, beta, gamma), scale = lift_triple(values)
    return (kappa, beta + 1, gamma), scale


#: (mutant id, module, attribute, replacement, theorem that must catch it).
#: ``Parabola`` lifts its coefficients once and both ``y_at`` and
#: ``contains`` read that lift, so a wrong lift agrees with itself;
#: ``parabolic_power`` also reads ``kappa`` and ``beta`` directly.
MUTANTS = [
    ("parabola_lift_beta_plus_one", parabola, "lift_triple",
     _lift_with_beta_plus_one, "parabolic_power"),
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
