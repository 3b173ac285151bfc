"""Helpers shared by the test modules."""

import functools

from dageo.harness import CampaignConfig, TheoremReport, run_campaign


@functools.cache
def reference_report(theorem: str) -> TheoremReport:
    """The theorem's report at the reference point (seed 42, 1000 trials,
    bound 50), run once per session and shared by the golden and the
    acceptance tests.  Callers must not mutate it."""
    return run_campaign(CampaignConfig(theorem, 1000, 42, 50))
