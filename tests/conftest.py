"""Helpers shared by the test modules."""

import functools

from hypothesis import strategies as st

from dageo.harness import CampaignConfig, TheoremReport, run_campaign


@functools.cache
def reference_report(theorem: str) -> TheoremReport:
    """The theorem's report at the reference point (seed 42, 1000 trials,
    bound 50), run once per session and shared by the golden and the
    acceptance tests.  Callers must not mutate it."""
    return run_campaign(CampaignConfig(theorem, 1000, 42, 50))


#: Rationals of the generators' bound 50, zero, negatives and plain ints
#: among them: every exact primitive reads ``.numerator``/``.denominator``
#: and must give the same reduced value for an ``int`` as for a Fraction.
bounded = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=50))
