import json
from fractions import Fraction as F

import pytest

from dageo import euclid
from dageo.errors import DegenerateConfigurationError, GeneratorExhaustedError
from dageo.euclid import (EUCLID_EXPORT, euclid_bisector_collinearity,
                          run_euclid_campaign)
from dageo.gauge import MeetResult, Point, line_through, meet
from dageo.generators import RETRY_LIMIT, RandomRationals
from dageo.scalar import collinear, rational_sqrt

ALL_HOLD = (True, True, True, True)


def P(x, y) -> Point:
    return Point(F(x), F(y))


class TestConstruction:
    def test_reference_triangle(self):
        # The 3-4-5 right triangle has rational sides.
        assert euclid_bisector_collinearity(P(0, 0), P(4, 0),
                                            P(0, 3)) == ALL_HOLD

    def test_irrational_side_rejected(self):
        # Sides 4, sqrt(10), sqrt(18): no exact unit vectors.
        with pytest.raises(DegenerateConfigurationError, match="irrational"):
            euclid_bisector_collinearity(P(0, 0), P(4, 0), P(1, 3))

    def test_isosceles_ab_cb_edge(self):
        # AB = CB sends J_B to the ideal point of CA: collinearity of the
        # J points survives as J_A J_C parallel to CA.
        a, b, c = P(0, 0), P(3, 4), P(6, 0)   # AB = CB = 5
        ca = line_through(c, a)
        assert meet(euclid._bisector(b, a, c, -1), ca) == MeetResult.ideal(0)
        j_a = meet(euclid._bisector(a, b, c, 1), line_through(b, c)).point
        j_c = meet(euclid._bisector(c, a, b, 1), line_through(a, b)).point
        assert meet(line_through(j_a, j_c), ca) == MeetResult.ideal(0)
        with pytest.raises(DegenerateConfigurationError, match="infinity"):
            euclid_bisector_collinearity(a, b, c)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="collinear"):
            euclid_bisector_collinearity(P(0, 0), P(1, 0), P(2, 0))

    def test_residuals_scale_free(self):
        # Scaling and shifting the reference triangle keeps every verdict.
        big = euclid_bisector_collinearity(P(-7, F(1, 3)), P(393, F(1, 3)),
                                           P(-7, F(901, 3)))
        assert big == ALL_HOLD


class TestCampaign:
    def test_thousand_trials_pass(self):
        report = run_euclid_campaign(1000, seed=7)
        assert (report.trials, report.failures) == (1000, 0)

    def test_deterministic(self):
        assert (run_euclid_campaign(100, seed=7).to_json()
                == run_euclid_campaign(100, seed=7).to_json())

    def test_generator_conditioning(self):
        # t_A t_B < 1 and the isosceles rejection leave proper triangles
        # with rational sides and every bisector meet finite.
        for bound in (2, 3, 50):
            for trial in range(100):
                cfg = EUCLID_EXPORT.generate(RandomRationals(3, trial, bound))
                a, b, c = cfg["A"], cfg["B"], cfg["C"]
                assert not collinear(a, b, c)
                for p, q in ((a, b), (b, c), (c, a)):
                    assert rational_sqrt((q.x - p.x) ** 2
                                         + (q.y - p.y) ** 2) is not None
                euclid_bisector_collinearity(a, b, c)

    def test_internal_bisector_at_b_is_caught(self, monkeypatch):
        # Mutation control: with the external bisector's sign flipped, B
        # gets its internal bisector and the J points are the feet of the
        # three internal bisectors, which are never collinear.
        internal = euclid._bisector
        monkeypatch.setattr(euclid, "_bisector",
                            lambda v, u, w, sign: internal(v, u, w, 1))
        report = run_euclid_campaign(50, 42)
        first = report.first_counterexample
        assert report.failures == 50
        assert (first["trial"], first["reason"]) == (0, "J points not collinear")
        assert json.loads(json.dumps(first["config"])) == first["config"]


def test_sampler_exhaustion_raises():
    # At bound 1 both half-angle tangents are 1, so t_A t_B >= 1 rejects
    # every draw.
    rng = RandomRationals(0, 0, bound=1)
    with pytest.raises(GeneratorExhaustedError):
        EUCLID_EXPORT.generate(rng)
    assert rng.rejections == RETRY_LIMIT
