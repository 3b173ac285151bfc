import math
import random

import pytest

from dageo.errors import GeneratorExhaustedError
from dageo.euclid import (euclid_bisector_collinearity, random_triangle,
                          run_euclid_campaign, trilinear_identity_witness)

TOL = 1e-9


class TestConstruction:
    def test_reference_triangle(self):
        report = euclid_bisector_collinearity((0.0, 0.0), (4.0, 0.0),
                                              (1.0, 3.0))
        assert report.within(TOL)

    def test_isosceles_ab_cb_edge(self):
        # AB = CB sends J_B to the ideal point of CA: collinearity of the
        # J points survives as parallelism of J_A J_C with CA.
        from dageo.euclid import _line_meet, _sub, _unit

        a, b, c = (0.0, 0.0), (4.0, 0.0), (1.6, 3.2)  # AB = CB = 4
        ab, ac = _unit(_sub(b, a)), _unit(_sub(c, a))
        ca, cb = _unit(_sub(a, c)), _unit(_sub(b, c))
        int_a = (ab[0] + ac[0], ab[1] + ac[1])
        int_c = (ca[0] + cb[0], ca[1] + cb[1])
        j_a = _line_meet(a, int_a, b, _sub(c, b))
        j_c = _line_meet(c, int_c, a, _sub(b, a))
        d = _sub(j_c, j_a)
        e = _sub(a, c)
        cross = d[0] * e[1] - d[1] * e[0]
        assert abs(cross) / (abs(d[0]) + abs(d[1]) + 1.0) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            euclid_bisector_collinearity((0.0, 0.0), (1.0, 0.0), (2.0, 1e-13))

    def test_residuals_scale_free(self):
        small = euclid_bisector_collinearity((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
        big = euclid_bisector_collinearity((0.0, 0.0), (400.0, 0.0),
                                           (100.0, 300.0))
        assert big.collinearity_residual < TOL
        assert small.collinearity_residual < TOL


class TestCampaign:
    def test_thousand_trials_within_tolerance(self):
        report = run_euclid_campaign(1000, seed=42, tol=TOL)
        assert report["failures"] == 0
        assert report["max_collinearity_residual"] < TOL
        assert report["max_concurrency_residual"] < TOL

    def test_deterministic(self):
        assert run_euclid_campaign(100, seed=7) == run_euclid_campaign(100, seed=7)

    def test_generator_conditioning(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b, c = random_triangle(rng)
            area = abs((b[0] - a[0]) * (c[1] - a[1])
                       - (b[1] - a[1]) * (c[0] - a[0])) / 2
            assert area > 1e-6
            assert all(math.isfinite(v) for p in (a, b, c) for v in p)


def test_trilinear_identity_exact():
    points = trilinear_identity_witness()
    assert points == [(0, 1, 1), (1, 0, -1), (1, 1, 0)]
    for x, y, z in points:
        assert x - y + z == 0


def test_sampler_exhaustion_raises():
    # No triangle in the [-10, 10]^2 sampling box has area 1000.
    with pytest.raises(GeneratorExhaustedError):
        random_triangle(random.Random(0), min_area=1e3)
