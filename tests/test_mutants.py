"""Mutation controls: each row breaks one kernel function that a checker
relies on, and the registry's campaign for one theorem must then report
failures at the reference seed.  A campaign that passes a broken kernel
shows nothing, so each row is evidence that the campaign's pass means
something."""

import inspect
import sys
import textwrap
import types

import pytest

from dageo import (campaigns, equivalence, gauge, parabola, scalar, theorems,
                   triangle)
from dageo.gauge import MeetResult
from dageo.harness import REGISTRY, CampaignConfig, run_campaign

_parabola = parabola._parabola
_point = gauge._point


def _parabola_with_beta_plus_one(K, B, G, S):
    # B + 1 on the stored quadruple, after its reduction, on both routes:
    # the public constructor and the integer one.
    K, B, G, S = _parabola(K, B, G, S)._lifted
    return _parabola(K, B + 1, G, S)


def _point_with_y_plus_one(X, Y, Z):
    # Y + 1 on the stored triple, after its reduction: every point the
    # kernel builds from integers (meets, midpoints, curve and line
    # points) moves up by 1/Z.
    X, Y, Z = _point(X, Y, Z).xyz
    return _point(X, Y + 1, Z)


def _chord_height_sign_flipped(p, x0, q):
    return (p + q) * x0 + p * q


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


def _source_mutant(function, old, new):
    """``function`` recompiled in its own module's namespace with the one
    source fragment ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise ValueError(f"{old!r} is not one fragment of "
                         f"{function.__qualname__}")
    namespace = dict(vars(sys.modules[function.__module__]))
    exec(compile(source.replace(old, new),
                 f"<mutant of {function.__qualname__}>", "exec"), namespace)
    return namespace[function.__name__]


def _rebound(function, **names):
    """``function`` with some of its module's global names bound to other
    values, for it alone."""
    namespace = {**vars(sys.modules[function.__module__]), **names}
    return types.FunctionType(function.__code__, namespace,
                              function.__name__, function.__defaults__)


#: (mutant id, module, attribute, replacement, theorem that must catch it).
#: ``Parabola`` stores its integer quadruple in one place,
#: ``parabola._parabola``, and both ``y_at`` and ``contains`` read it, so
#: a wrong quadruple agrees with itself; ``parabolic_power`` reads the
#: public ``kappa`` and ``beta``, which a curve built from Fractions keeps
#: as given.  Each later row breaks a kernel function that an
#: integer-lifted checker still reads, so that checker cannot have become
#: a tautology: the chord height behind both m:n residuals, the mean-slope
#: halving of the bisection axiom, the locus's orientation, the chords
#: through the two common points, and the crossing of the diagonals.  The
#: bisection row sums the two slopes and takes a third, in
#: ``angle_axiom_checks``' own source.  The last three break one term of
#: an integer-lifted triangle function in its own source: the far side's
#: weighted slope in the triangle's divider, bound only where
#: ``cevian_line`` reads it (the bisectors keep the right line), the
#: abscissa's denominator in ``shift``'s slide
#: x + theta*S/K, and the pairing of the norms in
#: ``bisector_ratio_check``.  The last two break the integer line layer:
#: the ordinate of ``meet``'s cross product, bound where the triangle
#: layer reads it (``midpoint_lemma`` reports "bisector meet is not the
#: feet midpoint" from trial 0), and one cofactor of the integer
#: determinant that ``concurrent`` shares with ``det3``, bound in
#: ``concurrent`` where the cevian theorems read it (``ceva`` reports
#: "meet oracle rejected concurrent cevians" from trial 0).  The ``meet``
#: row and the first ``shift`` row break the integer code that builds a
#: ``Point`` triple: the Y of ``meet``'s cross product, and the vertex's
#: Z in the slide over its triple.  The ``Point`` row adds 1 to Y where
#: ``gauge._point`` stores the triple,
#: bound in ``gauge`` (its meets, midpoints, line points and the axiom
#: suite's points), and the θ·κ row slides x + theta*kappa in place of
#: x + theta/kappa: congruence, the composition law, the zero shift and
#: the inverse hold for any slide x + c*theta, so only the shift rate
#: that ``shift_group`` reads from the difference-angle definition can
#: tell it.
MUTANTS = [
    ("parabola_lift_beta_plus_one", parabola, "_parabola",
     _parabola_with_beta_plus_one, "parabolic_power"),
    ("chord_height_sign_flipped", theorems, "_chord_height",
     _chord_height_sign_flipped, "mn_division"),
    ("half_sum_over_three", campaigns, "angle_axiom_checks",
     _source_mutant(gauge.angle_axiom_checks,
                    "between(slope_between(p, a), slope_between(p, b), 1, 2)",
                    "between(0, slope_between(p, a) + slope_between(p, b),"
                    " 1, 3)"), "angle_axioms"),
    ("iso_angle_locus_endpoints_swapped", campaigns, "iso_angle_locus",
     _iso_angle_locus_endpoints_swapped, "iso_angle_locus"),
    ("second_intersection_without_known_root", theorems,
     "second_intersection", _second_intersection_without_known_root,
     "intersecting_parabolas"),
    ("meet_with_x_negated", theorems, "meet", _meet_with_x_negated,
     "brahmagupta"),
    ("cevian_line_far_term_subtracted", theorems, "_divider",
     _source_mutant(triangle._divider, "+ mn * nd * dy_f * dx_b",
                    "- mn * nd * dy_f * dx_b"), "isogonal"),
    ("shift_slide_without_abscissa_denominator", equivalence, "shift",
     _source_mutant(equivalence.shift, "+ tn * S * Z,", "+ tn * S,"),
     "shift_group"),
    ("shift_slide_times_kappa", equivalence, "shift",
     _source_mutant(equivalence.shift,
                    "(X * td * K + tn * S * Z, Z * td * K)",
                    "(X * td * S + tn * K * Z, Z * td * S)"), "shift_group"),
    ("bisector_ratio_norms_mispaired", campaigns, "bisector_ratio_check",
     _source_mutant(triangle.bisector_ratio_check,
                    "abs(xw - xv) - abs(xw - xd) * abs(xu - xv)",
                    "abs(xu - xv) - abs(xw - xd) * abs(xw - xv)"),
     "bisector_centers"),
    ("meet_ordinate_negated", triangle, "meet",
     _source_mutant(gauge.meet, "c1 * a2 - a1 * c2, z)",
                    "a1 * c2 - c1 * a2, z)"), "midpoint_lemma"),
    ("concurrent_cofactor_negated", theorems, "concurrent",
     _rebound(gauge.concurrent, _det3=_source_mutant(
         scalar._det3, "+ c * (d * h - e * g)", "- c * (d * h - e * g)")),
     "ceva"),
    ("point_lift_y_plus_one", gauge, "_point", _point_with_y_plus_one,
     "angle_axioms"),
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
    "arc_symmetry",                                  # failures
    "intersecting_parabolas", "miquel_triangle", "simson",
    "equivalence_chain", "shift_group", "diag_section",
    "miquel_quadrilateral", "bisector_centers",      # errors
}


@pytest.mark.parametrize("theorem", sorted(REGISTRY))
def test_lift_mutant_leaves_every_campaign_a_report(monkeypatch, theorem):
    monkeypatch.setattr(parabola, "_parabola", _parabola_with_beta_plus_one)
    report = run_campaign(CampaignConfig(theorem, 50, 42, 50))
    if theorem in LIFT_CAUGHT_BY:
        assert report.failures + report.errors > 0


#: Campaigns that the ``Point`` mutant, bound in every module that holds
#: ``_point``, must reach by a counterexample or a kernel error.  Only
#: ``triangle_invariants`` passes it: its curve triangles move to
#: another curve through their moved vertices, with which their angles
#: and the difference-angle definition agree.
POINT_CAUGHT_BY = set(REGISTRY) - {"triangle_invariants"}


@pytest.mark.parametrize("theorem", sorted(REGISTRY))
def test_point_mutant_leaves_every_campaign_a_report(monkeypatch, theorem):
    for module in (campaigns, gauge, parabola, triangle):
        monkeypatch.setattr(module, "_point", _point_with_y_plus_one)
    report = run_campaign(CampaignConfig(theorem, 50, 42, 50))
    if theorem in POINT_CAUGHT_BY:
        assert report.failures + report.errors > 0
