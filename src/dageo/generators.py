"""Deterministic random-configuration generators for the theorem
campaigns.

Every generator is a pure function of (campaign seed, trial index, bound):
the trial seed is derived with a splitmix-style mixer, so campaigns can be
re-run, resumed or parallelized and still produce identical
configurations.  Generators rejection-sample through
:meth:`RandomRationals.retrying`, which alone decides that a draw is
degenerate and counts the rejection; hitting the retry limit raises
:class:`GeneratorExhaustedError` (a generator bug, never a theorem failure).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DegenerateConfigurationError, GeneratorExhaustedError
from .gauge import Line, Point, line_through, meet, slope_between
from .parabola import Parabola
from .scalar import collinear
from .theorems import (CevianSpec, CompleteQuadrilateral, cevian_line,
                       miquel_quadrilateral)
from .triangle import DATriangle

MASK64 = (1 << 64) - 1
RETRY_LIMIT = 10_000        # draws one retrying() call makes before giving up


def trial_seed(campaign_seed: int, trial: int) -> int:
    """Stable 64-bit mix of campaign seed and trial index (splitmix64)."""
    z = (campaign_seed ^ (trial * 0x9E3779B97F4A7C15)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class RandomRationals:
    """Seeded stream of small exact rationals and geometric primitives."""

    def __init__(self, campaign_seed: int, trial: int, bound: int = 50):
        self.rng = random.Random(trial_seed(campaign_seed, trial))
        self.trial_index = trial
        self.bound = bound
        self.rejections = 0

    # -- scalars ------------------------------------------------------------

    def rational(self) -> Fraction:
        n = self.rng.randint(-self.bound, self.bound)
        d = self.rng.randint(1, self.bound)
        return Fraction(n, d)

    def nonzero_rational(self) -> Fraction:
        return self.retrying(self.rational, lambda v: v != 0)

    def positive_rational(self) -> Fraction:
        n = self.rng.randint(1, self.bound)
        d = self.rng.randint(1, self.bound)
        return Fraction(n, d)

    def fraction_in_unit_interval(self) -> Fraction:
        """Strictly interior rational of (0, 1)."""
        d = self.rng.randint(2, max(2, self.bound))
        n = self.rng.randint(1, d - 1)
        return Fraction(n, d)

    def small_positive_int(self) -> int:
        return self.rng.randint(1, 9)

    def distinct_rationals(self, count: int) -> list[Fraction]:
        seen: set[Fraction] = set()
        for _ in range(count):
            seen.add(self.retrying(self.rational, lambda v: v not in seen))
        return sorted(seen)

    def retrying(self, make, ok=lambda value: True):
        """First draw of ``make()`` that is not ``None``, not a raised
        :class:`DegenerateConfigurationError` and not refused by ``ok``."""
        for _ in range(RETRY_LIMIT):
            try:
                value = make()
            except DegenerateConfigurationError:
                value = None
            if value is not None and ok(value):
                return value
            self.rejections += 1
        raise GeneratorExhaustedError("retry limit exceeded")

    # -- geometric primitives -------------------------------------------------

    def point(self) -> Point:
        return Point(self.rational(), self.rational())

    def parabola(self) -> Parabola:
        return Parabola(self.nonzero_rational(), self.rational(),
                        self.rational())

    def triangle(self) -> DATriangle:
        """Triangle inscribed in a random parabola."""
        curve = self.parabola()
        xs = self.distinct_rationals(3)
        return DATriangle(*(curve.point_at(x) for x in xs))

    def scalene_triangle(self) -> DATriangle:
        return self.retrying(self.triangle, lambda t: not t.is_isosceles)

    def free_triangle(self) -> DATriangle:
        """Triangle from free points (not forced onto a given parabola)."""
        def make():
            pts = [self.point() for _ in range(3)]
            if len({p.x for p in pts}) != 3:
                return None
            if collinear(*pts):
                return None
            return DATriangle(*pts)
        return self.retrying(make)

    def angle_configuration(self) -> tuple[Point, Point, Point]:
        """(A, P, B) with P off the line AB and both rays non-singular."""
        def make():
            a, p, b = (self.point() for _ in range(3))
            if p.x in (a.x, b.x) or a == b:
                return None
            if collinear(a, p, b):
                return None
            return a, p, b
        return self.retrying(make)

    def point_on_side(self, u: Point, w: Point) -> Point:
        """Strictly interior point of the segment UW (never an endpoint)."""
        lam = self.fraction_in_unit_interval()
        return Point(u.x + lam * (w.x - u.x), u.y + lam * (w.y - u.y))

    def complete_quadrilateral(self) -> CompleteQuadrilateral:
        def make():
            lines = [Line(self.rational(), self.rational()) for _ in range(4)]
            quad = CompleteQuadrilateral(*lines)
            miquel_quadrilateral(quad)  # rejects tangent degeneracies
            return quad
        return self.retrying(make)

    def cevian_feet(self, t: DATriangle) -> tuple[Point, Point, Point]:
        """Independent feet strictly inside the three sides."""
        d = self.point_on_side(t.b, t.c)
        e = self.point_on_side(t.c, t.a)
        f = self.point_on_side(t.a, t.b)
        return d, e, f

    def concurrent_cevian_feet(self, t: DATriangle) -> tuple[Point, Point, Point]:
        """Feet of three cevians through a common interior-ish point."""
        def make():
            # Barycentric-ish interior point: positive rational weights.
            wts = [self.positive_rational() for _ in range(3)]
            s = sum(wts)
            q = Point(
                sum(w * v.x for w, v in zip(wts, (t.a, t.b, t.c))) / s,
                sum(w * v.y for w, v in zip(wts, (t.a, t.b, t.c))) / s,
            )
            if q in (t.a, t.b, t.c):
                return None
            feet = []
            for v, lbl in ((t.a, "A"), (t.b, "B"), (t.c, "C")):
                hit = meet(line_through(v, q), t.side(lbl))
                if not hit.is_finite or hit.point in (t.a, t.b, t.c):
                    return None
                feet.append(hit.point)
            return tuple(feet)
        return self.retrying(make)

    def cevian_specs(self, t: DATriangle,
                     mixed: bool) -> dict[str, CevianSpec]:
        """Concurrent cevian spec triple.

        ``mixed=True`` builds the singular-at-the-negative-vertex triple
        (same m:n at the two positive vertices, bases toward the negative
        vertex); otherwise two ratios are free and the third is solved
        from the concurrency condition.
        """
        neg = t.negative_vertex_label
        if mixed:
            m = Fraction(self.small_positive_int())
            n = Fraction(self.small_positive_int())
            specs: dict[str, CevianSpec] = {}
            for lbl in ("A", "B", "C"):
                if lbl == neg:
                    specs[lbl] = CevianSpec(singular=True)
                else:
                    specs[lbl] = CevianSpec((m, n), base=neg)
            return specs

        def make():
            bases = {}
            for lbl in ("A", "B", "C"):
                u, w = [v for v in ("A", "B", "C") if v != lbl]
                bases[lbl] = u if self.rng.random() < 0.5 else w
            alpha = self.fraction_in_unit_interval()
            beta = self.fraction_in_unit_interval()
            sa = CevianSpec((alpha, 1 - alpha), base=bases["A"])
            sb = CevianSpec((beta, 1 - beta), base=bases["B"])
            la = cevian_line(t, "A", sa)
            lb = cevian_line(t, "B", sb)
            hit = meet(la, lb)
            if not hit.is_finite:
                return None
            q = hit.point
            cpt = t.vertex("C")
            if q == cpt or q.x == cpt.x:
                return None
            slope_cq = (q.y - cpt.y) / (q.x - cpt.x)
            base_pt = t.vertex(bases["C"])
            far_lbl = next(v for v in ("A", "B")
                           if v != bases["C"] and v != "C")
            # base/far slopes at C
            s_base = slope_between(cpt, base_pt)
            s_far = slope_between(cpt, t.vertex(far_lbl))
            if s_base == s_far or slope_cq in (s_base, s_far):
                return None
            gamma = (slope_cq - s_base) / (s_far - s_base)
            if gamma in (0, 1):
                return None
            sc = CevianSpec((gamma, 1 - gamma), base=bases["C"])
            return {"A": sa, "B": sb, "C": sc}
        return self.retrying(make)
