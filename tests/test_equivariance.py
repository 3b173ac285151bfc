"""Equivariance under the paper's affine group: every line and triangle
construction commutes with x -> alpha*x + beta, y -> gamma*y + delta*x +
epsilon (alpha, gamma != 0), which maps slopes s -> (gamma*s + delta) /
alpha and so scales every difference angle by gamma/alpha.  The image of
each construction is computed here by Fraction arithmetic on its public
fields, not by the construction itself, so a row needs no second formula.

The maps and configurations are drawn from ``RandomRationals``: a failing
row names its (seed, trial) and replays.  Each row runs once per sign
pattern of (alpha, gamma), so the reflections are covered.

Orientation conventions the reflection rows record:

* ``difference_angle`` is oriented: it scales by gamma/alpha, so a map
  with alpha*gamma < 0 flips its sign.
* ``interior_angles`` is not: it scales by |gamma/alpha|, because its
  closed form follows the x-order, which alpha < 0 reverses, and the
  middle vertex stays middle (its angle stays the negative one).
* Vertex labels follow the points, so ``side``, ``bisector_at`` and
  ``cevian_line`` keep their labels under every map; ``sorted_vertices``
  reverses when alpha < 0.
* An ideal meet keeps its kind, and its direction maps as a slope; the
  singular direction (``None``) is fixed.
* ``parabola_meet`` lists its finite meets in increasing x, so alpha < 0
  reverses the list; the ideal meet of two translates stays last.
* ``iso_angle_locus`` and ``shift`` take an oriented angle: theta maps to
  gamma*theta/alpha, as ``difference_angle`` does.  The locus rows fix
  the reference line, so their maps have delta = epsilon = 0.
* ``parabolic_power`` scales by alpha**2 whatever the signs: a reflection
  that turns the curve over keeps a point outside it outside.
* ``centers`` names its finite excenters by the x-order, ``excenter_a``
  on the axis of the largest-x vertex and ``excenter_c`` on that of the
  smallest, so alpha < 0 swaps them; every other center maps to itself.
* Residuals are vectors, not points: a ``midpoint_lemma_check`` residual
  maps by the linear part (x, y) -> (alpha*x, gamma*y + delta*x), a
  Miquel membership residual (a height above a curve) scales by gamma,
  and ``dabct``'s determinant by alpha*gamma.  On valid draws all of them
  are 0 before and after.
* ``simson``'s slope maps as a slope, and its drop lines stay singular,
  so their common ideal point is fixed.
"""

from fractions import Fraction as F
from typing import NamedTuple

import pytest

from dageo.equivalence import shift
from dageo.errors import (DegenerateConfigurationError,
                          IrrationalIntersectionError)
from dageo.gauge import (Line, MeetResult, Point, concurrent,
                         difference_angle, line_through, meet)
from dageo.generators import RandomRationals
from dageo.parabola import (Parabola, circumparabola, iso_angle_locus,
                            parabola_meet, parabolic_power,
                            second_intersection, second_meet)
from dageo.theorems import (CevianSpec, CompleteQuadrilateral, cevian_line,
                            miquel_quadrilateral, miquel_triangle)
from dageo.triangle import (VERTICES, DATriangle, bisector_at, centers,
                            dabct, midpoint_lemma_check, perpendicular_feet,
                            simson)

SEED = 2027
TRIALS = 100
#: (sign of alpha, sign of gamma): the identity's orientation and the
#: three reflections.
SIGNS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


class Affine(NamedTuple):
    alpha: F
    beta: F
    gamma: F
    delta: F
    epsilon: F

    def point(self, p: Point) -> Point:
        return Point(self.alpha * p.x + self.beta,
                     self.gamma * p.y + self.delta * p.x + self.epsilon)

    def slope(self, s):
        return None if s is None else (self.gamma * s + self.delta) / self.alpha

    def line(self, line: Line) -> Line:
        if line.is_singular:
            return Line.singular(self.alpha * line.x0 + self.beta)
        m = self.slope(line.m)
        return Line(m, self.gamma * line.k + self.epsilon - self.beta * m)

    def meet(self, hit: MeetResult) -> MeetResult:
        if hit.is_finite:
            return MeetResult.at(self.point(hit.point))
        if hit.is_ideal:
            return MeetResult.ideal(self.slope(hit.direction))
        return hit

    def parabola(self, p: Parabola) -> Parabola:
        # y' = gamma*(kappa*u^2 + b*u + c) + delta*u + epsilon with
        # u = (x' - beta)/alpha, expanded in x'.
        a, s = self.alpha, self.beta
        k2 = self.gamma * p.kappa
        k1 = self.gamma * p.beta + self.delta
        return Parabola(k2 / (a * a), (k1 - 2 * k2 * s / a) / a,
                        k2 * s * s / (a * a) - k1 * s / a
                        + self.gamma * p.gamma + self.epsilon)

    def triangle(self, t: DATriangle) -> DATriangle:
        return DATriangle(self.point(t.a), self.point(t.b), self.point(t.c))

    def vector(self, v: Point) -> Point:
        """The linear part of the map, for a difference of points."""
        return Point(self.alpha * v.x, self.gamma * v.y + self.delta * v.x)

    def points(self, pts: dict) -> dict:
        return {label: self.point(p) for label, p in pts.items()}

    def parabolas(self, curves: dict) -> dict:
        return {label: self.parabola(c) for label, c in curves.items()}

    @property
    def angle_scale(self) -> F:
        return self.gamma / self.alpha


def draw_affine(rng: RandomRationals, signs) -> Affine:
    sa, sg = signs
    return Affine(sa * abs(rng.nonzero_rational()), rng.rational(),
                  sg * abs(rng.nonzero_rational()), rng.rational(),
                  rng.rational())


def draw_line(rng: RandomRationals, singular: bool) -> Line:
    if singular:
        return Line.singular(rng.rational())
    return Line(rng.rational(), rng.rational())


def trials(signs):
    """(rng, g) per trial: the map is each trial's first draw."""
    for k in range(TRIALS):
        rng = RandomRationals(SEED, k)
        yield k, rng, draw_affine(rng, signs)


@pytest.mark.parametrize("signs", SIGNS)
def test_line_through(signs):
    for k, rng, g in trials(signs):
        a = rng.point()
        # Every third pair shares its abscissa: a singular line.
        b = Point(a.x if k % 3 == 0 else rng.rational(), rng.rational())
        if a == b:
            continue
        assert line_through(g.point(a), g.point(b)) \
            == g.line(line_through(a, b)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_meet(signs):
    for k, rng, g in trials(signs):
        # Cycle through the shapes: sloped pair, one or two singular,
        # parallels and a coincident pair.
        shape = k % 5
        l1 = draw_line(rng, shape in (1, 2))
        if shape == 3:
            l2 = Line(l1.m, rng.rational())
        elif shape == 4:
            l2 = l1
        else:
            l2 = draw_line(rng, shape == 2)
        assert meet(g.line(l1), g.line(l2)) == g.meet(meet(l1, l2)), k


def _pencil(rng: RandomRationals, shape: int) -> tuple[list[Line], bool]:
    """Three lines and whether they are known to concur: through one
    finite point (one of them singular every other time), three
    parallels, three singular lines, or three drawn lines."""
    if shape == 0:
        p = rng.point()
        slopes = [rng.rational(), rng.rational()]
        lines = [Line(m, p.y - m * p.x) for m in slopes]
        third = rng.rational()
        lines.append(Line.singular(p.x) if rng.small_positive_int() % 2
                     else Line(third, p.y - third * p.x))
        return lines, True
    if shape == 1:
        m = rng.rational()
        return [Line(m, rng.rational()) for _ in range(3)], True
    if shape == 2:
        return [Line.singular(rng.rational()) for _ in range(3)], True
    return [draw_line(rng, False) for _ in range(3)], False


@pytest.mark.parametrize("signs", SIGNS)
def test_concurrent(signs):
    for k, rng, g in trials(signs):
        lines, known = _pencil(rng, k % 4)
        if len(set(lines)) < 3:
            continue
        verdict = concurrent(*lines)
        if known:
            assert verdict, k
        assert concurrent(*(g.line(l) for l in lines)) == verdict, k


def _triangles(signs):
    for k, rng, g in trials(signs):
        yield k, rng, g, rng.triangle()


@pytest.mark.parametrize("signs", SIGNS)
def test_triangle_sides_parabola_and_angles(signs):
    for k, rng, g, t in _triangles(signs):
        image = g.triangle(t)
        for label in VERTICES:
            assert image.side(label) == g.line(t.side(label)), (k, label)
        assert image.parabola == g.parabola(t.parabola), k
        assert image.interior_angles() == tuple(
            abs(g.angle_scale) * angle for angle in t.interior_angles()), k
        assert image.negative_vertex_label == t.negative_vertex_label, k
        order = [g.point(p) for p in t.sorted_vertices()]
        if g.alpha < 0:
            order.reverse()
        assert list(image.sorted_vertices()) == order, k
        assert difference_angle(image.b, image.a, image.c) \
            == g.angle_scale * difference_angle(t.b, t.a, t.c), k


@pytest.mark.parametrize("signs", SIGNS)
def test_bisectors_and_dividers(signs):
    for k, rng, g, t in _triangles(signs):
        image = g.triangle(t)
        for label in VERTICES:
            for mode in ("interior", "positive"):
                assert bisector_at(image, label, mode) \
                    == g.line(bisector_at(t, label, mode)), (k, label, mode)
        spec = CevianSpec((rng.small_positive_int(), rng.positive_rational()),
                          base="B")
        assert cevian_line(image, "A", spec) \
            == g.line(cevian_line(t, "A", spec)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_cevian_line(signs):
    for k, rng, g, t in _triangles(signs):
        image = g.triangle(t)
        for vertex, base in (("A", "B"), ("B", "C"), ("C", "A")):
            spec = CevianSpec((rng.positive_rational(),
                               rng.positive_rational()), base=base)
            assert cevian_line(image, vertex, spec) \
                == g.line(cevian_line(t, vertex, spec)), (k, vertex)
        singular = CevianSpec(singular=True)
        assert cevian_line(image, "B", singular) \
            == g.line(cevian_line(t, "B", singular)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_circumparabola(signs):
    for k, rng, g in trials(signs):
        pts = [rng.point() for _ in range(3)]
        try:
            curve = circumparabola(*pts)
        except DegenerateConfigurationError:
            continue
        assert circumparabola(*map(g.point, pts)) == g.parabola(curve), k


def _curve_pair(rng: RandomRationals, shape: int):
    """Two curves and a point they share: through two drawn common points,
    translates (same kappa) through one, tangent at one, or two drawn
    curves whose eliminant is usually irrational (no shared point)."""
    p1 = rng.parabola()
    u, v = rng.distinct_rationals(2)
    shared = p1.point_at(u)
    if shape == 0:
        third = Point(rng.rational(), rng.rational())
        try:
            return p1, circumparabola(shared, p1.point_at(v), third), shared
        except DegenerateConfigurationError:
            return p1, rng.parabola(), None
    if shape == 1:
        beta = rng.rational()
        gamma = shared.y - p1.kappa * u * u - beta * u
        return p1, Parabola(p1.kappa, beta, gamma), shared
    if shape == 2:
        # Same tangent at u, another kappa.
        kappa = p1.kappa + rng.nonzero_rational()
        beta = p1.beta + 2 * (p1.kappa - kappa) * u
        gamma = shared.y - kappa * u * u - beta * u
        return p1, Parabola(kappa, beta, gamma), shared
    return p1, rng.parabola(), None


def _meets(p1: Parabola, p2: Parabola):
    try:
        return parabola_meet(p1, p2)
    except IrrationalIntersectionError:
        return IrrationalIntersectionError


@pytest.mark.parametrize("signs", SIGNS)
def test_parabola_meet_and_second_meet(signs):
    for k, rng, g in trials(signs):
        p1, p2, shared = _curve_pair(rng, k % 4)
        hits = _meets(p1, p2)
        image = _meets(g.parabola(p1), g.parabola(p2))
        if hits is IrrationalIntersectionError:
            assert image is hits, k
        else:
            finite = [g.meet(h) for h in hits if h.is_finite]
            if g.alpha < 0:
                finite.reverse()
            assert image == finite + [h for h in hits if not h.is_finite], k
        if shared is not None and p1 != p2:
            assert second_meet(g.parabola(p1), g.parabola(p2),
                               g.point(shared)) \
                == g.meet(second_meet(p1, p2, shared)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_second_intersection(signs):
    for k, rng, g in trials(signs):
        curve = rng.parabola()
        pt = curve.point_at(rng.rational())
        m = rng.rational()
        assert second_intersection(g.parabola(curve), g.point(pt),
                                   g.slope(m)) \
            == g.point(second_intersection(curve, pt, m)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_iso_angle_locus(signs):
    for k, rng, g in trials(signs):
        # Only maps that fix the reference line y = 0 keep the endpoints
        # on it.
        g = g._replace(delta=F(0), epsilon=F(0))
        a, b = (Point(x, F(0)) for x in rng.distinct_rationals(2))
        theta = rng.nonzero_rational()
        image = iso_angle_locus(g.point(a), g.point(b),
                                g.angle_scale * theta)
        assert image == g.parabola(iso_angle_locus(a, b, theta)), k
        assert g.point(a).y == g.point(b).y == 0, k


@pytest.mark.parametrize("signs", SIGNS)
def test_parabolic_power(signs):
    for k, rng, g in trials(signs):
        curve, pt = rng.parabola(), rng.point()
        assert parabolic_power(g.parabola(curve), g.point(pt)) \
            == g.alpha * g.alpha * parabolic_power(curve, pt), k


@pytest.mark.parametrize("signs", SIGNS)
def test_shift(signs):
    for k, rng, g, t in _triangles(signs):
        theta = rng.nonzero_rational()
        assert shift(g.triangle(t), g.angle_scale * theta) \
            == g.triangle(shift(t, theta)), k


@pytest.mark.parametrize("signs", SIGNS)
def test_centers(signs):
    for k, rng, g, t in _triangles(signs):
        cs, image = centers(t), centers(g.triangle(t))
        ex_a, ex_c = g.point(cs.excenter_a), g.point(cs.excenter_c)
        if g.alpha < 0:
            ex_a, ex_c = ex_c, ex_a
        assert (image.excenter_a, image.excenter_c) == (ex_a, ex_c), k
        assert image.excenter_ideal == cs.excenter_ideal, k
        for name in ("incenter", "centroid", "tangent_centroid",
                     "bisector_centroid"):
            assert getattr(image, name) == g.point(getattr(cs, name)), \
                (k, name)
        assert image.tangent_triangle == g.triangle(cs.tangent_triangle), k
        assert image.tangent_triangle.parabola \
            == g.parabola(cs.tangent_triangle.parabola), k


@pytest.mark.parametrize("signs", SIGNS)
def test_perpendicular_feet_and_midpoint_lemma(signs):
    for k, rng, g, t in _triangles(signs):
        image = g.triangle(t)
        assert perpendicular_feet(image) == g.points(perpendicular_feet(t)), k
        result, moved = midpoint_lemma_check(t), midpoint_lemma_check(image)
        assert moved.meets == g.points(result.meets), k
        assert moved.feet == g.points(result.feet), k
        assert moved.residuals == {lbl: g.vector(r) for lbl, r
                                   in result.residuals.items()}, k
        assert all(r == Point(0, 0) for r in moved.residuals.values()), k


@pytest.mark.parametrize("signs", SIGNS)
def test_simson(signs):
    for k, rng, g, t in _triangles(signs):
        m = rng.rational()
        result, moved = simson(t, m), simson(g.triangle(t), g.slope(m))
        assert moved.chord_points == g.points(result.chord_points), k
        assert moved.feet == g.points(result.feet), k
        assert moved.line == g.line(result.line), k
        assert moved.drop_meet == result.drop_meet \
            == MeetResult.ideal(None), k


def _outcome(call, *args):
    try:
        return call(*args)
    except DegenerateConfigurationError as err:
        return DegenerateConfigurationError, str(err)


@pytest.mark.parametrize("signs", SIGNS)
def test_dabct(signs):
    for k, rng, g, t in _triangles(signs):
        # Isosceles draws raise on both sides: norms scale by |alpha|.
        result, moved = _outcome(dabct, t), _outcome(dabct, g.triangle(t))
        if result[0] is DegenerateConfigurationError:
            assert moved == result, k
            continue
        assert moved.l_points == g.points(result.l_points), k
        assert moved.feet == g.points(result.feet), k
        assert moved.det_residual \
            == g.alpha * g.gamma * result.det_residual == 0, k
        assert moved.concurrency_ok == result.concurrency_ok, k


def _assert_miquel_maps(g: Affine, result, moved, k):
    assert moved.kind == result.kind, k
    assert moved.point == g.meet(result.point), k
    assert moved.curves == g.parabolas(result.curves), k
    assert moved.memberships == {name: g.gamma * r for name, r
                                 in result.memberships.items()}, k


@pytest.mark.parametrize("signs", SIGNS)
def test_miquel_triangle(signs):
    for k, rng, g in trials(signs):
        t = rng.free_triangle()
        if k % 5 == 0:
            # Midpoint feet: equal coefficients, the ideal common point.
            feet = [Point((u.x + w.x) / 2, (u.y + w.y) / 2)
                    for u, w in ((t.b, t.c), (t.c, t.a), (t.a, t.b))]
        else:
            feet = list(rng.cevian_feet(t))
        result = _outcome(miquel_triangle, t, *feet)
        moved = _outcome(miquel_triangle, g.triangle(t), *map(g.point, feet))
        if result[0] is DegenerateConfigurationError:
            assert moved == result, k
            continue
        _assert_miquel_maps(g, result, moved, k)


@pytest.mark.parametrize("signs", SIGNS)
def test_miquel_quadrilateral(signs):
    for k, rng, g in trials(signs):
        lines = [draw_line(rng, False) for _ in range(4)]
        try:
            quad = CompleteQuadrilateral(*lines)
        except DegenerateConfigurationError:
            continue
        image = CompleteQuadrilateral(*map(g.line, lines))
        assert image.points() == g.points(quad.points()), k
        _assert_miquel_maps(g, miquel_quadrilateral(quad),
                            miquel_quadrilateral(image), k)
