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
"""

from fractions import Fraction as F
from typing import NamedTuple

import pytest

from dageo.gauge import (Line, MeetResult, Point, concurrent,
                         difference_angle, line_through, meet)
from dageo.generators import RandomRationals
from dageo.parabola import Parabola
from dageo.theorems import CevianSpec, cevian_line
from dageo.triangle import (VERTICES, DATriangle, bisector_at,
                            divider_line)

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
        m, n = rng.small_positive_int(), rng.positive_rational()
        assert divider_line(image.a, image.b, image.c, m, n) \
            == g.line(divider_line(t.a, t.b, t.c, m, n)), k


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
