"""Generic seeded draws for the theorem campaigns; a draw that serves one
theorem lives in that theorem's generator in :mod:`dageo.campaigns`.

Every generator is a pure function of (campaign seed, trial index, bound):
the trial seed is derived with a splitmix-style mixer, so campaigns can be
re-run, resumed or parallelized and still produce identical
configurations; a campaign reseeds one stream per trial (``restart``),
which then draws what a fresh one would.  A rational draw is a reduced
``(numerator, denominator)`` integer pair, compared, deduplicated and
sorted as integers; its ``Fraction`` is built once, when the draw is
handed out.  Generators rejection-sample through ``retrying``, which
alone decides that a configuration is degenerate and counts the
rejection; ``_nonzero_pair`` and ``distinct_rationals`` run the same loop
inline on integer pairs.  Hitting the retry limit raises
:class:`GeneratorExhaustedError` (a generator bug, never a theorem failure).

Draw rule: every integer comes from CPython's
``Random._randbelow_with_getrandbits`` repeated on the trial's
``random.Random``.  :meth:`RandomRationals._below` runs it for one width;
``_pair``, which draws every rational but the positive and unit-interval
ones, and ``distinct_rationals`` run it inline for two widths whose bit
lengths ``__init__`` computes.  So ``a + _below(b - a + 1)`` returns what
``randint(a, b)`` returns and leaves the generator in the same state
(``tests/test_harness.py`` checks values, rejections and ``rng.getstate()``
of every helper against ``randint``), without ``randint``'s layers of
argument checks, which cost several times the draw itself.
``distinct_rationals`` orders its reduced pairs by cross-multiplication,
exact at any bound, and builds them with ``scalar.coprime_ratio``, which
needs no ``gcd``.  ``parabola`` keeps coefficients built from its drawn
pairs, never read back from the stored quadruple, so a wrong quadruple
(``tests/test_mutants.py``'s lift mutant) cannot agree with them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import DegenerateConfigurationError, GeneratorExhaustedError
from .gauge import Point, _point_between
from .parabola import Parabola, _parabola_over
from .scalar import collinear, coprime_ratio, ratio
from .triangle import DATriangle

MASK64 = (1 << 64) - 1
RETRY_LIMIT = 10_000        # draws one retrying() call makes before giving up


def trial_seed(campaign_seed: int, trial: int) -> int:
    """Stable 64-bit mix of campaign seed and trial index (splitmix64)."""
    z = (campaign_seed ^ (trial * 0x9E3779B97F4A7C15)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _width(width: int) -> tuple[int, int]:
    """A draw width with its bit length, for a ``_below`` draw run
    inline."""
    return width, width.bit_length()


class RandomRationals:
    """Seeded stream of small exact rationals and geometric primitives."""

    def __init__(self, campaign_seed: int, trial: int, bound: int = 50):
        if bound < 1:
            # randint refused an empty range; _below(0) would never return.
            raise ValueError("bound must be >= 1")
        self.campaign_seed = campaign_seed
        # Seeded here, not by restart(): Random() would seed from urandom.
        self.rng = random.Random(trial_seed(campaign_seed, trial))
        self._getrandbits = self.rng.getrandbits
        # _pair's numerator and denominator widths with their bit lengths.
        self._pair_widths = _width(2 * bound + 1) + _width(bound)
        self.trial_index = trial
        self.bound = bound
        self.rejections = 0

    def restart(self, trial: int) -> None:
        """Reseed in place: by ``random.Random.seed``'s contract, the stream
        of a fresh ``RandomRationals(campaign_seed, trial, bound)``."""
        self.rng.seed(trial_seed(self.campaign_seed, trial))
        self.trial_index = trial
        self.rejections = 0

    # -- scalars ------------------------------------------------------------

    def _below(self, width: int) -> int:
        """Uniform int in ``[0, width)``, ``width >= 1``: CPython's
        ``_randbelow_with_getrandbits``, the draw behind ``randint``.

        A width below 1 would loop forever (no ``r >= 0`` is below it),
        and there is no per-draw check: every call site passes at least 1
        once ``__init__`` has required ``bound >= 1``.  The sites are
        ``_pair``'s ``2 * bound + 1`` (at least 3) and ``bound``, which
        ``__init__`` passes to ``_width`` for the inline draws of ``_pair``
        and ``distinct_rationals``,
        ``positive_rational``'s ``self.bound`` (twice),
        ``fraction_in_unit_interval``'s ``max(3, self.bound) - 1`` (at
        least 2) and ``d - 1``, where that first draw makes ``d`` at least
        2, and ``small_positive_int``'s 9.  ``tests/test_harness.py`` pins
        this list and the widths each draw passes."""
        getrandbits = self._getrandbits
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return r

    def _pair(self) -> tuple[int, int]:
        """One draw of n/d, n in [-bound, bound] and d in [1, bound], as
        the integer pair ``(n, d)``, not reduced: ``_below(2 * bound + 1)
        - bound`` and ``_below(bound) + 1``, both loops run inline."""
        getrandbits = self._getrandbits
        n_width, n_bits, bound, d_bits = self._pair_widths
        n = getrandbits(n_bits)
        while n >= n_width:
            n = getrandbits(n_bits)
        d = getrandbits(d_bits)
        while d >= bound:
            d = getrandbits(d_bits)
        return n - bound, d + 1

    def rational(self) -> Fraction:
        return ratio(*self._pair())

    def _nonzero_pair(self) -> tuple[int, int]:
        for _ in range(RETRY_LIMIT):
            n, d = self._pair()
            if n:
                return n, d
            self.rejections += 1
        raise GeneratorExhaustedError("retry limit exceeded")

    def nonzero_rational(self) -> Fraction:
        return ratio(*self._nonzero_pair())

    def positive_rational(self) -> Fraction:
        n = self._below(self.bound) + 1
        return ratio(n, self._below(self.bound) + 1)

    def fraction_in_unit_interval(self) -> Fraction:
        """Strictly interior rational of (0, 1)."""
        # At bound 2 the only draw would be 1/2; allow thirds there.
        d = self._below(max(3, self.bound) - 1) + 2
        return ratio(self._below(d - 1) + 1, d)

    def small_positive_int(self) -> int:
        return self._below(9) + 1

    def distinct_rationals(self, count: int) -> list[Fraction]:
        """``count`` pairwise distinct draws in increasing order; a repeat
        is a rejection, and each draw has its own retry limit."""
        getrandbits = self._getrandbits
        n_width, n_bits, bound, d_bits = self._pair_widths
        drawn: list[tuple[int, int]] = []       # increasing in n/d
        for _ in range(count):
            for _ in range(RETRY_LIMIT):
                n = getrandbits(n_bits)
                while n >= n_width:
                    n = getrandbits(n_bits)
                d = getrandbits(d_bits)
                while d >= bound:
                    d = getrandbits(d_bits)
                g = gcd(n - bound, d + 1)
                n, d = (n - bound) // g, (d + 1) // g
                # The first kept m/e with n/d <= m/e; equal is a repeat.
                i, c = 0, 1
                for m, e in drawn:
                    c = n * e - m * d
                    if c <= 0:
                        break
                    i += 1
                if c:
                    drawn.insert(i, (n, d))
                    break
                self.rejections += 1
            else:
                raise GeneratorExhaustedError("retry limit exceeded")
        return [coprime_ratio(n, d) for n, d in drawn]

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
        """The curve of ``nonzero_rational(), rational(), rational()``."""
        kn, kd = self._nonzero_pair()
        bn, bd = self._pair()
        gn, gd = self._pair()
        return _parabola_over(kn, kd, bn, bd, gn, gd, ratio(kn, kd),
                              ratio(bn, bd), ratio(gn, gd))

    def triangle(self) -> DATriangle:
        """Triangle inscribed in a random parabola."""
        curve = self.parabola()
        xs = self.distinct_rationals(3)
        return DATriangle(*(curve.point_at(x) for x in xs))

    def free_triangle(self) -> DATriangle:
        """Triangle from free points (not forced onto a given parabola)."""
        def make():
            pts = [self.point() for _ in range(3)]
            if collinear(*pts):
                return None
            return DATriangle(*pts)
        return self.retrying(make)

    def point_on_side(self, u: Point, w: Point) -> Point:
        """Strictly interior point of the segment UW (never an endpoint):
        U + lam (W - U) with lam from ``fraction_in_unit_interval``."""
        lam = self.fraction_in_unit_interval()
        return _point_between(u, w, lam.numerator, lam.denominator)

    def cevian_feet(self, t: DATriangle) -> tuple[Point, Point, Point]:
        """Independent feet strictly inside the three sides."""
        d = self.point_on_side(t.b, t.c)
        e = self.point_on_side(t.c, t.a)
        f = self.point_on_side(t.a, t.b)
        return d, e, f
