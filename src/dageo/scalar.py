"""Exact rational scalars and the small algebraic primitives everything
else reduces to.

A kernel scalar is an ``int`` or a :class:`fractions.Fraction`, always in
lowest terms with a positive denominator, so equality is structural and
every predicate in the kernel bottoms out in an exact sign test.  Every
kernel function takes a scalar as it is: a float or a string fails where
the kernel reads it, as in ``Point(0.5, 1)``.  Text becomes a scalar
only through :func:`parse_scalar`: scene files carry scalars as strings
(``"3"``, ``"-7/4"``, ``"0.25"``); parsing is exact and never goes
through binary floats.  Only ASCII digits are accepted: ``int`` would
read other Unicode digits, which :func:`format_scalar` never writes.

The kernel builds every ``Fraction`` of two ints through :func:`ratio`,
and so do scalar parsing, the chart normalization of scene files and the
seeded draws of :mod:`dageo.generators`.  Every random value of a draw
comes from ``RandomRationals._below``, ``_pair`` or ``coin``, and a
trial's configuration and rejections are a function of that sequence.
``ratio(n, d)`` returns a value equal to ``Fraction(n, d)`` in type,
numerator, denominator, hash and repr, and raises ``ZeroDivisionError``
on ``d == 0`` as ``Fraction`` does.  It exists for speed: the exact
kernel builds a ``Fraction`` for almost every result, and
``Fraction.__new__`` spends most of its time dispatching on its argument
types: about 0.8 us a call, against about 0.2 us for one ``gcd`` and two
slot writes (CPython 3.11 on a 2-vCPU Xeon VM).  ``ratio`` reduces by one ``gcd``, makes
the denominator positive and fills the instance's ``_numerator`` and
``_denominator`` slots directly, as CPython 3.12's own
``Fraction._from_coprime_ints`` does.  It relies on that slot layout,
which CPython 3.10 to 3.13 share; ``Fraction`` instances have no
``__dict__``, so a changed layout raises ``AttributeError`` rather than
building a wrong value.  ``tests/test_scalar.py`` holds its contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction

_SCALAR_RE = re.compile(
    r"""\s*(?:
        ([+-]?\d+) (?:/(\d+))?     # integer or p/q
      | ([+-]?)(\d*)\.(\d+)        # decimal; the whole part may be empty
    )\s*""",
    re.VERBOSE | re.ASCII,
)


def ratio(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ints, without ``Fraction.__new__``'s
    type dispatch (see the module docstring)."""
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    value = object.__new__(Fraction)
    value._numerator = num // g
    value._denominator = den // g
    return value


def between(s: Fraction, t: Fraction, n: int, d: int) -> Fraction:
    """``s + (n/d)(t - s)``, that is ``((d - n) s + n t) / d``, built once;
    ``s`` and ``t`` may be ``int`` or ``Fraction``."""
    sd, td = s.denominator, t.denominator
    return ratio((d - n) * s.numerator * td + n * t.numerator * sd,
                 d * sd * td)


def parse_scalar(text: str) -> Fraction:
    """Parse ``"n"``, ``"p/q"`` or a finite decimal into an exact rational.

    Decimals expand exactly (``"0.25"`` -> 1/4); anything else, including a
    zero denominator or a non-ASCII digit, is rejected.
    """
    match = _SCALAR_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a scalar literal: {text!r}")
    num, den, sign, whole, frac = match.groups()
    if frac is None:
        if den is None:
            return ratio(int(num), 1)
        den = int(den)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return ratio(int(num), den)
    # A decimal is whole * 10**k + frac over 10**k, k the digits after the
    # point.  Each part goes through int() on its own, as in Fraction's
    # parser, so int()'s digit limit applies to each part and not to their
    # sum.
    scale = 10 ** len(frac)
    num = int(whole or "0") * scale + int(frac)
    return ratio(-num if sign == "-" else num, scale)


def format_scalar(value: Fraction) -> str:
    """Inverse of :func:`parse_scalar`, normalized to ``n`` or ``p/q``:
    a ``Fraction`` is already reduced, and its ``str`` is that form."""
    return str(value)


def format_ratio(num: int, den: int) -> str:
    """``format_scalar(ratio(num, den))`` for ints with ``den > 0``,
    reduced by one ``gcd`` without building the Fraction."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def det3(r1, r2, r3) -> Fraction:
    """Exact determinant of the 3x3 matrix with rows ``r1, r2, r3``.

    With rows ``(x, y, 1)`` this is the collinearity certificate: zero iff
    the three points are collinear.  Each row is lifted to integers over
    its lcm, so the only ``Fraction`` built is the result: the integer
    determinant over the product of the row scales.
    """
    r1, s1 = lift_triple(r1)
    r2, s2 = lift_triple(r2)
    r3, s3 = lift_triple(r3)
    return ratio(_det3(r1, r2, r3), s1 * s2 * s3)


def _det3(r1, r2, r3) -> int:
    """The determinant of three integer rows, expanded along the first;
    ``det3`` and ``gauge.concurrent`` call it."""
    (a, b, c), (d, e, f), (g, h, i) = r1, r2, r3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def lift_triple(values) -> tuple[tuple[int, int, int], int]:
    """Three values, ``int`` or ``Fraction``, as integer numerators over
    their least common denominator ``L``, returned as
    ``((N_1, N_2, N_3), L)``."""
    x, y, z = values
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    scale = math.lcm(dx, dy, dz)
    return (x.numerator * (scale // dx), y.numerator * (scale // dy),
            z.numerator * (scale // dz)), scale


def collinear(p, q, r) -> bool:
    """Whether three points lie on one line: the determinant of their
    homogeneous integer triples (``.xyz``) is 0."""
    return det3(p.xyz, q.xyz, r.xyz) == 0


@dataclass(frozen=True)
class QuadraticPoly:
    """c2*x^2 + c1*x + c0 over exact rationals.

    Used as the eliminant of curve intersections: once one rational root is
    known, the companion root comes out of Vieta without any root-finding.
    """

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return (self.c2 * x + self.c1) * x + self.c0

    def discriminant(self) -> Fraction:
        return self.c1 * self.c1 - 4 * self.c2 * self.c0

    def rational_roots(self) -> list[Fraction] | None:
        """Both roots when they are rational, ``[]`` when there are no real
        roots, and ``None`` when the roots exist but are irrational.

        Requires degree 2.
        """
        if self.c2 == 0:
            raise ValueError("rational_roots requires a genuine quadratic")
        (c2, c1, c0), _ = lift_triple((self.c2, self.c1, self.c0))
        return integer_quadratic_roots(c2, c1, c0)


def integer_quadratic_roots(c2: int, c1: int, c0: int) -> list[Fraction] | None:
    """:meth:`QuadraticPoly.rational_roots` of ``c2*x^2 + c1*x + c0`` with
    integer coefficients, ``c2 != 0``.

    The roots are rational iff the integer discriminant is a perfect
    square: a rational whose square is an integer is an integer, so
    dividing the coefficients by a common scale ``s`` (which divides the
    discriminant by the square ``s**2``) keeps the answer.
    """
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    if not root:
        return [ratio(-c1, 2 * c2)]
    lo, hi = ratio(-c1 - root, 2 * c2), ratio(-c1 + root, 2 * c2)
    return [lo, hi] if c2 > 0 else [hi, lo]


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return ratio(num, den)


def other_root(q: QuadraticPoly, known: Fraction) -> Fraction:
    """Vieta companion of a known rational root of ``q``.

    The sum of the roots is -c1/c2, so the second root needs no radicals.
    Rejects ``known`` if it does not actually annihilate ``q``.
    """
    if q.c2 == 0:
        raise ValueError("other_root requires a genuine quadratic")
    # q times its coefficients' scale.
    (c2, c1, c0), scale = lift_triple((q.c2, q.c1, q.c0))
    return ratio(*_vieta_companion(c2, c1, c0, scale, known.numerator,
                                   known.denominator))


def _vieta_companion(c2: int, c1: int, c0: int, scale: int, n: int,
                     d: int) -> tuple[int, int]:
    """Vieta companion ``(-(c1*d + c2*n), c2*d)`` of the root ``n/d`` of
    ``c2*x^2 + c1*x + c0``, integers with ``c2, d != 0``: the roots sum to
    -c1/c2.  A non-root raises ``ValueError`` with the residual over
    ``scale``."""
    # The quadratic at n/d, times d**2.
    residual = (c2 * n + c1 * d) * n + c0 * d * d
    if residual:
        raise ValueError(f"{ratio(n, d)} is not a root "
                         f"(residual {ratio(residual, scale * d * d)})")
    return -(c1 * d + c2 * n), c2 * d
