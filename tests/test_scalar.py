import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (bounded, fraction_chain_other_root,
                      fraction_chain_rational_roots)
from dageo.equivalence import shift
from dageo.gauge import Point
from dageo.parabola import (Parabola, iso_angle_locus, second_intersection,
                            tangent_at)
from dageo.scalar import (QuadraticPoly, between, det3, format_ratio,
                          format_scalar, other_root, parse_scalar, ratio)
from dageo.theorems import arc_symmetry_check
from dageo.triangle import DATriangle, simson

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def det3_oracle(r1, r2, r3):
    # Independent oracle: signed permutation expansion of the determinant.
    rows = (r1, r2, r3)
    total = F(0)
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(1)
        for i in range(3):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def fraction_chain_det3(r1, r2, r3):
    # Reference: the Fraction-chain cofactor expansion that the
    # integer-lift det3 replaced.
    a, b, c = (F(v) for v in r1)
    d, e, f = (F(v) for v in r2)
    g, h, i = (F(v) for v in r3)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


#: Small ints of both signs and zero, and ints far past 2**64.
wide_ints = st.one_of(st.integers(min_value=-60, max_value=60),
                      st.integers(min_value=-2**200, max_value=2**200))


class TestRatioContract:
    """``ratio`` fills ``Fraction``'s slots without its constructor, so it
    relies on that layout: its value must be the one ``Fraction`` builds,
    on every interpreter the package supports."""

    @given(wide_ints, wide_ints.filter(bool))
    @example(0, 7)
    @example(0, -7)
    @example(-6, 4)
    @example(6, -4)
    @example(-6, -4)
    @example(2**64 + 2, -(2**65))
    @example(-(3 * 2**70), 9 * 2**66)
    def test_ratio_matches_fraction(self, n, d):
        got, want = ratio(n, d), F(n, d)
        assert type(got) is F
        assert type(got.numerator) is int and type(got.denominator) is int
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert got == want and got + F(1, 3) == want + F(1, 3)

    @pytest.mark.parametrize("n", [0, 1, -7, 2**70])
    def test_zero_denominator_raises(self, n):
        with pytest.raises(ZeroDivisionError):
            ratio(n, 0)


#: parse_scalar's grammar before it read a literal's parts from the groups
#: of one match.
_LITERAL = re.compile(
    r"""^\s*(
        [+-]?\d+ (?:/\d+)?      # integer or p/q
      | [+-]?\d+\.\d+           # finite decimal
      | [+-]?\.\d+              # leading-dot decimal
    )\s*$""",
    re.VERBOSE | re.ASCII,
)


def fraction_chain_parse(text):
    # Reference: parse_scalar before it parsed to ints: its grammar, then
    # Fraction's own string parser for n and decimals.
    if not _LITERAL.match(text):
        raise ValueError(f"not a scalar literal: {text!r}")
    body = text.strip()
    if "/" in body:
        num, den = body.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return F(int(num), int(den))
    return F(body)


def _parsed(call, text):
    """``call(text)`` with its type, or the type and message it raises."""
    try:
        value = call(text)
    except ValueError as err:
        return type(err), str(err)
    return type(value), value


_digits = st.text(alphabet="0123456789", min_size=1, max_size=30)
_sign = st.sampled_from(["", "+", "-"])
_pad = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def scalar_literals(draw):
    """Every form ``parse_scalar`` accepts: ``n``, ``p/q`` (zero ``q``
    included), ``n.f`` and ``.f``, signed, zero-padded and space-padded."""
    whole, frac, den = draw(_digits), draw(_digits), draw(_digits)
    body = draw(st.sampled_from([whole, f"{whole}/{den}", f"{whole}.{frac}",
                                 f".{frac}"]))
    return draw(_pad) + draw(_sign) + body + draw(_pad)


class TestParseScalar:
    @given(scalar_literals())
    @example("+.5")
    @example("-.5")
    @example("-0.0")
    @example(" 007.50 ")
    @example("-6/4")
    @example("+0/7")
    @example("3/000")
    # Shapes outside the grammar that int() or Fraction would read.
    @example("5.")
    @example("+")
    @example("1/-2")
    @example("\uff17")
    @example(" 3 \n")
    # Each part under int()'s 4300-digit limit, their sum over it.
    @example("-" + "7" * 2200 + "." + "3" * 2200)
    def test_matches_fraction_parser(self, text):
        assert _parsed(parse_scalar, text) == _parsed(fraction_chain_parse,
                                                      text)

    # Non-ASCII digits (Arabic-Indic, fullwidth) and spaces; format_scalar
    # never writes them, and int() would read the digits.
    @pytest.mark.parametrize("text", ["\u0661\u0662", "\uff11/\uff12",
                                      "3/\u0664", "\u0663.\u0665",
                                      "\u00a03"])
    def test_rejects_non_ascii(self, text):
        with pytest.raises(ValueError, match="not a scalar literal"):
            parse_scalar(text)

    def test_fraction_canonicalizes(self):
        assert parse_scalar("3/6") == F(1, 2)

    def test_zero(self):
        assert parse_scalar("0") == F(0)

    def test_exact_decimal(self):
        # 0.25 expands to 25/100 = 1/4 exactly, never via floats
        assert parse_scalar("0.25") == F(1, 4)
        assert parse_scalar("-0.1") == F(-1, 10)
        assert parse_scalar(".5") == F(1, 2)

    def test_signs_and_negatives(self):
        assert parse_scalar("-7/4") == F(-7, 4)
        assert parse_scalar("+3") == F(3)

    @pytest.mark.parametrize("bad", ["", "1/0", "x", "1e3", "1/2/3", "nan",
                                     "1.2.3", "0x10"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_scalar(format_scalar(value)) == value

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6),
           st.integers(1, 50))
    def test_format_ratio_matches_format_scalar(self, num, den, scale):
        # Any representation of one rational, reduced or not.
        assert format_ratio(num * scale, den * scale) \
            == format_scalar(F(num, den))

    @given(bounded)
    def test_format_scalar_is_the_reduced_ratio(self, value):
        # format_scalar writes str(value); an int or a reduced Fraction
        # reads as its reduced n or n/d on every supported interpreter.
        assert format_scalar(value) \
            == format_ratio(value.numerator, value.denominator)


class TestDet3:
    def test_final_collinearity_feet(self):
        # Oracle: cofactor expansion of ((0,-5,1),(1,-8,1),(2,-11,1)) = 0
        assert det3((0, -5, 1), (1, -8, 1), (2, -11, 1)) == 0

    def test_unit_triangle(self):
        assert det3((0, 0, 1), (1, 0, 1), (0, 1, 1)) == 1

    def test_translated_parabola_feet(self):
        assert det3((5, 5, 1), (6, 12, 1), (7, 19, 1)) == 0

    @given(st.lists(rationals, min_size=9, max_size=9))
    def test_matches_permutation_oracle(self, vals):
        rows = [tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])]
        assert det3(*rows) == det3_oracle(*rows)

    @given(st.lists(bounded, min_size=9, max_size=9))
    def test_matches_fraction_chain(self, vals):
        rows = [tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])]
        got = det3(*rows)
        assert type(got) is F
        assert got == fraction_chain_det3(*rows)

    @given(st.lists(rationals, min_size=9, max_size=9))
    def test_alternating(self, vals):
        r1, r2, r3 = tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])
        assert det3(r2, r1, r3) == -det3(r1, r2, r3)
        assert det3(r1, r3, r2) == -det3(r1, r2, r3)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    @given(rationals)
    def test_canonical_form(self, a):
        from math import gcd
        assert a.denominator > 0
        assert gcd(abs(a.numerator), a.denominator) == 1


class TestOtherRoot:
    def test_factored_pair(self):
        # x^2 - 3x + 2 = (x-1)(x-2)
        assert other_root(QuadraticPoly(F(1), F(-3), F(2)), F(1)) == 2

    def test_double_root(self):
        assert other_root(QuadraticPoly(F(1), F(0), F(0)), F(0)) == 0

    def test_scaled(self):
        # 2x^2 - 2x = 2x(x-1)
        assert other_root(QuadraticPoly(F(2), F(-2), F(0)), F(0)) == 1

    def test_rejects_non_root(self):
        # The rejected value, then q at it, reduced.
        with pytest.raises(ValueError) as err:
            other_root(QuadraticPoly(F(1), F(-3), F(2)), F(5))
        assert str(err.value) == "5 is not a root (residual 12)"
        with pytest.raises(ValueError) as err:
            other_root(QuadraticPoly(F(1, 2), F(1, 3), F(-1, 5)), F(-3, 4))
        assert str(err.value) == "-3/4 is not a root (residual -27/160)"

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            other_root(QuadraticPoly(F(0), F(1), F(2)), F(-2))

    @given(rationals, rationals, st.fractions(min_value=-100, max_value=100,
                                              max_denominator=50))
    def test_companion_is_exact_root(self, r1, r2, lead):
        if lead == 0:
            lead = F(1)
        # Build the quadratic from its roots, recover one from the other.
        q = QuadraticPoly(lead, -lead * (r1 + r2), lead * r1 * r2)
        companion = other_root(q, r1)
        assert companion == r2
        assert q(companion) == 0


def outcome(call, *args):
    """``call(*args)``'s value, or the type and message it raises."""
    try:
        return call(*args)
    except ValueError as err:
        return type(err), str(err)


#: A quadratic with coefficients from ``bounded`` (plain ints among them):
#: free, or with two chosen rational roots (equal for "double").
quadratics = st.builds(
    lambda kind, lead, u, v, c1, c0: (
        QuadraticPoly(lead, c1, c0) if kind == "free" else
        QuadraticPoly(lead, -lead * (u + (u if kind == "double" else v)),
                      lead * u * (u if kind == "double" else v))),
    st.sampled_from(["free", "roots", "double"]), bounded, bounded, bounded,
    bounded, bounded)


class TestLiftedRoots:
    @given(quadratics)
    def test_rational_roots_match_fraction_chain(self, q):
        got = outcome(q.rational_roots)
        assert got == outcome(fraction_chain_rational_roots, q)
        if isinstance(got, list):
            assert all(type(r) is F for r in got)

    @given(quadratics, bounded, st.booleans())
    @example(QuadraticPoly(3, -4, 1), 1, False)
    def test_other_root_matches_fraction_chain(self, q, known, at_root):
        # at_root: known is a rational root of q, when it has one.
        if at_root and q.c2 != 0:
            known = (fraction_chain_rational_roots(q) or [known])[0]
        got = outcome(other_root, q, known)
        assert got == outcome(fraction_chain_other_root, q, known)
        if not isinstance(got, tuple):
            assert type(got) is F

    def test_int_coefficients_stay_exact(self):
        # Plain-int coefficients used to give the float 0.33333333333333326.
        got = other_root(QuadraticPoly(3, -4, 1), 1)
        assert type(got) is F and got == F(1, 3)
        roots = QuadraticPoly(3, -4, 1).rational_roots()
        assert roots == [F(1, 3), F(1)] and all(type(r) is F for r in roots)


class TestBetween:
    @given(bounded, bounded, st.integers(-9, 9), st.integers(1, 9))
    def test_matches_fraction_chain(self, s, t, n, d):
        got = between(s, t, n, d)
        assert type(got) is F
        assert got == s + F(n, d) * (t - s)


class TestQuadraticPoly:
    def test_evaluation(self):
        q = QuadraticPoly(F(2), F(-3), F(1))
        assert q(F(2)) == 3

    def test_rational_roots_perfect_square(self):
        q = QuadraticPoly(F(1), F(-3), F(2))
        assert q.rational_roots() == [F(1), F(2)]

    def test_rational_roots_irrational(self):
        assert QuadraticPoly(F(1), F(0), F(-2)).rational_roots() is None

    def test_rational_roots_complex(self):
        assert QuadraticPoly(F(1), F(0), F(1)).rational_roots() == []


_STD = Parabola(1, 0, 0)
_ON_STD = DATriangle(Point(0, 0), Point(1, 1), Point(4, 16))
#: Kernel functions of one scalar argument, each placed where the
#: scalars 2 and 5/2 are valid arguments.
SCALAR_ENTRY_POINTS = {
    "Parabola.point_at": _STD.point_at,
    "iso_angle_locus": lambda s: iso_angle_locus(Point(0, 0), Point(3, 0), s),
    "tangent_at": lambda s: tangent_at(_STD, s),
    "second_intersection": lambda s: second_intersection(_STD, Point(1, 1), s),
    "simson": lambda s: simson(_ON_STD, s),
    "shift": lambda s: shift(_ON_STD, s),
    "arc_symmetry_check": lambda s: arc_symmetry_check(_ON_STD, s),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
class TestKernelScalars:
    """A kernel scalar is an int or a Fraction: text becomes one only
    through ``parse_scalar``, and a float or a string fails as it does in
    ``Point(0.5, 1)``, rather than being coerced."""

    def test_int_matches_fraction(self, name):
        call = SCALAR_ENTRY_POINTS[name]
        assert call(2) == call(F(2))

    @pytest.mark.parametrize("value", [2.5, "5/2"])
    def test_float_or_text_raises(self, name, value):
        with pytest.raises(AttributeError):
            Point(value, 1)
        with pytest.raises((AttributeError, TypeError)):
            SCALAR_ENTRY_POINTS[name](value)
