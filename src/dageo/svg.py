"""Deterministic SVG figures for scenes and construction output.

Rendering is presentation only: parabola arcs are drawn as cubic Bezier
segments (the exact quadratic Bezier of the arc, degree-elevated), points
as labeled dots, lines clipped to the frame, and ideal points as labeled
arrows on the frame edge.  The viewBox is computed from the finite content
with a 10% margin; identical input always yields identical bytes.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import NamedTuple

from .parabola import Parabola
from .scene import Drawables

_POINT_STYLE = 'fill="#b2182b"'
_LINE_STYLE = 'stroke="#2166ac" stroke-width="0.7%" fill="none"'
_CURVE_STYLE = 'stroke="#4d9221" stroke-width="0.7%" fill="none"'
_TEXT_STYLE = 'font-family="monospace"'
_WIDTH = 640  # pixels; the height follows the content's aspect ratio


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class EmptySceneError(ValueError):
    pass


def _finite(what: str, value) -> float:
    """``value`` as a finite binary64 number for drawing.

    Every exact-to-float conversion goes through here; a value that floats
    cannot hold raises ``ValueError`` naming ``what``.
    """
    # A float passes through; for a Fraction (or an int) this is
    # numbers.Rational.__float__ without its two int() calls: the same
    # binary64 value and the same OverflowError.
    if type(value) is float:
        return _quotient(what, value, 1)
    return _quotient(what, value.numerator, value.denominator)


def _quotient(what: str, num, den: int) -> float:
    """:func:`_finite` of ``num / den``: int division is correctly
    rounded, so any representation of one rational gives one value."""
    try:
        out = num / den
    except OverflowError:
        out = inf
    if not isfinite(out):
        raise ValueError(f"{what} is out of the float range used for drawing")
    return out


class _Curve(NamedTuple):
    """A parabola's coefficients in binary64, for drawing only."""
    k: float
    b: float
    g: float

    def y(self, x: float) -> float:
        return (self.k * x + self.b) * x + self.g

    @property
    def vertex_x(self) -> float:
        return -self.b / (2 * self.k)


def _float_curve(name: str, curve: Parabola) -> _Curve:
    """The curve in binary64, refusing one that floats cannot draw: a
    coefficient too large for a float, a kappa that rounds to 0, or a
    vertex out of range."""
    what = f"parabola {name!r}"
    fc = _Curve(*(_finite(what, c)
                  for c in (curve.kappa, curve.beta, curve.gamma)))
    # A kappa that rounds to 0 sends the vertex to infinity.
    vx = _finite(what, fc.vertex_x if fc.k else inf)
    _finite(what, fc.y(vx))
    return fc


def _point_floats(draw: Drawables) -> dict[str, tuple[float, float]]:
    """Each point's coordinates in binary64, in ``draw.points`` order:
    X / Z and Y / Z of its triple."""
    out = {}
    for name, p in draw.points.items():
        what = f"point {name!r}"
        X, Y, Z = p.xyz
        out[name] = (_quotient(what, X, Z), _quotient(what, Y, Z))
    return out


def _bounds(draw: Drawables, points: dict[str, tuple[float, float]],
            curves: dict[str, _Curve]) -> tuple[float, float, float, float]:
    """The framed extent of ``draw``, whose points and parabolas come as
    :func:`_point_floats` and :func:`_float_curve` give them."""
    xs = [x for x, _ in points.values()]
    ys = [y for _, y in points.values()]
    for name, line in draw.lines.items():
        if line.is_singular:
            xs.append(_finite(f"line {name!r}", line.x0))
    if not xs:
        # Only curves: frame one unit either side of each vertex.
        for fc in curves.values():
            vx = fc.vertex_x
            xs += [vx - 1, vx + 1]
            ys.append(fc.y(vx))
    if not xs:
        raise EmptySceneError("nothing drawable in the scene")
    if not ys:
        ys = [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = max(hi_x - lo_x, 1.0)
    span_y = max(hi_y - lo_y, 1.0)
    margin_x, margin_y = 0.1 * span_x, 0.1 * span_y
    return lo_x - margin_x, hi_x + margin_x, lo_y - margin_y, hi_y + margin_y


def _parabola_arc(curve: _Curve, x_lo: float,
                  x_hi: float) -> list[tuple[float, float]]:
    """The four cubic Bezier control points of the arc over [x_lo, x_hi].

    The arc of a quadratic over an interval is exactly the quadratic
    Bezier whose control point is the tangent intersection at the interval
    midpoint abscissa; elevating to a cubic keeps renderers happy.
    """
    p0 = (x_lo, curve.y(x_lo))
    p2 = (x_hi, curve.y(x_hi))
    xm = (x_lo + x_hi) / 2
    slope = 2 * curve.k * x_lo + curve.b
    ctrl = (xm, p0[1] + slope * (xm - x_lo))
    c1 = (p0[0] + 2 * (ctrl[0] - p0[0]) / 3, p0[1] + 2 * (ctrl[1] - p0[1]) / 3)
    c2 = (p2[0] + 2 * (ctrl[0] - p2[0]) / 3, p2[1] + 2 * (ctrl[1] - p2[1]) / 3)
    return [p0, c1, c2, p2]


def render_svg(draw: Drawables) -> str:
    """Render drawables into a standalone SVG document string.

    A figure that binary64 cannot draw raises ``ValueError`` naming the
    object out of range, or the frame.
    """
    curves = {name: _float_curve(name, draw.parabolas[name])
              for name in sorted(draw.parabolas)}
    points = _point_floats(draw)
    x_lo, x_hi, y_lo, y_hi = _bounds(draw, points, curves)

    # Grow the vertical range so parabola arcs stay in frame.
    for name, curve in curves.items():
        for x in (x_lo, x_hi, curve.vertex_x):
            if x_lo <= x <= x_hi:
                yv = _finite(f"parabola {name!r}", curve.y(x))
                y_lo, y_hi = min(y_lo, yv), max(y_hi, yv)

    # The frame needs a finite, nonzero width (rounding can collapse a
    # frame far from the origin to zero width) and a finite height.
    span_x = _finite("the frame", x_hi - x_lo)
    scale = _finite("the frame", _WIDTH / span_x if span_x else inf)
    height = _finite("the frame", max((y_hi - y_lo) * scale, 64.0))

    def sx(x: float) -> float:
        return (x - x_lo) * scale

    def sy(y: float) -> float:
        return (y_hi - y) * scale  # flip: SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_WIDTH} {_fmt(height)}">'
    ]
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for name, curve in curves.items():
        # Rounding to 6 digits in chart coordinates before the pixel map
        # is part of the figure's bytes; keep it.
        arc = _parabola_arc(curve, x_lo, x_hi)
        p0, *rest = [f"{_fmt(sx(float(_fmt(x))))} {_fmt(sy(float(_fmt(y))))}"
                     for x, y in arc]
        parts.append(f'<path d="M {p0} C {" ".join(rest)}" {_CURVE_STYLE}>'
                     f'<title>{name}</title></path>')

    for name in sorted(draw.lines):
        line, what = draw.lines[name], f"line {name!r}"
        if line.is_singular:
            x = _finite(what, line.x0)
            seg = (sx(x), sy(y_lo), sx(x), sy(y_hi))
        else:
            m, k = _finite(what, line.m), _finite(what, line.k)
            seg = (sx(x_lo), sy(m * x_lo + k), sx(x_hi), sy(m * x_hi + k))
        seg = [_finite(what, v) for v in seg]  # a steep line can overflow
        parts.append(
            f'<line x1="{_fmt(seg[0])}" y1="{_fmt(seg[1])}" '
            f'x2="{_fmt(seg[2])}" y2="{_fmt(seg[3])}" {_LINE_STYLE}>'
            f'<title>{name}</title></line>')

    radius = max(_WIDTH, height) * 0.006
    for name in sorted(points):
        x, y = points[name]
        cx, cy = sx(x), sy(y)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                     f'r="{_fmt(radius)}" {_POINT_STYLE}/>')
        parts.append(f'<text x="{_fmt(cx + 2 * radius)}" '
                     f'y="{_fmt(cy - 2 * radius)}" font-size="{_fmt(3 * radius)}" '
                     f'{_TEXT_STYLE}>{name}</text>')

    for label, (anchor, theta) in sorted(draw.angle_labels.items()):
        what = f"angle label {label!r}"
        cx, cy = sx(_finite(what, anchor.x)), sy(_finite(what, anchor.y))
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy + 5 * radius)}" '
                     f'font-size="{_fmt(3 * radius)}" {_TEXT_STYLE}>'
                     f'angle({label}) = {theta}</text>')

    # Ideal points: labeled arrows pinned to the top frame edge.
    for idx, label in enumerate(sorted(set(draw.ideal))):
        x = _WIDTH * (0.15 + 0.2 * idx)
        parts.append(f'<path d="M {_fmt(x)} 24 L {_fmt(x)} 6 '
                     f'M {_fmt(x - 4)} 12 L {_fmt(x)} 6 L {_fmt(x + 4)} 12" '
                     f'stroke="#555555" fill="none" stroke-width="1.5"/>')
        parts.append(f'<text x="{_fmt(x + 6)}" y="18" font-size="12" '
                     f'{_TEXT_STYLE}>{label} (ideal)</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
