"""Deterministic SVG figures for scenes and construction output.

Rendering is presentation only: parabola arcs are drawn as cubic Bezier
segments (the exact quadratic Bezier of the arc, degree-elevated), points
as labeled dots, lines clipped to the frame, and ideal points as labeled
arrows on the frame edge.  The viewBox is computed from the finite content
with a 10% margin; identical input always yields identical bytes.
"""

from __future__ import annotations

from collections.abc import Callable
from math import isfinite

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


def _bounds(draw: Drawables) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for p in draw.points.values():
        xs.append(float(p.x))
        ys.append(float(p.y))
    for line in draw.lines.values():
        if line.is_singular:
            xs.append(float(line.x0))
    if not xs:
        # Only curves: frame one unit either side of each vertex.
        for curve in draw.parabolas.values():
            vx = _vertex_x(curve)
            xs += [vx - 1, vx + 1]
            ys.append(_float_y(curve)(vx))
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


def _float_y(curve: Parabola) -> Callable[[float], float]:
    """The curve's y as a binary64 function of x, for drawing only."""
    k, b, g = float(curve.kappa), float(curve.beta), float(curve.gamma)
    return lambda x: (k * x + b) * x + g


def _vertex_x(curve: Parabola) -> float:
    return -float(curve.beta) / (2 * float(curve.kappa))


def _check_drawable(name: str, curve: Parabola) -> None:
    """Refuse a curve that binary64 cannot draw: a coefficient too large
    for a float, a kappa that rounds to 0, or a vertex out of range."""
    try:
        vx = _vertex_x(curve)
        finite = isfinite(vx) and isfinite(_float_y(curve)(vx))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise _out_of_range(name)


def _out_of_range(name: str) -> ValueError:
    return ValueError(f"parabola {name!r} is out of the float range used "
                      "for drawing")


def _parabola_arc(curve: Parabola, x_lo: float,
                  x_hi: float) -> list[tuple[float, float]]:
    """The four cubic Bezier control points of the arc over [x_lo, x_hi].

    The arc of a quadratic over an interval is exactly the quadratic
    Bezier whose control point is the tangent intersection at the interval
    midpoint abscissa; elevating to a cubic keeps renderers happy.
    """
    y = _float_y(curve)
    p0 = (x_lo, y(x_lo))
    p2 = (x_hi, y(x_hi))
    xm = (x_lo + x_hi) / 2
    slope = 2 * float(curve.kappa) * x_lo + float(curve.beta)
    ctrl = (xm, p0[1] + slope * (xm - x_lo))
    c1 = (p0[0] + 2 * (ctrl[0] - p0[0]) / 3, p0[1] + 2 * (ctrl[1] - p0[1]) / 3)
    c2 = (p2[0] + 2 * (ctrl[0] - p2[0]) / 3, p2[1] + 2 * (ctrl[1] - p2[1]) / 3)
    return [p0, c1, c2, p2]


def render_svg(draw: Drawables) -> str:
    """Render drawables into a standalone SVG document string.

    A curve that binary64 cannot draw raises ``ValueError`` naming it.
    """
    for name in sorted(draw.parabolas):
        _check_drawable(name, draw.parabolas[name])
    x_lo, x_hi, y_lo, y_hi = _bounds(draw)

    # Grow the vertical range so parabola arcs stay in frame.
    for name, curve in draw.parabolas.items():
        y = _float_y(curve)
        for x in (x_lo, x_hi, _vertex_x(curve)):
            if x_lo <= x <= x_hi:
                yv = y(x)
                if not isfinite(yv):
                    raise _out_of_range(name)
                y_lo, y_hi = min(y_lo, yv), max(y_hi, yv)

    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    scale = _WIDTH / span_x
    height = max(span_y * scale, 64.0)

    def sx(x: float) -> float:
        return (x - x_lo) * scale

    def sy(y: float) -> float:
        return (y_hi - y) * scale  # flip: SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_WIDTH} {_fmt(height)}">'
    ]
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for name in sorted(draw.parabolas):
        # Rounding to 6 digits in chart coordinates before the pixel map
        # is part of the figure's bytes; keep it.
        arc = _parabola_arc(draw.parabolas[name], x_lo, x_hi)
        p0, *rest = [f"{_fmt(sx(float(_fmt(x))))} {_fmt(sy(float(_fmt(y))))}"
                     for x, y in arc]
        parts.append(f'<path d="M {p0} C {" ".join(rest)}" {_CURVE_STYLE}>'
                     f'<title>{name}</title></path>')

    for name in sorted(draw.lines):
        line = draw.lines[name]
        if line.is_singular:
            x = float(line.x0)
            seg = (sx(x), sy(y_lo), sx(x), sy(y_hi))
        else:
            m, k = float(line.m), float(line.k)
            seg = (sx(x_lo), sy(m * x_lo + k), sx(x_hi), sy(m * x_hi + k))
        parts.append(
            f'<line x1="{_fmt(seg[0])}" y1="{_fmt(seg[1])}" '
            f'x2="{_fmt(seg[2])}" y2="{_fmt(seg[3])}" {_LINE_STYLE}>'
            f'<title>{name}</title></line>')

    radius = max(_WIDTH, height) * 0.006
    for name in sorted(draw.points):
        p = draw.points[name]
        cx, cy = sx(float(p.x)), sy(float(p.y))
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                     f'r="{_fmt(radius)}" {_POINT_STYLE}/>')
        parts.append(f'<text x="{_fmt(cx + 2 * radius)}" '
                     f'y="{_fmt(cy - 2 * radius)}" font-size="{_fmt(3 * radius)}" '
                     f'{_TEXT_STYLE}>{name}</text>')

    for label, (anchor, theta) in sorted(draw.angle_labels.items()):
        cx, cy = sx(float(anchor.x)), sy(float(anchor.y))
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
