"""Deterministic SVG figures for scenes and construction output.

Rendering is presentation only: parabola arcs are drawn as cubic Bezier
segments (the exact quadratic Bezier of the arc, degree-elevated), points
as labeled dots, lines clipped to the frame, and ideal points as labeled
arrows on the frame edge.  The viewBox is computed from the finite content
with a 10% margin; identical input always yields identical bytes.

Every coordinate and coefficient is drawn as the binary64 quotient of the
integers the kernel stores (a point's triple, a line's triple, a curve's
quadruple): int true division is correctly rounded, so an unreduced pair
gives the float of the reduced ``Fraction``, and no ``Fraction`` is built.
Each curve's three quotients are taken once and serve the frame and the
arc alike.

Each drawn number is mapped to pixels and formatted once, by ``%.6g`` in
the element templates below.  The frame's edges, an arc's four abscissae
(the same for every curve) and the radius are formatted once per figure.

A figure that binary64 cannot draw raises ``ValueError`` naming the
object, or the frame.  Int true division never returns inf or nan: it
gives a finite float or raises ``OverflowError``, so a stored pair needs
only that guard.  ``isfinite`` is tested on the float-derived values that
can overflow: a curve's vertex and its height there, a curve's height at
the frame's ends, the frame's span, scale and height, and a sloped line's
ends.  A singular line's ends lie in the frame.  A point lies in the
frame too, but an angle label's anchor and an arc's control points need
not, and they are written as computed.
"""

from __future__ import annotations

from math import inf, isfinite

from .scene import Drawables

_WIDTH = 640  # pixels; the height follows the content's aspect ratio
_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
         f'height="%s" viewBox="0 0 {_WIDTH} %s">\n'
         '<rect width="100%%" height="100%%" fill="white"/>')
_CURVE = ('<path d="M %s %.6g C %s %.6g %s %.6g %s %.6g" stroke="#4d9221" '
          'stroke-width="0.7%%" fill="none"><title>%s</title></path>')
_LINE = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#2166ac" '
         'stroke-width="0.7%%" fill="none"><title>%s</title></line>')
_TEXT = 'font-family="monospace"'
_POINT = (f'<circle cx="%.6g" cy="%.6g" %s fill="#b2182b"/>\n'
          f'<text x="%.6g" y="%.6g" %s {_TEXT}>%s</text>')
_ANGLE = f'<text x="%.6g" y="%.6g" %s {_TEXT}>angle(%s) = %s</text>'
_IDEAL = ('<path d="M %s 24 L %s 6 M %.6g 12 L %s 6 L %.6g 12" '
          'stroke="#555555" fill="none" stroke-width="1.5"/>\n'
          f'<text x="%.6g" y="18" font-size="12" {_TEXT}>%s (ideal)</text>')


class EmptySceneError(ValueError):
    pass


def _out_of_range(what: str) -> ValueError:
    return ValueError(f"{what} is out of the float range used for drawing")


def render_svg(draw: Drawables) -> str:
    """Render drawables into a standalone SVG document string.

    A figure that binary64 cannot draw raises ``ValueError`` naming the
    object out of range, or the frame.
    """
    # Each curve as (name, kappa, beta, gamma, vertex x, vertex y).
    curves = []
    for name in sorted(draw.parabolas):
        K, B, G, S = draw.parabolas[name]._lifted
        try:
            k, b, g = K / S, B / S, G / S
        except OverflowError:
            raise _out_of_range(f"parabola {name!r}") from None
        # A kappa that rounds to 0 sends the vertex to infinity.
        vx = -b / (2 * k) if k else inf
        vy = (k * vx + b) * vx + g
        if not (isfinite(vx) and isfinite(vy)):
            raise _out_of_range(f"parabola {name!r}")
        curves.append((name, k, b, g, vx, vy))

    points = {}
    try:
        for name, point in draw.points.items():
            X, Y, Z = point.xyz
            points[name] = X / Z, Y / Z
    except OverflowError:
        raise _out_of_range(f"point {name!r}") from None

    # The frame: the points and the singular lines' abscissae or, with
    # neither, one unit either side of each vertex; then a 10% margin.
    xs = [x for x, _ in points.values()]
    ys = [y for _, y in points.values()]
    singular = {}
    try:
        for name, line in draw.lines.items():
            a, b, c = line.triple
            if not b:
                singular[name] = x = -c / a
                xs.append(x)
    except OverflowError:
        raise _out_of_range(f"line {name!r}") from None
    if not xs:
        for _, _, _, _, vx, vy in curves:
            xs += [vx - 1, vx + 1]
            ys.append(vy)
    if not xs:
        raise EmptySceneError("nothing drawable in the scene")
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = (min(ys), max(ys)) if ys else (0.0, 0.0)
    margin_x = 0.1 * max(hi_x - lo_x, 1.0)
    margin_y = 0.1 * max(hi_y - lo_y, 1.0)
    x_lo, x_hi = lo_x - margin_x, hi_x + margin_x
    y_lo, y_hi = lo_y - margin_y, hi_y + margin_y

    # Grow the vertical range so parabola arcs stay in frame.
    ends = []
    for name, k, b, g, vx, vy in curves:
        y0 = (k * x_lo + b) * x_lo + g
        y_lo, y_hi = min(y_lo, y0), max(y_hi, y0)
        y1 = (k * x_hi + b) * x_hi + g
        if not (isfinite(y0) and isfinite(y1)):
            raise _out_of_range(f"parabola {name!r}")
        y_lo, y_hi = min(y_lo, y1), max(y_hi, y1)
        if x_lo <= vx <= x_hi:
            y_lo, y_hi = min(y_lo, vy), max(y_hi, vy)
        ends.append((y0, y1))

    # The frame needs a finite, nonzero width (rounding can collapse a
    # frame far from the origin to zero width) and a finite height.
    span_x = x_hi - x_lo
    scale = _WIDTH / span_x if span_x else inf
    height = max((y_hi - y_lo) * scale, 64.0)
    if not (isfinite(span_x) and isfinite(scale) and isfinite(height)):
        raise _out_of_range("the frame")

    # Pixels are (x - x_lo) * scale across and (y_hi - y) * scale down.
    left, right = "%.6g" % ((x_lo - x_lo) * scale), "%.6g" % (span_x * scale)
    top, bottom = "%.6g" % ((y_hi - y_hi) * scale), "%.6g" % (
        (y_hi - y_lo) * scale)
    h = "%.6g" % height
    parts = [_HEAD % (h, h)]

    if curves:
        # The arc over the frame is the quadratic Bezier whose control
        # point is the tangents' meet at the middle abscissa, elevated to
        # a cubic: control points at x_lo, x_lo + 2(xm - x_lo)/3,
        # x_hi + 2(xm - x_hi)/3 and x_hi.  Rounding to 6 digits in chart
        # coordinates before the pixel map is part of the figure's bytes.
        xm = (x_lo + x_hi) / 2
        x0, x1, x2, x3 = ["%.6g" % ((float("%.6g" % x) - x_lo) * scale)
                          for x in (x_lo, x_lo + 2 * (xm - x_lo) / 3,
                                    x_hi + 2 * (xm - x_hi) / 3, x_hi)]
        for (name, k, b, _, _, _), (y0, y3) in zip(curves, ends):
            ym = y0 + (2 * k * x_lo + b) * (xm - x_lo)
            y1, y2 = y0 + 2 * (ym - y0) / 3, y3 + 2 * (ym - y3) / 3
            parts.append(_CURVE % (
                x0, (y_hi - float("%.6g" % y0)) * scale,
                x1, (y_hi - float("%.6g" % y1)) * scale,
                x2, (y_hi - float("%.6g" % y2)) * scale,
                x3, (y_hi - float("%.6g" % y3)) * scale, name))

    for name in sorted(draw.lines):
        if name in singular:
            x = "%.6g" % ((singular[name] - x_lo) * scale)
            parts.append(_LINE % (x, bottom, x, top, name))
            continue
        a, b, c = draw.lines[name].triple
        try:
            m, k = a / -b, c / -b
        except OverflowError:
            raise _out_of_range(f"line {name!r}") from None
        y0 = (y_hi - (m * x_lo + k)) * scale
        y1 = (y_hi - (m * x_hi + k)) * scale
        if not (isfinite(y0) and isfinite(y1)):  # a steep line overflows
            raise _out_of_range(f"line {name!r}")
        parts.append(_LINE % (left, "%.6g" % y0, right, "%.6g" % y1, name))

    radius = max(_WIDTH, height) * 0.006
    r, font = 'r="%.6g"' % radius, 'font-size="%.6g"' % (3 * radius)
    offset = 2 * radius
    for name in sorted(points):
        x, y = points[name]
        cx, cy = (x - x_lo) * scale, (y_hi - y) * scale
        parts.append(_POINT % (cx, cy, r, cx + offset, cy - offset, font,
                               name))

    below = 5 * radius
    for label, (anchor, theta) in sorted(draw.angle_labels.items()):
        X, Y, Z = anchor.xyz
        try:
            x, y = X / Z, Y / Z
        except OverflowError:
            raise _out_of_range(f"angle label {label!r}") from None
        parts.append(_ANGLE % ((x - x_lo) * scale,
                               (y_hi - y) * scale + below, font, label,
                               theta))

    # Ideal points: labeled arrows pinned to the top frame edge.
    for idx, label in enumerate(sorted(set(draw.ideal))):
        x = _WIDTH * (0.15 + 0.2 * idx)
        at = "%.6g" % x
        parts.append(_IDEAL % (at, at, x - 4, at, x + 4, x + 6, label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
