"""Scene files: named points, parabolas and triangles, plus constructions
to apply and theorem campaigns to run.

Scene JSON shape::

    {
      "gauge": {"origin": ["0","0"], "reference_direction": ["1","0"],
                "projective_direction": ["0","1"]},        # optional
      "points": {"A": ["0","0"], "B": ["1","1"]},
      "parabolas": {"G": {"kappa": "1", "beta": "0", "gamma": "0"}},
      "triangles": {"T1": ["A", "B", "C"]},
      "construct": ["centers(T1)", "circumparabola(A,B,C)"],
      "verify": ["ptolemy", "dabct"]
    }

Scalars are strings in the kernel text format (``"n"``, ``"p/q"`` or a
finite decimal).  When a gauge is present, all points are normalized into
its chart before any construction runs.  Names must be unique across all
namespaces, and every referenced name must be defined.  Constructions
draw into one figure in call order: a later construction's label replaces
an earlier one's, and ideal points accumulate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .gauge import Gauge, Line, Point, line_through
from .harness import REGISTRY, CampaignConfig, jsonable, run_campaign
from .parabola import Parabola, circumparabola, iso_angle_locus
from .theorems import (CompleteQuadrilateral, MiquelResult,
                       miquel_quadrilateral, miquel_triangle)
from .triangle import DATriangle, VERTICES, bisector_at, centers, dabct, simson
from .scalar import parse_scalar


class SceneError(ValueError):
    """Malformed scene file or dangling reference."""


def _parse_pair(raw, what: str = "point") -> tuple[Fraction, Fraction]:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise SceneError(f"{what} must be a [x, y] pair, got {raw!r}")
    return parse_scalar(raw[0]), parse_scalar(raw[1])


def _parse_parabola(name: str, raw) -> Parabola:
    try:
        return Parabola(parse_scalar(raw["kappa"]), parse_scalar(raw["beta"]),
                        parse_scalar(raw["gamma"]))
    except (KeyError, TypeError) as exc:
        raise SceneError(f"parabola {name!r} needs kappa/beta/gamma") from exc


@dataclass
class Scene:
    points: dict[str, Point] = field(default_factory=dict)
    parabolas: dict[str, Parabola] = field(default_factory=dict)
    triangles: dict[str, DATriangle] = field(default_factory=dict)
    construct: list[str] = field(default_factory=list)
    verify: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        if not isinstance(data, dict):
            raise SceneError("scene must be a JSON object")
        for key in ("points", "parabolas", "triangles"):
            if not isinstance(data.get(key, {}), dict):
                raise SceneError(f"{key!r} must be a JSON object")
        gauge = None
        if "gauge" in data:
            g = data["gauge"]
            try:
                gauge = Gauge(
                    Point(*_parse_pair(g["origin"], "origin")),
                    _parse_pair(g["reference_direction"], "reference_direction"),
                    _parse_pair(g["projective_direction"],
                                "projective_direction"),
                )
            except (KeyError, TypeError) as exc:
                raise SceneError(f"malformed gauge: {g!r}") from exc

        points = {name: Point(*_parse_pair(raw))
                  for name, raw in data.get("points", {}).items()}
        if gauge is not None:
            names = list(points)
            chart = gauge.normalize_chart([points[n] for n in names])
            points = dict(zip(names, chart))

        parabolas = {name: _parse_parabola(name, raw)
                     for name, raw in data.get("parabolas", {}).items()}

        triangles = {}
        for name, labels in data.get("triangles", {}).items():
            if not (isinstance(labels, list) and len(labels) == 3
                    and all(isinstance(lbl, str) for lbl in labels)):
                raise SceneError(f"triangle {name!r} needs 3 point names")
            try:
                pts = [points[lbl] for lbl in labels]
            except KeyError as exc:
                raise SceneError(f"triangle {name!r} references undefined "
                                 f"point {exc.args[0]!r}") from None
            triangles[name] = DATriangle(*pts)

        all_names = list(points) + list(parabolas) + list(triangles)
        if len(all_names) != len(set(all_names)):
            raise SceneError("names must be unique across the scene")

        calls = {key: data.get(key, []) for key in ("construct", "verify")}
        for key, items in calls.items():
            if not (isinstance(items, list)
                    and all(isinstance(i, str) for i in items)):
                raise SceneError(f"{key!r} must be a list of strings")
        unknown = [i for i in calls["verify"] if i not in REGISTRY]
        if unknown:
            raise SceneError(f"unknown theorem ids in 'verify': {unknown}")

        return cls(points, parabolas, triangles,
                   list(calls["construct"]), list(calls["verify"]))


# ---------------------------------------------------------------------------
# Constructions.
# ---------------------------------------------------------------------------

@dataclass
class Drawables:
    """The primitives of one scene's figure."""
    points: dict[str, Point] = field(default_factory=dict)
    lines: dict[str, Line] = field(default_factory=dict)
    parabolas: dict[str, Parabola] = field(default_factory=dict)
    ideal: list[str] = field(default_factory=list)    # labels of ideal points
    angle_labels: dict[str, tuple[Point, Fraction]] = field(default_factory=dict)


_CALL_RE = re.compile(r"^\s*(\w+)\s*\(\s*([^()]*)\s*\)\s*$")
_KINDS = {"point": Point, "triangle": DATriangle, "scalar": Fraction}


def _resolve(scene: Scene, token: str):
    token = token.strip()
    if token in scene.points:
        return scene.points[token]
    if token in scene.parabolas:
        return scene.parabolas[token]
    if token in scene.triangles:
        return scene.triangles[token]
    try:
        return parse_scalar(token)
    except ValueError:
        raise SceneError(f"{token!r} is not a name or an exact scalar") \
            from None


def apply_construction(scene: Scene, call: str, draw: Drawables) -> dict:
    """Evaluate one construction call against the scene's named objects.

    Adds the construction's primitives to ``draw``, replacing any earlier
    primitive of the same label, and returns the JSON-able result payload.
    """
    match = _CALL_RE.match(call)
    if not match:
        raise SceneError(f"malformed construction call {call!r}")
    name, arg_text = match.groups()
    args = [_resolve(scene, tok) for tok in arg_text.split(",")] \
        if arg_text.strip() else []

    def expect(*kinds):
        if len(args) != len(kinds) or \
                not all(isinstance(a, _KINDS[k]) for a, k in zip(args, kinds)):
            raise SceneError(f"{name} expects ({', '.join(kinds)}), "
                             f"got {call!r}")

    def draw_miquel(res: MiquelResult) -> dict:
        draw.parabolas.update(res.curves)
        if res.point.is_finite:
            draw.points["M"] = res.point.point
        else:
            draw.ideal.append("M")
        return {"miquel_point": res.point, "kind": res.kind,
                "memberships": res.memberships}

    if name == "centers":
        expect("triangle")
        t: DATriangle = args[0]
        cs = centers(t)
        for lbl in VERTICES:
            draw.lines[f"bisector_{lbl}"] = bisector_at(t, lbl, "interior")
        draw.points.update(incenter=cs.incenter, excenter_a=cs.excenter_a,
                           excenter_c=cs.excenter_c, centroid=cs.centroid)
        draw.ideal.append("excenter_ideal")
        draw.parabolas["circumparabola"] = t.parabola
        result = cs._asdict()
    elif name == "circumparabola":
        expect("point", "point", "point")
        curve = circumparabola(*args)
        draw.parabolas["circumparabola"] = curve
        for lbl, pt in zip(("P1", "P2", "P3"), args):
            draw.points[lbl] = pt
        result = {"parabola": curve}
    elif name == "iso_angle_locus":
        expect("point", "point", "scalar")
        curve = iso_angle_locus(*args)
        draw.parabolas["locus"] = curve
        result = {"parabola": curve}
    elif name == "interior_angles":
        expect("triangle")
        t = args[0]
        angles = t.interior_angles()
        for lbl, theta in zip(VERTICES, angles):
            draw.angle_labels[lbl] = (t.vertex(lbl), theta)
        result = {"angles": dict(zip(VERTICES, angles))}
    elif name == "simson":
        expect("triangle", "scalar")
        t, m = args
        res = simson(t, m)
        for lbl in VERTICES:
            draw.points[f"K_{lbl}"] = res.chord_points[lbl]
            draw.points[f"H_{lbl}"] = res.feet[lbl]
        draw.lines["simson_line"] = res.line
        draw.parabolas["circumparabola"] = t.parabola
        result = {"chord_points": res.chord_points, "feet": res.feet,
                  "line": res.line}
    elif name == "dabct":
        expect("triangle")
        t = args[0]
        res = dabct(t)
        for lbl in VERTICES:
            draw.points[f"L_{lbl}"] = res.l_points[lbl]
            draw.lines[f"bisector_{lbl}"] = bisector_at(t, lbl, "positive")
        result = {"l_points": res.l_points, "feet": res.feet,
                  "det_residual": res.det_residual}
    elif name == "miquel_triangle":
        expect("triangle", "point", "point", "point")
        result = draw_miquel(miquel_triangle(*args))
    elif name == "miquel_quadrilateral":
        expect("point", "point", "point", "point")
        a, b, c, d = args
        quad = CompleteQuadrilateral(
            *(line_through(p, q)
              for p, q in ((a, b), (b, c), (c, d), (d, a))))
        draw.points.update(quad.points())
        result = draw_miquel(miquel_quadrilateral(quad))
    else:
        raise SceneError(f"unknown construction {name!r}")

    return {"construction": call.strip(), "result": jsonable(result)}


def run_scene(scene: Scene, trials: int = 100, seed: int = 42,
              verify: bool = True) -> tuple[dict, Drawables]:
    """Apply every construction and run every requested theorem campaign.

    Returns the result document plus the scene's one figure: the scene's
    points and parabolas, then each construction's primitives drawn over
    them in call order.  ``verify=False`` skips the campaigns (used when
    only a figure is wanted).
    """
    draw = Drawables(points=dict(scene.points),
                     parabolas=dict(scene.parabolas))
    constructions = [apply_construction(scene, call, draw)
                     for call in scene.construct]

    reports = []
    for theorem_id in scene.verify if verify else ():
        cfg = CampaignConfig(theorem_id, trials=trials, seed=seed)
        reports.append(run_campaign(cfg).to_dict())

    document = {
        "points": {n: jsonable(p) for n, p in scene.points.items()},
        "constructions": constructions,
        "verified": reports,
    }
    return document, draw
