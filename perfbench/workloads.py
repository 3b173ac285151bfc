"""Workload definitions: seeded inputs, the timed op, and the output check.

Every workload is a sequence of ops indexed 0, 1, 2, ... and derived only
from the workload seed.  An op calls the program through its public entry
points and returns the text it produced; the workload's ``check`` then
decides, from that text alone, whether the program answered correctly.

The first round of ops of the ``GOLDEN_SEED`` sequence is the golden set:
their sha256 digests are pinned in ``pins.json`` and every run re-checks
them during warm-up.  Timed ops start after that first round of the
requested seed's sequence, so no timed input is ever a warm-up input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import xml.etree.ElementTree as ET
from contextlib import nullcontext
from fractions import Fraction

import dageo
from dageo.errors import DegenerateConfigurationError
from dageo.harness import CampaignConfig, run_campaign
from dageo.scene import Scene, run_scene
from dageo.svg import render_svg

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

GOLDEN_SEED = 42
BOUND = 50
#: Trials per campaign op, per theorem: about 6 ms of work (at least 3
#: trials) at the commit that introduced the benchmark, from the per-trial
#: cost of 40 chunks of each theorem on a 2-vCPU Xeon VM.  With ops of
#: about equal cost the latency percentiles describe inputs and program,
#: not where the 90th percentile falls between two theorems' costs; short
#: ops also let the host probes around each op tell quiet from contended.
#: Theorems whose configurations build ``DATriangle``:
TRIANGLE_THEOREMS = {
    "triangle_invariants": 6, "bisector_centers": 4, "arc_symmetry": 4,
    "miquel_triangle": 3, "ceva": 4, "menelaus": 5, "simson": 4,
    "midpoint_lemma": 8, "dabct": 5, "isogonal": 6,
    "equivalence_chain": 5, "shift_group": 3, "final_collinearity": 4,
    "diag_section": 3, "intro_observation": 7,
}
#: The other registered theorems: no trial builds a ``DATriangle``.
CURVE_THEOREMS = {
    "angle_axioms": 8, "parabolic_power": 21, "iso_angle_locus": 13,
    "ptolemy": 43, "ptolemy_broken": 55, "brahmagupta": 32,
    "trapezoid": 5, "intersecting_parabolas": 7, "inscribed_angle": 22,
    "miquel_quadrilateral": 3, "mn_division": 20,
}
ALL_THEOREMS = (*TRIANGLE_THEOREMS, *CURVE_THEOREMS)
#: Registered mutation control: every campaign of it must fail.
MUTANT = "ptolemy_broken"


def _derive(*parts) -> int:
    """Stable 32-bit integer from the given parts."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def dageo_file() -> str:
    """Where the program under test was imported from."""
    return os.path.abspath(dageo.__file__)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_NO_SPAN = nullcontext()


def no_span(name: str):
    """Span factory of the untraced run: records nothing."""
    return _NO_SPAN


# ---------------------------------------------------------------------------
# Campaign workloads.
# ---------------------------------------------------------------------------

class CampaignWorkload:
    """One op = one ``run_campaign`` chunk plus ``to_json()``."""

    kind = "campaign"

    def __init__(self, name: str, theorems: dict[str, int]):
        self.name = name
        #: theorem id -> trials per op, in round order
        self.theorems = theorems
        #: Ops per round: one chunk of every theorem.
        self.round_size = len(theorems)

    def op_input(self, seed: int, index: int) -> tuple[str, int]:
        theorem = list(self.theorems)[index % len(self.theorems)]
        return theorem, _derive(self.name, seed, index)

    def label(self, op_input) -> str:
        return op_input[0]

    def run_op(self, op_input, span=no_span) -> str:
        theorem, op_seed = op_input
        cfg = CampaignConfig(theorem, trials=self.theorems[theorem],
                             seed=op_seed, bound=BOUND)
        with span("harness.run_campaign"):
            report = run_campaign(cfg)
        with span("harness.to_json"):
            return report.to_json()

    def check(self, op_input, text: str) -> str | None:
        """None when the report is right, else the reason it is not."""
        theorem, op_seed = op_input
        try:
            report = json.loads(text)
        except ValueError:
            return "report is not JSON"
        if not isinstance(report, dict):
            return "report is not a JSON object"
        trials = self.theorems[theorem]
        expected = {"theorem": theorem, "trials": trials, "seed": op_seed,
                    "bound": BOUND}
        for key, value in expected.items():
            if report.get(key) != value:
                return f"report {key} is {report.get(key)!r}, not {value!r}"
        failures = report.get("failures")
        if not isinstance(failures, int) or not 0 <= failures <= trials:
            return f"bad failure count {failures!r}"
        if theorem == MUTANT:
            counterexample = report.get("first_counterexample")
            if failures == 0 or not isinstance(counterexample, dict):
                return "mutation control was not caught"
            if not {"trial", "reason", "config"} <= set(counterexample):
                return "counterexample lacks trial/reason/config"
        elif failures != 0 or "first_counterexample" in report:
            return f"{failures} failures on a sound theorem"
        return None

    def trials(self, text: str) -> int:
        return json.loads(text)["trials"]

    def rejections(self, text: str) -> int:
        return json.loads(text)["rejections"]


# ---------------------------------------------------------------------------
# Scene documents.
# ---------------------------------------------------------------------------

def _scalar_text(value: Fraction, rng: random.Random) -> str:
    """Kernel text format; a finite decimal when exact and the coin says
    so, so that ``parse_scalar``'s decimal path is exercised too."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1 and value.denominator > 1 and rng.random() < 0.5:
        places = max(twos, fives)
        scaled = abs(value.numerator) * 10 ** places // value.denominator
        digits = str(scaled).rjust(places + 1, "0")
        sign = "-" if value < 0 else ""
        return f"{sign}{digits[:-places]}.{digits[-places:]}"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _det(p, q, r) -> Fraction:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, t: Fraction):
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def scene_dict(seed: int, index: int) -> dict:
    """A scene that uses all eight constructions once.

    Inputs are screened only for the structural conditions the scene
    format states (distinct abscissae, non-collinear triangles, no equal
    side norms for ``dabct``); anything finer is left to the kernel.  Odd
    draws are written in a random affine chart with the matching
    ``gauge`` entry, so ``normalize_chart`` maps them back.
    """
    rng = random.Random(_derive("scene", seed, index))

    def q(lo=-30, hi=30, den=8) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    def point():
        return (q(), q())

    def free_triangle():
        while True:
            a, b, c = point(), point(), point()
            xs = {a[0], b[0], c[0]}
            norms = {abs(a[0] - b[0]), abs(b[0] - c[0]), abs(c[0] - a[0])}
            if len(xs) == 3 and len(norms) == 3 and _det(a, b, c) != 0:
                return a, b, c

    a, b, c = free_triangle()
    ts = [Fraction(rng.randint(1, 8), 9) for _ in range(3)]
    d, e, f = (_on_segment(b, c, ts[0]), _on_segment(c, a, ts[1]),
               _on_segment(a, b, ts[2]))
    r1, r2, r3 = free_triangle()
    while True:
        quad = [point() for _ in range(4)]
        if all(quad[i][0] != quad[(i + 1) % 4][0] for i in range(4)):
            break
    u = q()
    v = u
    while v == u:
        v = q()
    theta = Fraction(0)
    while theta == 0:
        theta = q(-9, 9, 4)
    slope = q(-9, 9, 4)
    kappa = Fraction(0)
    while kappa == 0:
        kappa = q(-5, 5, 4)

    chart = {"A": a, "B": b, "C": c, "D": d, "E": e, "F": f,
             "R1": r1, "R2": r2, "R3": r3,
             "Q1": quad[0], "Q2": quad[1], "Q3": quad[2], "Q4": quad[3],
             "U": (u, Fraction(0)), "V": (v, Fraction(0))}

    scene: dict = {}
    if index % 2:
        while True:
            ref, proj = (q(-4, 4, 3), q(-4, 4, 3)), (q(-4, 4, 3), q(-4, 4, 3))
            if ref[0] * proj[1] - ref[1] * proj[0] != 0:
                break
        origin = point()
        scene["gauge"] = {
            "origin": [_scalar_text(x, rng) for x in origin],
            "reference_direction": [_scalar_text(x, rng) for x in ref],
            "projective_direction": [_scalar_text(x, rng) for x in proj],
        }
        world = {name: (origin[0] + x * ref[0] + y * proj[0],
                        origin[1] + x * ref[1] + y * proj[1])
                 for name, (x, y) in chart.items()}
    else:
        world = chart
    scene["points"] = {name: [_scalar_text(x, rng), _scalar_text(y, rng)]
                       for name, (x, y) in world.items()}
    scene["parabolas"] = {"G": {"kappa": _scalar_text(kappa, rng),
                                "beta": _scalar_text(q(), rng),
                                "gamma": _scalar_text(q(), rng)}}
    scene["triangles"] = {"T": ["A", "B", "C"]}
    scene["construct"] = [
        "centers(T)",
        "circumparabola(R1,R2,R3)",
        f"iso_angle_locus(U,V,{_scalar_text(theta, rng)})",
        "interior_angles(T)",
        f"simson(T,{_scalar_text(slope, rng)})",
        "dabct(T)",
        "miquel_triangle(T,D,E,F)",
        "miquel_quadrilateral(Q1,Q2,Q3,Q4)",
    ]
    return scene


class SceneWorkload:
    """One op = parse a scene text, build it, run its constructions and
    render the document JSON and the SVG figure."""

    kind = "scene"
    name = "scene_documents"
    theorems = ()
    round_size = 8

    def op_input(self, seed: int, index: int) -> str:
        return json.dumps(scene_dict(seed, index))

    def label(self, op_input) -> str:
        return "scene"

    def run_op(self, op_input, span=no_span) -> str:
        data = json.loads(op_input)
        with span("scene.from_dict"):
            scene = Scene.from_dict(data)
        with span("scene.run_scene"):
            document, draw = run_scene(scene, verify=False)
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
        with span("svg.render_svg"):
            return text + render_svg(draw)

    def check(self, op_input, text: str) -> str | None:
        """None when document and figure are right, else the reason."""
        head, sep, svg = text.partition("}\n<svg")
        if not sep:
            return "output is not a document followed by an SVG"
        try:
            document = json.loads(head + "}")
            root = ET.fromstring("<svg" + svg)
            return self._check(json.loads(op_input), document, root)
        except (ValueError, ET.ParseError, KeyError, TypeError,
                AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    @staticmethod
    def _check(scene: dict, document: dict, root) -> str | None:
        if set(document.get("points", {})) != set(scene["points"]):
            return "document points differ from the scene's"
        if document.get("verified") != []:
            return "campaigns ran although verify=False"
        constructions = document.get("constructions", [])
        calls = [c.get("construction") for c in constructions]
        if calls != scene["construct"]:
            return "constructions missing or out of order"
        results = {call.split("(")[0]: c["result"]
                   for call, c in zip(calls, constructions)}
        angles = results["interior_angles"]["angles"]
        if sum(Fraction(v) for v in angles.values()) != 0:
            return "interior angles do not sum to 0"
        if sum(1 for v in angles.values() if Fraction(v) < 0) != 1:
            return "not exactly one negative interior angle"
        if results["dabct"]["det_residual"] != "0":
            return "dabct collinearity residual nonzero"
        for name in ("miquel_triangle", "miquel_quadrilateral"):
            if any(v != "0" for v in results[name]["memberships"].values()):
                return f"{name} membership residual nonzero"
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            return "figure root is not <svg>"
        if not root.findall("{http://www.w3.org/2000/svg}circle"):
            return "figure has no points"
        return None

    def trials(self, text: str) -> int:
        return 0

    def rejections(self, text: str) -> int:
        return 0


WORKLOADS = {
    "triangle_campaigns": CampaignWorkload("triangle_campaigns",
                                           TRIANGLE_THEOREMS),
    "curve_campaigns": CampaignWorkload("curve_campaigns", CURVE_THEOREMS),
    "scene_documents": SceneWorkload(),
}

class Dropped(Exception):
    """The kernel rejected a generated input as degenerate."""


def execute(workload, op_input, span=no_span) -> str:
    """Run one op; a degenerate generated scene becomes ``Dropped``."""
    if workload.kind == "scene":
        try:
            return workload.run_op(op_input, span)
        except DegenerateConfigurationError as exc:
            raise Dropped(str(exc)) from None
    return workload.run_op(op_input, span)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_outputs(workload) -> list[str]:
    """Digest of every golden op, or ``dropped`` for a degenerate scene."""
    out = []
    for index in range(workload.round_size):
        try:
            out.append(sha256(execute(workload,
                                      workload.op_input(GOLDEN_SEED, index))))
        except Dropped:
            out.append("dropped")
    return out
