"""Euclidean bisector-collinearity export.

This is the single non-exact code path in the package: ordinary Euclidean
bisectors need square roots, so the construction runs on binary64 floats
with normalized residual tolerances instead of exact zeros.  Nothing here
touches the rational kernel.

Construction, for a triangle ABC: take the internal bisectors at A and C
and the external bisector at B.  Their pairwise meets are the incenter
and two excenters; the cevians from the vertices through those meets cut
the opposite sides at H_A, H_B, H_C, while the bisectors themselves cut
the opposite sides at J_A, J_B, J_C.  Then each side, its bisector and the
matching feet chord concur at the J point, and the three J points are
collinear.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import GeneratorExhaustedError

Vec = tuple[float, float]

AREA_FLOOR = 1e-12          # triangles flatter than this are rejected outright
CONDITION_FLOOR = 1e-3      # relative side-length gaps / sines kept above this
MIN_AREA = 1e-6             # random_triangle keeps areas above this
DEFAULT_TOLERANCE = 1e-9
RETRY_LIMIT = 10_000        # draws random_triangle makes before giving up


def _sub(p: Vec, q: Vec) -> Vec:
    return (p[0] - q[0], p[1] - q[1])


def _norm(v: Vec) -> float:
    return math.hypot(v[0], v[1])


def _unit(v: Vec) -> Vec:
    n = _norm(v)
    return (v[0] / n, v[1] / n)


def _cross(u: Vec, v: Vec) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _line_meet(p: Vec, d: Vec, q: Vec, e: Vec) -> Vec:
    """Intersection of p + t d and q + s e."""
    denom = _cross(d, e)
    t = _cross(_sub(q, p), e) / denom
    return (p[0] + t * d[0], p[1] + t * d[1])


def _collinearity_residual(p: Vec, q: Vec, r: Vec) -> float:
    """det3 of three points, normalized by the squared spread so the value
    approximates sliver height over sliver length."""
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    spread = max(_norm(_sub(q, p)), _norm(_sub(r, p)), _norm(_sub(r, q)), 1.0)
    return abs(det) / (spread * spread)


@dataclass
class EuclidReport:
    collinearity_residual: float
    concurrency_residuals: tuple[float, float, float]

    def within(self, tol: float) -> bool:
        return (self.collinearity_residual < tol
                and all(r < tol for r in self.concurrency_residuals))


def euclid_bisector_collinearity(a: Vec, b: Vec, c: Vec) -> EuclidReport:
    """Run the bisector-collinearity construction on one float triangle.

    Raises ValueError for triangles below the degeneracy floor.
    """
    area2 = abs(_cross(_sub(b, a), _sub(c, a)))
    if area2 / 2 < AREA_FLOOR:
        raise ValueError("degenerate triangle")

    ab, ac = _unit(_sub(b, a)), _unit(_sub(c, a))
    ba, bc = _unit(_sub(a, b)), _unit(_sub(c, b))
    ca, cb = _unit(_sub(a, c)), _unit(_sub(b, c))

    int_a = (ab[0] + ac[0], ab[1] + ac[1])
    ext_b = (ba[0] - bc[0], ba[1] - bc[1])
    int_c = (ca[0] + cb[0], ca[1] + cb[1])

    d = _line_meet(b, ext_b, c, int_c)   # excenter opposite C
    e = _line_meet(c, int_c, a, int_a)   # incenter
    f = _line_meet(a, int_a, b, ext_b)   # excenter opposite A

    side_bc = (_sub(c, b))
    side_ca = (_sub(a, c))
    side_ab = (_sub(b, a))

    h_a = _line_meet(a, _sub(d, a), b, side_bc)
    h_b = _line_meet(b, _sub(e, b), c, side_ca)
    h_c = _line_meet(c, _sub(f, c), a, side_ab)

    j_a = _line_meet(a, int_a, b, side_bc)
    j_b = _line_meet(b, ext_b, c, side_ca)
    j_c = _line_meet(c, int_c, a, side_ab)

    coll = _collinearity_residual(j_a, j_b, j_c)
    conc = (
        _collinearity_residual(h_b, h_c, j_a),
        _collinearity_residual(h_c, h_a, j_b),
        _collinearity_residual(h_a, h_b, j_c),
    )
    return EuclidReport(coll, conc)


def _well_conditioned(a: Vec, b: Vec, c: Vec) -> bool:
    """Keep configurations where the float construction stays far from its
    own singularities (tiny angles or the near-isosceles case AB ~ BC that
    sends the external-bisector meets to infinity)."""
    area2 = abs(_cross(_sub(b, a), _sub(c, a)))
    if area2 / 2 <= MIN_AREA:
        return False
    sides = [_norm(_sub(b, a)), _norm(_sub(c, b)), _norm(_sub(a, c))]
    longest = max(sides)
    if min(sides) / longest < CONDITION_FLOOR:
        return False
    if area2 / (longest * longest) < CONDITION_FLOOR:
        return False
    if abs(sides[0] - sides[1]) / longest < CONDITION_FLOOR:
        return False
    return True


def random_triangle(rng: random.Random) -> tuple[Vec, Vec, Vec]:
    for _ in range(RETRY_LIMIT):
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        if _well_conditioned(*pts):
            return tuple(pts)
    raise GeneratorExhaustedError(
        f"no well-conditioned triangle in {RETRY_LIMIT} draws")


def run_euclid_campaign(trials: int, seed: int,
                        tol: float = DEFAULT_TOLERANCE) -> dict:
    """Randomized float campaign; deterministic in the seed."""
    rng = random.Random(seed)
    worst_coll = 0.0
    worst_conc = 0.0
    failures = 0
    for _ in range(trials):
        a, b, c = random_triangle(rng)
        report = euclid_bisector_collinearity(a, b, c)
        worst_coll = max(worst_coll, report.collinearity_residual)
        worst_conc = max(worst_conc, *report.concurrency_residuals)
        if not report.within(tol):
            failures += 1
    return {
        "theorem": "euclid_export",
        "trials": trials,
        "failures": failures,
        "seed": seed,
        "tolerance": tol,
        "max_collinearity_residual": worst_coll,
        "max_concurrency_residual": worst_conc,
    }
