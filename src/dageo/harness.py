"""Campaign runner and JSON reports.

A campaign runs one :class:`~dageo.campaigns.Theorem` over seeded trials
in :func:`run_theorem`, the package's one trial loop, and summarizes them
in a :class:`TheoremReport`.  It is deterministic in (seed, trial count,
bound): the same inputs give byte-identical reports.  Every checker is
exact and fails on any nonzero residual.  The registered theorems run
through :func:`run_campaign`; the unregistered Euclidean export
(:mod:`dageo.euclid`) runs through :func:`run_theorem` directly and
reports in the same shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import theorems as th
from .campaigns import REGISTRY, Counterexample, Theorem
from .errors import GeneratorExhaustedError
from .gauge import Line, MeetResult, Point
from .generators import RandomRationals
from .parabola import Parabola
from .scalar import format_ratio, format_scalar
from .triangle import DATriangle


def jsonable(obj):
    """JSON form of a configuration, for counterexample reports.

    A type with no JSON form raises ``TypeError`` rather than turning
    into its ``str``."""
    # The common values first: scalars, points, dicts and primitives.  No
    # class tested after them subclasses dict, str or int; list and tuple
    # stay last because MeetResult is a tuple.
    if isinstance(obj, Fraction):
        return format_scalar(obj)
    if isinstance(obj, Point):
        # Whichever form the point holds: its coordinates as given, or
        # its triple, formatted without building the coordinates.
        if obj._xyz is None:
            return [format_scalar(obj.x), format_scalar(obj.y)]
        X, Y, Z = obj.xyz
        return [format_ratio(X, Z), format_ratio(Y, Z)]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    # Curves and lines are formatted from their stored integers (S > 0,
    # and -b > 0 or a > 0), without building their coefficients.
    if isinstance(obj, Parabola):
        K, B, G, S = obj._lifted
        return {"kappa": format_ratio(K, S), "beta": format_ratio(B, S),
                "gamma": format_ratio(G, S)}
    if isinstance(obj, DATriangle):
        return {"A": jsonable(obj.a), "B": jsonable(obj.b),
                "C": jsonable(obj.c)}
    if isinstance(obj, Line):
        a, b, c = obj.triple
        if not b:
            return {"x0": format_ratio(-c, a)}
        return {"m": format_ratio(a, -b), "k": format_ratio(c, -b)}
    if isinstance(obj, MeetResult):
        out = {"kind": obj.kind}
        if obj.point is not None:
            out["point"] = jsonable(obj.point)
        if obj.direction is not None:
            out["direction"] = format_scalar(obj.direction)
        return out
    if isinstance(obj, th.CompleteQuadrilateral):
        return {"lines": [jsonable(l) for l in (obj.l1, obj.l2, obj.l3, obj.l4)]}
    if isinstance(obj, th.CevianSpec):
        if obj.singular:
            return {"singular": True}
        return {"m": format_scalar(obj.ratio[0]),
                "n": format_scalar(obj.ratio[1]), "base": obj.base}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"no JSON form for {type(obj).__name__}")


@dataclass(frozen=True)
class CampaignConfig:
    theorem: str
    trials: int = 1000
    seed: int = 42
    bound: int = 50

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.bound < 2:
            raise ValueError("bound must be >= 2")
        if self.theorem not in REGISTRY:
            raise ValueError(f"unknown theorem id {self.theorem!r}")


@dataclass
class TheoremReport:
    theorem: str
    trials: int
    failures: int
    skipped: int           # always 0, kept so reports keep their shape
    seed: int
    bound: int
    rejections: int
    kinds: dict = field(default_factory=dict)
    first_counterexample: dict | None = None
    errors: int = 0
    first_error: dict | None = None

    def to_dict(self) -> dict:
        """The report's JSON payload, without its empty optional fields."""
        payload = dict(vars(self))
        for key in ("first_counterexample", "errors", "first_error"):
            if not payload[key]:
                del payload[key]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def generate_config(theorem_id: str, seed: int, trial: int,
                    bound: int = 50) -> dict:
    """Deterministic admissible configuration for (seed, trial)."""
    return REGISTRY[theorem_id].generate(RandomRationals(seed, trial, bound))


def run_theorem(theorem: Theorem, trials: int, seed: int,
                bound: int) -> TheoremReport:
    """Run seeded trials.  A trial passes (its kind counted), fails on a
    ``Counterexample`` or errs on any other exception but exhaustion.
    One stream, reseeded per trial, serves the campaign: trial k draws what
    ``RandomRationals(seed, k, bound)`` draws, as ``generate_config`` does."""
    failures = errors = rejections = 0
    kinds: dict[str, int] = {}
    first = first_error = None
    rng = RandomRationals(seed, 0, bound)
    for trial in range(trials):
        if trial:
            rng.restart(trial)
        config = None
        try:
            config = theorem.generate(rng)
            kind = theorem.check(config)
        except Counterexample as exc:
            failures += 1
            if first is None:
                first = {"trial": trial, "reason": str(exc),
                         "config": jsonable(config)}
        except GeneratorExhaustedError:
            raise
        except Exception as exc:
            errors += 1
            if first_error is None:
                first_error = {"trial": trial, "type": type(exc).__name__,
                               "message": str(exc), "config": jsonable(config)}
        else:
            if kind:
                kinds[kind] = kinds.get(kind, 0) + 1
        rejections += rng.rejections
    return TheoremReport(theorem.id, trials, failures, 0, seed, bound,
                         rejections, dict(sorted(kinds.items())), first,
                         errors, first_error)


def run_campaign(cfg: CampaignConfig) -> TheoremReport:
    return run_theorem(REGISTRY[cfg.theorem], cfg.trials, cfg.seed, cfg.bound)
