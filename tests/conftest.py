"""Helpers shared by the test modules."""

import functools
import importlib.util
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from dageo.errors import DegenerateConfigurationError, KernelInvariantError
from dageo.gauge import Point
from dageo.harness import CampaignConfig, TheoremReport, run_campaign
from dageo.scalar import rational_sqrt
from dageo.scene import Drawables, Scene, run_scene
from dageo.triangle import DATriangle

WORKLOADS_PATH = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "workloads.py")


@functools.cache
def reference_report(theorem: str) -> TheoremReport:
    """The theorem's report at the reference point (seed 42, 1000 trials,
    bound 50), run once per session and shared by the golden and the
    acceptance tests.  Callers must not mutate it."""
    return run_campaign(CampaignConfig(theorem, 1000, 42, 50))


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_scene_draws() -> list[Drawables]:
    """Freshly built figures of the benchmark's golden scenes (its first
    round of scene ops at the golden seed), whose digests
    ``perfbench/pins.json`` pins: none of their lazily built forms has
    been read yet."""
    wl = _workloads()
    return [run_scene(Scene.from_dict(wl.scene_dict(wl.GOLDEN_SEED, index)),
                      verify=False)[1]
            for index in range(wl.SceneWorkload.round_size)]


#: Rationals of the generators' bound 50, zero, negatives and plain ints
#: among them: every exact primitive reads ``.numerator``/``.denominator``
#: and must give the same reduced value for an ``int`` as for a Fraction.
bounded = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=50))



@st.composite
def bounded_triangles(draw):
    """Triangles with ``bounded`` coordinates."""
    pts = [Point(draw(bounded), draw(bounded)) for _ in range(3)]
    try:
        return DATriangle(*pts)
    except DegenerateConfigurationError:
        assume(False)


def kernel_outcome(call, *args):
    """``call(*args)``'s value, or the type and message of the kernel
    error it raises."""
    try:
        return call(*args)
    except (ValueError, KernelInvariantError) as err:
        return type(err), str(err)


# References: the Fraction chains that the integer-lift root finders
# replaced.

def fraction_chain_other_root(q, known):
    if q.c2 == 0:
        raise ValueError("other_root requires a genuine quadratic")
    residual = (F(q.c2) * known + q.c1) * known + q.c0
    if residual != 0:
        raise ValueError(f"{known} is not a root (residual {residual})")
    return -F(q.c1) / q.c2 - known


def fraction_chain_rational_roots(q):
    if q.c2 == 0:
        raise ValueError("rational_roots requires a genuine quadratic")
    disc = F(q.c1) * q.c1 - 4 * F(q.c2) * q.c0
    if disc < 0:
        return []
    root = rational_sqrt(disc)
    if root is None:
        return None
    lo = (-q.c1 - root) / (2 * F(q.c2))
    hi = (-q.c1 + root) / (2 * F(q.c2))
    return [lo] if lo == hi else sorted([lo, hi])
