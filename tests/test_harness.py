import ast
import cProfile
import dataclasses
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import dageo
from conftest import bounded, golden_scene_draws
from dageo.cli import main
from dageo.errors import (DegenerateConfigurationError,
                          GeneratorExhaustedError, KernelInvariantError)
from dageo.campaigns import Counterexample
from dageo.gauge import (Gauge, Line, MeetResult, Point, _point,
                         line_through, meet, midpoint, normalize_chart)
from dageo.generators import RETRY_LIMIT, RandomRationals, trial_seed
from dageo import harness
from dageo.euclid import EUCLID_EXPORT
from dageo.harness import (REGISTRY, CampaignConfig, generate_config,
                           jsonable, run_campaign, run_theorem)
from dageo.parabola import Parabola, circumparabola, iso_angle_locus
from dageo.scene import (Drawables, Scene, SceneError, apply_construction,
                         run_scene)
from dageo.scalar import collinear, format_scalar, parse_scalar
from dageo.svg import (EmptySceneError, _bounds, _finite, _float_curve,
                       _parabola_arc, _point_floats, _quotient, render_svg)
from dageo.triangle import DATriangle, bisector_at, centers


def _raise(error):
    def make():
        raise error("raised inside make")
    return make


def _forced_failure(config):
    raise Counterexample("forced")


def _kernel_bug(config):
    if config["xs"][1] > 0:
        raise ValueError("kernel bug")


def _replace_theorem(monkeypatch, theorem, **fields):
    monkeypatch.setitem(REGISTRY, theorem,
                        dataclasses.replace(REGISTRY[theorem], **fields))


class _FractionDraws(RandomRationals):
    """The draws as built before the integer lift and the direct
    ``getrandbits`` draw: every integer from ``random.Random.randint``,
    every draw a Fraction, repeats found by Fraction hashing, the result
    sorted as Fractions."""

    def rational(self):
        n = self.rng.randint(-self.bound, self.bound)
        d = self.rng.randint(1, self.bound)
        return F(n, d)

    def nonzero_rational(self):
        return self.retrying(self.rational, lambda v: v != 0)

    def positive_rational(self):
        return F(self.rng.randint(1, self.bound),
                 self.rng.randint(1, self.bound))

    def fraction_in_unit_interval(self):
        d = self.rng.randint(2, max(3, self.bound))
        return F(self.rng.randint(1, d - 1), d)

    def small_positive_int(self):
        return self.rng.randint(1, 9)

    def distinct_rationals(self, count):
        seen = set()
        for _ in range(count):
            seen.add(self.retrying(self.rational, lambda v: v not in seen))
        return sorted(seen)

    def point_on_side(self, u, w):
        lam = self.fraction_in_unit_interval()
        return Point(u.x + lam * (w.x - u.x), u.y + lam * (w.y - u.y))

    # The compound helpers, written out so that the reference inherits no
    # draw from the code under test.

    def retrying(self, make, ok=lambda value: True):
        for _ in range(RETRY_LIMIT):
            try:
                value = make()
            except DegenerateConfigurationError:
                value = None
            if value is not None and ok(value):
                return value
            self.rejections += 1
        raise GeneratorExhaustedError("retry limit exceeded")

    def point(self):
        return Point(self.rational(), self.rational())

    def parabola(self):
        return Parabola(self.nonzero_rational(), self.rational(),
                        self.rational())

    def triangle(self):
        curve = self.parabola()
        return DATriangle(*(curve.point_at(x)
                            for x in self.distinct_rationals(3)))

    def free_triangle(self):
        def make():
            a, b, c = pts = [self.point() for _ in range(3)]
            if len({p.x for p in pts}) < 3:
                return None
            if ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) == 0:
                return None
            return DATriangle(*pts)
        return self.retrying(make)

    def cevian_feet(self, t):
        return tuple(self.point_on_side(u, w)
                     for u, w in ((t.b, t.c), (t.c, t.a), (t.a, t.b)))


def _scalars(value):
    """Every rational a drawn value carries, in a fixed order."""
    if isinstance(value, (tuple, list)):
        return [s for v in value for s in _scalars(v)]
    if isinstance(value, Point):
        return [value.x, value.y]
    if isinstance(value, Parabola):
        return [value.kappa, value.beta, value.gamma]
    if isinstance(value, DATriangle):
        return _scalars((value.a, value.b, value.c, value.parabola))
    return [value]


def _retried_draw(rng):
    # All three kinds of rejection: a raised degeneracy, a None and a
    # value that ok refuses.
    def make():
        v = rng.rational()
        if v == 0:
            raise DegenerateConfigurationError("zero")
        return None if v < 0 else v
    return rng.retrying(make, lambda v: v.denominator % 2 == 1)


#: One call of each compound draw helper; the scalar helpers are covered
#: by ``test_draw_stream_matches_fraction_draws``.
HELPER_DRAWS = {
    "point": lambda rng: rng.point(),
    "parabola": lambda rng: rng.parabola(),
    "triangle": lambda rng: rng.triangle(),
    "free_triangle": lambda rng: rng.free_triangle(),
    "point_on_side": lambda rng: rng.point_on_side(rng.point(), rng.point()),
    "cevian_feet": lambda rng: rng.cevian_feet(rng.triangle()),
    "retrying": _retried_draw,
}


class TestSeeding:
    def test_trial_seed_stable(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)
        assert trial_seed(42, 0) != trial_seed(42, 1)
        assert trial_seed(42, 5) != trial_seed(43, 5)

    def test_generator_determinism(self):
        a = RandomRationals(42, 3).rational()
        b = RandomRationals(42, 3).rational()
        assert a == b

    def test_bound_respected(self):
        rng = RandomRationals(1, 0, bound=7)
        for _ in range(200):
            v = rng.rational()
            assert -7 <= v <= 7 and v.denominator <= 7

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.retrying(lambda: 1, lambda _: False),
        lambda rng: rng.retrying(lambda: None),
        lambda rng: rng.retrying(_raise(DegenerateConfigurationError)),
    ], ids=["refused", "none", "degenerate"])
    def test_exhaustion_signalled(self, draw):
        rng = RandomRationals(1, 0, bound=5)
        with pytest.raises(GeneratorExhaustedError):
            draw(rng)
        assert rng.rejections == RETRY_LIMIT

    def test_kernel_invariant_error_propagates(self):
        rng = RandomRationals(1, 0, bound=5)
        with pytest.raises(KernelInvariantError):
            rng.retrying(_raise(KernelInvariantError))
        assert rng.rejections == 0

    def test_rejections_counted_and_accepted_value_returned(self):
        rng = RandomRationals(1, 0, bound=5)
        draws = iter([None, 0, 3])
        assert rng.retrying(lambda: next(draws), lambda v: v != 0) == 3
        assert rng.rejections == 2

    def test_distinct_rationals_exhausts_past_the_value_count(self):
        # bound 2 admits only 7 rationals: 0, +-1/2, +-1, +-2
        with pytest.raises(GeneratorExhaustedError):
            RandomRationals(1, 0, bound=2).distinct_rationals(8)

    def test_distinct_rationals_limit_is_per_draw(self):
        # rejections spent by earlier draws of the trial do not exhaust it
        rng = RandomRationals(1, 0, bound=2)
        rng.rejections = RETRY_LIMIT
        assert len(set(rng.distinct_rationals(7))) == 7

    @pytest.mark.parametrize("bound", [2, 3, 9, 50, 10**6])
    def test_draw_stream_matches_fraction_draws(self, bound):
        counts = [1, 2, 3, 4, 5, 7] if bound > 2 else [1, 2, 3, 4, 5]
        for seed in range(12):
            for trial in range(8):
                lifted = RandomRationals(seed, trial, bound)
                reference = _FractionDraws(seed, trial, bound)
                for count in counts:
                    got, want = ([rng.rational(), rng.nonzero_rational(),
                                  rng.positive_rational(),
                                  rng.fraction_in_unit_interval(),
                                  *rng.distinct_rationals(count)]
                                 for rng in (lifted, reference))
                    assert got == want
                    assert all(type(v) is F for v in got)
                    assert (lifted.small_positive_int()
                            == reference.small_positive_int())
                assert lifted.rejections == reference.rejections
                assert lifted.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("bound", [1, 2, 3, 9, 50, 10**6])
    @pytest.mark.parametrize("helper", sorted(HELPER_DRAWS))
    def test_helper_stream_matches_fraction_draws(self, helper, bound):
        draw = HELPER_DRAWS[helper]
        for seed in range(12):
            for trial in range(8):
                lifted = RandomRationals(seed, trial, bound)
                reference = _FractionDraws(seed, trial, bound)
                for _ in range(3):
                    got, want = draw(lifted), draw(reference)
                    assert got == want
                    got, want = _scalars(got), _scalars(want)
                    assert got == want
                    assert all(type(v) is F for v in got)
                    assert lifted.rejections == reference.rejections
                    assert lifted.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 9, 17, 101, 10**6,
                                       2**64 + 1])
    def test_below_matches_randint(self, width):
        rng = RandomRationals(7, 1)
        reference = random.Random(trial_seed(7, 1))
        got = [rng._below(width) for _ in range(5000)]
        assert got == [reference.randint(0, width - 1) for _ in range(5000)]
        assert rng.rng.getstate() == reference.getstate()

    def test_coin_matches_random(self):
        for seed in range(6):
            for trial in range(4):
                rng = RandomRationals(seed, trial)
                reference = random.Random(trial_seed(seed, trial))
                got = [rng.coin() for _ in range(200)]
                assert got == [reference.random() < 0.5 for _ in range(200)]
                assert rng.rng.getstate() == reference.getstate()

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            RandomRationals(1, 0, bound=0)

    #: Every ``_below`` width expression in the package, as ``_below``'s
    #: docstring lists them, with the call that takes it: ``_pair``'s two
    #: widths go through ``_width`` for its inline draws.  Each is at
    #: least 1 for ``bound >= 1``.
    BELOW_WIDTHS = {("_width", "2 * bound + 1"), ("_width", "bound"),
                    ("_below", "self.bound"),
                    ("_below", "max(3, self.bound) - 1"), ("_below", "d - 1"),
                    ("_below", "9")}

    def test_below_call_sites_are_the_documented_ones(self):
        package = Path(dageo.__file__).resolve().parent
        widths = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if name in ("_below", "_width"):
                    widths.add((path.name, name, ast.unparse(node.args[0])))
        assert widths == {("generators.py", *w) for w in self.BELOW_WIDTHS}

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 50])
    def test_every_draw_passes_a_width_of_at_least_one(self, bound):
        # _below(0) would never return; record the widths every draw
        # helper passes at small bounds, where the minimum is reached.
        widths = []

        class Recording(RandomRationals):
            def _below(self, width):
                widths.append(width)
                return super()._below(width)

            def _pair(self):
                # the numerator and denominator widths it draws inline
                widths.extend(self._pair_widths[::2])
                return super()._pair()

        for seed in range(5):
            rng = Recording(seed, 0, bound)
            for _ in range(20):
                rng.rational(), rng.nonzero_rational()
                rng.positive_rational(), rng.fraction_in_unit_interval()
                rng.small_positive_int(), rng.point(), rng.parabola()
                if bound >= 2:  # bound 1 has only 3 rationals
                    rng.distinct_rationals(3)
                    t = rng.triangle()
                    rng.cevian_feet(t)
        # 1 is reached: by d - 1 at d = 2, and at bound 1 by _pair.
        assert min(widths) == 1

    @pytest.mark.parametrize("bound", [2, 3, 50, 10**6])
    def test_point_on_side_matches_fraction_chain(self, bound):
        for seed in range(12):
            for trial in range(8):
                lifted = RandomRationals(seed, trial, bound)
                reference = _FractionDraws(seed, trial, bound)
                for _ in range(4):
                    u, w = lifted.point(), lifted.point()
                    assert (u, w) == (reference.point(), reference.point())
                    got = lifted.point_on_side(u, w)
                    assert got == reference.point_on_side(u, w)
                    assert all(type(v) is F for v in got)
                assert lifted.rng.getstate() == reference.rng.getstate()


class _FreshPerTrial:
    """The stream as ``run_theorem`` drew it before ``restart``: a new
    ``RandomRationals``, and with it a new ``random.Random``, for every
    trial; every other attribute is read from the current one."""

    def __init__(self, seed, trial, bound):
        self.stream = RandomRationals(seed, trial, bound)

    def restart(self, trial):
        self.stream = RandomRationals(self.stream.campaign_seed, trial,
                                      self.stream.bound)

    def __getattr__(self, name):
        return getattr(self.stream, name)


#: Every campaign ``run_theorem`` runs: the registry and the Euclidean
#: export.
CAMPAIGNS = [*(REGISTRY[tid] for tid in sorted(REGISTRY)), EUCLID_EXPORT]


def _streams_in(value, seen=None):
    """Every ``RandomRationals`` or ``random.Random`` reachable from
    ``value`` through containers, attributes, slots and closures."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (int, str, F)):
        return []
    seen.add(id(value))
    if isinstance(value, (RandomRationals, random.Random)):
        return [value]
    if isinstance(value, dict):
        parts = list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        parts = list(value)
    else:
        parts = list(getattr(value, "__dict__", {}).values())
        parts += [getattr(value, slot, None) for cls in type(value).__mro__
                  for slot in getattr(cls, "__slots__", ())]
        parts += [cell.cell_contents
                  for cell in getattr(value, "__closure__", None) or ()]
        parts.append(getattr(value, "__self__", None))
    return [s for part in parts for s in _streams_in(part, seen)]


class TestStreamIdentity:
    """One ``RandomRationals`` per campaign, reseeded per trial: trial k
    draws what a fresh ``RandomRationals(seed, k, bound)`` draws."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 50])
    def test_restart_matches_a_fresh_stream(self, bound):
        for seed in range(6):
            rng = RandomRationals(seed, 0, bound)
            for k in (1, 0, 2, 7, 2**40):
                # Use the stream: draws, rejections and Random's own
                # cached gauss value, which seed() must reset too.
                draws = iter([None, None, 1])
                rng.retrying(lambda: next(draws))
                rng.point(), rng.parabola(), rng.rng.gauss(0, 1)
                if bound >= 2:
                    rng.distinct_rationals(3)
                assert rng.rejections >= 2
                rng.restart(k)
                fresh = RandomRationals(seed, k, bound)
                assert rng.rng.getstate() == fresh.rng.getstate()
                assert (rng.trial_index, rng.rejections) == (k, 0)
                assert rng.point() == fresh.point()

    @pytest.mark.parametrize("bound", [2, 3, 50])
    def test_campaigns_match_a_fresh_stream_per_trial(self, monkeypatch,
                                                      bound):
        reused = [run_theorem(t, 20, 7, bound).to_json() for t in CAMPAIGNS]
        monkeypatch.setattr(harness, "RandomRationals", _FreshPerTrial)
        fresh = [run_theorem(t, 20, 7, bound).to_json() for t in CAMPAIGNS]
        assert reused == fresh

    def test_the_reference_reaches_run_theorem(self, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "RandomRationals",
                            lambda *args: built.append(args)
                            or _FreshPerTrial(*args))
        run_theorem(REGISTRY["ptolemy"], 5, 7, 50)
        assert built == [(7, 0, 50)]

    def test_stream_finder_looks_inside_values_and_closures(self):
        rng = RandomRationals(7, 0, 50)
        holders = [{"x": [(rng,)]}, lambda: rng, rng.point, rng.rng,
                   _FreshPerTrial(7, 0, 50)]
        assert all(_streams_in(h) for h in holders)
        assert _streams_in([rng.point(), rng.parabola(), rng.triangle()]) == []

    @pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda t: t.id)
    def test_no_config_holds_a_stream(self, campaign):
        rng = RandomRationals(7, 0, 50)
        for trial in range(8):
            rng.restart(trial)
            assert _streams_in(campaign.generate(rng)) == []


class TestIntegerDraws:
    """``distinct_rationals`` and ``parabola`` draw integer pairs and
    build the same values as the Fraction-built reference streams."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 50, 10**6, 2**40])
    def test_distinct_rationals_matches_fraction_draws(self, bound):
        counts = range(1, 4 if bound == 1 else 7)   # bound 1 has 3 values
        for seed in range(12):
            for trial in range(4):
                lifted = RandomRationals(seed, trial, bound)
                reference = _FractionDraws(seed, trial, bound)
                for count in counts:
                    got = lifted.distinct_rationals(count)
                    assert got == reference.distinct_rationals(count)
                    assert all(type(v) is F for v in got)
                    assert lifted.rejections == reference.rejections
                assert lifted.rng.getstate() == reference.rng.getstate()

    def test_distinct_rationals_orders_values_a_float_cannot(self):
        bound = 2**40
        hi, lo = F(bound - 1, bound), F(bound - 2, bound - 1)
        assert float(hi) == float(lo) and lo < hi
        rng = RandomRationals(1, 0, bound)
        # Raw draws: numerator n + bound, then denominator d - 1.
        raw = iter([bound - 1 + bound, bound - 1, bound - 2 + bound,
                    bound - 2])
        rng._getrandbits = lambda bits: next(raw)
        assert rng.distinct_rationals(2) == [lo, hi]

    @pytest.mark.parametrize("bound", [1, 2, 3, 50, 10**6])
    def test_parabola_matches_the_public_constructor(self, bound):
        for seed in range(12):
            for trial in range(8):
                drawn = RandomRationals(seed, trial, bound)
                twin = RandomRationals(seed, trial, bound)
                for _ in range(3):
                    got = drawn.parabola()
                    want = Parabola(twin.nonzero_rational(), twin.rational(),
                                    twin.rational())
                    assert got._lifted == want._lifted
                    for name in ("kappa", "beta", "gamma"):
                        value = getattr(got, name)
                        assert value == getattr(want, name)
                        assert type(value) is F
                    assert repr(got) == repr(want)
                    assert drawn.rejections == twin.rejections
                assert drawn.rng.getstate() == twin.rng.getstate()


class TestGenerateConfig:
    def test_deterministic_per_trial(self):
        c1 = generate_config("ptolemy", 42, 0)
        c2 = generate_config("ptolemy", 42, 0)
        assert c1 == c2

    def test_trials_are_order_independent(self):
        # per-trial seeding: evaluating trials in any order (as a parallel
        # runner would) reproduces the sequential campaign outcomes
        import random as pyrandom
        sequential = [generate_config("simson", 42, i) for i in range(12)]
        order = list(range(12))
        pyrandom.Random(0).shuffle(order)
        shuffled = {i: generate_config("simson", 42, i) for i in order}
        assert all(shuffled[i] == sequential[i] for i in range(12))

    @pytest.mark.parametrize("theorem", sorted(REGISTRY))
    def test_returns_only_generator_keys(self, theorem):
        cfg = generate_config(theorem, 42, 3, 20)
        assert cfg == REGISTRY[theorem].generate(RandomRationals(42, 3, 20))

    def test_admissible_ptolemy(self):
        cfg = generate_config("ptolemy", 42, 0)
        assert len(set(cfg["xs"])) == 4

    def test_brahmagupta_constraint(self):
        cfg = generate_config("brahmagupta", 42, 0)
        e, a, b, d = cfg["xs"]
        assert e + d == a + b
        assert e < a < b < d

    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            CampaignConfig("no_such_theorem", trials=1)

    @pytest.mark.parametrize("bound", [2, 3])
    def test_every_theorem_runs_at_the_smallest_bounds(self, bound):
        for tid in REGISTRY:
            report = run_campaign(CampaignConfig(tid, 30, 5, bound))
            assert report.trials == 30
            if tid != "ptolemy_broken":
                assert report.failures == 0, tid

    @pytest.mark.parametrize("bound", [2, 3])
    def test_smallest_bounds_report_and_catch_the_mutant(self, bound):
        # Generators that draw without probing the kernel must still give
        # only admissible configurations at the smallest bounds, and the
        # mutation control must still be caught there.
        for tid in REGISTRY:
            report = run_campaign(CampaignConfig(tid, 40, 7, bound))
            assert report.trials == 40, tid
            if tid == "ptolemy_broken":
                assert report.failures > 0
            else:
                assert report.failures == 0, tid


class TestReports:
    def test_round_trip(self):
        report = run_campaign(CampaignConfig("ptolemy", trials=5, seed=42))
        assert json.loads(report.to_json()) == report.to_dict()

    def test_byte_identical_reruns(self):
        cfg = CampaignConfig("simson", trials=10, seed=99, bound=20)
        assert run_campaign(cfg).to_json() == run_campaign(cfg).to_json()

    def test_counterexample_round_trip(self):
        report = run_campaign(CampaignConfig("ptolemy_broken", trials=3))
        assert report.failures == 3
        again = json.loads(report.to_json())
        assert again == report.to_dict() and "first_counterexample" in again

    def test_mutation_control_caught_fast(self):
        report = run_campaign(CampaignConfig("ptolemy_broken", trials=10))
        assert report.failures >= 1
        assert report.first_counterexample["trial"] < 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig("ptolemy", trials=0)
        with pytest.raises(ValueError):
            CampaignConfig("ptolemy", bound=1)

    def test_registry_has_descriptions(self):
        for theorem in REGISTRY.values():
            assert theorem.description


class TestErrorVerdict:
    """A trial that raises anything but a ``Counterexample`` is an error:
    the campaign still reports, and records the first one."""

    def test_raising_checker_yields_a_report(self, monkeypatch):
        _replace_theorem(monkeypatch, "ptolemy", check=_kernel_bug)
        report = run_campaign(CampaignConfig("ptolemy", trials=20, seed=42))
        bad = [k for k in range(20)
               if generate_config("ptolemy", 42, k)["xs"][1] > 0]
        assert bad[0] > 0
        assert (report.errors, report.failures) == (len(bad), 0)
        assert report.first_error == {
            "trial": bad[0], "type": "ValueError", "message": "kernel bug",
            "config": jsonable(generate_config("ptolemy", 42, bad[0]))}
        payload = json.loads(report.to_json())
        assert payload["errors"] == len(bad)
        assert payload["first_error"] == report.first_error

    def test_kinds_count_passing_trials_only(self, monkeypatch):
        check = REGISTRY["isogonal"].check

        def mixed_raises(config):
            kind = check(config)
            if kind == "mixed":
                raise KernelInvariantError("broken")
            return kind
        _replace_theorem(monkeypatch, "isogonal", check=mixed_raises)
        report = run_campaign(CampaignConfig("isogonal", trials=20, seed=42))
        assert report.kinds == {"common-base": 10}
        assert report.errors == 10 and report.first_error["trial"] == 0

    def test_generator_error_has_null_config(self, monkeypatch):
        def generate(rng):
            def make():
                if rng.rejections < 2:
                    return None
                raise ValueError("generator bug")
            return rng.retrying(make)
        _replace_theorem(monkeypatch, "ptolemy", generate=generate)
        report = run_campaign(CampaignConfig("ptolemy", trials=4, seed=42))
        assert report.errors == 4 and report.first_error["config"] is None
        assert json.loads(report.to_json())["first_error"]["config"] is None
        # The two rejections before each raise still count.
        assert report.rejections == 8

    def test_exhaustion_stays_fatal(self, monkeypatch):
        _replace_theorem(monkeypatch, "ptolemy",
                         generate=lambda rng: rng.retrying(lambda: None))
        with pytest.raises(GeneratorExhaustedError):
            run_campaign(CampaignConfig("ptolemy", trials=2))

    def test_clean_report_has_no_error_keys(self):
        payload = run_campaign(CampaignConfig("ptolemy", trials=5)).to_dict()
        assert "errors" not in payload and "first_error" not in payload


def isinstance_chain_jsonable(obj):
    # Reference: jsonable's isinstance chain, before its exact-type fast
    # paths, for the types json_trees draws.
    if isinstance(obj, F):
        return format_scalar(obj)
    if isinstance(obj, Point):
        return [format_scalar(obj.x), format_scalar(obj.y)]
    if isinstance(obj, MeetResult):
        out = {"kind": obj.kind}
        if obj.point is not None:
            out["point"] = isinstance_chain_jsonable(obj.point)
        if obj.direction is not None:
            out["direction"] = format_scalar(obj.direction)
        return out
    if isinstance(obj, dict):
        return {str(k): isinstance_chain_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [isinstance_chain_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"no JSON form for {type(obj).__name__}")


class _SubDict(dict):
    pass


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)
_points = st.builds(Point, _fractions, _fractions)
#: Configuration-shaped values: the fast paths' exact types, and the
#: subclasses that must miss them (a bool, the NamedTuple MeetResult, a
#: dict subclass), with a float that has no JSON form.
json_trees = st.recursive(
    st.one_of(_fractions, _points, st.booleans(), st.integers(), st.none(),
              st.text(max_size=3), st.builds(MeetResult.at, _points),
              st.builds(MeetResult.ideal, st.none() | _fractions),
              st.just(0.5)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=2) | st.integers(), children,
                        max_size=3),
        st.dictionaries(st.text(max_size=2), children,
                        max_size=3).map(_SubDict)),
    max_leaves=12)


def _json_outcome(call, obj):
    """``call(obj)``'s repr (which tells True from 1 and a list from a
    tuple), or the type and message it raises."""
    try:
        return repr(call(obj))
    except TypeError as err:
        return type(err), str(err)


class TestJsonable:
    @given(json_trees)
    @example(True)
    @example([False, 1, None])
    @example(MeetResult.at(Point(F(1), F(-1, 2))))
    @example(_SubDict({2: F(3, 4), "p": MeetResult.ideal(None)}))
    @example([[Point(F(1), F(2))],
              [Point(F(-1, 3), F(0)), [Point(F(5), F(7, 2))]]])
    @example({"x": [F(1), 0.5]})
    def test_matches_isinstance_chain(self, obj):
        assert _json_outcome(jsonable, obj) == _json_outcome(
            isinstance_chain_jsonable, obj)

    def test_scalars_as_strings(self):
        from dageo.gauge import Point
        payload = jsonable({"x": F(1, 3), "p": Point(F(2), F(-5, 4))})
        assert payload == {"x": "1/3", "p": ["2", "-5/4"]}

    def test_report_is_json(self):
        report = run_campaign(CampaignConfig("ceva", trials=3))
        json.loads(report.to_json())

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="float"):
            jsonable({"x": [0.5]})

    def test_lines_and_meets(self):
        assert jsonable(Line.singular(F(2))) == {"x0": "2"}
        assert jsonable(MeetResult.at(Point(F(1), F(-1, 2)))) == \
            {"kind": "at", "point": ["1", "-1/2"]}
        assert jsonable(MeetResult.ideal(F(3))) == \
            {"kind": "ideal", "direction": "3"}
        assert jsonable(MeetResult.ideal(None)) == {"kind": "ideal"}

    @pytest.mark.parametrize("theorem", sorted(REGISTRY))
    def test_every_config_is_json(self, theorem):
        for trial in range(4):
            json.dumps(jsonable(generate_config(theorem, 42, trial)))

    @pytest.mark.parametrize("theorem", ["isogonal", "miquel_quadrilateral"])
    def test_failing_config_round_trips(self, monkeypatch, theorem):
        # Cevian specs and complete quadrilaterals only reach a report
        # through a counterexample.
        forced = dataclasses.replace(
            REGISTRY[theorem], check=_forced_failure)
        monkeypatch.setitem(REGISTRY, theorem, forced)
        report = run_campaign(CampaignConfig(theorem, trials=3, seed=42))
        first = report.first_counterexample
        assert report.failures == 3 and first["trial"] == 0
        assert first["config"] == jsonable(generate_config(theorem, 42, 0))
        assert json.loads(json.dumps(first)) == first


INCENTER_SCENE = {
    "points": {"P0": ["0", "0"], "P1": ["1", "1"], "P2": ["2", "4"]},
    "triangles": {"T1": ["P0", "P1", "P2"]},
    "construct": ["centers(T1)"],
}


class TestScene:
    def test_parse_and_construct(self):
        scene = Scene.from_dict(INCENTER_SCENE)
        draw = Drawables()
        payload = apply_construction(scene, "centers(T1)", draw)
        assert payload["result"]["incenter"] == ["1", "3/2"]
        assert "bisector_A" in draw.lines
        assert "incenter" in draw.points
        assert draw.ideal == ["excenter_ideal"]

    def test_later_label_replaces_earlier(self):
        data = {"points": {"P0": ["0", "0"], "P1": ["1", "1"],
                           "P2": ["2", "4"], "P3": ["4", "1"]},
                "triangles": {"T1": ["P0", "P1", "P2"],
                              "T2": ["P1", "P2", "P3"]},
                "construct": ["centers(T1)", "dabct(T2)", "centers(T1)"]}
        scene = Scene.from_dict(data)
        t1, t2 = scene.triangles["T1"], scene.triangles["T2"]
        draw = Drawables()
        apply_construction(scene, "centers(T1)", draw)
        apply_construction(scene, "dabct(T2)", draw)
        # Both draw the bisectors: dabct's win.
        assert draw.lines["bisector_B"] == bisector_at(t2, "B", "positive")
        # The other entries of centers stay.
        cs = centers(t1)
        assert draw.points["incenter"] == cs.incenter
        assert draw.points["centroid"] == cs.centroid
        assert draw.parabolas == {"circumparabola": t1.parabola}
        assert draw.ideal == ["excenter_ideal"]
        assert "L_A" in draw.points
        # run_scene draws into one figure the same way, over the scene's
        # points under their own names; ideal accumulates.
        _, figure = run_scene(scene, verify=False)
        assert {n: figure.points[n] for n in scene.points} == scene.points
        assert "A" not in figure.points
        assert figure.ideal == ["excenter_ideal", "excenter_ideal"]

    def test_triangle_vertices_keep_their_scene_names(self):
        # A triangle argument's vertices are not drawn again under the
        # labels A, B, C, which would hide the scene's own point A.
        data = dict(INCENTER_SCENE, points={
            "A": ["5", "5"], "P0": ["0", "0"], "P1": ["1", "1"],
            "P2": ["2", "4"]})
        _, figure = run_scene(Scene.from_dict(data), verify=False)
        assert figure.points["A"] == Point(F(5), F(5))
        assert figure.points["P0"] == Point(F(0), F(0))

    @pytest.mark.parametrize("feet", ["DEF", "PQR"])
    def test_miquel_triangle_draws_its_feet(self, feet):
        # The feet are scene points, drawn under their own names; the
        # construction draws only M, so a scene point D that is not a foot
        # keeps its place.  The only construction of the scene, so no
        # later one draws over M.
        d, e, f = feet
        points = {"A": ["0", "0"], "B": ["4", "2"], "C": ["1", "5"],
                  d: ["5/2", "7/2"], e: ["2/3", "10/3"], f: ["1", "1/2"]}
        points.setdefault("D", ["9", "9"])
        data = {"points": points,
                "triangles": {"T": ["A", "B", "C"]},
                "construct": [f"miquel_triangle(T,{d},{e},{f})"]}
        scene = Scene.from_dict(data)
        document, draw = run_scene(scene, verify=False)
        assert {name: draw.points[name] for name in points} == scene.points
        if feet != "DEF":
            assert draw.points["D"] == Point(F(9), F(9))
        miquel = document["constructions"][0]["result"]["miquel_point"]
        assert miquel["kind"] == "at"
        assert jsonable(draw.points["M"]) == miquel["point"]
        assert draw.ideal == []

    def test_gauge_normalization(self):
        data = {
            "gauge": {"origin": ["0", "0"],
                      "reference_direction": ["1", "0"],
                      "projective_direction": ["1", "1"]},
            "points": {"Q": ["2", "2"]},
        }
        scene = Scene.from_dict(data)
        assert scene.points["Q"].x == 0 and scene.points["Q"].y == 2

    def test_unknown_reference(self):
        with pytest.raises(SceneError):
            Scene.from_dict({"triangles": {"T": ["A", "B", "C"]}})

    @pytest.mark.parametrize("key, raw", [
        ("reference_direction", "10"),
        ("reference_direction", ["1", "0", "0"]),
        ("projective_direction", ["1"]),
        ("origin", "00"),
        ("origin", ["0", "0", "0"]),
    ])
    def test_gauge_entries_must_be_pairs(self, key, raw):
        gauge = {"origin": ["0", "0"], "reference_direction": ["1", "0"],
                 "projective_direction": ["1", "1"], key: raw}
        with pytest.raises(SceneError,
                           match=f"{key} must be a \\[x, y\\] pair"):
            Scene.from_dict({"gauge": gauge, "points": {"Q": ["2", "2"]}})

    def test_point_message_kept(self):
        with pytest.raises(SceneError, match=r"point must be a \[x, y\] pair"):
            Scene.from_dict({"points": {"Q": ["2"]}})

    def test_triangle_labels_must_be_names(self):
        with pytest.raises(SceneError, match="3 point names"):
            Scene.from_dict({"points": {"A": ["0", "0"]},
                             "triangles": {"T": [["A"], "A", "A"]}})

    @pytest.mark.parametrize("key", ["points", "parabolas", "triangles"])
    def test_namespace_must_be_an_object(self, key):
        with pytest.raises(SceneError, match=key):
            Scene.from_dict({key: [["0", "0"]]})

    def test_duplicate_names(self):
        data = {"points": {"A": ["0", "0"]},
                "parabolas": {"A": {"kappa": "1", "beta": "0", "gamma": "0"}}}
        with pytest.raises(SceneError):
            Scene.from_dict(data)

    @pytest.mark.parametrize("token, message", [
        ("1e400", "'1e400' is not a name or an exact scalar"),
        ("Q", "'Q' is not a name or an exact scalar"),
    ])
    def test_unresolved_argument_message(self, token, message):
        scene = Scene.from_dict(INCENTER_SCENE)
        with pytest.raises(SceneError, match=message):
            apply_construction(scene, f"simson(T1, {token})", Drawables())

    def test_malformed_construction(self):
        scene = Scene.from_dict(INCENTER_SCENE)
        with pytest.raises(SceneError):
            apply_construction(scene, "centers[T1]", Drawables())
        with pytest.raises(SceneError):
            apply_construction(scene, "frobnicate(T1)", Drawables())

    def test_scene_verify_runs_campaign(self):
        data = dict(INCENTER_SCENE)
        data["verify"] = ["ptolemy"]
        document, _ = run_scene(Scene.from_dict(data), trials=5)
        assert document["verified"][0]["theorem"] == "ptolemy"
        assert document["verified"][0]["failures"] == 0

    def test_verified_is_the_report_payload(self):
        data = dict(INCENTER_SCENE, verify=["ptolemy_broken", "dabct"])
        document, _ = run_scene(Scene.from_dict(data), trials=5, seed=3)
        expected = [json.loads(run_campaign(
            CampaignConfig(tid, trials=5, seed=3)).to_json())
            for tid in ("ptolemy_broken", "dabct")]
        assert document["verified"] == expected
        assert "first_counterexample" in document["verified"][0]
        assert "first_counterexample" not in document["verified"][1]

    def test_interior_angles_payload(self):
        scene = Scene.from_dict(INCENTER_SCENE)
        draw = Drawables()
        payload = apply_construction(scene, "interior_angles(T1)", draw)
        angles = [parse_scalar(a)
                  for a in payload["result"]["angles"].values()]
        assert list(payload["result"]["angles"]) == ["A", "B", "C"]
        assert sum(angles) == 0
        assert sum(1 for a in angles if a < 0) == 1
        t = scene.triangles["T1"]
        assert draw.angle_labels == {
            lbl: (t.vertex(lbl), theta)
            for lbl, theta in zip("ABC", t.interior_angles())}

    def test_interior_angles_svg_text(self):
        data = dict(INCENTER_SCENE, construct=["interior_angles(T1)"])
        scene = Scene.from_dict(data)
        _, draw = run_scene(scene, verify=False)
        svg = render_svg(draw)
        for lbl, theta in zip("ABC", scene.triangles["T1"].interior_angles()):
            assert svg.count(f">angle({lbl}) = ") == 1
            assert f">angle({lbl}) = {theta}</text>" in svg

    def test_iso_angle_locus_construction(self):
        data = {"points": {"U": ["-1", "0"], "V": ["5/2", "0"]},
                "construct": ["iso_angle_locus(U, V, -3/4)"]}
        scene = Scene.from_dict(data)
        document, draw = run_scene(scene, verify=False)
        want = iso_angle_locus(scene.points["U"], scene.points["V"],
                               F(-3, 4))
        assert draw.parabolas["locus"] == want
        assert document["constructions"][0]["result"] == {
            "parabola": jsonable(want)}

    def test_centers_then_dabct_build_each_bisector_once(self):
        # centers and its scene branch read the interior bisectors, dabct
        # and its branch the positive ones: three sloped lines in all (the
        # interior bisector at a positive vertex is the positive one), each
        # built by one call of ``divider_line``'s integer core.
        scene = Scene.from_dict(dict(INCENTER_SCENE, points={
            "P0": ["0", "0"], "P1": ["1", "1"], "P2": ["3", "9"]}))
        draw = Drawables()
        profiler = cProfile.Profile()
        profiler.enable()
        apply_construction(scene, "centers(T1)", draw)
        apply_construction(scene, "dabct(T1)", draw)
        profiler.disable()
        builds_in_bisector_at = sum(
            sub.callcount for e in profiler.getstats()
            if not isinstance(e.code, str) and e.code.co_name == "bisector_at"
            for sub in (e.calls or ())
            if not isinstance(sub.code, str)
            and sub.code.co_name == "_divider_line")
        assert builds_in_bisector_at == 3

    def test_miquel_quadrilateral_construction(self):
        data = {
            "points": {"A": ["-1", "2"], "B": ["0", "0"], "C": ["3", "3"],
                       "D": ["2", "6"]},
            "construct": ["miquel_quadrilateral(A,B,C,D)"],
        }
        document, draw = run_scene(Scene.from_dict(data))
        assert len(draw.parabolas) == 4
        result = document["constructions"][0]["result"]
        assert result["kind"] in ("finite", "ideal")


def float_chain_finite(what, value):
    # Reference: the float of a Fraction (numbers.Rational.__float__), or
    # of a float or int, checked for drawing.
    try:
        out = float(value)
    except OverflowError:
        out = float("inf")
    if not math.isfinite(out):
        raise ValueError(f"{what} is out of the float range used for drawing")
    return out


def _float_outcome(call, *args):
    """``call("point 'P'", *args)`` as exact float hex (which tells -0.0
    from 0.0), or the type and message it raises."""
    try:
        return call("point 'P'", *args).hex()
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


#: Integers from small to 400 digits, so that quotients span subnormals,
#: every exponent, rounding ties and overflow.
_wide = st.one_of(st.integers(-10**6, 10**6),
                  st.integers(-10**400, 10**400),
                  st.integers(0, 400).map(lambda e: 2**e - 1))


class TestSvgFloats:
    # The SVG writer draws a stored integer pair as num / den, unreduced,
    # with den > 0 as the kernel stores it (0 / -1 would give -0.0): int
    # true division is correctly rounded, so every multiple of a pair
    # gives the float of its reduced Fraction, or raises as it does.
    @given(_wide, _wide.filter(bool),
           st.one_of(st.just(1), st.integers(2, 10**40)))
    @example(10**399 + 7, 3, 1)
    @example(-(10**399), 1, 1)
    @example(1, 10**400, 1)
    @example(-1, 10**400, 1)
    @example(-1, 10**400, 10**20)
    @example(2**1024 - 2**970, 1, 1)
    @example(2**1024 - 2**970, 1, 10**300)
    @example(2**1024 - 2**971, 1, 1)
    @example(2**1024 - 2**971, 1, 3**500)
    @example(2**53 + 1, 2, 1)
    @example(2**53 + 1, 2, 7**30)
    @example(0, -5, 3)
    def test_fraction_matches_float(self, num, den, k):
        if den < 0:
            num, den = -num, -den
        got = _float_outcome(_quotient, k * num, k * den)
        assert got == _float_outcome(float_chain_finite, F(num, den))

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, float("inf"),
                                       float("-inf"), float("nan"), 7, -3,
                                       10**400])
    def test_floats_and_ints_match_float(self, value):
        got = _float_outcome(_finite, value)
        assert got == _float_outcome(float_chain_finite, value)


def _property_json(obj):
    """The JSON form of a line or curve read through its public
    ``Fraction`` properties: the reference for ``jsonable``, which reads
    the stored integers."""
    if isinstance(obj, Parabola):
        return {"kappa": format_scalar(obj.kappa),
                "beta": format_scalar(obj.beta),
                "gamma": format_scalar(obj.gamma)}
    if obj.is_singular:
        return {"x0": format_scalar(obj.x0)}
    return {"m": format_scalar(obj.m), "k": format_scalar(obj.k)}


def _public_twin(draw: Drawables) -> Drawables:
    """``draw`` with every point, line and curve rebuilt by its public
    constructor from its public coordinates or coefficients."""
    def point(p):
        return Point(p.x, p.y)

    def line(l):
        return Line.singular(l.x0) if l.is_singular else Line(l.m, l.k)

    return Drawables(
        points={n: point(p) for n, p in draw.points.items()},
        lines={n: line(l) for n, l in draw.lines.items()},
        parabolas={n: Parabola(c.kappa, c.beta, c.gamma)
                   for n, c in draw.parabolas.items()},
        ideal=list(draw.ideal),
        angle_labels={n: (point(p), theta)
                      for n, (p, theta) in draw.angle_labels.items()})


class TestIntegerReaders:
    """``jsonable`` and ``render_svg`` read the integers that points, lines
    and curves store; they must write what the public properties give."""

    @given(bounded, bounded, bounded, st.integers(-9, 9), st.integers(-9, 9),
           st.integers(1, 9))
    def test_points_match_properties(self, x, y, m, X, Y, z):
        # Points given their coordinates, ints among them, and points the
        # kernel builds from triples, unreduced and with Z < 0 among them.
        pts = [Point(x, y), Point(F(x), F(y)), Point(X, Y),
               _point(2 * X, 2 * Y, -2 * z), _point(X * z, Y * z, -z * z),
               midpoint(Point(x, y), Point(m, X)),
               meet(Line(m, y), Line(m + 1, x)).point,
               Line(m, y).point_at(x), Parabola(z, m, y).point_at(x)]
        gauge = Gauge(Point(m, X), (F(1), F(y)), (F(0), F(z)))
        pts += normalize_chart(gauge, pts)
        for p in pts:
            assert jsonable(p) == [format_scalar(p.x), format_scalar(p.y)], p

    @given(bounded, bounded, bounded, bounded)
    def test_lines_match_properties(self, m, k, x, y):
        p, q = Point(m, k), Point(x, y)
        lines = [Line(m, k), Line.singular(x), Line(y, m)]
        if p != q:
            lines.append(line_through(p, q))  # singular when m == x
        hit = meet(lines[0], lines[2])
        if hit.is_finite and hit.point != Point(x + 1, y):
            lines.append(line_through(hit.point, Point(x + 1, y)))
        for line in lines:
            assert jsonable(line) == _property_json(line), line
        if hit.is_ideal:
            assert jsonable(hit) == {"kind": "ideal",
                                     "direction": format_scalar(m)}

    @given(bounded, bounded, bounded, st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9))
    def test_curves_match_properties(self, a, b, c, ki, bi, gi):
        assume(a != 0 and ki != 0 and b != c)
        curves = [Parabola(a, b, c), Parabola(F(a), F(b), F(c)),
                  Parabola(ki, bi, gi),
                  iso_angle_locus(Point(b, 0), Point(c, 0), a)]
        pts = [Point(b, a), Point(c, ki), Point(b + c + 1, bi)]
        if len({p.x for p in pts}) == 3 and not collinear(*pts):
            curves.append(circumparabola(*pts))
        for curve in curves:
            assert jsonable(curve) == _property_json(curve), curve

    def test_golden_figures_match_public_twins(self):
        for draw in golden_scene_draws():
            for name, curve in draw.parabolas.items():
                assert _float_curve(name, curve) == tuple(
                    float(v) for v in (curve.kappa, curve.beta, curve.gamma))
            assert render_svg(draw) == render_svg(_public_twin(draw))


class TestSvg:
    def test_incenter_figure(self):
        scene = Scene.from_dict(INCENTER_SCENE)
        _, draw = run_scene(scene)
        svg = render_svg(draw)
        assert svg.startswith("<svg")
        assert svg.count("<circle") >= 4  # three vertices plus the incenter
        for name in ("bisector_A", "bisector_B", "bisector_C"):
            assert f"<title>{name}</title>" in svg
        assert "incenter" in svg
        assert "excenter_ideal (ideal)" in svg

    def test_miquel_figure(self):
        data = {
            "points": {"A": ["-1", "2"], "B": ["0", "0"], "C": ["3", "3"],
                       "D": ["2", "6"]},
            "construct": ["miquel_quadrilateral(A,B,C,D)"],
        }
        _, draw = run_scene(Scene.from_dict(data))
        svg = render_svg(draw)
        assert svg.count("<path") >= 4  # the four circumscribing parabolas
        assert ">M</text>" in svg or "M (ideal)" in svg

    def test_deterministic_bytes(self):
        scene = Scene.from_dict(INCENTER_SCENE)
        _, draw1 = run_scene(scene)
        _, draw2 = run_scene(scene)
        assert render_svg(draw1) == render_svg(draw2)

    def test_empty_scene_rejected(self):
        with pytest.raises(EmptySceneError):
            render_svg(Drawables())

    @pytest.mark.parametrize("parabolas", [
        {"G": {"kappa": "1", "beta": "0", "gamma": "0"}},
        {"G": {"kappa": "-1/2", "beta": "3", "gamma": "1"},
         "H": {"kappa": "2", "beta": "-8", "gamma": "5"}},
    ])
    def test_parabola_only_scene_is_framed(self, parabolas):
        _, draw = run_scene(Scene.from_dict({"parabolas": parabolas}))
        curves = {name: _float_curve(name, curve)
                  for name, curve in draw.parabolas.items()}
        x_lo, x_hi, y_lo, y_hi = _bounds(draw, _point_floats(draw), curves)
        for curve in draw.parabolas.values():
            vx = -curve.beta / (2 * curve.kappa)
            assert x_lo < vx - 1 and vx + 1 < x_hi
            assert y_lo <= curve.y_at(vx) <= y_hi
        svg = render_svg(draw)
        for name in parabolas:
            assert f"<title>{name}</title></path>" in svg

    def test_singular_lines_are_framed(self):
        # The frame spans the points and each singular line's abscissa,
        # with a 10% margin.
        draw = Drawables(points={"P": Point(1, 2)},
                         lines={"l": Line.singular(F(7, 2)),
                                "n": Line.singular(F(-5, 3)),
                                "s": Line(F(1), F(0))})
        x_lo, x_hi, _, _ = _bounds(draw, _point_floats(draw), {})
        margin = 0.1 * (7 / 2 + 5 / 3)
        assert (x_lo, x_hi) == pytest.approx((-5 / 3 - margin,
                                              7 / 2 + margin))

    def test_parabola_only_scene_plots(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(
            {"parabolas": {"G": {"kappa": "1", "beta": "0", "gamma": "0"}}}))
        svg_path = tmp_path / "figure.svg"
        assert main(["plot", "--scene", str(scene_path),
                     "--svg", str(svg_path)]) == 0
        assert "<title>G</title>" in svg_path.read_text()

    @pytest.mark.parametrize("kappa, far_x", [
        ("1/1" + "0" * 400, "1"),  # rounds to 0.0: the vertex divides by 0
        ("1" + "0" * 400, "1"),    # too large for a float
        ("1" + "0" * 200, "1" + "0" * 200),  # y at the frame edge overflows
    ], ids=["underflow", "overflow", "frame"])
    def test_undrawable_curve_exits_invalid(self, kappa, far_x, tmp_path,
                                            capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(
            {"points": {"P": ["0", "0"], "Q": [far_x, "0"]},
             "parabolas": {"G": {"kappa": kappa, "beta": "0",
                                 "gamma": "0"}}}))
        svg_path = tmp_path / "figure.svg"
        assert main(["plot", "--scene", str(scene_path),
                     "--svg", str(svg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parabola 'G' ")
        assert not svg_path.exists()

    @pytest.mark.parametrize("scene, message", [
        ({"points": {"P": ["1" + "0" * 400, "0"]}}, "point 'P'"),
        ({"points": {"A": ["0", "0"], "B": ["1", "1"], "C": ["2", "4"]},
          "triangles": {"T": ["A", "B", "C"]},
          "construct": ["simson(T, 1" + "0" * 300 + ")"]}, "point 'K_A'"),
        ({"points": {"P": ["-1" + "0" * 308, "0"],
                     "Q": ["1" + "0" * 308, "0"]}}, "the frame"),
        # 1e300 +- the 0.1 margin rounds to one float: a zero-width frame
        ({"points": {"P": ["1" + "0" * 300, "0"]}}, "the frame"),
        # a bisector too steep for its end points in the frame
        ({"points": {"A": ["0", "1" + "0" * 100], "B": ["1" + "0" * 115, "0"],
                     "C": ["1/1" + "0" * 100, "0"]},
          "triangles": {"T": ["A", "B", "C"]}, "construct": ["dabct(T)"]},
         "line 'bisector_A'"),
    ], ids=["huge-point", "simson", "wide-frame", "zero-width-frame",
            "steep-line"])
    def test_undrawable_figure_exits_invalid(self, scene, message, tmp_path,
                                             capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        svg_path = tmp_path / "figure.svg"
        assert main(["plot", "--scene", str(scene_path),
                     "--svg", str(svg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message} ")
        assert not svg_path.exists()

    @pytest.mark.parametrize("kappa, beta, gamma, x_lo, x_hi", [
        (1, 0, 0, -2.0, 3.0),
        (-0.5, 2, 1, -7.25, 4.5),
        (3, -1, -4, 0.1, 0.9),
    ])
    def test_arc_is_the_exact_bezier(self, kappa, beta, gamma, x_lo, x_hi):
        curve = Parabola(F(kappa), F(beta), F(gamma))

        def y(x):
            return kappa * x * x + beta * x + gamma

        def on_tangent(point, x0):
            slope = 2 * kappa * x0 + beta
            return point[1] == pytest.approx(y(x0) + slope * (point[0] - x0))

        p0, c1, c2, p3 = _parabola_arc(_float_curve("G", curve), x_lo, x_hi)
        assert p0 == pytest.approx((x_lo, y(x_lo)))
        assert p3 == pytest.approx((x_hi, y(x_hi)))
        assert on_tangent(c1, x_lo) and on_tangent(c2, x_hi)

    def test_parabola_path_present(self):
        data = {"points": {"A": ["0", "0"], "B": ["1", "1"], "C": ["2", "4"]},
                "construct": ["circumparabola(A,B,C)"]}
        _, draw = run_scene(Scene.from_dict(data))
        assert "<path" in render_svg(draw)


class TestCli:
    def test_verify_pass(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--theorem", "ptolemy", "--trials", "5",
                     "--seed", "42", "--json", str(out)])
        assert code == 0
        assert "PASS ptolemy" in capsys.readouterr().out
        assert json.loads(out.read_text())["failures"] == 0

    def test_verify_counterexample_exit(self, capsys):
        code = main(["verify", "--theorem", "ptolemy_broken", "--trials", "3"])
        assert code == 1

    def test_verify_isogonal_at_bound_two(self, capsys):
        code = main(["verify", "--theorem", "isogonal", "--trials", "20",
                     "--bound", "2"])
        assert code == 0
        assert "PASS isogonal" in capsys.readouterr().out

    def test_verify_unknown_theorem(self, capsys):
        assert main(["verify", "--theorem", "nonsense", "--trials", "1"]) == 2

    def test_list_theorems(self, capsys):
        assert main(["list-theorems"]) == 0
        out = capsys.readouterr().out
        assert "ptolemy" in out and "miquel_quadrilateral" in out

    def test_construct_and_plot(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(INCENTER_SCENE))
        out_path = tmp_path / "result.json"
        assert main(["construct", "--scene", str(scene_path),
                     "--out", str(out_path)]) == 0
        result = json.loads(out_path.read_text())
        assert result["constructions"][0]["result"]["incenter"] == ["1", "3/2"]

        svg_path = tmp_path / "figure.svg"
        assert main(["plot", "--scene", str(scene_path),
                     "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_construct_prints_what_out_writes(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(INCENTER_SCENE,
                                              verify=["ptolemy"])))
        out_path = tmp_path / "result.json"
        assert main(["construct", "--scene", str(scene_path), "--trials", "3",
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["construct", "--scene", str(scene_path),
                     "--trials", "3"]) == 0
        assert capsys.readouterr().out == out_path.read_text()

    @pytest.mark.parametrize("scene, message", [
        ([INCENTER_SCENE], "scene must be a JSON object"),
        ("scene", "scene must be a JSON object"),
        *[({"parabolas": {"G": {k: "1" for k in ("kappa", "beta", "gamma")
                                if k != missing}}},
           "parabola 'G' needs kappa/beta/gamma")
          for missing in ("kappa", "beta", "gamma")],
        *[({"gauge": {k: ["1", "0"] for k in ("origin", "reference_direction",
                                               "projective_direction")
                      if k != missing}}, "malformed gauge: ")
          for missing in ("origin", "reference_direction",
                          "projective_direction")],
        (dict(INCENTER_SCENE, construct=["centers(G)"],
              parabolas={"G": {"kappa": "1", "beta": "0", "gamma": "0"}}),
         "centers expects (triangle), got 'centers(G)'"),
        (dict(INCENTER_SCENE, construct=["simson(T1, P0)"]),
         "simson expects (triangle, scalar), got 'simson(T1, P0)'"),
        (dict(INCENTER_SCENE, construct=["circumparabola(P0, P1)"]),
         "circumparabola expects (point, point, point), got "
         "'circumparabola(P0, P1)'"),
    ], ids=["list", "string", "no-kappa", "no-beta", "no-gamma", "no-origin",
            "no-reference", "no-projective", "parabola-as-triangle",
            "point-as-scalar", "missing-point"])
    def test_construct_names_the_bad_entry(self, scene, message, tmp_path,
                                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        assert main(["construct", "--scene", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_construct_zero_denominator(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": {"P": ["1/0", "0"]}}))
        assert main(["construct", "--scene", str(bad)]) == 2
        assert "zero denominator" in capsys.readouterr().err

    # Arabic-Indic and fullwidth digits, which int() reads but
    # format_scalar never writes.
    @pytest.mark.parametrize("scene", [
        {"points": {"P": ["\u0661\u0662", "0"]}},
        dict(INCENTER_SCENE, construct=["simson(T1, \uff11/\uff12)"]),
    ])
    def test_construct_rejects_non_ascii_digits(self, scene, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        assert main(["construct", "--scene", str(bad)]) == 2
        assert "scalar" in capsys.readouterr().err

    def test_construct_invalid_scene(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"triangles\": {\"T\": [\"A\",\"B\",\"C\"]}}")
        assert main(["construct", "--scene", str(bad)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("verify", ["nonsense"]),
        ("verify", "ptolemy"),
        ("verify", 5),
        ("construct", 5),
        ("construct", [5]),
    ])
    def test_construct_rejects_bad_call_lists(self, field, value, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(INCENTER_SCENE, **{field: value})))
        assert main(["construct", "--scene", str(bad)]) == 2
        assert repr(field) in capsys.readouterr().err

    def test_plot_rejects_bad_call_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(INCENTER_SCENE, construct=5)))
        assert main(["plot", "--scene", str(bad),
                     "--svg", str(tmp_path / "figure.svg")]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["verify", "--theorem", "ptolemy", "--trials", "2"], "--json"),
        (["construct"], "--out"),
        (["plot"], "--svg"),
        (["euclid-export", "--trials", "2"], "--json"),
    ])
    def test_unwritable_output_is_invalid(self, argv, option, tmp_path,
                                          capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(INCENTER_SCENE))
        if argv[0] in ("construct", "plot"):
            argv = argv + ["--scene", str(scene_path)]
        target = str(tmp_path / "missing" / "x")
        assert main(argv + [option, target]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_scene_is_invalid(self, tmp_path, capsys):
        assert main(["construct", "--scene",
                     str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checker_bug_is_not_invalid_input(self, monkeypatch, capsys):
        def broken(config):
            return config["missing"]
        _replace_theorem(monkeypatch, "ptolemy", check=broken)
        assert main(["verify", "--theorem", "ptolemy", "--trials", "1"]) == 4
        out = capsys.readouterr().out
        assert out.startswith(
            "ERROR ptolemy: trials=1 failures=0 seed=42 errors=1\n")
        assert '"type": "KeyError"' in out

    def test_clean_status_line_has_no_error_count(self, capsys):
        assert main(["verify", "--theorem", "ptolemy", "--trials", "2"]) == 0
        assert capsys.readouterr().out == \
            "PASS ptolemy: trials=2 failures=0 seed=42\n"

    def test_errors_outrank_failures(self, monkeypatch, capsys):
        check = REGISTRY["ptolemy_broken"].check

        def sometimes_raises(config):
            _kernel_bug(config)
            check(config)
        _replace_theorem(monkeypatch, "ptolemy_broken", check=sometimes_raises)
        assert main(["verify", "--theorem", "ptolemy_broken",
                     "--trials", "20"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("ERROR ptolemy_broken:")
        assert '"reason"' in out and '"type": "ValueError"' in out

    def test_construct_exits_with_the_worst_verdict(self, monkeypatch,
                                                    tmp_path, capsys):
        _replace_theorem(monkeypatch, "ptolemy", check=_kernel_bug)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(
            dict(INCENTER_SCENE, verify=["ptolemy_broken", "ptolemy"])))
        assert main(["construct", "--scene", str(scene_path)]) == 4
        verified = json.loads(capsys.readouterr().out)["verified"]
        assert verified[0]["failures"] > 0 and verified[1]["errors"] > 0

    def test_euclid_exhaustion_exit(self, monkeypatch, capsys):
        def exhausted(*args):
            raise GeneratorExhaustedError("no triangle")
        monkeypatch.setattr("dageo.cli.run_euclid_campaign", exhausted)
        assert main(["euclid-export", "--trials", "2"]) == 3
        assert "generator exhausted" in capsys.readouterr().err

    def test_euclid_export(self, tmp_path, capsys):
        out = tmp_path / "euclid.json"
        assert main(["euclid-export", "--trials", "50",
                     "--json", str(out)]) == 0
        assert "PASS euclid_export" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert sorted(payload) == sorted(
            run_campaign(CampaignConfig("ptolemy", trials=2)).to_dict())
        assert payload["failures"] == 0

    def test_euclid_export_has_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["euclid-export", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--trials=0", "--trials=-3"])
    def test_euclid_export_rejects_vacuous_options(self, option, capsys):
        assert main(["euclid-export", option]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dageo.cli", "list-theorems"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "angle_axioms" in proc.stdout
