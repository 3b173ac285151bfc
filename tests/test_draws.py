"""The draws themselves, pinned: a campaign is a pure function of
(theorem, seed, trials, bound), and the report pins hold only counts and
the first failing configuration, so a generator change that keeps every
count would pass them.  Each digest is a sha256 over the JSON form of the
first 50 configurations a theorem's generator draws at seed 42, bound 50.
A change that moves a draw on purpose re-pins here and says so.

Every random value comes from ``RandomRationals._below``, ``_pair`` or
``coin``, so a trial replays from the values they returned, recorded as a
tape, with the underlying ``random.Random`` out of reach.

``RandomRationals._below`` repeats a CPython internal, so this module also
runs on every other supported interpreter."""

import hashlib
import json

import pytest

from dageo.euclid import EUCLID_EXPORT
from dageo.generators import RandomRationals
from dageo.harness import REGISTRY, generate_config, jsonable

SEED, TRIALS, BOUND = 42, 50, 50

DRAW_DIGESTS = {
    "angle_axioms":
        "ce6f5ed24e96109060c8ba3083859976a662242d2cbf84b9eef07fe72ea8b072",
    "arc_symmetry":
        "f1260d4ac5936f2f4c4bf8a0aa0b92930b83667cca1a4b315e2cf3d510544550",
    "bisector_centers":
        "54c67defbbbd27d3d1c7b96bd8c2a5537ae9ed25aa1e13d7864e84ea9ef45268",
    "brahmagupta":
        "14e22249847c93c9dd97cb33ddea44dac5a61efa0866e57ffadb9ae0bab9b96d",
    "ceva":
        "83e5ddae0adf55e67e70c8794ccd52c567009aa15182c7faeb91f17cd1ea3fda",
    "dabct":
        "54c67defbbbd27d3d1c7b96bd8c2a5537ae9ed25aa1e13d7864e84ea9ef45268",
    "diag_section":
        "2c6fc7623b6b0845cd3fada7f26ffe751589e1d2118eca6f2a79954e09be5413",
    "equivalence_chain":
        "8ff13e916dccc66d5fa5b14f12b025c1f8f6c5868bb07ccee68d9f5b18c5d713",
    "final_collinearity":
        "857d24b77a4f851bc0bab3c3670f38222ffe36ae246f492211e643a0e4d970d6",
    "inscribed_angle":
        "2c6fc7623b6b0845cd3fada7f26ffe751589e1d2118eca6f2a79954e09be5413",
    "intersecting_parabolas":
        "336f9ee55008ab7c27ca98619f2bea843e2570c6d8577e5da65d07c56b550cfb",
    "intro_observation":
        "d555a5c6e95c34556a95f7a544fef0d7e602860b50b5e2a34e00f3b88c22cada",
    "iso_angle_locus":
        "e89121071a1463870117a3565465475c95457935c60ae84168ae4a690aca4d91",
    "isogonal":
        "50825b52a96990b55c0a30c0975f3459cf8081308ac0822ba8ea31cfbe99c2df",
    "menelaus":
        "20fa45ec1899538bf3c059c44aa2e286cedda132017a33809fbc2d0c01e6871b",
    "midpoint_lemma":
        "54c67defbbbd27d3d1c7b96bd8c2a5537ae9ed25aa1e13d7864e84ea9ef45268",
    "miquel_quadrilateral":
        "3a7cfda9a961f7594d3d2412bc466efd7999254db99bc825c1c604caa9b1f68d",
    "miquel_triangle":
        "c4dc64cc534f6baae98f9072372daffb85973aa56e5b88381247014be1129625",
    "mn_division":
        "17c0629e55bc4aaa40f88c73a3a72f47059889e0296995682275f7d531ed0bf6",
    "parabolic_power":
        "9ef12d3178d30696fa7b380c2a17541ab553f6c655c81e02418e1c97890fe7e8",
    "ptolemy":
        "2c6fc7623b6b0845cd3fada7f26ffe751589e1d2118eca6f2a79954e09be5413",
    "ptolemy_broken":
        "2c6fc7623b6b0845cd3fada7f26ffe751589e1d2118eca6f2a79954e09be5413",
    "shift_group":
        "cbbdd34ed9f367e8a747092cbfa4a10b044f6ac8d6a4f261c4b65ae747ecbfea",
    "simson":
        "581f9c7479bf633c9965c920a7ec937fafbf98a181c5767c5185292356caa1f1",
    "trapezoid":
        "029af8d3df6e94815bae385f66dadb55f30060477b16e9900599e37b13e6fefa",
    "triangle_invariants":
        "b2c67cc2748ebcbe3f11d7bac1cb20f1f4fb2983e95922b89731c43f646fe962",
}


def draw_digest(theorem_id: str) -> str:
    digest = hashlib.sha256()
    for trial in range(TRIALS):
        config = jsonable(generate_config(theorem_id, SEED, trial, BOUND))
        digest.update(json.dumps(config, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_every_theorem_is_pinned():
    assert sorted(DRAW_DIGESTS) == sorted(REGISTRY)


@pytest.mark.parametrize("theorem_id", sorted(DRAW_DIGESTS))
def test_draws_match_pin(theorem_id):
    assert draw_digest(theorem_id) == DRAW_DIGESTS[theorem_id]


class _Recording(RandomRationals):
    """A stream that logs each value its draw methods return, as
    ``(method, width, value)``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tape = []

    def _below(self, width):
        value = super()._below(width)
        self.tape.append(("_below", width, value))
        return value

    def _pair(self):
        value = super()._pair()
        self.tape.append(("_pair", None, value))
        return value

    def coin(self):
        value = super().coin()
        self.tape.append(("coin", None, value))
        return value


class _Unusable:
    """Stands in for the ``random.Random`` and its ``getrandbits``."""

    def __getattr__(self, name):
        raise AssertionError(f"replay read rng.{name}")

    def __call__(self, *args):
        raise AssertionError("replay drew bits")


class _Replaying(RandomRationals):
    """A stream that returns a recorded tape and can draw nothing else."""

    def __init__(self, seed, trial, bound, tape):
        super().__init__(seed, trial, bound)
        self.rng = self._getrandbits = _Unusable()
        self.tape, self.read = tape, 0

    def _next(self, method, width):
        assert self.read < len(self.tape), f"tape ran out at {method}"
        entry = self.tape[self.read]
        assert entry[:2] == (method, width), f"{method} read {entry}"
        self.read += 1
        return entry[2]

    def _below(self, width):
        return self._next("_below", width)

    def _pair(self):
        return self._next("_pair", None)

    def coin(self):
        return self._next("coin", None)


@pytest.mark.parametrize("campaign", [*(REGISTRY[t] for t in sorted(REGISTRY)),
                                      EUCLID_EXPORT], ids=lambda t: t.id)
def test_trials_replay_from_their_draws(campaign):
    for bound in (2, 3, 50):
        for trial in range(20):
            recorded = _Recording(SEED, trial, bound)
            want = jsonable(campaign.generate(recorded))
            replayed = _Replaying(SEED, trial, bound, recorded.tape)
            assert jsonable(campaign.generate(replayed)) == want
            assert replayed.rejections == recorded.rejections
            assert replayed.read == len(recorded.tape)
