"""The campaigns at small bounds, pinned.  At bound 50 the drawn
rationals are so spread out that shared abscissae, tangent
circumparabolas, concurrent lines and parallel pairs almost never occur,
so the golden reports say nothing about the kernel branches that handle
them.  At bound 2 there are only 7 rationals (0, +-1/2, +-1, +-2) and at
bound 3 there are 15, so the same generators reach those cases often
(the small-scope hypothesis).  Each digest is a sha256 over ``to_json()``
of a theorem's report at seed 42, 300 trials and bound 2 or 3.  A change
that moves a report on purpose re-pins here and says so.

``RandomRationals._below`` repeats a CPython internal, so this module also
runs on every other supported interpreter."""

import hashlib

import pytest

from dageo.harness import REGISTRY, CampaignConfig, run_campaign

SEED, TRIALS = 42, 300

REPORT_DIGESTS = {
    2: {
        "angle_axioms":
            "bf08ef9d14b0e9a14c7250ea1d9adf46d7a867b91d4ae136e8886cac77668b71",
        "arc_symmetry":
            "ef9dc95fbae1a8ca28ec902a07b7ef6cf344d3295387629e7e3b343032892e37",
        "bisector_centers":
            "05f6c37fcce89e1a3a62d933f891a79ac078d98679ff4621700aae0534779bae",
        "brahmagupta":
            "554a8905f1832117afa68e8099dbea55d9a7b1481700ed6402b47a841eef1bf1",
        "ceva":
            "1165a9139bf9e3d0072b5c5c8932b06b50bde78ead534d191c55419ac73d40f1",
        "dabct":
            "5abf0e178f43e92aa42ef88e3c9bccf2bc3ba82bab4fc95becc02adec320bbad",
        "diag_section":
            "cb5c3e370b39bf24135ff786a906444f2b0bb947c7b57fb7b4ca40570dada712",
        "equivalence_chain":
            "67c36a6b84471a80c8c07d6452a05400276664a2cf6cba372da8b0eb6d6e569c",
        "final_collinearity":
            "c1d37fe96500d9adb9ab4b923203754f6dbe4b1d8ece44ff7efca29eb7976ccd",
        "inscribed_angle":
            "cb56a05a17fbb3e60cb0cfc30e9d72835226aeb19dc7897d9e029aaf9c71a38e",
        "intersecting_parabolas":
            "954d4ff7388f58c3bff86fe106e3c04987e53256af414ddcdf1bb30eb8edd16b",
        "intro_observation":
            "46642caadff2dafd0dae274ab987efad38c1c5ceed1ef23960d395dab6610edf",
        "iso_angle_locus":
            "0215ad87d0913d2364f58852048c1449583eb64e3136e6ab75e9db181c4064c3",
        "isogonal":
            "4a837b8fb8106b4d03fa020eb82fd352309d541587065b55cb0a624d1b8c616f",
        "menelaus":
            "05517f1b099603480ded65875cc4515db73fe517b6d777178adbed80225051f6",
        "midpoint_lemma":
            "f8d55bac19f5ad7b2b0db82b42958c3ff24dfe5ca6bfcbea560067c30fdcfa3c",
        "miquel_quadrilateral":
            "1b4aced829fb804fcaa9516b1090048f0c60bb32a3ed8b45bee97176e2484a27",
        "miquel_triangle":
            "e43c8e1d6e4f46ce79a52e63ccc2c8fc7671b88fef3cfba490d07ea6f7301cf8",
        "mn_division":
            "3faf449272273aec7a60dcc720af7ad219114c73fe4a414787372c13da2d5dfe",
        "parabolic_power":
            "ad2da3d85d360aa437701d72c8571fba026ab5ddcb9cb7031245e08582e2018b",
        "ptolemy":
            "e2a95e10f277c958fe082999ab26703b247ab99f0ffbc86685d48cd488763cb2",
        "ptolemy_broken":
            "eaf03306a2de3a0f8a1c57a76cb1f6d1a213a88c7828d59bf39d6de0980bffb7",
        "shift_group":
            "170abaff04bd6754e9f4a694b81c4fbe815729791ac5659e7a6c50cb49217cd9",
        "simson":
            "f986f97ad597ecf26fd32bcaedff2e9f97650900d73f2c01118ca35feb809f3b",
        "trapezoid":
            "2c931ed6e2511e8c4e46d73bdbfba8455f50788a0d065a59ef2694739eb2b232",
        "triangle_invariants":
            "3c9c96185570aa586eba5d0b5095f1a7feed65284811b67dabfaf2fa55251c04",
    },
    3: {
        "angle_axioms":
            "3db291cc6ff2bba0a938d3d8283bf182b2b8a359152841da4adddf7e383a3e13",
        "arc_symmetry":
            "7f22d4dd4290910e667b408b4f98b3e5e8f0815c44bac68c7ca86a389cd482a4",
        "bisector_centers":
            "c8266041f96c81a518ed9f26668e05196cd2d7699c5c634300cc316c8811beaa",
        "brahmagupta":
            "b5fc49b7e9668d2ab036ad4725540eaa97de99cb567cd13ba6771eac8c3fbd60",
        "ceva":
            "6f8651aaec35b652c73f2b5efd349f58a6554e1fce91c14b8ebe0c1af997eed7",
        "dabct":
            "10a1ed7cd0941ea0bc010e22e28f2cd7b5076518ee48d46c303a42e81bd0ee39",
        "diag_section":
            "a3a41b3c3fe6cb9e17caa76b9e75f238d1972fa48a6f36ac2e47b599d6bb90fa",
        "equivalence_chain":
            "5ee16576f1e3a8df82f6d07ee7bc3cbbfedc92532405c49edf53c67633d73fc6",
        "final_collinearity":
            "618c206b8ec706038aa35980d50acbdabd5abdb9d568e01b639db3ef183f4382",
        "inscribed_angle":
            "10141366f013bd50ae8726ca3a72634bc411db9e5f3380cad102ec6264a4c53a",
        "intersecting_parabolas":
            "f047af635acd7ea5bc809aff150b07237f1af33c0dd4cdf828cf3c543589343f",
        "intro_observation":
            "414d4f7e16e8ee1bd7c39a8e92c64d33f4b21142b7fa991b73b77117fc3ee798",
        "iso_angle_locus":
            "42c2348b2768dd63122fdd0bbda7d2a2ad596c703b90d4023e0648c59f547330",
        "isogonal":
            "dd8d1fff7f11858b90c1f0491cd9969e1dc122f05d46a4dd75c0a75d51737944",
        "menelaus":
            "45494b49188f0b2122b15706e58e68c3a026b41ec4022d1ee54722b548221532",
        "midpoint_lemma":
            "f147821c6baeb04bc95d2437528d5ac6b88c1ffe8f3697625f98f04ede4436f9",
        "miquel_quadrilateral":
            "aeffb00de7c513c0ce97acc2cb3af26ac80b7a48a4fb12711737ebd16b6350cd",
        "miquel_triangle":
            "ed1763d9a85d904c08f8e2dcfba366a238bfb2555b735e22cde136a63ac4eadf",
        "mn_division":
            "7c2bc30c8c6b1bc4cda54f19a173e6534502b1ded86980d36616fe5126da93b8",
        "parabolic_power":
            "463b6bba26cfc25154e540f46f5bc3ed55ed4e0c09d3254a15d07f43957d359b",
        "ptolemy":
            "e7bbffeb28eaf0d74811ac6337735f5a195a9d26f1d727a87482ae6624133415",
        "ptolemy_broken":
            "0b177f84600f623064b96fcaabae48c0d52da3893985b2c67bdad707a4a6f974",
        "shift_group":
            "23644a91d62ec7dc720bd86c092efb4a8b7215cedcec43c2c7a65c601d2af697",
        "simson":
            "09845d175fc1f834166595fed47bf3ba6218b3f3f671ef8411b6c47455f62857",
        "trapezoid":
            "8745f6edf30bb98fe944b735ecf3ba4b1f82dd8c1455ffa26176973afe249823",
        "triangle_invariants":
            "739d680978d66a0f780f0867641902fc28159a27a83e1f1da7bdcf41f0f0c7be",
    },
}


def test_every_theorem_is_pinned_at_each_bound():
    for pins in REPORT_DIGESTS.values():
        assert sorted(pins) == sorted(REGISTRY)


@pytest.mark.parametrize("bound, theorem_id", [
    (bound, tid) for bound, pins in sorted(REPORT_DIGESTS.items())
    for tid in sorted(pins)])
def test_report_matches_pin(bound, theorem_id):
    report = run_campaign(CampaignConfig(theorem_id, TRIALS, SEED, bound))
    # Only the mutation control may fail, and no campaign may err.
    assert report.errors == 0
    assert (report.failures > 0) == (theorem_id == "ptolemy_broken")
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[bound][theorem_id]
