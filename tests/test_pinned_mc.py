"""Pinned bytes of the trial- and sample-indexed Monte Carlo outputs, and of
the exact walk oracle that the two-point rate bound is compared with.

Each Monte Carlo output is produced in two block layouts (its run in one
block and in two, or in blocks of 2^16 rows and of a half or a third of that)
and compared with one SHA-256 digest, and each command line with --workers 1
and 2, so a change to the letter or fold kernels, the block layout or the
serializers that moves a single bit of these reports fails here.
The two-point digests are those of the one-bit letter rule, and
tests/test_bit_rule.py checks each against the model in tests/bit_oracle.py.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from foldmap import ThetaDist, TrialPlan, experiments
from foldmap.cli import run
from foldmap.experiments import (backward_diam_ensemble, forward_values,
                                 one_step_invariance_report)
from foldmap.serialize import canonical_json

SIMULATE = ["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2", "--n", "200",
            "--trials", "20000", "--seed", "101"]
CLI_SHA256 = [
    (["bvf-check", "--dist", "two-point:inv-sqrt2", "--x0", "0.2", "--n", "50",
      "--trials", "100000", "--seed", "777"],
     "f6a219a673362fe32fa5d6e2be26ea57052285067024dc4e14777810f14f3175"),
    (SIMULATE + ["--format", "json"],
     "699fdae45efe30f923211fa7b7725f5e13b1ffe0dc4e7e1ce715f425b3a444f8"),
    (SIMULATE + ["--format", "csv"],
     "a735faa91b96d1be79e2bc46e81c3ff0b6a9df310aca09ffdbecee80c9916124"),
]
# rate at the acceptance configurations (criterion 7), as JSON and as CSV,
# and at 2^14 trials
RATE = ["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5", "--seed", "424242"]
RATE_Q41 = ["rate", "--alpha", "inv-sqrt2", "--qk", "41", "--eps", "0.2", "--seed", "424243"]
CLI_SHA256 += [
    (RATE + ["--trials", "200", "--format", "json"],
     "f965fee50a32676ea291656c9cae2f7583b72458d7b429c40c2fa3c226a3092a"),
    (RATE + ["--trials", "200", "--format", "csv"],
     "e33ad5ff64d4529033716305d4dda6f81504b45d89ab29bd6634a6b62d8fdbfa"),
    (RATE_Q41 + ["--trials", "200", "--format", "json"],
     "be22def009e17ae60f82da3ea56077e43729c01d3de8bebf02d686d5a68ee4a0"),
    (RATE_Q41 + ["--trials", "200", "--format", "csv"],
     "12174d2cad9e38fb2ca8f6734cbef95eb174cdf372e78b84b303a74e924c47ea"),
    (RATE + ["--trials", "16384", "--format", "json"],
     "bb32891898cddc4af987c13ad0273db5141bdfc130c02a4aa78d2c909b21fbb8"),
    (RATE + ["--trials", "16384", "--format", "csv"],
     "ff976630a514f9deab54ec85a8fc647cff436986d8cfd52dc7a41b51e0cd5427"),
]
# little-endian float64 bytes of backward_diam_ensemble(two_point, 1000, TrialPlan(2025, 10**4))
DIAM_SHA256 = "a3cbce8efcff89ece040aef878322512693704e851a18172e1a7a92a2a91379c"

# Dists whose letters take the count-and-gather path: three points, and two
# points whose cut (0.3) is not 2^63. 3000 rows and n = 1001 put several
# columns in one hash call with a ragged last group.
ALPHA = math.sqrt(0.5)
GATHER_DISTS = {
    "three-point": ThetaDist([0.3, ALPHA, 1.0], [0.2, 0.3, 0.5]),
    "two-point-0.3": ThetaDist([ALPHA, 1.0], [0.3, 0.7]),
}
# little-endian float64 bytes of forward_values(dist, 0.2, 1001, TrialPlan(31, 3000))
# and of backward_diam_ensemble(dist, 1001, TrialPlan(32, 3000))
GATHER_SHA256 = {
    "three-point": ("ee03e391c6affe7bf9b46bfd615403c5cab54a57ff37f784cb3f83511586a5b8",
                    "8a614ad23f65ccb99f2216ce97c6952abd599f91581bbb5437df5a3c7f4ed6f5"),
    "two-point-0.3": ("36e8efb12509b3b4423097029e4e93c1ba86ae18ea458741d6caa2e2d6470677",
                      "6aa035d986c569ae938cd90f42cd388043042c9b009d08dca93aa59ea8a36114"),
}

# canonical JSON of one_step_invariance_report(dist, 200003, 20260815): four
# sample blocks of at most 2^16 values, or ten of a third of that, the last
# block ragged; both letter rules and a one-point dist
INVARIANCE_DISTS = {
    "two-point": ThetaDist.two_point(ALPHA),
    "two-point-0.3": GATHER_DISTS["two-point-0.3"],
    "three-point-coarse": ThetaDist([0.3, 0.6, 1.0], [0.2, 0.3, 0.5]),
    "three-point-fine": GATHER_DISTS["three-point"],
    "twenty-point": ThetaDist(np.linspace(0.05, 1.0, 20), np.arange(1, 21) / 210),
    "one-point": ThetaDist([1.0], [1.0]),
}
INVARIANCE_SHA256 = {
    "two-point": "51efe0229dff4510406d7589efeb5939ffa9079ff62acf869936cfc4f56aef8e",
    "two-point-0.3": "77a5d291e22ab2ff943bc413997ff1e22739c9ce5a45f8668131cae83bcb62cf",
    "three-point-coarse": "8415320b4a3e0942d2f68504285c0d9b7b5209886962edb50f4e55fae66853de",
    "three-point-fine": "f565067e2d5df5850799d6ecec22dd4cf0bebab730fca83a481ba9e060e8e05e",
    "twenty-point": "ccee77750bf98149078902f6dd8bb60ed146b91348242cc31aaa42301e6b963a",
    "one-point": "e63f4e2bf0614e6c75001d925dfe87b62b3aa55efce17c86b12f32300f562220",
}
# canonical JSON of one_step_invariance_report(two_point(1/sqrt 2), 10**6, 20260814):
# acceptance criterion 1 at its size and seed, in 16 blocks of 2^16 samples or 31 of half that
CRITERION_1_SHA256 = "c3c87a3c81e14a46dd961a7f37c6cba37ebecf5fbb37719338376e111ed8af76"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, digest", CLI_SHA256,
                         ids=["bvf-check", "simulate-json", "simulate-csv", "rate-q17-json",
                              "rate-q17-csv", "rate-q41-json", "rate-q41-csv",
                              "rate-threaded-json", "rate-threaded-csv"])
def test_cli_report_digest(argv, digest, workers):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv + ["--workers", workers]) == 0
    assert _digest(out.getvalue().encode()) == digest


@pytest.mark.parametrize("blocks", [1, 2])
def test_backward_diameter_digest(split_runs, blocks):
    split_runs(10 ** 4, blocks)
    diam = backward_diam_ensemble(ThetaDist.two_point(math.sqrt(0.5)), 1000,
                                  TrialPlan(2025, 10 ** 4))
    assert _digest(diam.astype("<f8").tobytes()) == DIAM_SHA256


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("name", sorted(GATHER_DISTS))
def test_gather_path_digests(split_runs, name, blocks):
    split_runs(3000, blocks)
    dist = GATHER_DISTS[name]
    fwd = forward_values(dist, 0.2, 1001, TrialPlan(31, 3000))
    diam = backward_diam_ensemble(dist, 1001, TrialPlan(32, 3000))
    assert (_digest(fwd.astype("<f8").tobytes()),
            _digest(diam.astype("<f8").tobytes())) == GATHER_SHA256[name]


@pytest.mark.parametrize("shrink", [1, 3])
@pytest.mark.parametrize("name", sorted(INVARIANCE_DISTS))
def test_one_step_invariance_digests(monkeypatch, name, shrink):
    # blocks of 2^16 samples, or of a third of that
    monkeypatch.setattr(experiments, "_TRIAL_BLOCK", experiments._TRIAL_BLOCK // shrink)
    report = one_step_invariance_report(INVARIANCE_DISTS[name], 200003, 20260815)
    assert _digest(canonical_json(report).encode()) == INVARIANCE_SHA256[name]


@pytest.mark.parametrize("shrink", [1, 2])
def test_criterion_1_invariance_digest(monkeypatch, shrink):
    monkeypatch.setattr(experiments, "_TRIAL_BLOCK", experiments._TRIAL_BLOCK // shrink)
    report = one_step_invariance_report(ThetaDist.two_point(ALPHA), 10 ** 6, 20260814)
    assert _digest(canonical_json(report).encode()) == CRITERION_1_SHA256


# stdout of the exact walk oracle: the full fraction at n = 30 and at n = 29
# (odd horizon, so no middle term), and the float-only report at n = 30
WALK_ORACLE_SHA256 = [
    (["--n", "30"], "a23842d99b11ab35438e73b69e105a630f1b7195272158cb41ef3a2d77b0cd50"),
    (["--n", "29"], "668213a68d58b7742bf8553ec3d310eafd439655800996dabb2867242ae153ab"),
    (["--n", "30", "--float"],
     "998b1b5683da14800ec1a7ffc519085d8f6b61c971c2a321edfb6d9f6fd1095a"),
]


@pytest.mark.parametrize("argv, digest", WALK_ORACLE_SHA256,
                         ids=["n30", "n29", "n30-float"])
def test_walk_oracle_digest(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["walk-oracle"] + argv) == 0
    assert _digest(out.getvalue().encode()) == digest
