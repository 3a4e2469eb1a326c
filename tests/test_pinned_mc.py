"""Pinned bytes of the trial-indexed Monte Carlo outputs.

Each output is produced at one and at two workers and compared with one
SHA-256 digest, so a change to the letter or fold kernels, the block layout
or the serializers that moves a single bit of these reports fails here.
The two-point digests are those of the one-bit letter rule, and
tests/test_bit_rule.py checks each against the model in tests/bit_oracle.py.
"""

import contextlib
import hashlib
import io
import math

import pytest

from foldmap import ThetaDist, TrialPlan
from foldmap.cli import run
from foldmap.experiments import backward_diam_ensemble, forward_values

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
# rate at the acceptance configurations (criterion 7), as JSON and as CSV;
# 2^14 trials give a two-worker run one block of 2^14 rows, so one thread
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


@pytest.mark.parametrize("workers", [1, 2])
def test_backward_diameter_digest(workers):
    diam = backward_diam_ensemble(ThetaDist.two_point(math.sqrt(0.5)), 1000,
                                  TrialPlan(2025, 10 ** 4), workers=workers)
    assert _digest(diam.astype("<f8").tobytes()) == DIAM_SHA256


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GATHER_DISTS))
def test_gather_path_digests(name, workers):
    dist = GATHER_DISTS[name]
    fwd = forward_values(dist, 0.2, 1001, TrialPlan(31, 3000), workers=workers)
    diam = backward_diam_ensemble(dist, 1001, TrialPlan(32, 3000), workers=workers)
    assert (_digest(fwd.astype("<f8").tobytes()),
            _digest(diam.astype("<f8").tobytes())) == GATHER_SHA256[name]
