"""Pinned bytes of the trial-indexed Monte Carlo outputs.

Each output is produced at one and at two workers and compared with one
SHA-256 digest, so a change to the letter or fold kernels, the block layout
or the serializers that moves a single bit of these reports fails here.
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
     "87b8afd9551e1bb5ecb99e335d67917095ca205468a94271d4549a5f3e8fee83"),
    (SIMULATE + ["--format", "json"],
     "25e029f2ec1b1cadd0cc27dc5b1d5907f8469b0614e0ea3883d3465a9b22f4c8"),
    (SIMULATE + ["--format", "csv"],
     "7c8721aa17dfc366dc9d0c174f9820e50ef221c6006702b1ea91d8698474936b"),
]
# little-endian float64 bytes of backward_diam_ensemble(two_point, 1000, TrialPlan(2025, 10**4))
DIAM_SHA256 = "aebe531c5bf6dc1e53b7015b9d4a140e571e5277f649933af47f49fd948d738a"

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
                         ids=["bvf-check", "simulate-json", "simulate-csv"])
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
