"""Pinned bytes of the rho chart, the rho-audit report and the orbit exports.

The chart's rho and level_min arrays and each CLI report are compared with
one SHA-256 digest, so a change to the graph build, the rho chart, the label
walk or the DOT, JSON and CSV writers that moves a single bit of them fails
here.
"""

import contextlib
import hashlib
import io
import math

import pytest

from foldmap.cli import run
from foldmap.orbit import OrbitLabel, build_graph_window, rho_chart

INV_SQRT2 = math.sqrt(0.5)
GOLDEN_CONJ = (math.sqrt(5.0) - 1.0) / 2.0
NUDGED = 0.3 + 1e-5 * math.sqrt(2)  # off the rational grid

# (alpha, x, window, level_lo, digest of rho as <i8 then level_min as <f8)
CHART_SHA256 = [
    (INV_SQRT2, 0.2, 2 * 10 ** 4, -34142,
     "14eb9b9873ebb4a8743b613ac54335cebe672b67dd46026191d75e7e24a683f0"),
    (INV_SQRT2, 0.2, 10 ** 5, -170711,
     "ee728022db4c59441ba0067fb9c670d01ae64fecb3a41a279d963d66f8e5b27a"),
    (GOLDEN_CONJ, 0.17, 2000, -3236,
     "464bf58e359b009c9187402c55638352638b99c1bb5b98244c0a8a2b50293bff"),
    (NUDGED, 0.1, 2000, -2600,
     "7aff41c3b2272991db1cb1a8646ab239818c3248b0c0c92c8435465a906f777e"),
]

_AUDIT = ["rho-audit", "--alpha", "inv-sqrt2", "--x0", "0.2", "--steps", "20000",
          "--window", "20000", "--seed"]
CLI_SHA256 = [
    (_AUDIT + ["17"], "1332c81f9932a3801c4be3bb57702a3f909844cd02ceab9ce3946c535deb9c5c"),
    (_AUDIT + ["18"], "c36381c93a18331a0e55b252b7bb5fa6adb46df893835abd0a904f5573556265"),
    (["rho-audit", "--alpha", "golden-conj", "--x0", "0.1", "--steps", "5000",
      "--seed", "1"],
     "fdc0ab9640727917f826723afd334b5b33b9dd138df07b9195d37e1b8f563316"),
]


_ORBIT = ["orbit", "--alpha", "inv-sqrt2", "--x", "0.2", "--window"]
# (argv, digest, line count); at golden-conj window 3 the lower-edge vertex
# (-3,+1) is small and (-3,-1) large, so both alpha-fold branches leave the
# window there and neither vertex has an alpha edge
ORBIT_SHA256 = [
    (_ORBIT + ["10000", "--format", "dot"],
     "8c7cb457d00ad1a24f0639a0707bbca806a76ecaf487e88efb0fe2dbf6f9a765", 120006),
    (_ORBIT + ["100000", "--format", "json"],
     "22b0deb1a76272c73c7238751a732012a3102261834801b2b58545d0bb0f0f05", 1),
    (["orbit", "--alpha", "golden-conj", "--x", "0.17", "--window", "3", "--format", "dot"],
     "2af10aea8a9502728cbc0b66785f9755174ce77818290ff2b4c870be49076df9", 42),
    (_ORBIT + ["10000", "--format", "csv"],
     "88b7c6161b526a929e006cae807f5b5bc5b70f2fe13a4e92ab84f502081c3a3a", 40003),
    (["orbit", "--alpha", "golden-conj", "--x", "0.17", "--window", "3", "--format", "csv"],
     "d8e1ee9a33feb760b318d363971f29009ee0c6602a1bfd80462ec361fac3d4c1", 15),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("alpha, x, window, level_lo, digest", CHART_SHA256,
                         ids=["inv-sqrt2-2e4", "inv-sqrt2-1e5", "golden-conj", "nudged"])
def test_rho_chart_digest(alpha, x, window, level_lo, digest):
    chart = rho_chart(build_graph_window(alpha, x, window), OrbitLabel(0, 1))
    assert chart.level_lo == level_lo
    data = chart.rho.astype("<i8").tobytes() + chart.level_min.astype("<f8").tobytes()
    assert _digest(data) == digest


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv, digest", CLI_SHA256,
                         ids=["seed-17", "seed-18", "default-window"])
def test_rho_audit_digest(argv, digest):
    assert _digest(_stdout(argv).encode()) == digest


@pytest.mark.parametrize("argv, digest, lines", ORBIT_SHA256,
                         ids=["dot-1e4", "json-1e5", "dot-lower-edge", "csv-1e4",
                              "csv-lower-edge"])
def test_orbit_digest(argv, digest, lines):
    text = _stdout(argv)
    assert text.count("\n") == lines
    assert _digest(text.encode()) == digest
