"""CSV cells: exact-type fast paths, the numpy and bool cases, and float arrays;
JSON: plain lists as they are, numpy values converted, dict keys sorted as strs."""

import numpy as np

from foldmap.serialize import canonical_json, jsonable, rows_to_csv


def test_cells_by_type():
    row = [0.1, 3, True, False, np.True_, np.float64(0.2), np.float32(0.5), np.int64(-7),
           "x", 1e300, -0.0]
    assert rows_to_csv(["h"], [row]) == "h\n0.1,3,1,0,1,0.2,0.5,-7,x,1e+300,-0.0\n"


def test_layout():
    assert rows_to_csv(["a", "b"], []) == "a,b\n"
    assert rows_to_csv(["a", "b"], iter([(1, 2.5), (3, 4.0)])) == "a,b\n1,2.5\n3,4.0\n"


def test_float_array_renders_like_its_rows():
    rng = np.random.default_rng(3)
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, np.inf, -np.inf, np.nan, 0.1, 0.1])
    for values in (edge, rng.random(500), rng.choice(edge[:7], 300), np.empty(0)):
        assert rows_to_csv(["trial", "value"], values) == \
            rows_to_csv(["trial", "value"], enumerate(values.tolist()))


def test_plain_lists_pass_through():
    plain = [1, 0.5, True, "x", None]
    assert jsonable(plain) is plain
    assert jsonable((1, 2.5)) == (1, 2.5)
    mixed = [1, np.int64(2), np.float64(0.5), np.True_, [np.float32(0.25)], (3, 4)]
    got = jsonable(mixed)
    assert got == [1, 2, 0.5, True, [0.25], (3, 4)]
    assert [type(v) for v in got[:4]] == [int, int, float, bool]
    assert canonical_json(mixed) == "[1, 2, 0.5, true, [0.25], [3, 4]]\n"


def test_int_keys_sort_as_strings():
    # keys past 9: "10" sorts before "2" once the keys are strs
    report = {2: [1, 2], 10: {3: np.int64(4), 11: None}, 1: "a"}
    assert canonical_json(report) == \
        '{"1": "a", "10": {"11": null, "3": 4}, "2": [1, 2]}\n'
