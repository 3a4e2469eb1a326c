"""A model of the letter stream of a uniform two-point dist, hashed in Python ints.

It is written from the rule alone and imports nothing from foldmap, so the
tests can hold the library's word kernels, and every pinned digest of a
two-point report, against it:

    key_t   = mix64(seed + (t + 1) G)              row t of a master seed
    h[t, c] = mix64(key_t + (c + 1) G)             hash cell c of row t
    letter j of row t = support[bit 63 - (j mod 64) of h[t, j // 64]]

with G = 0x9E3779B97F4A7C15 and mix64 the SplitMix64 finalizer, all mod 2^64.
Every hash is a Python int. The folds take one letter column of all rows at
a time, by the plain formulas, so a run of 10^5 rows stays quick.
"""

import numpy as np

MASK = (1 << 64) - 1
G = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def row_key(seed: int, t: int) -> int:
    return mix64(seed + (t + 1) * G)


def cell_letter(support, key: int, j: int) -> float:
    """Letter j of the row whose key is `key`."""
    h = mix64(key + (j // 64 + 1) * G)
    return support[(h >> (63 - j % 64)) & 1]


def hashes(seed: int, first: int, rows: int, n: int) -> np.ndarray:
    """h[t, c] of rows first .. first+rows-1 for the cells that hold letters
    0 .. n-1, as a (rows, ceil(n / 64)) uint64 array."""
    cells = (n + 63) // 64
    out = np.zeros((rows, cells), dtype=np.uint64)
    for i in range(rows):
        key = row_key(seed, first + i)
        out[i] = [mix64(key + (c + 1) * G) for c in range(cells)]
    return out


def letter_column(support, h: np.ndarray, j: int) -> np.ndarray:
    """Letter j of every row whose hashes are h."""
    bit = (h[:, j // 64] >> np.uint64(63 - j % 64)) & np.uint64(1)
    return np.where(bit == 1, support[1], support[0])


def bits(seed: int, first: int, rows: int, n: int) -> np.ndarray:
    """The letter indices, 0 or 1, of cells 0 .. n-1: a (rows, n) array."""
    out = np.zeros((rows, n), dtype=np.intp)
    for i in range(rows):
        key, row = row_key(seed, first + i), []
        for c in range((n + 63) // 64):
            h = mix64(key + (c + 1) * G)
            row.extend((h >> (63 - k)) & 1 for k in range(64))
        out[i] = row[:n]
    return out


def _fold_point(theta, x):
    return np.abs(theta - x)


def _fold_interval(theta, lo, hi):
    return (np.maximum(np.maximum(lo - theta, theta - hi), 0.0),
            np.maximum(np.abs(theta - lo), np.abs(theta - hi)))


def point_folds(support, x0: float, n: int, seed: int, first: int, rows: int,
                backward: bool = False) -> np.ndarray:
    """x0 folded through letters 0 .. n-1 of each row: letter 0 first
    (forward_values), or letter 0 last (the backward rows of
    law_equality_report)."""
    h = hashes(seed, first, rows, n)
    x = np.full(rows, float(x0))
    for j in (range(n - 1, -1, -1) if backward else range(n)):
        x = _fold_point(letter_column(support, h, j), x)
    return x


def backward_diameters(support, n: int, seed: int, rows: int, bound=None) -> np.ndarray:
    """backward_diam_ensemble: [0, bound] folded with letter 0 last; the
    bound is the dist's largest point, max(support) unless given."""
    h = hashes(seed, 0, rows, n)
    lo, hi = np.zeros(rows), np.full(rows, float(max(support) if bound is None else bound))
    for j in range(n - 1, -1, -1):
        lo, hi = _fold_interval(letter_column(support, h, j), lo, hi)
    return hi - lo


def stopping_time(alpha: float, epsilon: float, seed: int, t: int, budget: int) -> int:
    """rate_experiment's stopping time for row t, from scalar folds: the first
    k at which [0, 1], folded with letter 0 first, is shorter than epsilon;
    budget + 1 (a failure) if no k <= budget is."""
    if 1.0 < epsilon:
        return 0
    key, lo, hi = row_key(seed, t), 0.0, 1.0
    for k in range(budget):
        if k % 64 == 0:
            h = mix64(key + (k // 64 + 1) * G)
        theta = (alpha, 1.0)[(h >> (63 - k % 64)) & 1]
        lo, hi = max(0.0, lo - theta, theta - hi), max(abs(theta - lo), abs(theta - hi))
        if hi - lo < epsilon:
            return k + 1
    return budget + 1
