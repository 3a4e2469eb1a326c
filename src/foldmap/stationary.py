"""Stationary law of the folding chain and the value it forces at alpha.

For a finite fold-point distribution the stationary CDF is piecewise linear:
its slope at y is Pr{theta > y} divided by the mean of theta, so breakpoints
sit at 0 and at the support points. For the uniform two-point support
{alpha, 1} this gives 2x/(1+alpha) below alpha and (x+alpha)/(1+alpha) above,
hence CDF(alpha) = 2*alpha/(1+alpha).

The second half of the module treats that value as an unknown z and recovers
it combinatorially: along integers n whose fractional part <n*alpha> is small,
the stationary CDF at <n*alpha> is an integer-coefficient affine function of
z, and the coefficient ratio (2n-2L)/(2n-L) converges to z as <n*alpha> -> 0.
L counts the indices i <= n with <i*alpha> at or above alpha; the convention
is pinned by tests against the closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, as_int
from .orbit import CLASS_TOL, _check_alpha, fractional_part
from .process import TILE_CELLS, ThetaDist, _count_cuts, _float_array
from .serialize import canonical_json, rows_to_csv


def _check_points(x) -> None:
    """A CDF is evaluated at numbers, -inf and inf among them, but not at NaN."""
    if np.isnan(_float_array(x, "CDF arguments")).any():
        raise PreconditionError("CDF argument must not be NaN")


class PiecewiseLinearCDF:
    """Continuous piecewise-linear CDF given by breakpoints and values.

    It is evaluated piece by piece in both directions, as np.interp does:
    at t on piece j, slope_j * (t - t_j) + y_j, with slope_j = (y_{j+1} -
    y_j) / (t_{j+1} - t_j) for knots (t_j, y_j), breakpoints to values or
    values to breakpoints. The slopes of both are made once here. Every
    slope and the span of the breakpoints must be finite, so no product is
    NaN; and a breakpoint or value of -0.0 is stored as 0.0, so at a knot the
    zero product adds to y_j as y_j itself, the value np.interp returns there.
    """

    def __init__(self, xs, values):
        xs = _float_array(xs, "breakpoints")
        values = _float_array(values, "values")
        if xs.ndim != 1 or xs.size < 2 or xs.shape != values.shape:
            raise PreconditionError("need matching 1-d breakpoints and values, length >= 2")
        # a NaN passes the order checks below, as inf at either end does
        if not (np.isfinite(xs).all() and np.isfinite(values).all()):
            raise PreconditionError("breakpoints and values must be finite")
        with np.errstate(divide="ignore", over="ignore"):
            run, rise = np.diff(xs), np.diff(values)
            slopes = rise / run
            # a flat piece is read only at its left end, where its slope
            # multiplies zero: 0.0 stands for it
            inverse = np.divide(run, rise, out=np.zeros_like(run), where=rise > 0)
        if np.any(run <= 0):
            raise PreconditionError("breakpoints must be strictly increasing")
        if values[0] != 0.0 or values[-1] != 1.0 or np.any(rise < 0):
            raise PreconditionError("values must rise from 0 to 1")
        # Python floats: the span overflows to inf without a warning
        if not (math.isfinite(float(xs[-1]) - float(xs[0])) and np.isfinite(slopes).all()
                and np.isfinite(inverse).all()):
            raise PreconditionError("slopes must be finite: breakpoints or values too close, "
                                    "or breakpoints too far apart")
        self.xs = xs + 0.0
        self.values = values + 0.0
        self.xs.flags.writeable = False
        self.values.flags.writeable = False
        # (t_j, y_j, slope_j) of each piece, as Python floats
        self._pieces = list(zip(self.xs.tolist(), self.values.tolist(), slopes.tolist()))
        # stationary_quantile's piece j is the count of these cuts at or
        # below u: a value that repeats its predecessor's counts only above
        # it, so a u at a flat piece stays on the piece's left end; the last
        # piece, of slope 0.0, is the top knot alone
        self._cuts = np.where(rise > 0, self.values[1:], np.nextafter(self.values[1:], 2.0))
        self._inverse = np.append(inverse, 0.0)

    def evaluate(self, x):
        """CDF at x (scalar or array); 0 left of the first breakpoint, 1 right of the last."""
        _check_points(x)
        return np.interp(x, self.xs, self.values, left=0.0, right=1.0)

    __call__ = evaluate

    def _evaluate_ascending(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """evaluate(x) for a 1-d ascending x, written into out, bit for bit.

        One searchsorted of the breakpoints into x splits it into pieces,
        and each piece is one affine pass; left of the first breakpoint is
        0.0 and from the last on 1.0 (its value), as np.interp gives.
        """
        ends = np.searchsorted(x, self.xs).tolist()
        out[:ends[0]] = 0.0
        for (t, y, slope), lo, hi in zip(self._pieces, ends, ends[1:]):
            if lo < hi:
                piece = np.subtract(x[lo:hi], t, out=out[lo:hi])
                piece *= slope
                piece += y
        out[ends[-1]:] = 1.0
        return out

    def to_csv(self) -> str:
        return rows_to_csv(["x", "F"], zip(self.xs, self.values))

    def to_json(self) -> str:
        return canonical_json({"schema": 1, "kind": "piecewise_linear_cdf",
                               "breakpoints": self.xs, "values": self.values})


def stationary_cdf(dist: ThetaDist) -> PiecewiseLinearCDF:
    """Exact stationary CDF of the folding chain for a finite fold-point law."""
    xs = np.concatenate(([0.0], dist.support))
    # Pr{theta > y} is constant between support points
    tails = 1.0 - np.concatenate(([0.0], np.cumsum(dist.weights)[:-1]))
    values = np.empty_like(xs)
    values[0] = 0.0
    np.cumsum(np.diff(xs) * tails / dist.mean, out=values[1:])
    values[-1] = 1.0  # analytically exact; pin against round-off
    return PiecewiseLinearCDF(xs, values)


def stationary_quantile(cdf: PiecewiseLinearCDF, u):
    """Smallest x with CDF(x) >= u; exact on linear pieces.

    u is a float or an array of them in [0, 1]. u is read on piece j, the
    number of the CDF's values at or below it, counted by compares (by
    bisection past process._CHAIN_CUTS values), and mapped to
    inverse_j * (u - v_j) + x_j: np.interp(u, cdf.values, cdf.xs) bit for
    bit where the values rise strictly. A u at a flat piece of the CDF maps
    to the piece's left end, its smallest x.
    """
    u_arr = _float_array(u, "quantile arguments")
    # min and max carry a NaN through, so this rejects NaN as well
    if u_arr.size and not (u_arr.min() >= 0 and u_arr.max() <= 1):
        raise PreconditionError("quantile argument must lie in [0, 1]")
    out = _quantile(cdf, u_arr, np.empty(u_arr.shape), np.empty(u_arr.shape))
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def _quantile(cdf: PiecewiseLinearCDF, u: np.ndarray, out: np.ndarray,
              spare: np.ndarray) -> np.ndarray:
    """stationary_quantile of a checked u, written into out; spare, a float
    array shaped like u, may be u itself, which is then overwritten.

    A cut above the largest u counts for no u, so it is left out: the top
    value's cut counts only where some u is 1.
    """
    cuts = cdf._cuts
    if u.size:
        cuts = cuts[:np.searchsorted(cuts, u.max(), side="right")]
    piece = _count_cuts(cuts, u, out.view(np.intp))
    np.subtract(u, np.take(cdf.values, piece, out=out, mode="clip"), out=out)
    out *= np.take(cdf._inverse, piece, out=spare, mode="clip")
    out += np.take(cdf.xs, piece, out=spare, mode="clip")
    return out


def sample_stationary(cdf: PiecewiseLinearCDF, rng: np.random.Generator, size=None):
    """Inverse-CDF sampling, deterministic given the generator state."""
    return stationary_quantile(cdf, rng.random(size))


def large_count(alpha: float, n: int) -> int:
    """Number of i in 1..n with <i*alpha> at or above alpha.

    For alpha > 1/2 these are the orbit points at or above the upper class
    cut; for alpha < 1/2 the same count covers the medium and large classes
    combined. Equals n - floor(n*alpha) for irrational alpha. n is at most
    10**7. The count takes i*alpha one tile of TILE_CELLS indices at a time,
    by the floats of np.arange(1, n + 1) * alpha, so it holds about 1 MB at
    any n.
    """
    _check_alpha(alpha)
    if as_int(n, "n", 1) > 10 ** 7:
        raise PreconditionError("n must be <= 10**7")
    count = 0
    for lo in range(1, n + 1, TILE_CELLS):
        i_alpha = np.arange(lo, min(lo + TILE_CELLS, n + 1), dtype=float)
        i_alpha *= alpha
        count += int(np.count_nonzero(fractional_part(i_alpha) >= alpha))
    return count


def is_small_vertex(alpha: float, n: int) -> bool:
    """True when <n*alpha> falls strictly inside the small class: below both
    cuts by more than orbit.CLASS_TOL."""
    _check_alpha(alpha)
    a = Fraction(alpha)  # the double's exact value, so <n*alpha> is exact for every n
    v = as_int(n, "n") * a.numerator % a.denominator / a.denominator
    return v < min(alpha, 1.0 - alpha) - CLASS_TOL


def z_estimate(alpha: float, n: int) -> float:
    """Ratio (2n - 2L)/(2n - L); converges to CDF(alpha) as <n*alpha> -> 0."""
    L = large_count(alpha, n)
    return (2 * n - 2 * L) / (2 * n - L)
