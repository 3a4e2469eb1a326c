"""Continued fractions, convergents, and the close-return witness.

Expansion runs the Gauss map in double precision, which is reliable to about
40 partial quotients; beyond that the map fabricates digits, so depth is
capped. Convergent numerators and denominators use exact integers with a
128-bit overflow guard.

find_close_k realizes the guarantee that among the first q_n multiples of
alpha, some k brings <x - k*alpha> within 3/(2*q_n) of zero, for q_n a
convergent denominator. Failure of the exhaustive search is reported as a
structural error since it signals a bad q_n or a precision fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (LemmaViolationError, PrecisionError, PreconditionError, as_int,
                     comparable)
from .orbit import _check_alpha

_MAX_TERMS = 40
_GAUSS_TOL = 1e-12
_Q_LIMIT = 1 << 127
_CLOSE_K_MAX = 10 ** 7  # q_n scalar steps: about 0.6 s at the bound (2-core Xeon, Python 3.11)


def check_contfrac(alpha: float, terms: int) -> None:
    """The preconditions of contfrac_expand: alpha in (0, 1), terms in 0..40."""
    _check_alpha(alpha)
    if not comparable(terms, "terms") >= 0:  # a NaN fails the comparison too
        raise PreconditionError("terms must be >= 0")
    as_int(terms, "terms")
    if terms > _MAX_TERMS:
        raise PrecisionError(f"terms > {_MAX_TERMS} exceeds double-precision reliability")


def contfrac_expand(alpha: float, terms: int) -> list[int]:
    """Partial quotients [a_0, a_1, ..., a_terms] of alpha in (0, 1).

    The expansion stops early when the Gauss-map remainder drops below 1e-12
    (a numerically rational input); a reciprocal landing within 1e-12 below
    an integer is snapped to it, so dyadic approximations of rationals such
    as 2/7 terminate with the canonical quotients.
    """
    check_contfrac(alpha, terms)
    quotients = [0]
    frac = alpha
    while len(quotients) <= terms and frac >= _GAUSS_TOL:
        y = 1.0 / frac
        a = int(y)
        frac = y - a
        if 1.0 - frac < _GAUSS_TOL:  # y within 1e-12 below an integer
            a += 1
            frac = 0.0
        quotients.append(a)
    return quotients


@dataclass(frozen=True)
class Convergent:
    """One truncation p/q of a continued fraction."""

    index: int
    a: int
    p: int
    q: int

    @property
    def value(self) -> float:
        return self.p / self.q


def convergents(quotients: list[int], q_max: float | None = None) -> list[Convergent]:
    """Convergents from partial quotients via the standard recursion.

    p_n = a_n p_{n-1} + p_{n-2}, likewise for q, seeded by p_{-1}/q_{-1} = 1/0
    and p_0/q_0 = a_0/1. Each quotient is an integer. With q_max, the list
    ends at the first denominator >= q_max, so no later convergent is
    computed or meets the 128-bit guard.
    """
    try:
        quotients = [as_int(a, "partial quotient") for a in quotients]
    except TypeError:  # None or a bare number
        raise PreconditionError("partial quotients must be a sequence of integers") from None
    if not quotients:
        raise PreconditionError("need at least one partial quotient")
    if q_max is not None and comparable(q_max, "q_max", "a number") != q_max:  # only NaN
        raise PreconditionError("q_max must be a number, not NaN")
    if any(a < 1 for a in quotients[1:]):
        raise PreconditionError("partial quotients after a_0 must be >= 1")
    out = []
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1
    out.append(Convergent(0, quotients[0], p, q))
    for i, a in enumerate(quotients[1:], start=1):
        if q_max is not None and q >= q_max:
            break
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > _Q_LIMIT:
            raise PrecisionError("convergent denominator exceeds 128-bit guard")
        out.append(Convergent(i, a, p, q))
    return out


def convergent_denominators(alpha: float, q_max: int) -> list[int]:
    """Denominators q_n <= q_max for alpha, ascending, duplicates dropped."""
    if comparable(q_max, "q_max", "a number") != q_max:  # only NaN
        raise PreconditionError("q_max must be a number, not NaN")
    qs = []
    for c in convergents(contfrac_expand(alpha, _MAX_TERMS), q_max):
        if c.q > q_max:
            break
        if not qs or c.q != qs[-1]:
            qs.append(c.q)
    return qs


def check_close_k(alpha: float, x: float, q_n: int) -> None:
    """The preconditions of find_close_k: alpha in (0, 1), x in [0, 1] and
    an integer q_n in 1.._CLOSE_K_MAX."""
    _check_alpha(alpha)
    # no comparable() calls: the close-k grid makes one check per grid point
    try:
        if not 0.0 <= x <= 1.0:
            raise PreconditionError("x must lie in [0, 1]")
    except TypeError:
        raise PreconditionError("x must be a number") from None
    try:
        if q_n < 1:
            raise PreconditionError("q_n must be >= 1")
    except TypeError:
        raise PreconditionError("q_n must be an integer") from None
    if as_int(q_n, "q_n") > _CLOSE_K_MAX:
        raise PreconditionError(f"q_n must be <= {_CLOSE_K_MAX}")


def find_close_k(alpha: float, x: float, q_n: int) -> dict:
    """Smallest k < q_n with <x - k*alpha> below 3/(2*q_n).

    Returns {"k": k, "value": <x - k*alpha>}. Exhaustive over k in [0, q_n);
    raises LemmaViolationError when no witness exists, which for a genuine
    convergent denominator indicates a precision fault.
    """
    check_close_k(alpha, x, q_n)
    bound = 1.5 / q_n
    y = x % 1.0
    for k in range(q_n):
        if y < bound:
            return {"k": k, "value": y}
        y -= alpha
        if y < 0.0:
            y += 1.0
    raise LemmaViolationError(
        f"no k < {q_n} with <x - k*alpha> < {bound}; is q_n a convergent denominator?")
