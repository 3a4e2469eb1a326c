"""Continued fraction expansion, convergents, and close-return search."""

import math

import numpy as np
import pytest

from foldmap import (LemmaViolationError, PrecisionError, PreconditionError,
                     contfrac_expand, convergent_denominators, convergents,
                     find_close_k)
from foldmap.contfrac import check_close_k

INV_SQRT2 = math.sqrt(0.5)
GOLDEN_CONJ = (math.sqrt(5) - 1) / 2


def zsqrt2_q(n):
    """Closed-form oracle for the denominators at inv-sqrt2.

    q_n = ((1 + sqrt 2)^n + (1 - sqrt 2)^n) / 2, computed exactly by
    integer exponentiation of (1, 1) in Z[sqrt 2].
    """
    a, b = 1, 0  # a + b sqrt2 = (1 + sqrt2)^0
    for _ in range(n):
        a, b = a + 2 * b, a + b
    return a


class TestExpand:
    def test_inv_sqrt2(self):
        assert contfrac_expand(INV_SQRT2, 8) == [0, 1, 2, 2, 2, 2, 2, 2, 2]

    def test_golden_conjugate(self):
        assert contfrac_expand(GOLDEN_CONJ, 10) == [0] + [1] * 10

    def test_rational_snaps_cleanly(self):
        # float(2/7) is a hair below 2/7; the Gauss map still has to
        # terminate with the canonical expansion
        assert contfrac_expand(2 / 7, 10) == [0, 3, 2]

    def test_e_minus_2_prefix(self):
        assert contfrac_expand(math.e - 2, 8) == [0, 1, 2, 1, 1, 4, 1, 1, 6]

    def test_term_cap(self):
        with pytest.raises(PrecisionError):
            contfrac_expand(INV_SQRT2, 41)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            contfrac_expand(0.0, 5)
        with pytest.raises(PreconditionError):
            contfrac_expand(1.0, 5)


class TestConvergents:
    def test_denominator_sequence(self):
        cs = convergents(contfrac_expand(INV_SQRT2, 9))
        assert [c.q for c in cs] == [1, 1, 3, 7, 17, 41, 99, 239, 577, 1393]

    def test_fibonacci_for_golden(self):
        cs = convergents(contfrac_expand(GOLDEN_CONJ, 10))
        assert [c.q for c in cs] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_coprime(self):
        for c in convergents(contfrac_expand(INV_SQRT2, 12)):
            assert math.gcd(c.p, c.q) == 1

    def test_approximation_quality(self):
        c = convergents(contfrac_expand(INV_SQRT2, 5))[-1]
        assert (c.p, c.q) == (29, 41)
        assert abs(INV_SQRT2 - c.value) < 1 / (2 * 41 ** 2)

    def test_closed_form_oracle(self):
        # denominators are half-companion Pell numbers
        qs = [c.q for c in convergents(contfrac_expand(INV_SQRT2, 20))]
        for n in range(21):
            assert qs[n] == zsqrt2_q(n)

    def test_alternating_sign_of_error(self):
        cs = convergents(contfrac_expand(INV_SQRT2, 8))
        signs = [math.copysign(1, INV_SQRT2 - c.value) for c in cs]
        assert signs == [1, -1] * 4 + [1]

    def test_denominator_list(self):
        assert convergent_denominators(INV_SQRT2, 10 ** 4) == \
            [1, 3, 7, 17, 41, 99, 239, 577, 1393, 3363, 8119]

    def test_overflow_guard(self):
        with pytest.raises(PrecisionError):
            convergents([9] * 45)

    def test_array_quotients(self):
        # the emptiness check asked an array for its truth value, a bare ValueError
        quotients = contfrac_expand(INV_SQRT2, 9)
        assert convergents(np.array(quotients)) == convergents(quotients)

    def test_quotient_validation(self):
        with pytest.raises(PreconditionError):
            convergents([])
        with pytest.raises(PreconditionError):
            convergents([0, 1, 0])


class TestFindCloseK:
    def test_zero_shift_accepted(self):
        assert find_close_k(INV_SQRT2, 0.3, 3) == {"k": 0, "value": 0.3}

    def test_interior_target(self):
        out = find_close_k(INV_SQRT2, 0.6, 3)
        assert out["k"] == 2
        assert abs(out["value"] - ((0.6 - 2 * INV_SQRT2) % 1.0)) < 1e-12

    def test_frozen_example(self):
        out = find_close_k(INV_SQRT2, 0.5, 17)
        assert out["k"] == 2
        assert abs(out["value"] - 0.08578643762690485) < 1e-12

    def test_bound_holds_on_grid(self):
        for q in (3, 7, 17, 41):
            for i in range(50):
                x = (i + 0.5) / 50
                assert find_close_k(INV_SQRT2, x, q)["value"] < 1.5 / q

    def test_violation_raises(self):
        # the two shifts of alpha = 0.1 leave 0.9 and 0.8, both >= 0.75
        with pytest.raises(LemmaViolationError):
            find_close_k(0.1, 0.9, 2)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            find_close_k(INV_SQRT2, 1.5, 3)
        with pytest.raises(PreconditionError):
            find_close_k(INV_SQRT2, 0.5, 0)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 1.5, 1.0, 0.0,
                                       -0.0, -0.3])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # before the check: inf gave k = 1 with value -inf, 1.5 gave value 0.0,
        # and NaN, 0 and -0.3 ended in LemmaViolationError
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            find_close_k(alpha, 0.5, 17)
        with pytest.raises(PreconditionError):
            check_close_k(alpha, 0.5, 17)


class TestSpacing:
    def test_gap_bound_along_denominators(self):
        # the q orbit points {<k alpha>} leave circle gaps below 3/(2q)
        for q in (3, 7, 17, 41, 99, 239):
            pts = sorted((k * INV_SQRT2) % 1.0 for k in range(q))
            gaps = [b - a for a, b in zip(pts, pts[1:])]
            gaps.append(1.0 - pts[-1] + pts[0])
            assert max(gaps) * 2 * q / 3 < 1.0
