"""Base-p digit rotations and the coprime-congruence scan."""

import pytest
from hypothesis import given, strategies as st

from tameplane.lab.digits import (
    DigitViolation,
    _check_bound,
    digit_lemma_scan,
    digits,
    rotated_value,
)

from oracles import digit_scan_steps


class TestDigits:
    def test_little_endian(self):
        assert digits(11, 2) == [1, 1, 0, 1]
        assert digits(11, 2, width=6) == [1, 1, 0, 1, 0, 0]
        assert digits(0, 5, width=3) == [0, 0, 0]

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5, 7]))
    def test_digits_reconstruct_the_value(self, n, p):
        assert sum(d * p ** k for k, d in enumerate(digits(n, p))) == n


class TestRotatedValue:
    def test_examples(self):
        # 6 = 110 in base 2; rotating by 1 inside width 3 gives 011 = 3... as
        # digit positions move up: d_k -> position (k + 1) mod 3
        assert rotated_value(6, 2, 3, 1) == 5
        assert rotated_value(6, 2, 3, 0) == 6

    @given(st.integers(1, 500), st.integers(0, 5))
    def test_congruent_to_shift_mod_p_pow_minus_one(self, m, a):
        p, N = 3, 6
        modulus = p ** N - 1
        if m >= p ** N:
            return
        assert rotated_value(m, p, N, a) % modulus == (m * p ** a) % modulus

    @given(st.integers(1, 3 ** 6 - 1), st.integers(0, 5))
    def test_rotation_is_a_bijection_of_widths(self, m, a):
        p, N = 3, 6
        back = rotated_value(rotated_value(m, p, N, a), p, N, N - a if a else 0)
        assert back == m

    def test_rejects_oversized_values(self):
        with pytest.raises(ValueError):
            rotated_value(8, 2, 3, 1)


class TestScan:
    @pytest.mark.parametrize("p,n_max", [(2, 4), (3, 3), (5, 2)])
    def test_small_scans_are_empty(self, p, n_max):
        assert digit_lemma_scan(p, n_max) == []

    @pytest.mark.parametrize("p,n_max", [(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 8)]
                             + [(5, n) for n in range(1, 6)] + [(7, 4), (11, 3), (101, 2)])
    def test_work_bound_is_at_least_the_steps_and_at_most_three_times(self, p, n_max):
        steps = digit_scan_steps(p, n_max)
        with pytest.raises(ValueError, match="work bound exceeded"):
            _check_bound(p, n_max, steps - 1)
        _check_bound(p, n_max, 3 * steps)

    def test_violation_record_shape(self):
        v = DigitViolation(2, 3, 1, 3, 5, "conclusion")
        assert v.p == 2 and v.reason == "conclusion"


@pytest.mark.parametrize("p", [-3, 0, 1])
def test_bases_below_two_are_rejected(p):
    # with p = 1 the digit loop never ends, and for p < 2 the scan has no
    # meaning: it would pass vacuously or report spurious counterexamples
    with pytest.raises(ValueError):
        digits(5, p)
    with pytest.raises(ValueError):
        digit_lemma_scan(p, 2)
