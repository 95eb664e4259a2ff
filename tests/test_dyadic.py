"""Dyadic points, their cells, and digitwise XOR addition."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from walshdiv.dyadic import (
    DyadicInterval,
    DyadicPoint,
    bit,
    containing_interval,
    parse_point,
    xor_add,
)


def value(x: DyadicPoint) -> Fraction:
    return Fraction(x.numerator, 1 << x.exponent)


def digits_by_doubling(x: Fraction, count: int) -> list[int]:
    """Binary digits x_1..x_count of x in [0,1) via repeated doubling.

    Independent of DyadicPoint's bit extraction: works on plain Fractions.
    """
    out = []
    for _ in range(count):
        x *= 2
        d = int(x >= 1)
        out.append(d)
        x -= d
    return out


points = st.builds(
    DyadicPoint,
    st.integers(min_value=0, max_value=(1 << 12) - 1),
    st.just(12),
)


# -- DyadicPoint ------------------------------------------------------------


class TestDyadicPoint:
    def test_normalizes_to_odd_numerator(self):
        assert DyadicPoint(6, 3) == DyadicPoint(3, 2)
        assert DyadicPoint(4, 4) == DyadicPoint(1, 2)
        p = DyadicPoint(12, 5)
        assert p.numerator == 3 and p.exponent == 3

    def test_zero_normalizes_exponent(self):
        assert DyadicPoint(0, 7) == DyadicPoint.zero()
        assert DyadicPoint.zero().exponent == 0
        assert DyadicPoint.zero().numerator == 0

    @pytest.mark.parametrize("num, exp", [(-1, 2), (4, 2), (1, -1), (16, 4)])
    def test_rejects_points_outside_unit_interval(self, num, exp):
        with pytest.raises(ValueError):
            DyadicPoint(num, exp)

    def test_ordering_matches_values(self):
        pts = [DyadicPoint(i, 5) for i in range(32)]
        assert sorted(pts) == pts
        assert DyadicPoint(1, 2) < DyadicPoint(1, 1)

    def test_scaled_numerator(self):
        p = DyadicPoint(3, 2)
        assert p.scaled_numerator(2) == 3
        assert p.scaled_numerator(5) == 24
        with pytest.raises(ValueError):
            p.scaled_numerator(1)

    def test_text_round_trip(self):
        p = DyadicPoint(11, 6)
        assert p.to_text() == "11/2^6"
        assert parse_point("11/2^6") == p
        assert parse_point("0") == DyadicPoint.zero()
        with pytest.raises(ValueError):
            parse_point("3/5")

    @given(points)
    def test_bit_matches_doubling_expansion(self, p):
        want = digits_by_doubling(value(p), 14)
        assert [bit(p, j) for j in range(1, 15)] == want

    def test_bits_beyond_exponent_are_zero(self):
        p = DyadicPoint(1, 3)
        assert bit(p, 3) == 1
        assert all(bit(p, j) == 0 for j in range(4, 12))


# -- xor_add ----------------------------------------------------------------


class TestXorAdd:
    @given(points, points)
    def test_digitwise_xor_with_no_carries(self, x, y):
        z = xor_add(x, y)
        for j in range(1, 14):
            assert bit(z, j) == bit(x, j) ^ bit(y, j)

    @given(points, points, points)
    def test_group_axioms(self, x, y, z):
        assert xor_add(x, y) == xor_add(y, x)
        assert xor_add(xor_add(x, y), z) == xor_add(x, xor_add(y, z))
        assert xor_add(x, DyadicPoint.zero()) == x
        assert xor_add(x, x) == DyadicPoint.zero()

    def test_mixed_exponents(self):
        # 1/2 ⊕ 1/4 = 3/4, and 3/4 ⊕ 1/2 = 1/4: XOR, not addition
        assert xor_add(DyadicPoint(1, 1), DyadicPoint(1, 2)) == DyadicPoint(3, 2)
        assert xor_add(DyadicPoint(3, 2), DyadicPoint(1, 1)) == DyadicPoint(1, 2)


# -- intervals --------------------------------------------------------------


class TestDyadicInterval:
    def test_contains_is_half_open(self):
        iv = DyadicInterval(2, 1)  # [1/4, 1/2)
        assert containing_interval(DyadicPoint(1, 2), 2) == iv
        assert containing_interval(DyadicPoint(7, 4), 2) == iv
        assert containing_interval(DyadicPoint(1, 1), 2) != iv
        assert containing_interval(DyadicPoint.zero(), 2) != iv

    def test_containing_interval(self):
        x = DyadicPoint(5, 4)  # 0.0101
        assert containing_interval(x, 0) == DyadicInterval(0, 0)
        assert containing_interval(x, 2) == DyadicInterval(2, 1)
        assert containing_interval(x, 4) == DyadicInterval(4, 5)
        assert containing_interval(x, 7) == DyadicInterval(7, 40)

    @given(points, st.integers(min_value=0, max_value=14))
    def test_containing_interval_contains_its_point(self, x, level):
        iv = containing_interval(x, level)
        assert iv.level == level
        assert Fraction(iv.index, 1 << level) <= value(x) < Fraction(iv.index + 1, 1 << level)

    def test_plus_half_membership_is_a_digit_test(self):
        # x lies in the plus-half of its level-j cell iff digit j+1 is 0
        for i in range(1 << 8):
            x = DyadicPoint(i, 8)
            for j in range(0, 6):
                cell = containing_interval(x, j)
                # the plus half is the left child, index 2·cell.index
                in_plus = containing_interval(x, j + 1).index == 2 * cell.index
                assert in_plus == (bit(x, j + 1) == 0)

    def test_descent_quarter_is_a_two_digit_test(self):
        # x in the minus-half of the plus-half of its level-k cell
        # ⟺ digit k+1 is 0 and digit k+2 is 1
        for i in range(1 << 8):
            x = DyadicPoint(i, 8)
            for k in range(0, 5):
                cell = containing_interval(x, k)
                # the right child of the left child: index 4·cell.index + 1
                in_quarter = containing_interval(x, k + 2).index == 4 * cell.index + 1
                assert in_quarter == (bit(x, k + 1) == 0 and bit(x, k + 2) == 1)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            DyadicInterval(2, 4)
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
