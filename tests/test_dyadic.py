"""Dyadic points, their cells, and digitwise XOR addition."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from walshdiv.dyadic import DyadicPoint, bit, cell_index, parse_point, xor_add


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


# -- cells ------------------------------------------------------------------


class TestCellIndex:
    def test_cells_are_half_open(self):
        # [1/4, 1/2) is cell 1 at level 2: its left end belongs, its right does not
        assert cell_index(DyadicPoint(1, 2), 2) == 1
        assert cell_index(DyadicPoint(7, 4), 2) == 1
        assert cell_index(DyadicPoint(1, 1), 2) == 2
        assert cell_index(DyadicPoint.zero(), 2) == 0

    def test_cell_index(self):
        x = DyadicPoint(5, 4)  # 0.0101
        assert [cell_index(x, level) for level in (0, 2, 4, 7)] == [0, 1, 5, 40]

    @given(points, st.integers(min_value=0, max_value=14))
    def test_cell_contains_its_point(self, x, level):
        index = cell_index(x, level)
        assert Fraction(index, 1 << level) <= value(x) < Fraction(index + 1, 1 << level)

    def test_plus_half_membership_is_a_digit_test(self):
        # x lies in the plus-half of its level-j cell iff digit j+1 is 0
        for i in range(1 << 8):
            x = DyadicPoint(i, 8)
            for j in range(0, 6):
                # the plus half is the left child, index 2·cell
                in_plus = cell_index(x, j + 1) == 2 * cell_index(x, j)
                assert in_plus == (bit(x, j + 1) == 0)

    def test_descent_quarter_is_a_two_digit_test(self):
        # x in the minus-half of the plus-half of its level-k cell
        # ⟺ digit k+1 is 0 and digit k+2 is 1
        for i in range(1 << 8):
            x = DyadicPoint(i, 8)
            for k in range(0, 5):
                # the right child of the left child: index 4·cell + 1
                in_quarter = cell_index(x, k + 2) == 4 * cell_index(x, k) + 1
                assert in_quarter == (bit(x, k + 1) == 0 and bit(x, k + 2) == 1)

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            cell_index(DyadicPoint(1, 2), -1)
