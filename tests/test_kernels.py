"""The integer kernels: butterflies, bit reversal, sign rows, cell scan, and
the decimal rows of the coefficient dump.

The cell scan is checked against an independent oracle that works from the
definitions: Rademacher products for membership, digit descents for the
selector, and exact Riemann sums for the kernel integral.  Both oracles cover
all 2^(n+2) cells; the scan covers the half with x_1 = 0, so each oracle's
upper half is checked to repeat its lower half.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walshdiv._kernels import (
    bit_reversal_table,
    cell_scan,
    decimal_rows,
    hadamard_inplace,
    walsh_sign_row,
)
from walshdiv.dyadic import DyadicPoint, xor_add
from walshdiv.walsh import dirichlet_star, rademacher, walsh

from oracles import cell_scan_by_position, decimal_rows as decimal_rows_oracle


class TestHadamard:
    def test_involution_up_to_scale(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-50, 50, size=256).astype(np.int64)
        a = v.copy()
        hadamard_inplace(a)
        hadamard_inplace(a)
        assert np.array_equal(a, 256 * v)

    def test_object_dtype_big_integers(self):
        v = np.array([10**25, -(10**24), 3, 0], dtype=object)
        a = v.copy()
        hadamard_inplace(a)
        hadamard_inplace(a)
        assert list(a) == [4 * x for x in v]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hadamard_inplace(np.zeros(6, dtype=np.int64))

    def test_single_butterfly(self):
        a = np.array([3, 5], dtype=np.int64)
        hadamard_inplace(a)
        assert list(a) == [8, -2]


class TestBitReversal:
    def test_against_string_reversal(self):
        for k in range(7):
            rev = bit_reversal_table(k)
            want = [int(format(i, f"0{k}b")[::-1], 2) if k else 0 for i in range(1 << k)]
            assert list(rev) == want

    def test_is_an_involution_as_permutation(self):
        rev = bit_reversal_table(9)
        assert np.array_equal(rev[rev], np.arange(1 << 9))


class TestWalshSignRow:
    def test_matches_pointwise_walsh(self):
        k = 6
        rev = bit_reversal_table(k)
        for i in range(1 << k):
            row = walsh_sign_row(int(rev[i]), 1 << k)
            x = DyadicPoint(i, k)
            assert all(row[m] == walsh(m, x) for m in range(1 << k))


def cell_scan_oracle(n: int):
    """Definition-chasing scan over all level-(n+2) cells, exact arithmetic."""
    members, m_vals, nus, integrals = [], [], [], []
    res = n + 8
    for j in range(1 << (n + 2)):
        x = DyadicPoint(j, n + 2) if j else DyadicPoint.zero()
        total = sum(rademacher(k, x) * rademacher(k + 1, x) for k in range(1, n + 1))
        members.append(3 * abs(total) < n)
        m = 0
        for k in range(1, n):
            if rademacher(k, x) == 1 and rademacher(k + 1, x) == -1:
                m += 1 << k
        m_vals.append(m)
        nus.append(m.bit_count())
        integral = Fraction(0)
        if m:  # no descents means no kernel, and a zero integral
            for i in range(j << (res - n - 2)):
                t = DyadicPoint(i, res) if i else DyadicPoint.zero()
                integral += Fraction(dirichlet_star(m, xor_add(x, t)), 1 << res)
        integrals.append(integral * (1 << (n + 2)))
    return members, m_vals, nus, integrals


class TestCellScan:
    @pytest.mark.parametrize("n", [*range(1, 17), 20])
    def test_matches_per_position_scan(self, n):
        half = 1 << (n + 1)
        for got, want in zip(cell_scan(n), cell_scan_by_position(n), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(want[half:], want[:half])  # x_1 enters nothing
            assert np.array_equal(got, want[:half])

    def test_matches_definition_oracle(self):
        n = 4
        half = 1 << (n + 1)
        member, m_vals, nu, integral_num = cell_scan(n)
        for got, want in zip((list(member), list(m_vals), list(nu),
                              [Fraction(int(v)) for v in integral_num]),
                             cell_scan_oracle(n), strict=True):
            assert want[half:] == want[:half]
            assert got == want[:half]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cell_scan(0)
        with pytest.raises(ValueError):
            cell_scan(41)

    def test_selector_bits_live_in_window(self):
        n = 7
        member, m_vals, nu, _ = cell_scan(n)
        m_vals = [int(m) for m in m_vals]
        assert all(m % 2 == 0 for m in m_vals)
        assert all(m < (1 << n) for m in m_vals)
        assert all(int(c) == m.bit_count() for c, m in zip(nu, m_vals))


# 0, both sides of every power of ten below 2^26, and 2^26 itself
_DECIMAL_EDGES = [0, *(v for k in range(1, 8) for v in (10**k - 1, 10**k)), 1 << 26]


class TestDecimalRows:
    @given(
        st.sets(st.one_of(st.sampled_from(_DECIMAL_EDGES), st.integers(0, 1 << 26)),
                max_size=30),
        st.lists(st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=12),
                 min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=30, max_size=30),
    )
    @example(set(), [",1"], [])
    @example({0}, [",1/2,0.5"], [0])
    @example(set(_DECIMAL_EDGES), ["", ",-3/4,-0.75"], [1, 0] * 8)
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_row_oracle(self, numbers, texts, picks):
        numbers = np.array(sorted(numbers), dtype=np.int64)
        suffixes = [text.encode("ascii") for text in texts]
        which = np.array(picks[: len(numbers)], dtype=np.int64) % len(texts)
        assert decimal_rows(numbers, suffixes, which) == decimal_rows_oracle(
            numbers, suffixes, which)
