"""Walsh system, Dirichlet kernels, grid vectors, and the exact transform.

Oracles are deliberately independent of the implementation:

- Walsh signs come from literal products of Rademacher digits obtained by
  repeated doubling, and from a Sylvester-Hadamard matrix built by Kronecker
  squaring with string-reversed column indices;
- the naive transform is a full matrix application;
- kernels are checked against term-by-term character sums.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from walshdiv.dyadic import DyadicPoint, xor_add
from walshdiv.walsh import (
    GridVector,
    _normalized,
    bit_reverse,
    dirichlet,
    dirichlet_pow2,
    dirichlet_star,
    fwht,
    rademacher,
    walsh,
)

from oracles import (
    fwht_inverse,
    grid_of,
    norm1,
    sample_dirichlet,
    sample_dirichlet_star,
    values_of,
)


def digits_by_doubling(x: Fraction, count: int) -> list[int]:
    out = []
    for _ in range(count):
        x *= 2
        d = int(x >= 1)
        out.append(d)
        x -= d
    return out


def walsh_by_digit_products(n: int, x: DyadicPoint) -> int:
    """w_n as the literal product Π (1 - 2·x_{j+1}) over set bits j of n."""
    value = Fraction(x.numerator, 1 << x.exponent)
    digits = digits_by_doubling(value, max(n.bit_length() + 1, x.exponent) + 1)
    sign = 1
    j = 0
    while n >> j:
        if (n >> j) & 1:
            sign *= 1 - 2 * digits[j]
        j += 1
    return sign


def paley_sign_matrix(k: int) -> np.ndarray:
    """P[m, i] = w_m(i/2^k) via Kronecker squaring + string bit reversal."""
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), h)
    rev = [int(format(i, f"0{k}b")[::-1], 2) if k else 0 for i in range(1 << k)]
    return h[:, rev]


def naive_transform(values: list[Fraction], k: int) -> list[Fraction]:
    """out[m] = 2^-k Σ_i v[i] · w_m(i/2^k), by full matrix application."""
    p = paley_sign_matrix(k)
    scale = Fraction(1, 1 << k)
    return [scale * sum(int(p[m, i]) * values[i] for i in range(1 << k))
            for m in range(1 << k)]


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 40))


# -- pointwise system --------------------------------------------------------


class TestPointwise:
    def test_rademacher_is_a_digit_sign(self):
        x = DyadicPoint(5, 4)  # digits 0101
        assert [rademacher(j, x) for j in range(6)] == [1, -1, 1, -1, 1, 1]

    def test_walsh_matches_digit_products_exhaustively(self):
        for i in range(1 << 6):
            x = DyadicPoint(i, 6)
            for n in range(64):
                assert walsh(n, x) == walsh_by_digit_products(n, x), (n, i)

    def test_walsh_matches_digit_products_randomized(self):
        rng = random.Random(1)
        for _ in range(500):
            n = rng.randrange(0, 1 << 20)
            x = DyadicPoint(rng.randrange(0, 1 << 16), 16)
            assert walsh(n, x) == walsh_by_digit_products(n, x)

    def test_character_property(self):
        rng = random.Random(2)
        for _ in range(500):
            m, n = rng.randrange(1 << 20), rng.randrange(1 << 20)
            x = DyadicPoint(rng.randrange(0, 1 << 14), 14)
            assert walsh(m, x) * walsh(n, x) == walsh(m ^ n, x)

    def test_translation_property(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randrange(1 << 20)
            x = DyadicPoint(rng.randrange(0, 1 << 12), 12)
            y = DyadicPoint(rng.randrange(0, 1 << 12), 12)
            assert walsh(n, xor_add(x, y)) == walsh(n, x) * walsh(n, y)

    def test_walsh_paley_matrix_agreement(self):
        p = paley_sign_matrix(6)
        for i in range(64):
            x = DyadicPoint(i, 6)
            for m in range(64):
                assert walsh(m, x) == int(p[m, i])


class TestKernels:
    def test_pow2_kernel_is_a_box(self):
        # D_4 = 4 on [0, 1/4), 0 elsewhere
        assert dirichlet_pow2(2, DyadicPoint.zero()) == 4
        assert dirichlet_pow2(2, DyadicPoint(1, 3)) == 4
        assert dirichlet_pow2(2, DyadicPoint(1, 2)) == 0
        assert dirichlet_pow2(2, DyadicPoint(7, 3)) == 0

    def test_dirichlet_equals_character_sum(self):
        p = paley_sign_matrix(6)
        sums = np.cumsum(p, axis=0)  # sums[n-1, i] = Σ_{k<n} w_k(i/2^6)
        for i in range(64):
            x = DyadicPoint(i, 6)
            for n in range(1, 65):
                assert dirichlet(n, x) == int(sums[n - 1, i]), (n, i)

    def test_dirichlet_at_zero_is_n(self):
        for n in list(range(1, 40)) + [977, 1 << 12, (1 << 30) + 7]:
            assert dirichlet(n, DyadicPoint.zero()) == n

    def test_dirichlet_mean_is_one(self):
        for n in (1, 2, 3, 7, 16, 41, 64):
            total = sum(dirichlet(n, DyadicPoint(i, 6)) for i in range(64))
            assert Fraction(total, 64) == 1

    def test_star_kernel_factorization(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randrange(1, 1 << 10)
            x = DyadicPoint(rng.randrange(0, 1 << 10), 10)
            assert dirichlet(n, x) == walsh(n, x) * dirichlet_star(n, x)

    def test_star_kernel_known_point(self):
        quarter = DyadicPoint(1, 2)
        assert dirichlet_star(3, quarter) == -1
        assert walsh(3, quarter) == -1
        assert dirichlet(3, quarter) == 1

    def test_huge_single_bit_orders_stay_cheap(self):
        # orders like 2^32796 must evaluate through their set bits only
        e = 32796
        x = DyadicPoint(5, 6)
        assert dirichlet(1 << e, x) == 0
        assert dirichlet((1 << e) + 1, x) == 1  # only the k=0 term survives
        assert dirichlet(1 << e, DyadicPoint.zero()) == 1 << e

    def test_rejects_nonpositive_orders(self):
        with pytest.raises(ValueError):
            dirichlet(0, DyadicPoint.zero())
        with pytest.raises(ValueError):
            dirichlet_star(0, DyadicPoint.zero())


class TestBitHelpers:
    def test_bit_reverse_matches_string_reversal(self):
        for width in range(0, 10):
            for i in range(1 << width):
                want = int(format(i, f"0{width}b")[::-1], 2) if width else 0
                assert bit_reverse(i, width) == want


# -- grid vectors -------------------------------------------------------------


class TestGridVector:
    def test_from_values_round_trip(self):
        vals = [Fraction(1, 3), Fraction(-2, 5), 0, 7]
        g = grid_of(2, vals)
        assert values_of(g) == [Fraction(v) for v in vals]
        assert g[1] == Fraction(-2, 5)
        assert len(g) == 4

    def test_denominator_is_a_plain_int(self):
        g = grid_of(2, [Fraction(1, 6), 0, 0, 0])
        assert type(g.denominator) is int
        assert type(fwht(g).denominator) is int

    def test_arithmetic(self):
        a = grid_of(1, [Fraction(1, 2), Fraction(1, 3)])
        assert values_of(a.scaled(6)) == [3, 2]
        assert values_of(a.scaled(Fraction(-1, 2))) == [
            Fraction(-1, 4),
            Fraction(-1, 6),
        ]

    def test_norm_and_mean(self):
        g = grid_of(2, [1, -1, Fraction(1, 2), 0])
        assert norm1(g) == Fraction(5, 8)
        assert fwht(g)[0] == Fraction(1, 8)  # the mean is coefficient 0

    def test_nonzero_indices(self):
        g = grid_of(2, [0, 3, 0, -1])
        assert g.nonzero_indices() == [1, 3]

    def test_sample_walsh_matches_pointwise(self):
        for n in (0, 1, 5, 12):
            g = GridVector.sample_walsh(n, 5)
            assert all(g[i] == walsh(n, DyadicPoint(i, 5)) for i in range(32))

    def test_sample_kernels_match_pointwise(self):
        for n in (1, 2, 3, 9, 31):
            g = sample_dirichlet(n, 5)
            s = sample_dirichlet_star(n, 5)
            for i in range(32):
                x = DyadicPoint(i, 5)
                assert g[i] == dirichlet(n, x)
                assert s[i] == dirichlet_star(n, x)

    def test_sampling_rejects_aliasing(self):
        with pytest.raises(ValueError):
            sample_dirichlet(32, 5)
        sample_dirichlet(31, 5)  # last representable order is fine


def normalized_by_loop(resolution, nums, den):
    """Element-by-element reduction: gcd loop, then re-boxed Python ints."""
    g = den
    for v in nums:
        g = math.gcd(g, int(v))
    out = [int(v) // g for v in nums]
    peak = max(abs(v) for v in out)
    dtype = np.int64 if peak << resolution < 1 << 62 else object
    return out, den // g, dtype


class TestNormalized:
    @pytest.mark.parametrize(
        "nums, den",
        [
            (np.array([6, -12, 18, 0], dtype=np.int64), 24),  # int64 in, int64 out
            (np.array([3, 5, 7, 9], dtype=np.int64), 4),  # already reduced
            (np.array([3 << 90, -(6 << 90), 0, 9 << 90], dtype=object), 3 << 80),
            (np.array([3 << 70, 6 << 70, 0, 9], dtype=object), 3 << 70),
            (np.array([1 << 61, 0, 0, 0], dtype=np.int64), 1),  # 2^61 << 2 overflows
            (np.zeros(4, dtype=np.int64), 7),  # all zero: denominator 1
            (np.zeros(4, dtype=object), 1 << 80),
        ],
    )
    def test_matches_elementwise_reduction(self, nums, den):
        want_nums, want_den, want_dtype = normalized_by_loop(2, nums, den)
        g = _normalized(2, nums.copy(), den)
        assert [int(v) for v in g.numerators] == want_nums
        assert g.denominator == want_den
        assert g.numerators.dtype == want_dtype
        assert all(type(v) is int for v in g.numerators if want_dtype is object)


# -- transform ----------------------------------------------------------------


class TestTransform:
    def test_constant_transforms_to_delta(self):
        g = grid_of(4, [Fraction(3, 7)] * 16)
        c = fwht(g)
        assert c[0] == Fraction(3, 7)
        assert c.nonzero_indices() == [0]

    def test_big_constant_transforms_to_delta(self):
        c = fwht(grid_of(2, [1 << 70] * 4))
        assert c[0] == 1 << 70
        assert c.nonzero_indices() == [0]

    def test_character_transforms_to_unit(self):
        for m in (0, 1, 6, 15):
            c = fwht(GridVector.sample_walsh(m, 4))
            assert c[m] == 1
            assert c.nonzero_indices() == [m]

    def test_matches_naive_transform(self):
        rng = random.Random(7)
        for k in range(0, 7):
            vals = [random_fraction(rng) for _ in range(1 << k)]
            got = fwht(grid_of(k, vals))
            assert values_of(got) == naive_transform(vals, k)

    def test_inverse_round_trip(self):
        rng = random.Random(8)
        for k in (0, 3, 8):
            vals = [random_fraction(rng) for _ in range(1 << k)]
            g = grid_of(k, vals)
            assert fwht_inverse(fwht(g)) == g

    def test_parseval(self):
        rng = random.Random(9)
        for _ in range(20):
            k = rng.randrange(0, 9)
            vals = [random_fraction(rng) for _ in range(1 << k)]
            c = fwht(grid_of(k, vals))
            lhs = Fraction(sum(v * v for v in vals), 1 << k)
            assert lhs == sum(w * w for w in values_of(c))

    def test_linearity(self):
        rng = random.Random(10)
        a = grid_of(5, [random_fraction(rng) for _ in range(32)])
        b = grid_of(5, [random_fraction(rng) for _ in range(32)])
        total = grid_of(5, [u + v for u, v in zip(values_of(a), values_of(b))])
        assert values_of(fwht(total)) == [
            u + v for u, v in zip(values_of(fwht(a)), values_of(fwht(b)))
        ]
        assert fwht(a.scaled(Fraction(2, 3))) == fwht(a).scaled(Fraction(2, 3))

    def test_big_integer_values_stay_exact(self):
        # forces the object-dtype path: entries near 2^80
        base = 1 << 80
        vals = [base + i for i in range(8)]
        c = fwht(grid_of(3, vals))
        assert c[0] == base + Fraction(7, 2)
        assert values_of(fwht_inverse(c)) == vals
