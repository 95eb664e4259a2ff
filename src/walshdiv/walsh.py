"""Walsh system in Paley ordering, Dirichlet kernels, and the exact FWHT.

The Walsh functions are indexed by the binary digits of n: with
n = Σ_{j} ε_j 2**j, w_n = Π_j r_j**ε_j where r_j is the j-th Rademacher
function (sign of binary digit j+1).  w_0 ≡ 1.

Kernels:

- D_{2**k}: equals 2**k on [0, 2**-k) and 0 elsewhere;
- the modified kernel D*_n = Σ_j ε_j r_j D_{2**j};
- the Dirichlet kernel D_n = w_n · D*_n = Σ_{k<n} w_k.

:class:`GridVector` carries a step function on the 2**-K grid as 2**K exact
rational values (stored over a common denominator so the transform runs on
integer arrays).  :func:`fwht` computes the Walsh-Fourier coefficients
f̂(m) = 2**-K Σ_i v[i] w_m(i/2**K) exactly in K·2**K butterfly operations,
dispatching to the int64 hot path when safe and to big-int arrays otherwise.
:func:`fwht_float` is the flagged approximate float64 path.

All functions are pure; GridVector is immutable after construction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .dyadic import DyadicPoint, Rat, bit

__all__ = [
    "DyadicExpansion",
    "GridVector",
    "rademacher",
    "walsh",
    "dirichlet_pow2",
    "dirichlet_star",
    "dirichlet",
    "fwht",
    "fwht_inverse",
    "fwht_float",
    "bit_reverse",
]

#: int64 butterflies are safe while 2**K * max|numerator| stays below this.
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class DyadicExpansion:
    """Binary digits ε_0, ε_1, ... of an index n = Σ ε_j 2**j (LSB first).

    Empty for n = 0; the leading stored digit is always 1 for n >= 1.
    """

    bits: tuple[int, ...]

    @classmethod
    def of(cls, n: int) -> "DyadicExpansion":
        if n < 0:
            raise ValueError(f"index must be nonnegative, got {n}")
        bits = []
        while n:
            bits.append(n & 1)
            n >>= 1
        return cls(tuple(bits))

    @property
    def index(self) -> int:
        return sum(b << j for j, b in enumerate(self.bits))

    def set_positions(self) -> list[int]:
        """Positions j with ε_j = 1, ascending."""
        return [j for j, b in enumerate(self.bits) if b]


def bit_reverse(i: int, width: int) -> int:
    """Reverse the low ``width`` bits of i."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


# -- pointwise Walsh system ---------------------------------------------------


def rademacher(j: int, x: DyadicPoint) -> int:
    """r_j(x) = 1 - 2·x_{j+1}: +1 while digit j+1 is 0, -1 while it is 1."""
    if j < 0:
        raise ValueError(f"Rademacher index must be nonnegative, got {j}")
    return 1 - 2 * bit(x, j + 1)


def walsh(n: int, x: DyadicPoint) -> int:
    """w_n(x) = Π r_j(x)**ε_j over the binary digits ε_j of n; w_0 ≡ 1.

    Equivalently (-1)**popcount(n & rx) where rx is the bit-reversed
    numerator of x, since digit j+1 of x is bit j of rx.
    """
    if n < 0:
        raise ValueError(f"Walsh index must be nonnegative, got {n}")
    rx = bit_reverse(x.numerator, x.exponent)
    return 1 - 2 * ((n & rx).bit_count() & 1)


def dirichlet_pow2(k: int, x: DyadicPoint) -> Rat:
    """D_{2**k}(x): 2**k on [0, 2**-k), else 0."""
    if k < 0:
        raise ValueError(f"kernel exponent must be nonnegative, got {k}")
    if (x.numerator << k) < (1 << x.exponent):
        return Fraction(1 << k)
    return Fraction(0)


def dirichlet_star(n: int, x: DyadicPoint) -> Rat:
    """Modified kernel D*_n(x) = Σ_j ε_j · r_j(x) · D_{2**j}(x), n >= 1."""
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    total = Fraction(0)
    # walk set bits directly: orders like 2**32796 must cost O(1) terms,
    # not a full digit expansion
    remaining = n
    while remaining:
        low = remaining & -remaining
        j = low.bit_length() - 1
        term = dirichlet_pow2(j, x)
        if term:
            total += rademacher(j, x) * term
        elif x.numerator:
            break  # x >= 2**-j, so every higher-order term vanishes too
        remaining ^= low
    return total


def dirichlet(n: int, x: DyadicPoint) -> Rat:
    """Dirichlet kernel D_n(x) = w_n(x) · D*_n(x) = Σ_{k<n} w_k(x), n >= 1."""
    return walsh(n, x) * dirichlet_star(n, x)


# -- grid carrier -------------------------------------------------------------


class GridVector:
    """2**K exact rational values, one per cell [i/2**K, (i+1)/2**K).

    Values are stored as an integer numerator array over a single common
    denominator; the array dtype is int64 when the whole transform pipeline
    provably fits, and object (Python big ints) otherwise.
    """

    __slots__ = ("resolution", "_num", "_den")

    def __init__(self, resolution: int, numerators: np.ndarray, denominator: int):
        if resolution < 0:
            raise ValueError(f"resolution must be nonnegative, got {resolution}")
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        if numerators.shape != (1 << resolution,):
            raise ValueError(
                f"expected {1 << resolution} values, got {numerators.shape}"
            )
        self.resolution = resolution
        self._num = numerators
        self._den = int(denominator)
        numerators.setflags(write=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, resolution: int, values: Iterable[Fraction | int]) -> "GridVector":
        vals = [Fraction(v) for v in values]
        if len(vals) != 1 << resolution:
            raise ValueError(
                f"expected {1 << resolution} values, got {len(vals)}"
            )
        den = 1
        for v in vals:
            den = den * v.denominator // math.gcd(den, v.denominator)
        nums = [v.numerator * (den // v.denominator) for v in vals]
        return cls(resolution, _int_array(nums, resolution), den)

    @classmethod
    def constant(cls, resolution: int, value: Fraction | int) -> "GridVector":
        value = Fraction(value)
        nums = np.full(1 << resolution, value.numerator, dtype=np.int64)
        return cls(resolution, nums, value.denominator)

    @classmethod
    def sample_walsh(cls, n: int, resolution: int) -> "GridVector":
        """w_n sampled on the 2**-K grid (requires n < 2**K: no aliasing)."""
        if n >= 1 << resolution:
            raise ValueError(
                f"index {n} is not representable on a 2^-{resolution} grid"
            )
        rev = _kernels.bit_reversal_table(resolution)
        parity = (np.bitwise_count(np.int64(n) & rev) & 1).astype(np.int64)
        return cls(resolution, 1 - 2 * parity, 1)

    @classmethod
    def sample_dirichlet_star(cls, n: int, resolution: int) -> "GridVector":
        """D*_n sampled on the 2**-K grid; rejects n > 2**K (aliasing guard)."""
        if n < 1:
            raise ValueError(f"kernel order must be >= 1, got {n}")
        if n >= 1 << resolution:
            raise ValueError(
                f"kernel of order {n} would alias on a 2^-{resolution} grid"
            )
        nums = np.zeros(1 << resolution, dtype=np.int64)
        for j in DyadicExpansion.of(n).set_positions():
            # r_j D_{2**j}: ±2**j on the cells of [0, 2**-j), sign = digit j+1.
            block = 1 << (resolution - j)
            halfb = block >> 1
            nums[:halfb] += 1 << j
            nums[halfb:block] -= 1 << j
        return cls(resolution, nums, 1)

    @classmethod
    def sample_dirichlet(cls, n: int, resolution: int) -> "GridVector":
        """D_n = w_n · D*_n sampled on the 2**-K grid (aliasing-guarded)."""
        star = cls.sample_dirichlet_star(n, resolution)
        rev = _kernels.bit_reversal_table(resolution)
        parity = (np.bitwise_count(np.int64(n) & rev) & 1).astype(np.int64)
        return cls(resolution, (1 - 2 * parity) * star.numerators, 1)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return 1 << self.resolution

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(int(self._num[i]), self._den)

    def values(self) -> list[Fraction]:
        return [Fraction(int(v), self._den) for v in self._num]

    @property
    def numerators(self) -> np.ndarray:
        """Read-only numerator array over :attr:`denominator`."""
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    def value_at(self, x: DyadicPoint) -> Fraction:
        """Value on the cell containing x (x may be deeper than the grid)."""
        k = self.resolution
        if x.exponent <= k:
            i = x.numerator << (k - x.exponent)
        else:
            i = x.numerator >> (x.exponent - k)
        return self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridVector):
            return NotImplemented
        if self.resolution != other.resolution:
            return False
        a = self._num.astype(object) * other._den
        b = other._num.astype(object) * self._den
        return bool(np.all(a == b))

    __hash__ = None  # unhashable: array-backed value container

    # -- arithmetic helpers (exact) -------------------------------------------

    def scaled(self, factor: Fraction | int) -> "GridVector":
        factor = Fraction(factor)
        nums = self._num.astype(object) * factor.numerator
        return _normalized(self.resolution, nums, self._den * factor.denominator)

    def __add__(self, other: "GridVector") -> "GridVector":
        if self.resolution != other.resolution:
            raise ValueError("resolution mismatch")
        den = self._den * other._den // math.gcd(self._den, other._den)
        a = self._num.astype(object) * (den // self._den)
        b = other._num.astype(object) * (den // other._den)
        return _normalized(self.resolution, a + b, den)

    def norm1(self) -> Fraction:
        """Exact L1 norm 2**-K Σ |values|."""
        total = int(np.sum(np.abs(self._num.astype(object))))
        return Fraction(total, self._den << self.resolution)

    def mean(self) -> Fraction:
        total = int(np.sum(self._num.astype(object)))
        return Fraction(total, self._den << self.resolution)

    def nonzero_indices(self) -> list[int]:
        return [int(i) for i in np.nonzero(self._num)[0]]

    # -- serialization ---------------------------------------------------------

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        """CSV text ``index,value_exact,value_float`` with '#' comment lines."""
        buf = io.StringIO()
        for line in header_comments:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "value_exact", "value_float"])
        for i in range(len(self)):
            v = self[i]
            writer.writerow([i, _fraction_text(v), repr(float(v))])
        return buf.getvalue()


def _int_array(nums: list[int], resolution: int) -> np.ndarray:
    """int64 array when the downstream transform is provably safe, else object."""
    peak = max((abs(n) for n in nums), default=0)
    if peak << resolution < _INT64_SAFE:
        return np.array(nums, dtype=np.int64)
    return np.array(nums, dtype=object)


def _normalized(resolution: int, nums: np.ndarray, den: int) -> GridVector:
    """Reduce the common denominator and re-pick the array dtype.

    Same dtype rule as :func:`_int_array`; an all-zero vector reduces to
    denominator 1.
    """
    g = math.gcd(den, int(np.gcd.reduce(nums)))
    if g > 1:
        nums = nums // g
        den //= g
    peak = int(np.max(np.abs(nums)))
    dtype = np.int64 if peak << resolution < _INT64_SAFE else object
    return GridVector(resolution, nums.astype(dtype, copy=False), den)


def _fraction_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


# -- transforms ---------------------------------------------------------------


def fwht(v: GridVector) -> GridVector:
    """Exact Walsh-Fourier coefficients of a step function.

    out[m] = 2**-K Σ_i v[i] · w_m(i/2**K), for 0 <= m < 2**K.  Computed by a
    bit-reversal permutation followed by K stages of Hadamard butterflies on
    the integer numerators; the common denominator absorbs the 2**-K factor.
    """
    k = v.resolution
    rev = _kernels.bit_reversal_table(k)
    nums = v.numerators[rev].copy()
    nums = _transform_safe_copy(nums, k)
    _kernels.hadamard_inplace(nums)
    return _normalized(k, nums, v.denominator << k)


def fwht_inverse(coeffs: GridVector) -> GridVector:
    """Reconstruct grid values from coefficients: v[i] = Σ_m c[m] w_m(i/2**K).

    Un-normalized inverse: ``fwht_inverse(fwht(v)) == v`` exactly.
    """
    k = coeffs.resolution
    nums = _transform_safe_copy(coeffs.numerators.copy(), k)
    _kernels.hadamard_inplace(nums)
    rev = _kernels.bit_reversal_table(k)
    out = np.empty_like(nums)
    out[rev] = nums
    return _normalized(k, out, coeffs.denominator)


def fwht_float(values: np.ndarray) -> np.ndarray:
    """APPROXIMATE float64 transform (fast path; not for exact verdicts).

    Same normalization as :func:`fwht`: returns 2**-K Σ v[i] w_m(i/2**K).
    """
    n = values.shape[0]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    k = n.bit_length() - 1
    rev = _kernels.bit_reversal_table(k)
    a = np.asarray(values, dtype=np.float64)[rev].copy()
    h = 1
    while h < n:
        view = a.reshape(-1, 2, h)
        x = view[:, 0, :].copy()
        y = view[:, 1, :]
        view[:, 0, :] = x + y
        view[:, 1, :] = x - y
        h *= 2
    return a / n


def _transform_safe_copy(nums: np.ndarray, k: int) -> np.ndarray:
    """Ensure butterflies cannot overflow: upgrade to object dtype if needed."""
    if nums.dtype == np.int64:
        peak = int(np.max(np.abs(nums))) if nums.size else 0
        if peak << k >= _INT64_SAFE:
            return nums.astype(object)
        return nums
    return nums
