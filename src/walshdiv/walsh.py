"""Walsh system in Paley ordering, Dirichlet kernels, and the exact FWHT.

The Walsh functions are indexed by the binary digits of n: with
n = Σ_{j} ε_j 2**j, w_n = Π_j r_j**ε_j where r_j is the j-th Rademacher
function (sign of binary digit j+1).  w_0 ≡ 1.

Kernels:

- D_{2**k}: equals 2**k on [0, 2**-k) and 0 elsewhere;
- the modified kernel D*_n = Σ_j ε_j r_j D_{2**j};
- the Dirichlet kernel D_n = w_n · D*_n = Σ_{k<n} w_k.

:class:`ExactSeries` is the one exact carrier: integer numerators over a
single common denominator.  Its constructor picks the array dtype by one
rule: int64 while 2**headroom · max|numerator| < 2**62, object (Python big
ints) otherwise.  The headroom is 0 for a series and K for a
:class:`GridVector`, the series of 2**K cell values of a step function on
the 2**-K grid, because the K butterfly stages of :func:`fwht` double the
peak K times.  :func:`fwht` computes the Walsh-Fourier coefficients
f̂(m) = 2**-K Σ_i v[i] w_m(i/2**K) exactly in K·2**K butterfly operations
on those numerators.

All functions are pure; series are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .dyadic import DyadicPoint, Rat, bit

__all__ = [
    "ExactSeries",
    "GridVector",
    "rademacher",
    "walsh",
    "dirichlet_pow2",
    "dirichlet_star",
    "dirichlet",
    "fwht",
    "bit_reverse",
]

#: Largest grid resolution anything materializes: 2**GRID_CAP values.
GRID_CAP = 26


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


# -- exact integer vectors ----------------------------------------------------


def _exact_array(nums: np.ndarray | Sequence[int], headroom: int) -> np.ndarray:
    """The one dtype rule: int64 while 2**headroom · max|numerator| < 2**62.

    Otherwise object (Python big ints).  Only :class:`ExactSeries` calls this.
    """
    if isinstance(nums, np.ndarray) and nums.dtype != object:
        a = nums.astype(np.int64, copy=False)
    else:
        a = np.asarray(nums, dtype=object)
    peak = max(int(a.max()), -int(a.min())) if a.size else 0
    return a.astype(np.int64 if peak << headroom < 1 << 62 else object, copy=False)


class ExactSeries:
    """Exact rationals numerators[i] / denominator, i = 0 … len − 1.

    ``numerators`` is a read-only integer array whose dtype the constructor
    picks by the module's one rule (int64 while safe, Python big ints
    otherwise).  Indexing returns a :class:`Fraction`.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: np.ndarray | Sequence[int], denominator: int):
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        self.numerators = _exact_array(numerators, self._headroom())
        self.numerators.setflags(write=False)
        self.denominator = int(denominator)

    def _headroom(self) -> int:
        """Doublings the numerators must survive in int64 (none for a series)."""
        return 0

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(int(self.numerators[i]), self.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSeries):
            return NotImplemented
        if len(self) != len(other):
            return False
        a = self.numerators.astype(object) * other.denominator
        b = other.numerators.astype(object) * self.denominator
        return bool(np.all(a == b))

    __hash__ = None  # unhashable: array-backed value container


class GridVector(ExactSeries):
    """2**K exact rational values, one per cell [i/2**K, (i+1)/2**K).

    An :class:`ExactSeries` of length 2**K whose int64 numerators also
    survive the K butterfly stages of :func:`fwht`.
    """

    __slots__ = ("resolution",)

    def __init__(self, resolution: int, numerators: np.ndarray, denominator: int):
        if resolution < 0:
            raise ValueError(f"resolution must be nonnegative, got {resolution}")
        self.resolution = resolution
        super().__init__(numerators, denominator)
        if self.numerators.shape != (1 << resolution,):
            raise ValueError(
                f"expected {1 << resolution} values, got {self.numerators.shape}"
            )

    def _headroom(self) -> int:
        return self.resolution

    # -- construction -------------------------------------------------------

    @classmethod
    def sample_walsh(cls, n: int, resolution: int) -> "GridVector":
        """w_n sampled on the 2**-K grid (requires n < 2**K: no aliasing)."""
        if n >= 1 << resolution:
            raise ValueError(
                f"index {n} is not representable on a 2^-{resolution} grid"
            )
        rn = bit_reverse(n, resolution)  # popcount(n & rev(i)) = popcount(rn & i)
        return cls(resolution, _kernels.walsh_sign_row(rn, 1 << resolution), 1)

    # -- arithmetic helpers (exact) -------------------------------------------

    def scaled(self, factor: Fraction | int) -> "GridVector":
        factor = Fraction(factor)
        nums = self.numerators.astype(object) * factor.numerator
        return _normalized(self.resolution, nums, self.denominator * factor.denominator)

    def nonzero_indices(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.numerators)[0]]


def _normalized(resolution: int, nums: np.ndarray, den: int) -> GridVector:
    """Reduce the common denominator; an all-zero vector reduces to 1."""
    g = math.gcd(den, int(np.gcd.reduce(nums)))
    if g > 1:
        nums = nums // g
        den //= g
    return GridVector(resolution, nums, den)


# -- transforms ---------------------------------------------------------------


def fwht(v: GridVector) -> GridVector:
    """Exact Walsh-Fourier coefficients of a step function.

    out[m] = 2**-K Σ_i v[i] · w_m(i/2**K), for 0 <= m < 2**K.  Computed by a
    bit-reversal permutation followed by K stages of Hadamard butterflies on
    the integer numerators; the common denominator absorbs the 2**-K factor.
    """
    k = v.resolution
    rev = _kernels.bit_reversal_table(k)
    nums = v.numerators[rev]
    _kernels.hadamard_inplace(nums)
    return _normalized(k, nums, v.denominator << k)

