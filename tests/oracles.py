"""Reference paths the window census of f_n's partial sums is checked against.

- :func:`transform_scaled`: S_1 … S_count(x) from one exact transform of the
  low-pass part of f_n (:func:`low_pass`, rendered at the least level that
  holds every coefficient below ``count``), read by :func:`_partial_sums_scaled`;
  :func:`_count_above` counts exceedances over such a series.
- :func:`census_of`: the census of a materialized series, by ``np.unique``.
- :func:`symbolic_census`: the census from :meth:`AtomSum.partial_sum`, one
  symbolic cut per residue class of each window.  It shares only the
  periodicity D_l(y) = D_{l mod 2^E}(y) with the library, so it also reaches
  orders q far past any grid; it does not apply where S_l drifts (x = θ_j).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from walshdiv._kernels import walsh_sign_row
from walshdiv.atoms import AtomSum, KernelAtom
from walshdiv.counterexample import ConstructionParams, build_fn
from walshdiv.dyadic import DyadicPoint, containing_interval
from walshdiv.fourier import Census
from walshdiv.walsh import ExactSeries, GridVector, bit_reverse, fwht


def low_pass(s: AtomSum, level: int) -> AtomSum:
    """The terms of s below 2**level: every kernel order capped at 2**level.

    A capped kernel reads only ``level`` digits of its shift, so shifts are
    cut to those; indicators stay whole, as a render at ``level`` needs.  By
    Paley's lemma this is the mean of s on level cells, so its transform on
    2**level cells holds the first 2**level coefficients of s.
    """
    return AtomSum(
        KernelAtom(a.coefficient, min(a.order, 1 << level),
                   DyadicPoint(containing_interval(a.shift, level).index, level))
        if isinstance(a, KernelAtom) else a
        for a in s.atoms
    )


def _partial_sums_scaled(coeffs: GridVector, x: DyadicPoint) -> np.ndarray:
    """All S_l(x)·den for l = 1 … 2^K as an integer cumulative sum.

    For m < 2^K, w_m(x) reads only the first K digits of x, so x is read as
    the left end a/2^e of its level-K cell, e = min(exponent, K).  There
    r_k = 1 for every k ≥ e, so w_m depends only on m mod 2^e.  One sign row
    of length 2^e, broadcast over the 2^(K-e) blocks of the coefficients,
    gives every term f̂(m)·w_m(x); the prefix sum runs in place on it.

    A grid keeps int64 coefficients only while peak·2^K < 2^62, which bounds
    every prefix; object (big-int) coefficients keep the sum in object dtype.
    """
    e = min(x.exponent, coeffs.resolution)
    signs = walsh_sign_row(bit_reverse(x.numerator >> (x.exponent - e), e), 1 << e)
    terms = (coeffs.numerators.reshape(-1, 1 << e) * signs).reshape(-1)
    return np.cumsum(terms, out=terms)


def _count_above(scaled_sums: np.ndarray, den: int, bound: Fraction) -> int:
    """Exact #{l : |scaled_sums[l]| / den > bound}, for bound ≥ 0."""
    cutoff = bound.numerator * den // bound.denominator
    above = np.count_nonzero(scaled_sums > cutoff)
    return int(above + np.count_nonzero(scaled_sums < -cutoff))


def transform_scaled(params: ConstructionParams, x: DyadicPoint, count: int
                     ) -> tuple[np.ndarray, int]:
    """(S_l(x)·den for l = 1 … count, den) from one exact transform."""
    level = min(params.q_exponent, max((count - 1).bit_length(), params.n + 2))
    coeffs = fwht(low_pass(build_fn(params), level).render(level))
    scaled = _partial_sums_scaled(coeffs, x)
    tail = np.repeat(scaled[-1:], max(count - len(scaled), 0))  # S_l = f(x) past q
    return np.concatenate([scaled[:count], tail]), coeffs.denominator


def census_of(sums, N: int) -> Census:
    """Distinct values of the first N sums with their counts, in order of first occurrence."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    series = ExactSeries.of(sums)
    if len(series) < N:
        raise ValueError(f"need at least {N} partial sums, got {len(series)}")
    values, first, counts = np.unique(
        series.numerators[:N], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return Census(tuple(int(values[i]) for i in order),
                  tuple(int(counts[i]) for i in order), series.denominator)


def symbolic_census(params: ConstructionParams, x: DyadicPoint, N: int
                    ) -> list[tuple[Fraction, int]]:
    """(value, count) of S_1 … S_N(x) in order of first occurrence, symbolically.

    Cuts up to 2^(n+2) are summed one by one.  Above, each segment between
    consecutive kernel orders (and past q) is taken as periodic in l with
    period 2^E, E = max(exponent of x, 2n), so one symbolic cut stands for
    its whole residue class.
    """
    fn = build_fn(params)
    n = params.n
    period = 1 << max(x.exponent, 2 * n)
    edges = [1 << (n + 2)] + [params.u(j) for j in range(1, (1 << n) + 1)] + [N]
    segments = [(1, min(N, edges[0]), edges[0])]
    segments += [(lo + 1, min(N, hi), period) for lo, hi in zip(edges, edges[1:]) if lo < N]
    out: dict[Fraction, int] = {}
    for first, last, step in segments:
        for l in range(first, min(last, first + step - 1) + 1):
            count = (last - l) // step + 1
            v = fn.partial_sum(l, x)
            out[v] = out.get(v, 0) + count
    return list(out.items())
