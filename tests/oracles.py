"""Reference paths the library's fast paths are checked against.

The Walsh kernels by their per-digit definitions: :func:`rademacher` reads
one digit, :func:`dirichlet_pow2` is Paley's box D_{2**k} = 2**k on
[0, 2**-k), and :func:`dirichlet_star` and :func:`dirichlet` sum
ε_j r_j D_{2**j} over the set bits j of n in Fractions, the reference for
the closed form of :func:`walshdiv.walsh.dirichlet_star`.

Exact series and grids, built and read one Fraction at a time:

- :func:`series_of` and :func:`grid_of` convert Fractions to an
  :class:`ExactSeries` or :class:`GridVector` over the lcm of their
  denominators; :func:`values_of` reads one back as Fractions, and
  :func:`norm1` is a grid's exact L1 norm.
- :func:`sample_dirichlet_star` and :func:`sample_dirichlet` sample D*_n and
  D_n on a grid from their definitions; :func:`fwht_inverse` undoes
  :func:`~walshdiv.walsh.fwht`; :func:`integral_Dstar_grid` sums the sampled
  D*_m over the cells of [0, x).

The window census of f_n's partial sums:

- :func:`transform_scaled`: S_1 … S_count(x) from one exact transform of the
  low-pass part of f_n (:func:`low_pass`, rendered at the least level that
  holds every coefficient below ``count``), read by :func:`_partial_sums_scaled`;
  :func:`_count_above` counts exceedances over such a series.
- :func:`census_of`: the census of a materialized series, by ``np.unique``;
  :func:`census_items` lists a census as (value, count) pairs.
- :func:`symbolic_census`: the census from :meth:`AtomSum.partial_sum`, one
  symbolic cut per residue class of each window.  It shares only the
  periodicity D_l(y) = D_{l mod 2^E}(y) with the library, so it also reaches
  orders q far past any grid; it does not apply where S_l drifts (x = θ_j).

The growth condition (c3), Φ(n/(50·2^k)) > e^{2n} at Φ = e^X - 1, is held
against :func:`c3_by_enclosures`, which decides it by enclosures alone: no
exact test of X ≤ 2n, so it cannot settle an exact tie.  It sets X against
its own :func:`log1p_exp_enclosure` of ln(1 + e^{2n}), where the library
encloses ln Φ(t) = X + ln(1 - e^{-X}) instead.

The sign-change set E_n and its checks are held against Fraction arithmetic
and a scan of every cell:

- :func:`measure_En` and :func:`measure_bound`: |E_n| as a Fraction, and the
  bound 1 - 2e^{-n/36} decided by Fraction arithmetic;
  :func:`measure_en_output` builds the ``measure-en`` payload and first-failure
  message from them with ``_frac`` and ``_float``.
- :func:`cell_scan_by_position`: every level-(n+2) cell, x_1 = 1 included,
  from the digit formulas one descent position at a time;
  :func:`lemma2_exhaustive_rows` reduces those full arrays to the exhaustive
  Lemma 2 rows, witnesses included.

The ``build-fn --dump-coefficients`` text is held against one f-string per
row: :func:`coefficient_rows` formats each nonzero coefficient of a grid,
and :func:`decimal_rows` joins an index to a suffix as
:func:`walshdiv._kernels.decimal_rows` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from walshdiv import bounds
from walshdiv._kernels import bit_reversal_table, hadamard_inplace, walsh_sign_row
from walshdiv.atoms import AtomSum, KernelAtom, SpectralBlock
from walshdiv.cli import _float
from walshdiv.counterexample import (
    AssertionRecord,
    ConstructionParams,
    _frac,
    _member_counts,
    build_fn,
)
from walshdiv.dyadic import DyadicPoint, bit, cell_index
from walshdiv.fourier import Census, PhiSpec
from walshdiv.walsh import ExactSeries, GridVector, _normalized, bit_reverse, fwht, walsh


# ---------------------------------------------------------------------------
# the growth condition (c3)
# ---------------------------------------------------------------------------


def c3_by_enclosures(phi: PhiSpec, n: int, k: int) -> bool:
    """ln(1 + e^{2n}) < X at t = n/(50·2^k), X = c·t or t^α, by enclosures only."""
    t = Fraction(n, 50 << k)
    if phi.kind == "exp_linear":
        exponent = lambda prec: (phi.parameter * t, phi.parameter * t)
    else:
        exponent = lambda prec: power_enclosure(t, phi.parameter, prec)
    return bounds.decide_less(
        lambda prec: log1p_exp_enclosure(Fraction(2 * n), prec), exponent
    )


def outward(lo: Fraction, hi: Fraction, prec: int) -> bounds.Enclosure:
    """[lo, hi] widened to the nearest multiples of 2**-prec outside it."""
    scale = 1 << prec
    return Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale)


def log1p_exp_enclosure(x: Fraction, prec: int) -> bounds.Enclosure:
    """Enclosure of ln(1 + e**x); for x >= 1 as x + ln(1 + e**-x), so the
    logarithm is only ever taken of a number in (1, 1 + e]."""
    if x >= 1:
        lo, hi = log1p_exp_enclosure(-x, prec + 8)
        return outward(x + lo, x + hi, prec)
    elo, ehi = bounds.exp_enclosure(x, prec + 8)
    lo = bounds.ln_enclosure(1 + elo, prec + 8)[0]
    hi = bounds.ln_enclosure(1 + ehi, prec + 8)[1]
    return outward(lo, hi, prec)


def power_enclosure(t: Fraction, alpha: Fraction, prec: int) -> bounds.Enclosure:
    """Enclosure of t^α = e^{α ln t}, t > 0 and α > 0, to about 2^-prec·max(1, t^α),
    from the ln and exp enclosures alone."""
    lo, hi = (alpha * end for end in bounds.ln_enclosure(t, prec + 16))
    return bounds.exp_enclosure(lo, prec)[0], bounds.exp_enclosure(hi, prec)[1]


# ---------------------------------------------------------------------------
# the Walsh kernels, digit by digit
# ---------------------------------------------------------------------------


def rademacher(j: int, x: DyadicPoint) -> int:
    """r_j(x) = 1 - 2·x_{j+1}: +1 while digit j+1 is 0, -1 while it is 1."""
    return 1 - 2 * bit(x, j + 1)


def dirichlet_pow2(k: int, x: DyadicPoint) -> Fraction:
    """D_{2**k}(x): 2**k on [0, 2**-k), else 0."""
    if (x.numerator << k) < (1 << x.exponent):
        return Fraction(1 << k)
    return Fraction(0)


def dirichlet_star(n: int, x: DyadicPoint) -> Fraction:
    """D*_n(x) = Σ_j ε_j · r_j(x) · D_{2**j}(x), one set bit j of n at a time."""
    total = Fraction(0)
    while n:
        low = n & -n
        j = low.bit_length() - 1
        total += rademacher(j, x) * dirichlet_pow2(j, x)
        n ^= low
    return total


def dirichlet(n: int, x: DyadicPoint) -> Fraction:
    """D_n(x) = w_n(x) · D*_n(x) from the per-digit D*_n."""
    return walsh(n, x) * dirichlet_star(n, x)


# ---------------------------------------------------------------------------
# exact series and grids
# ---------------------------------------------------------------------------


def series_of(values: ExactSeries | Sequence[Fraction | int]) -> ExactSeries:
    """``values`` itself if already a series, else one conversion over the lcm."""
    if isinstance(values, ExactSeries):
        return values
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in fracs))
    return ExactSeries([v.numerator * (den // v.denominator) for v in fracs], den)


def values_of(series: ExactSeries) -> list[Fraction]:
    return [Fraction(int(v), series.denominator) for v in series.numerators]


def grid_of(resolution: int, values: Iterable[Fraction | int]) -> GridVector:
    series = series_of(list(values))
    return GridVector(resolution, series.numerators, series.denominator)


def norm1(g: GridVector) -> Fraction:
    """Exact L1 norm 2**-K Σ |values|."""
    total = int(np.sum(np.abs(g.numerators.astype(object))))
    return Fraction(total, g.denominator << g.resolution)


def sample_dirichlet_star(n: int, resolution: int) -> GridVector:
    """D*_n sampled on the 2**-K grid; rejects n > 2**K (aliasing guard)."""
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    if n >= 1 << resolution:
        raise ValueError(f"kernel of order {n} would alias on a 2^-{resolution} grid")
    nums = np.zeros(1 << resolution, dtype=np.int64)
    remaining = n
    while remaining:  # walk set bits j of n, as the per-digit dirichlet_star does
        low = remaining & -remaining
        # r_j D_{2**j}: ±2**j on the cells of [0, 2**-j), sign = digit j+1.
        block = (1 << resolution) // low
        nums[:block >> 1] += low
        nums[block >> 1:block] -= low
        remaining ^= low
    return GridVector(resolution, nums, 1)


def sample_dirichlet(n: int, resolution: int) -> GridVector:
    """D_n = w_n · D*_n sampled on the 2**-K grid (aliasing-guarded)."""
    star = sample_dirichlet_star(n, resolution)
    signs = GridVector.sample_walsh(n, resolution)
    return GridVector(resolution, signs.numerators * star.numerators, 1)


def fwht_inverse(coeffs: GridVector) -> GridVector:
    """Reconstruct grid values from coefficients: v[i] = Σ_m c[m] w_m(i/2**K).

    Un-normalized inverse: ``fwht_inverse(fwht(v)) == v`` exactly.
    """
    k = coeffs.resolution
    nums = coeffs.numerators.copy()
    hadamard_inplace(nums)
    out = np.empty_like(nums)
    out[bit_reversal_table(k)] = nums
    return _normalized(k, out, coeffs.denominator)


def integral_Dstar_grid(m: int, x: DyadicPoint, K: int) -> Fraction:
    """Brute-force ∫_0^x D*_m(x ⊕ t) dt = 2^-K Σ_{cells ⊂ [0,x)} D*_m(x ⊕ t_cell).

    Requires 2^K > m and K ≥ exponent(x) so the integrand is constant on
    every level-K cell and [0, x) is a union of such cells.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if (1 << K) <= m or K < x.exponent:
        raise ValueError(f"resolution 2^{K} cannot resolve m={m} and x={x.to_text()}")
    # x ⊕ j/2^K lies in cell top ^ j, on which the sampled D*_m is exact.
    top = x.scaled_numerator(K)
    star = sample_dirichlet_star(m, K).numerators
    return Fraction(int(star[np.arange(top) ^ top].sum()), 1 << K)


# ---------------------------------------------------------------------------
# the window census of f_n
# ---------------------------------------------------------------------------


def low_pass(s: AtomSum, level: int) -> AtomSum:
    """The terms of s below 2**level: every kernel order capped at 2**level.

    A capped kernel reads only ``level`` digits of its shift, so shifts are
    cut to those; indicators stay whole, as a render at ``level`` needs.  By
    Paley's lemma this is the mean of s on level cells, so its transform on
    2**level cells holds the first 2**level coefficients of s.
    """
    return AtomSum(
        (KernelAtom(a.coefficient, min(a.order, 1 << level),
                    DyadicPoint(cell_index(a.shift, level), level))
         if isinstance(a, KernelAtom) else a
         for a in s.atoms),
        (SpectralBlock(b.lo, min(b.hi, 1 << level), b.owners)
         for b in s.spectral_blocks if b.lo < 1 << level),
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
    series = series_of(sums)
    if len(series) < N:
        raise ValueError(f"need at least {N} partial sums, got {len(series)}")
    values, first, counts = np.unique(
        series.numerators[:N], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return Census(tuple(int(values[i]) for i in order),
                  tuple(int(counts[i]) for i in order), series.denominator)


def census_items(census: Census) -> list[tuple[Fraction, int]]:
    """(value, count) pairs of a census in order of first occurrence."""
    return [(Fraction(v, census.denominator), count)
            for v, count in zip(census.numerators, census.counts)]


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


# ---------------------------------------------------------------------------
# the sign-change set E_n
# ---------------------------------------------------------------------------


def measure_En(n: int) -> Fraction:
    """Exact |E_n| as a Fraction, from the library's binomial-tail recurrence."""
    for _, hits in _member_counts(n):
        pass
    return Fraction(hits, 1 << n)


def measure_bound(n: int, measure: Fraction) -> tuple[str, tuple[Fraction, Fraction]]:
    """(verdict, enclosure of 1 - 2e^{-n/36}) by Fraction arithmetic."""
    lo, hi = bounds.exp_enclosure(Fraction(-n, 36), 96)
    bound = (1 - 2 * hi, 1 - 2 * lo)
    if bound[1] <= 0:
        return "vacuous", bound
    return ("pass" if measure > bound[1] else "fail"), bound


def measure_en_output(n_lo: int, n_hi: int) -> tuple[str, str | None]:
    """(CSV payload, first failure message or None) of ``measure-en``, from Fractions."""
    lines = ["n,measure_exact,measure_float,bound_upper_float,margin_float,verdict"]
    first = None
    for n, hits in _member_counts(n_hi):
        if n < n_lo:
            continue
        measure = Fraction(hits, 1 << n)
        verdict, (_, bound_hi) = measure_bound(n, measure)
        if verdict == "fail" and first is None:
            first = (f"measure-en: |E_{n}| is {_float(bound_hi - measure)} "
                     f"below the bound {_float(bound_hi)}")
        lines.append(
            f"{n},{_frac(measure)},{_float(measure)},{_float(bound_hi)},"
            f"{_float(measure - bound_hi)},{verdict}"
        )
    return "\n".join(lines) + "\n", first


def cell_scan_by_position(n: int):
    """The cell scan over all 2^(n+2) level-(n+2) cells, one pass per descent position.

    Returns ``(member, m_vals, nu, integral_num)`` as
    :func:`walshdiv._kernels.cell_scan` defines them, from the digit formulas
    rather than by digit doubling, and for x_1 = 1 as well.
    """
    ncells = 1 << (n + 2)
    j = np.arange(ncells, dtype=np.int64)
    changes = (j ^ (j >> 1)) & np.int64((1 << n) - 1)
    c = np.bitwise_count(changes).astype(np.int64)
    member = 3 * np.abs(n - 2 * c) < n
    m_vals = np.zeros(ncells, dtype=np.int64)
    nu = np.zeros(ncells, dtype=np.uint8)
    integral_num = np.zeros(ncells, dtype=np.int64)
    for k in range(1, n):
        hi = (j >> (n + 1 - k)) & 1  # digit x_{k+1}
        lo = (j >> (n - k)) & 1  # digit x_{k+2}
        descent = (hi == 0) & (lo == 1)
        m_vals += descent * (np.int64(1) << k)
        nu += descent
        # scaled T_k = frac(2^k x) * 2^(n+2), with x_{k+1} = 0
        t_num = (j & np.int64((1 << (n + 2 - k)) - 1)) << k
        integral_num += np.where(descent, t_num, 0)
    return member, m_vals, nu, integral_num


def _cell(n: int, j: int) -> str:
    return DyadicPoint(j, n + 2).to_text()


def lemma2_exhaustive_rows(n: int) -> tuple[AssertionRecord, ...]:
    """The exhaustive Lemma 2 rows, reduced over all 2^(n+2) cells.

    Witnesses are first indices over the full scan; the measure row comes
    from :func:`measure_En` and :func:`measure_bound`.
    """
    measure = measure_En(n)
    verdict, (lo, hi) = measure_bound(n, measure)
    claim = "measure > 1 - 2*exp(-n/36)"
    if verdict == "vacuous":
        rows = [AssertionRecord(claim, _frac(measure), f"<= {float(hi):.6g}", "pass",
                                "bound nonpositive (vacuous)")]
    else:
        rows = [AssertionRecord(claim, _frac(measure),
                                f"in [{float(lo):.6g}, {float(hi):.6g}]", verdict)]
    member, m_vals, nu, integral = cell_scan_by_position(n)
    scale = 1 << (n + 2)
    idx = np.flatnonzero(member)
    rows.append(AssertionRecord("member cells at level n+2", str(idx.size), f"of {scale}",
                                "reported"))
    if not idx.size:
        rows.append(AssertionRecord("integral >= n/30 on E_n", "-", _frac(Fraction(n, 30)),
                                    "vacuous", "E_n empty"))
        return tuple(rows)
    empty = idx[nu[idx] == 0]
    checkable = idx[nu[idx] > 0]
    rows.append(AssertionRecord(
        "selector nonempty on E_n", str(checkable.size), str(idx.size),
        "pass" if not empty.size else "fail",
        f"x={_cell(n, int(empty[0]))}" if empty.size else "",
    ))
    max_m = int(m_vals[idx].max())
    rows.append(AssertionRecord("m < 2^n on E_n", str(max_m), str(1 << n),
                                "pass" if max_m < 1 << n else "fail"))
    worst = int(nu[idx].min())
    rows.append(AssertionRecord(
        "6*nu >= n - 6 on E_n", str(worst), _frac(Fraction(n - 6, 6)),
        "pass" if 6 * worst >= n - 6 else "fail",
        f"x={_cell(n, int(idx[nu[idx] == worst][0]))}",
    ))
    bad = int(np.count_nonzero(30 * integral[checkable] < n * scale))  # integral/scale < n/30
    if checkable.size:
        low = int(integral[checkable].min())
        first = int(checkable[integral[checkable] == low][0])
        witness = f"x={_cell(n, first)} integral={_frac(Fraction(low, scale))}"
    else:
        witness = "no checkable cells"
    if empty.size:
        witness += f"; {empty.size} cells lack a selector"
    rows.append(AssertionRecord(
        "integral >= n/30 on E_n", str(checkable.size - bad), str(checkable.size),
        "fail" if bad or empty.size else "pass", witness,
    ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the coefficient dump
# ---------------------------------------------------------------------------


def coefficient_rows(co: GridVector) -> str:
    """A newline and ``m,exact,float`` per nonzero coefficient m of ``co``;
    each distinct value's text is formatted by _frac and _float once."""
    texts: dict[int, str] = {}
    rows = []
    for m in co.nonzero_indices():
        v = int(co.numerators[m])
        if v not in texts:
            texts[v] = f"{_frac(co[m])},{_float(co[m])}"
        rows.append(f"\n{m},{texts[v]}")
    return "".join(rows)


def decimal_rows(numbers: np.ndarray, suffixes: Sequence[bytes], which: np.ndarray) -> str:
    """A newline, m and ``suffixes[j]`` for each m, j of ``numbers``, ``which``."""
    texts = [suffix.decode("ascii") for suffix in suffixes]
    return "".join(f"\n{m}{texts[j]}" for m, j in zip(numbers.tolist(), which.tolist()))
