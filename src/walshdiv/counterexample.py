"""The divergence construction and its machine checks.

Pieces, bottom-up:

- the sign-change set ``E_n`` (points whose Rademacher sequence changes sign
  often), realized exactly as a union of level-(n+2) cells, of which
  :func:`~walshdiv._kernels.cell_scan` scans the half with x_1 = 0 (the top
  digit enters no condition); its measure |E_n| = hits/2^n comes as the
  integer count ``hits`` from an exact binomial-tail recurrence, and one rule
  (:func:`measure_bound`) decides it against 1 - 2e^{-n/36} by comparing
  integers over 2^(n+96);
- the selector ``select_m`` extracting descent positions (r_k = 1 followed by
  r_{k+1} = -1) and packing them into an integer m with companion p = m(1+2^n);
- the exact closed form for the kernel integral ∫_0^x D*_m(x ⊕ t) dt;
- the polynomial f_n = 2^γ·1_{(E_n)^c}·w_{2^n} + (1/2^n) Σ_j (D_q − D_{u_j})(·⊕θ_j)
  as an :class:`~walshdiv.atoms.AtomSum` with exact spectral bookkeeping;
- its partial sums S_1 … S_N(x) read off its window structure
  (:class:`WindowSums`): the indicator's coefficient table below u_1 and one
  table of periodic residues per kernel window, giving the census of every
  N up to the cut count it was built for, a drift-aware exceedance count and
  the series at any c and N, with no grid and no transform;
- structured verifiers (:func:`verify_lemma2`, :func:`verify_lemma1`) that
  re-derive each identity and inequality along two independent paths and emit
  a :class:`LemmaReport`;
- scalar chain checks (:func:`chain_check`) for the threshold inequalities
  that only make sense at parameter scales where f_n cannot be materialized,
  using certified directed rounding throughout.

Selector positions run over [1, n-1] (not [1, n]): position n would
contribute 2^n to m and break the m < 2^n contract that every spectral
argument relies on.  The count bound ν ≥ n/6 - 1 survives the restriction:
membership forces more than n/3 sign changes, descents make up at least
⌈changes/2⌉ - 1 of the positions below n, and ⌈(n/3)/2⌉ - 1 ≥ n/6 - 1.
Each descent adds at least 1/4 to the kernel integral, and the count is at
least ν_min = ⌈(⌊n/3⌋+1)/2⌉ - 1 ≥ (n-5)/6, so ν_min/4 ≥ n/30 settles the
integral bound at every n ≥ 25 and at every smaller n outside
{1-5, 8-11, 16, 17, 23}.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Iterator, NamedTuple

import mpmath
import numpy as np

from . import bounds
from ._kernels import cell_scan, dirichlet_row, walsh_sign_row
from .atoms import AtomSum, IndicatorAtom, KernelAtom, SpectralBlock
from .dyadic import DyadicPoint, bit, containing_interval, xor_add
from .fourier import Census, PhiSpec
from .walsh import (
    GRID_CAP,
    ExactSeries,
    bit_reverse,
    dirichlet,
    dirichlet_star,
    walsh,
)

__all__ = [
    "EmptySelectionError",
    "ConstructionParams",
    "SelectorResult",
    "AssertionRecord",
    "LemmaReport",
    "en_cell_mask",
    "measure_En_range",
    "measure_bound",
    "select_m",
    "integral_Dstar_closed",
    "verify_lemma2",
    "build_fn",
    "progression_L",
    "WindowSums",
    "partial_sum_series",
    "verify_lemma1",
    "chain_check",
    "readable",
    "c3_holds",
    "minimal_n_for_c3",
]

#: Default order up to which :func:`verify_lemma2` scans all 2^(n+2) cells.
EXHAUSTIVE_CAP = 16

#: Most progression cuts one lemma1 window may check symbolically: n = 2 at
#: c = 4 needs 61,440, and n = 2 at c = 5 would need 1,966,080.
PROGRESSION_CUT_CAP = 1 << 16

#: Largest order of the exact |E_n| recurrence.  Its numerators have about
#: 0.3·n digits, and Python refuses to print an int past 4300 digits.
MEASURE_N_MAX = 10_000

#: Bits of the fixed-point enclosure of e^{-n/36} behind :func:`measure_bound`.
MEASURE_BOUND_BITS = 96


class EmptySelectionError(ValueError):
    """No descent position exists: m is undefined at this point."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _gamma_of(n: int) -> int:
    """floor(log2(exp(n/36))) = floor(n / (36 ln 2)), certified."""

    def value(prec: int) -> bounds.Enclosure:
        lo, hi = bounds.ln2_enclosure(prec)
        return (Fraction(n, 36) / hi, Fraction(n, 36) / lo)

    return bounds.floor_enclosed(value)


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the polynomial f_n.

    ``c`` is the spectral-growth exponent: kernel orders are u_j = 2^{c(j+n)}.
    c ≥ 2 keeps consecutive orders a factor ≥ 4 apart and u_1 > 2^{2n}, which
    is all the progression-counting argument needs.
    """

    n: int
    c: int = 10

    #: Largest c·4^n that :func:`build_fn` builds.  Its 2^n kernel orders
    #: u_j = 2^{c(j+n)} hold about c·4^n/2 bits in all: n = 13 at c = 4 builds
    #: in 0.2 s and 73 MiB, while n = 20 at c = 3 would need about 200 GB.
    BUILD_MAX: ClassVar[int] = 1 << 28

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.c < 2:
            raise ValueError(f"c must be at least 2, got {self.c}")

    def check_buildable(self) -> None:
        """Raise ValueError when c·4^n exceeds :attr:`BUILD_MAX`, allocating nothing."""
        if 2 * self.n >= self.BUILD_MAX.bit_length() or self.c << 2 * self.n > self.BUILD_MAX:
            raise ValueError(
                f"f_n at n={self.n}, c={self.c} is too large to build: "
                f"c·4^n exceeds 2^{self.BUILD_MAX.bit_length() - 1}"
            )

    @cached_property
    def gamma(self) -> int:
        return _gamma_of(self.n)

    @cached_property
    def fn(self) -> AtomSum:
        """f_n, built once per parameter set by :func:`build_fn`."""
        return build_fn(self)

    @property
    def p(self) -> int:
        """Lower spectral edge 2^n."""
        return 1 << self.n

    @property
    def q_exponent(self) -> int:
        """log2 of the upper spectral edge q = u_{2^n}."""
        return self.c * ((1 << self.n) + self.n)

    @property
    def q(self) -> int:
        return 1 << self.q_exponent

    def u(self, j: int) -> int:
        """Kernel order u_j = 2^{c(j+n)}; u_0 is the indicator ceiling 2^{n+2}.

        The j = 0 extension makes [u_0, u_1) the first progression window:
        below u_1 every kernel pair contributes a vanishing prefix, and above
        2^{n+2} the indicator part of any partial sum is already complete.
        """
        if j == 0:
            return 1 << (self.n + 2)
        if not 1 <= j <= (1 << self.n):
            raise ValueError(f"kernel index {j} outside [0, {1 << self.n}]")
        return 1 << (self.c * (j + self.n))

    def theta(self, k: int) -> DyadicPoint:
        """Translation θ_k = (k-1)/2^n + (k-1)/4^n, a level-2n point in Δ_k."""
        if not 1 <= k <= (1 << self.n):
            raise ValueError(f"translation index {k} outside [1, {1 << self.n}]")
        point = DyadicPoint((k - 1) * ((1 << self.n) + 1), 2 * self.n)
        if containing_interval(point, self.n).index != k - 1:
            raise AssertionError(f"theta_{k} left its base cell")
        return point

    def thetas(self) -> tuple[DyadicPoint, ...]:
        return tuple(self.theta(k) for k in range(1, (1 << self.n) + 1))


# ---------------------------------------------------------------------------
# the set E_n
# ---------------------------------------------------------------------------


def en_cell_mask(n: int) -> np.ndarray:
    """Boolean membership mask over the 2^(n+2) level-(n+2) cells of E_n."""
    member, _, _, _ = cell_scan(n)
    return np.tile(member, 2)  # x_1 enters no condition


def _member_counts(n_hi: int) -> Iterator[tuple[int, int]]:
    """(n, sign vectors in E_n out of 2^n) for n = 0 … n_hi.

    A vector leaves E_n when b ≤ n/3 or b ≥ 2n/3; by symmetry each tail
    holds T(n) = Σ_{b ≤ ⌊n/3⌋} C(n, b), and the tails are disjoint for
    n ≥ 1.  Pascal's rule gives T(n+1) = 2T(n) − C(n, ⌊n/3⌋) before the
    cutoff moves, so each order costs O(1) exact operations on T and on
    C = C(n, ⌊n/3⌋).  For n = 0 both tails are the one vector: |E_0| = 0.

    The products of consecutive signs are themselves independent fair signs
    (the map (s_1, products) ↔ (s_1, …, s_{n+1}) is a bijection), so the
    negative-product count b has the binomial distribution C(n, b) / 2^n,
    and |E_n| = hits/2^n.
    """
    if n_hi < 0:
        raise ValueError(f"n must be nonnegative, got {n_hi}")
    if n_hi > MEASURE_N_MAX:
        raise ValueError(f"order {n_hi} exceeds the measure bound {MEASURE_N_MAX}")
    tail = binom = 1  # T(0) and C(0, 0)
    yield 0, 0
    for n in range(n_hi):
        k = n // 3
        tail = 2 * tail - binom
        binom = binom * (n + 1) // (n + 1 - k)  # C(n+1, k)
        if (n + 1) // 3 > k:
            binom = binom * (n + 1 - k) // (k + 1)  # C(n+1, k+1)
            tail += binom
        yield n + 1, (1 << (n + 1)) - 2 * tail


def measure_En_range(n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    """(n, hits) for n_lo ≤ n ≤ n_hi in one pass of the recurrence: |E_n| = hits/2^n."""
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    return [(n, hits) for n, hits in _member_counts(n_hi) if n >= n_lo]


def measure_bound(n: int, hits: int) -> tuple[str, tuple[int, int]]:
    """(verdict, enclosure of 1 - 2e^{-n/36}) for |E_n| = hits/2^n > 1 - 2e^{-n/36}.

    The enclosure's ends are numerators over 2^MEASURE_BOUND_BITS, rounded
    outward from one enclosure of e^{-n/36} at that precision.  The verdict
    is decided at the certified upper end bhi, by the exact comparison
    hits·2^96 > bhi·2^n: ``vacuous`` when bhi ≤ 0, ``pass`` when the
    comparison holds, else ``fail``.
    """
    bits = MEASURE_BOUND_BITS
    lo, hi = bounds.exp_enclosure(Fraction(-n, 36), bits)
    bound = ((1 << bits) + 2 * ((-hi.numerator << bits) // hi.denominator),
             (1 << bits) - 2 * ((lo.numerator << bits) // lo.denominator))
    if bound[1] <= 0:
        return "vacuous", bound
    return ("pass" if hits << bits > bound[1] << n else "fail"), bound


# ---------------------------------------------------------------------------
# selector and kernel integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectorResult:
    """Descent positions of x and the integers they assemble into."""

    positions: tuple[int, ...]
    m: int
    p: int


def select_m(x: DyadicPoint, n: int) -> SelectorResult:
    """All descent positions k ∈ [1, n-1]: r_k(x) = 1 and r_{k+1}(x) = -1.

    Packs them into m = Σ 2^{k_i} < 2^n and p = m(1 + 2^n) < 2^{2n}.
    Raises EmptySelectionError when no descent exists (m undefined).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    positions = tuple(
        k for k in range(1, n) if bit(x, k + 1) == 0 and bit(x, k + 2) == 1
    )
    if not positions:
        raise EmptySelectionError(f"no descent positions below {n} at {x.to_text()}")
    m = sum(1 << k for k in positions)
    return SelectorResult(positions, m, m * (1 + (1 << n)))


def integral_Dstar_closed(m: int, x: DyadicPoint) -> Fraction:
    """Exact ∫_0^x D*_m(x ⊕ t) dt by the per-bit closed form.

    Each set bit k of m contributes ρ_k - x_{k+1} where ρ_k = frac(2^k x):
    the Rademacher factor r_k(x ⊕ t) is constant on each half of the level-k
    cell of x, and the two half-integrals telescope to that expression.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    # the terms share the denominator 2^e: sum their numerators, divide once
    total = 0
    e = x.exponent
    mask = (1 << e) - 1
    k = 0
    mm = m
    while mm:
        if mm & 1 and k < e:
            total += ((x.numerator << k) & mask) - (bit(x, k + 1) << e)
        mm >>= 1
        k += 1
    return Fraction(total, 1 << e)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertionRecord:
    """One verified (or reported) line of a lemma check."""

    assertion: str
    lhs_exact: str
    rhs_exact: str
    verdict: str  # pass | fail | vacuous | reported
    witness: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail", "vacuous", "reported"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class LemmaReport:
    """Structured verdict of a lemma-level check."""

    lemma: str
    rows: tuple[AssertionRecord, ...]
    parameters: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.verdict != "fail" for r in self.rows)

    def failures(self) -> list[AssertionRecord]:
        return [r for r in self.rows if r.verdict == "fail"]

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.parameters]
        lines.append("lemma,assertion,lhs_exact,rhs_exact,verdict,witness")
        for r in self.rows:
            lines.append(
                ",".join(
                    _csv_field(v)
                    for v in (
                        self.lemma,
                        r.assertion,
                        r.lhs_exact,
                        r.rhs_exact,
                        r.verdict,
                        r.witness,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """The rows for reading; values past 60 digits are shown approximately."""
        width = max((len(r.assertion) for r in self.rows), default=0)
        lines = [f"[{self.lemma}] " + " ".join(f"{k}={v}" for k, v in self.parameters)]
        for r in self.rows:
            lines.append(
                f"  {r.verdict.upper():8s} {r.assertion:{width}s}"
                f"  lhs={readable(r.lhs_exact)} rhs={readable(r.rhs_exact)}"
                + (f"  [{readable(r.witness)}]" if r.witness else "")
            )
        tally = "OK" if self.ok else f"{len(self.failures())} FAILED"
        lines.append(f"  => {tally}")
        return "\n".join(lines) + "\n"


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _frac(v: Fraction) -> str:
    """Exact text of a rational: ``a`` or ``a/b``."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


#: Digits past which :func:`readable` shows a value approximately.
_TEXT_DIGITS = 60

#: An exact value as the reports print it: ``a``, ``a/b`` or ``a/2^e``.
_EXACT_VALUE = re.compile(r"-?\d+(?:/\d+(?:\^\d+)?)?")


def readable(text: str) -> str:
    """``text`` with each exact value of more than 60 digits shown as
    ``≈1 - 1.5e-58 (exact in CSV)``: near a small integer as that integer and
    the distance, else in scientific notation."""
    return _EXACT_VALUE.sub(_shorten, text)


def _shorten(match: re.Match) -> str:
    token = match.group()
    if sum(ch.isdigit() for ch in token) <= _TEXT_DIGITS:
        return token
    num, _, den = token.partition("/")
    base, _, power = den.partition("^")
    v = Fraction(int(num), int(base or 1) ** int(power or 1))
    m = round(v)
    d = v - m
    if m and d and abs(m) < 10**6 and abs(d) < Fraction(1, 10**6):
        return f"≈{m} {'-' if d < 0 else '+'} {_two_digits(abs(d))} (exact in CSV)"
    return f"≈{_two_digits(v)} (exact in CSV)"


def _two_digits(v: Fraction) -> str:
    with mpmath.workdps(20):
        return mpmath.nstr(mpmath.mpf(v.numerator) / v.denominator, 2)


def _dyadic(num: int, exponent: int) -> str:
    """``_frac(Fraction(num, 2**exponent))``, reduced by a shift, not a gcd."""
    if not num:
        return "0"
    shift = min(exponent, (num & -num).bit_length() - 1)
    num >>= shift
    return str(num) if shift == exponent else f"{num}/{1 << (exponent - shift)}"


# ---------------------------------------------------------------------------
# Lemma 2 verification
# ---------------------------------------------------------------------------


def _measure_bound_row(n: int) -> AssertionRecord:
    """The measure row of Lemma 2, as :func:`measure_bound` decides it."""
    for _, hits in _member_counts(n):
        pass
    verdict, (lo, hi) = measure_bound(n, hits)
    scale = 1 << MEASURE_BOUND_BITS
    if verdict == "vacuous":
        return AssertionRecord(
            "measure > 1 - 2*exp(-n/36)",
            _dyadic(hits, n),
            f"<= {hi / scale:.6g}",
            "pass",
            "bound nonpositive (vacuous)",
        )
    return AssertionRecord(
        "measure > 1 - 2*exp(-n/36)",
        _dyadic(hits, n),
        f"in [{lo / scale:.6g}, {hi / scale:.6g}]",
        verdict,
    )


def verify_lemma2(n: int, cap: int = EXHAUSTIVE_CAP) -> LemmaReport:
    """Check the sign-change lemma: measure bound plus per-point integrals.

    Orders up to ``cap``, and the orders the closed form leaves undecided (all
    below 24), take the exhaustive scan (mode ``exhaustive``): it certifies
    every level-(n+2) cell of E_n, as left endpoints minimize every descent
    term over their cell, so cell lefts bound all x.  Every other order takes
    the closed-form certificate of the module docstring (mode ``certify``):
    at least ν_min(n) descents, each adding at least 1/4 to the integral.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rows = [_measure_bound_row(n)]
    nu_min = _nu_min(n)
    if n > cap and 30 * nu_min >= 4 * n:  # ν_min/4 >= n/30: the closed form decides
        counted = "nu_min(n) descents from > n/3 sign changes"
        rows += [
            AssertionRecord("selector nonempty on E_n", str(nu_min), "1",
                            "pass" if nu_min >= 1 else "fail", counted),
            AssertionRecord("6*nu >= n - 6 on E_n", str(nu_min),
                            _frac(Fraction(n - 6, 6)),
                            "pass" if 6 * nu_min >= n - 6 else "fail", counted),
            AssertionRecord("integral >= n/30 on E_n", _frac(Fraction(nu_min, 4)),
                            _frac(Fraction(n, 30)), "pass", "each descent adds >= 1/4"),
        ]
        params = (("lemma", "2"), ("n", str(n)), ("mode", "certify"))
        return LemmaReport("lemma2", tuple(rows), params)

    params = [("lemma", "2"), ("n", str(n)), ("mode", "exhaustive")]
    if n + 2 > GRID_CAP:
        raise ValueError(
            f"exhaustive mode scans 2^(n+2) cells; n + 2 = {n + 2} "
            f"exceeds the grid cap {GRID_CAP}"
        )
    member, m_vals, nu, int_scaled = cell_scan(n)
    # the scan covers the cells with x_1 = 0, and the other half repeats
    # it: counts double, while extremes and first occurrences are the
    # scan's own.  Masked reductions, not index gathers, keep temporaries
    # to bool masks; the argmax of a mask is its first true index
    members = 2 * int(np.count_nonzero(member))
    scale = 1 << (n + 2)
    rows.append(
        AssertionRecord(
            "member cells at level n+2",
            str(members),
            f"of {scale}",
            "reported",
        )
    )
    if members == 0:
        rows.append(
            AssertionRecord(
                "integral >= n/30 on E_n",
                "-",
                _frac(Fraction(n, 30)),
                "vacuous",
                "E_n empty",
            )
        )
        return LemmaReport("lemma2", tuple(rows), tuple(params))

    checkable = member & (nu > 0)
    n_checkable = 2 * int(np.count_nonzero(checkable))
    n_empty = members - n_checkable
    rows.append(
        AssertionRecord(
            "selector nonempty on E_n",
            str(n_checkable),
            str(members),
            "pass" if n_empty == 0 else "fail",
            f"x={_cell_left(n, int(np.argmax(member & (nu == 0))))}" if n_empty else "",
        )
    )
    max_m = int(m_vals.max(where=member, initial=0))
    rows.append(
        AssertionRecord(
            "m < 2^n on E_n",
            str(max_m),
            str(1 << n),
            "pass" if max_m < (1 << n) else "fail",
        )
    )
    worst_nu = int(nu.min(where=member, initial=n))
    rows.append(
        AssertionRecord(
            "6*nu >= n - 6 on E_n",
            str(worst_nu),
            _frac(Fraction(n - 6, 6)),
            "pass" if 6 * worst_nu >= n - 6 else "fail",
            f"x={_cell_left(n, int(np.argmax(member & (nu == worst_nu))))}",
        )
    )
    # integral >= n/30 for every x via the left endpoints; for the integer
    # I, 30·I >= n·scale iff I >= ⌈n·scale/30⌉
    n_bad = 2 * int(np.count_nonzero(checkable & (int_scaled < -(-n * scale // 30))))
    if n_checkable:
        low = int(int_scaled.min(where=checkable, initial=np.iinfo(np.int64).max))
        arg = int(np.argmax(checkable & (int_scaled == low)))
        witness = f"x={_cell_left(n, arg)} integral={_frac(Fraction(low, scale))}"
    else:
        witness = "no checkable cells"
    if n_empty:
        witness += f"; {n_empty} cells lack a selector"
    rows.append(
        AssertionRecord(
            "integral >= n/30 on E_n",
            str(n_checkable - n_bad),
            str(n_checkable),
            "fail" if n_bad or n_empty else "pass",
            witness,
        )
    )
    params.append(("cells", str(scale)))
    return LemmaReport("lemma2", tuple(rows), tuple(params))


def _nu_min(n: int) -> int:
    """ν_min of the module docstring: the fewest descents below n on E_n."""
    return (n // 3 + 2) // 2 - 1


def _cell_left(n: int, index: int) -> str:
    return DyadicPoint(index, n + 2).to_text()


def _cell_member(n: int, j: int) -> bool:
    changes = ((j ^ (j >> 1)) & ((1 << n) - 1)).bit_count()
    return 3 * abs(n - 2 * changes) < n


# ---------------------------------------------------------------------------
# the polynomial f_n
# ---------------------------------------------------------------------------


def build_fn(params: ConstructionParams) -> AtomSum:
    """f_n as one indicator atom plus 2^{n+1} translated kernel atoms.

    Spectral blocks: the indicator's exact spectrum (a small transform of its
    level-(n+2) mask) and, per window [u_t, u_{t+1}), the kernel pairs whose
    difference blocks cover it.  The j = 2^n pair is identically zero but is
    kept so the L¹ certificate matches 2^γ(1 - |E_n|) + 2.
    """
    params.check_buildable()
    n = params.n
    mask = ~en_cell_mask(n)
    indicator = IndicatorAtom(Fraction(1 << params.gamma), n + 2, mask, 1 << n)
    atoms: list[IndicatorAtom | KernelAtom] = [indicator]
    weight = Fraction(1, 1 << n)
    blocks = [indicator.spectral_block()]
    boundaries = [params.u(j) for j in range(1, (1 << n) + 1)]
    q = params.q
    for j, theta in enumerate(params.thetas(), start=1):
        atoms.append(KernelAtom(weight, q, theta))
        atoms.append(KernelAtom(-weight, params.u(j), theta))
    for t in range(len(boundaries) - 1):
        # window t is covered by exactly the pairs 1 .. t+1; a range label
        # keeps the block list linear in the number of kernel pairs
        owner = "pair 1" if t == 0 else f"pairs 1..{t + 1}"
        blocks.append(SpectralBlock(boundaries[t], boundaries[t + 1], (owner,)))
    return AtomSum(atoms, blocks)


def progression_L(sel: SelectorResult, n: int, lo: int, hi: int) -> range:
    """All l = p + μ·2^{2n} (μ ≥ 0) with lo ≤ l < hi, as a lazy range."""
    step = 1 << (2 * n)
    start = sel.p + max(0, -(-(lo - sel.p) // step)) * step  # ceil division, clamped
    return range(start, max(start, hi), step)


class _Run(NamedTuple):
    """Cuts first … first + length − 1, periodic in l with period ``period``.

    den·S_l at l = first + i + t·period is const + table[i] + slope·t, for
    i < len(table) = min(period, length); slope is 0 except where S_l drifts.
    """

    first: int
    length: int
    period: int
    table: np.ndarray
    const: int = 0
    slope: int = 0

    def clip(self, last: int) -> _Run:
        """The run's cuts up to ``last`` (≥ first), its table sliced to match."""
        length = min(self.length, last - self.first + 1)
        return self._replace(length=length, table=self.table[: min(self.period, length)])

    def class_counts(self) -> tuple[int, int]:
        """(Q, R): class i holds Q + (i < R) cuts."""
        return divmod(self.length, self.period)

    def expand(self) -> np.ndarray:
        """den·S at every cut of the run, in cut order."""
        periods = -(-self.length // self.period)
        peak = max(int(self.table.max()), -int(self.table.min()))
        peak += abs(self.const) + self.slope * (periods - 1)
        dtype = np.int64 if peak < 1 << 62 else object
        values = np.tile(self.table.astype(dtype), periods)[: self.length]
        if self.slope:
            values += (np.arange(self.length) // self.period).astype(dtype) * self.slope
        values += self.const
        return values


class WindowSums:
    """S_1 … S_N(x, f_n), read off the window structure of f_n.

    Write I for the indicator term of f_n and y_j = x ⊕ θ_j.  The cuts fall
    into runs:

    - l ≤ 2^{n+2}: every kernel pair cancels below u_1, so S_l is a prefix of
      I's 2^{n+2}-entry coefficient table at x;
    - 2^{n+2} < l ≤ u_1: S_l = I(x);
    - window k, u_k < l ≤ u_{k+1}: S_l = I(x) + 2^-n Σ_{j≤k} [D_l(y_j) − D_{u_j}(y_j)];
    - l > q: S_l = f(x).

    In window k every w_m with m < l reads only the first h digits of y_j, h
    the bit length of the window's last cut, so y_j may be cut to them.  For
    y ≠ 0 of exponent e, w_m(y) depends on m mod 2^e only and D_{2^e}(y) = 0
    (Paley's lemma; D_{2^e} = 2^e·1_{[0, 2^-e)}), so D_l(y) = D_{l mod 2^e}(y).
    The window is therefore periodic with period 2^E, E the largest exponent
    among the cut y_j, and one table of min(2^E, window length) residues holds
    its values.  A y_j that cuts to 0 (x = θ_j, or x agrees with θ_j on h
    digits) has D_l(y_j) = l: there S_l drifts by 2^-n per cut, and each
    residue class is an arithmetic progression.  The work is O(2^n·2^E) per
    window whatever c and N are; tables past 2^GRID_CAP entries in all are
    rejected before they are allocated.  f_n is read from ``params.fn``.
    """

    def __init__(self, params: ConstructionParams, x: DyadicPoint, N: int):
        if N < 1:
            raise ValueError(f"cut count must be positive, got {N}")
        n, level = params.n, params.n + 2
        fn = params.fn
        indicator = fn.atoms[0]
        table = indicator.coefficient_table()
        self.x, self.cuts = x, N
        self.denominator = den = math.lcm(table.denominator, 1 << n)
        weight = den >> n
        thetas = params.thetas()
        windows = []
        for k in range(1, 1 << n):
            lo, hi = params.u(k), min(N, params.u(k + 1))
            if hi <= lo:
                break
            h = hi.bit_length()  # every w_m with m < hi reads h digits
            ys = [DyadicPoint(containing_interval(xor_add(x, t), h).index, h) for t in thetas[:k]]
            period_exp = max(y.exponent for y in ys)
            if period_exp > 62:
                raise ValueError(
                    f"x = {x.to_text()} reads {period_exp} digits in window {k}; "
                    f"the window census supports 62"
                )
            windows.append((k, lo, hi, ys, 1 << period_exp))
        size = min(N, 1 << level) + sum(min(period, hi - lo) for _, lo, hi, _, period in windows)
        if size > 1 << GRID_CAP:
            raise ValueError(
                f"the window tables of {N} cuts at x = {x.to_text()} need {size} "
                f"entries, past the grid cap 2^{GRID_CAP}"
            )

        rx = bit_reverse(containing_interval(x, level).index, level)
        low = np.cumsum(table.numerators * walsh_sign_row(rx, 1 << level))
        flat = np.zeros(1, dtype=np.int64)
        at_x = int(indicator.value(x) * den)
        runs = [
            _Run(1, min(N, 1 << level), 1 << level, low[:N] * (den // table.denominator)),
            _Run((1 << level) + 1, min(N, params.u(1)) - (1 << level), 1, flat, at_x),
        ]
        for k, lo, hi, ys, period in windows:
            m = min(period, hi - lo)
            residues = ((lo + 1) % period + np.arange(m, dtype=np.int64)) % period
            # |table| ≤ 2^n·weight·period, plus the drift's weight·m
            fits = (n + weight.bit_length() + period.bit_length() + 1) < 62
            values = np.zeros(m, dtype=np.int64 if fits else object)
            const, slope = at_x, 0
            for j, y in enumerate(ys, start=1):
                const -= weight * int(dirichlet(params.u(j), y))
                if y.numerator:
                    z = y.exponent - y.numerator.bit_length()
                    row = dirichlet_row(bit_reverse(y.numerator, y.exponent), z, residues)
                    values += row.astype(values.dtype) * weight
                else:  # D_l(0) = l
                    const += weight * (lo + 1)
                    values += np.arange(m, dtype=np.int64) * weight
                    slope += weight * period
            runs.append(_Run(lo + 1, hi - lo, period, values, const, slope))
        runs.append(_Run(params.q + 1, N - params.q, 1, flat, int(fn.value(x) * den)))
        self.runs = [run for run in runs if run.length > 0]
        self._firsts = [run.first for run in self.runs]

    def at(self, l: int) -> Fraction:
        """S_l(x) for 1 ≤ l ≤ N."""
        if not 1 <= l <= self.cuts:
            raise ValueError(f"cut {l} outside [1, {self.cuts}]")
        run = self.runs[bisect.bisect_right(self._firsts, l) - 1]
        t, i = divmod(l - run.first, run.period)
        return Fraction(run.const + int(run.table[i]) + run.slope * t, self.denominator)

    def count_above(self, bound: Fraction) -> int:
        """Exact #{l ≤ N : |S_l(x)| > bound} for bound ≥ 0, never O(N).

        For integer numerators v and cutoff = ⌊bound·den⌋, |v| > bound·den iff
        v > cutoff or v < −cutoff.  A drifting residue class takes the values
        a + slope·t for t < its count, so each side is one integer interval
        of t.  Thresholds stay Python ints, which numpy compares exactly
        against int64 even past 2^63.
        """
        bound = Fraction(bound)
        cutoff = bound.numerator * self.denominator // bound.denominator
        total = 0
        for run in self.runs:
            q, r = run.class_counts()
            above, below = cutoff - run.const, -cutoff - run.const
            if not run.slope:
                hits = (run.table > above) | (run.table < below)
                total += q * int(np.count_nonzero(hits)) + int(np.count_nonzero(hits[:r]))
                continue
            table = run.table.astype(object)
            counts = q + (np.arange(len(table)) < r).astype(object)
            first_above = np.minimum(np.maximum((above - table) // run.slope + 1, 0), counts)
            under = np.minimum(np.maximum(-((table - below) // run.slope), 0), counts)
            total += int((counts - first_above).sum() + under.sum())
        return total

    def census(self, N: int | None = None) -> Census:
        """Distinct S_1 … S_N over one denominator, with counts, in order of first occurrence.

        N defaults to the cut count the sums were built for.  A smaller N
        clips every run at cut N, tables included, so one build serves a
        whole list of N, and each census equals that of a fresh
        ``WindowSums(params, x, N)``: the same values and counts in the same
        order.  Off the drift a run's census comes from its residue table.
        A drifting run has about one value per cut, so it is expanded, and
        more than 2^GRID_CAP such cuts are rejected.
        """
        N = self.cuts if N is None else N
        if not 1 <= N <= self.cuts:
            raise ValueError(f"cut count {N} outside [1, {self.cuts}]")
        runs = [run.clip(N) for run in self.runs if run.first <= N]
        drift = sum(run.length for run in runs if run.slope)
        if drift > 1 << GRID_CAP:
            raise ValueError(
                f"S_l drifts with l at x = {self.x.to_text()}: the census of {N} "
                f"cuts holds about {drift} values, past the grid cap 2^{GRID_CAP}"
            )
        counts: dict[int, int] = {}
        for run in runs:
            if run.slope:
                values, first, mult = np.unique(
                    run.expand(), return_index=True, return_counts=True
                )
                tally = ((int(values[i]), int(mult[i])) for i in np.argsort(first))
            else:
                values, first, inverse = np.unique(
                    run.table, return_index=True, return_inverse=True
                )
                q, r = run.class_counts()
                every = np.bincount(inverse, minlength=len(values))
                early = np.bincount(inverse[:r], minlength=len(values))
                tally = (
                    (run.const + int(values[i]), q * int(every[i]) + int(early[i]))
                    for i in np.argsort(first)
                )
            for v, count in tally:
                counts[v] = counts.get(v, 0) + count
        return Census(tuple(counts), tuple(counts.values()), self.denominator)

    def series(self) -> ExactSeries:
        """S_1 … S_N(x) in full."""
        return ExactSeries(
            np.concatenate([run.expand() for run in self.runs]), self.denominator
        )


def partial_sum_series(params: ConstructionParams, x: DyadicPoint, count: int) -> ExactSeries:
    """S_l(x, f_n) for l = 1 … count; a count above 2^GRID_CAP is rejected first."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > 1 << GRID_CAP:
        raise ValueError(f"count {count} exceeds the grid cap 2^{GRID_CAP}")
    return WindowSums(params, x, count).series()


def verify_lemma1(params: ConstructionParams, x: DyadicPoint) -> LemmaReport:
    """Check the polynomial's partial-sum behavior at one point.

    Branch 1 (x in the support of f): S_l(x) = f(x) for every l ≥ q, and
    |f(x)| ≥ 2^γ, giving exceedance density ≥ 1/2 at N = 2q.

    Branch 2 (f(x) = 0, hence x ∈ E_n): along x's progression window
    [u_{k-1}, u_k) the identity chain is recomputed independently —
    S_l = 2^{-n} Σ_{j<k} D_l(x⊕θ_j), every character value w_p(θ_j) and
    w_l(θ_j) equals 1, the kernel-locality collapse D*_l = D*_m holds at
    each x⊕θ_j, and |S_l| ≥ ∫_0^x D*_m(x⊕t)dt - 1, a ``vacuous`` row when
    the integral is at most 1.  The exceedance density
    at N = 2q against max(n/40, integral - 1) is reported.  A window with
    more than PROGRESSION_CUT_CAP cuts is rejected before any of them is
    checked.

    Every count and the "grid" side of each dual check read the window
    tables of :class:`WindowSums` (at most 2^GRID_CAP entries), at every c;
    f_n is ``params.fn``, which those tables are read from too, so the points
    of one parameter set share one build.
    """
    n = params.n
    q = params.q
    sums = WindowSums(params, x, 2 * q)
    fn = params.fn
    rows: list[AssertionRecord] = []
    parameters = [
        ("lemma", "1"),
        ("n", str(n)),
        ("c", str(params.c)),
        ("x", x.to_text()),
        ("grid", str(params.q_exponent)),
    ]
    fx = fn.value(x)
    threshold = Fraction(n, 40)
    in_support = fx != 0
    rows.append(
        AssertionRecord(
            "branch",
            "1 (x in supp f)" if in_support else "2 (f(x) = 0)",
            "",
            "reported",
            f"f(x)={_frac(fx)}",
        )
    )

    if in_support:
        gamma_floor = Fraction(1 << params.gamma)
        rows.append(
            AssertionRecord(
                "|f(x)| >= 2^gamma",
                _frac(abs(fx)),
                _frac(gamma_floor),
                "pass" if abs(fx) >= gamma_floor else "fail",
            )
        )
        cuts = [q, q + 1, 2 * q]
        sym_ok = all(fn.partial_sum(l, x) == fx for l in cuts)
        grid_ok = all(sums.at(l) == fx for l in cuts)
        rows.append(
            AssertionRecord(
                "S_l(x) = f(x) for l >= q",
                "symbolic+grid",
                f"cuts {cuts}",
                "pass" if sym_ok and grid_ok else "fail",
            )
        )
        exceeds = abs(fx) > threshold
        rows.append(
            AssertionRecord(
                "|f(x)| > n/40",
                _frac(abs(fx)),
                _frac(threshold),
                "pass" if exceeds else "fail",
            )
        )
        count = sums.count_above(threshold)
        density = Fraction(count, 2 * q)
        rows.append(
            AssertionRecord(
                "density at N=2q >= 1/2",
                _frac(density),
                "1/2",
                "pass" if density >= Fraction(1, 2) else "fail",
                f"count={count} of {2 * q}",
            )
        )
        return LemmaReport("lemma1", tuple(rows), tuple(parameters))

    # ---- branch 2: x outside the support --------------------------------
    member = _cell_member(n, containing_interval(x, n + 2).index)
    rows.append(
        AssertionRecord(
            "f(x) = 0 implies x in E_n",
            "member" if member else "NOT member",
            "",
            "pass" if member else "fail",
        )
    )
    try:
        sel = select_m(x, n)
    except EmptySelectionError:
        rows.append(
            AssertionRecord(
                "selector nonempty",
                "nu=0",
                "",
                "vacuous",
                "no descent positions; progression undefined",
            )
        )
        return LemmaReport("lemma1", tuple(rows), tuple(parameters))

    k = containing_interval(x, n).index + 1
    window_lo, window_hi = params.u(k - 1), params.u(k)
    cuts = progression_L(sel, n, window_lo, window_hi)
    n_cuts = -(-(cuts.stop - cuts.start) // cuts.step)  # len(cuts), also past 2^63
    if n_cuts > PROGRESSION_CUT_CAP:
        raise ValueError(
            f"the progression in window [{window_lo}, {window_hi}) at x = "
            f"{x.to_text()} has {n_cuts} cuts, past the cap {PROGRESSION_CUT_CAP}"
        )
    thetas = params.thetas()
    parameters += [("m", str(sel.m)), ("p", str(sel.p)), ("k", str(k))]

    a13 = all(walsh(sel.p, theta) == 1 for theta in thetas)
    rows.append(
        AssertionRecord(
            "w_p(theta_j) = 1 for all j",
            str(sel.p),
            "1",
            "pass" if a13 else "fail",
        )
    )
    a14 = all(walsh(l, theta) == 1 for l in cuts for theta in thetas)
    rows.append(
        AssertionRecord(
            "w_l(theta_j) = 1 on the progression",
            f"{n_cuts} cuts",
            "1",
            "pass" if a14 else "fail",
            f"window [{window_lo}, {window_hi})",
        )
    )
    shifted = [xor_add(x, thetas[j]) for j in range(k - 1)]
    a24 = all(
        dirichlet_star(l, y) == dirichlet_star(sel.m, y)
        for l in cuts
        for y in shifted
    )
    rows.append(
        AssertionRecord(
            "D*_l = D*_m at x+theta_j (j < k)",
            f"{n_cuts} cuts x {k - 1} shifts",
            "",
            "pass" if a24 else "fail",
        )
    )
    weight = Fraction(1, 1 << n)
    integral = integral_Dstar_closed(sel.m, x)
    identity_ok = dual_ok = a15 = True
    for l in cuts:  # one symbolic S_l per cut serves all three rows
        closed = weight * sum(dirichlet(l, y) for y in shifted)
        symbolic = fn.partial_sum(l, x)
        if symbolic != closed:
            identity_ok = False
        if sums.at(l) != symbolic:
            dual_ok = False
        if abs(symbolic) < integral - 1:
            a15 = False
    rows.append(
        AssertionRecord(
            "S_l = 2^-n sum_{j<k} D_l(x+theta_j)",
            f"{n_cuts} cuts",
            "",
            "pass" if identity_ok else "fail",
        )
    )
    rows.append(
        AssertionRecord(
            "symbolic S_l = grid S_l",
            f"{n_cuts} cuts",
            "",
            "pass" if dual_ok else "fail",
        )
    )
    stripped = weight * sum(dirichlet_star(sel.m, y) for y in shifted)
    rows.append(
        AssertionRecord(
            "|S_l| >= integral - 1 on the progression",
            _frac(abs(stripped)),
            _frac(integral - 1),
            "vacuous" if integral <= 1 else "pass" if a15 else "fail",
            f"integral={_frac(integral)}",
        )
    )
    bound = max(threshold, integral - 1)
    rows.append(
        AssertionRecord(
            "exceedance density at N=2q (reported)",
            _frac(Fraction(sums.count_above(bound), 2 * q)),
            f"threshold {_frac(bound)}",
            "reported",
        )
    )
    return LemmaReport("lemma1", tuple(rows), tuple(parameters))


# ---------------------------------------------------------------------------
# scalar chains
# ---------------------------------------------------------------------------


def c3_holds(phi: PhiSpec, n: int, k: int) -> bool:
    """Certified decision of Φ(n / (50·2^k)) > e^{2n}.

    For exponential Φ = e^X - 1 the comparison is X > ln(1 + e^{2n}).  Since
    ln(1 + e^{2n}) > 2n always, an exact rational test of X ≤ 2n decides
    falsity, ties included: c·t ≤ 2n for exp_linear, t^a ≤ (2n)^b for
    exp_power at α = a/b.  Past that test X is algebraic and ln(1 + e^{2n})
    transcendental, so the two differ and their enclosures separate.
    """
    t = Fraction(n, 50 << k)
    if phi.kind == "power":
        # t^p > e^{2n}  <=>  p ln t > 2n
        if t <= 1:
            return False
        return bounds.decide_less(
            lambda prec: (Fraction(2 * n), Fraction(2 * n)),
            lambda prec: _ln_phi_enclosure(phi, t, prec),
        )
    if phi.kind == "exp_linear":
        at_most_2n = phi.parameter * t <= 2 * n
    else:
        at_most_2n = t**phi.parameter.numerator <= (2 * n) ** phi.parameter.denominator
    if at_most_2n:
        return False
    return bounds.decide_less(
        lambda prec: bounds.log1p_exp_enclosure(Fraction(2 * n), prec),
        lambda prec: phi.exponent(t, prec),
    )


def _iroot(x: int, m: int) -> int:
    """⌊x^(1/m)⌋ for integers x ≥ 1 and m ≥ 1, by Newton steps from above."""
    r = 1 << -(-x.bit_length() // m)
    while True:
        s = ((m - 1) * r + x // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def minimal_n_for_c3(phi: PhiSpec, k: int) -> int:
    """Smallest n with Φ(n/(50·2^k)) > e^{2n}, when one exists.

    Supported when the inequality holds for all large n: exp_power with
    α > 1, or exp_linear with c > 100·2^k.  Other kinds either never exceed
    e^{2n} or do so only on a bounded window, and are rejected.

    Let n0 be the least n with X > 2n; below it (c3) is false by the exact
    test of :func:`c3_holds`.  For exp_power at α = a/b, t^a > (2n)^b reads
    n^(a-b) > 2^b·(50·2^k)^a, so
    n0 = ⌊(2^b·(50·2^k)^a)^(1/(a-b))⌋ + 1; for exp_linear n0 = 1.  From n0 on,
    X - 2n grows and ln(1 + e^{2n}) - 2n shrinks, so the first n ≥ n0 where
    (c3) holds is the least.
    """
    if phi.kind == "exp_power":
        if phi.parameter <= 1:
            raise ValueError("exp_power needs alpha > 1 for (c3) to eventually hold")
        a, b = phi.parameter.numerator, phi.parameter.denominator
        n = _iroot((1 << b) * (50 << k) ** a, a - b) + 1
    elif phi.kind == "exp_linear":
        if phi.parameter <= 100 << k:
            raise ValueError(
                "exp_linear needs c > 100*2^k for (c3) to eventually hold"
            )
        n = 1
    else:
        raise ValueError(f"(c3) does not eventually hold for kind {phi.kind!r}")
    while not c3_holds(phi, n, k):
        n += 1
    return n


#: decimal digits of the longest integer a report prints: CPython's default
#: limit on int-to-str conversion
_PRINT_DIGITS = 4300


def _digit_count(v: int) -> int:
    """Decimal digits of v ≥ 1, without ``str(v)``, which CPython caps."""
    d = int(math.log10(v)) + 1
    return d - (v < 10 ** (d - 1)) + (v >= 10**d)


def _ln_phi_enclosure(phi: PhiSpec, t: Fraction, prec: int) -> bounds.Enclosure:
    """Enclosure of ln Φ(t), requiring Φ(t) comfortably above 1."""
    if phi.kind == "power":
        lo, hi = bounds.ln_enclosure(t, prec)
        return (phi.parameter * lo, phi.parameter * hi)
    X_lo, X_hi = phi.exponent(t, prec)
    if X_lo < 1:
        raise ArithmeticError("ln Phi enclosure needs the exponent to exceed 1")
    # ln(e^X - 1) = X + ln(1 - e^-X), and 0 > ln(1 - u) >= -2u for u <= 1/2
    drop = 2 * Fraction(1, 1 << min(int(X_lo), 64))
    return (X_lo - drop, X_hi)


def _final_display_row(phi: PhiSpec, n: int, k: int) -> AssertionRecord:
    """2^{-2n-1}·Φ(t) ≥ (e/2)^{2n} at t = n/(50·2^k), decided in log space."""
    t = Fraction(n, 50 << k)
    assertion = "2^(-2n-1)*Phi(t) >= (e/2)^(2n)"

    def lhs(prec: int) -> bounds.Enclosure:
        lo, hi = _ln_phi_enclosure(phi, t, prec)
        l2lo, l2hi = bounds.ln2_enclosure(prec)
        return (lo - (2 * n + 1) * l2hi, hi - (2 * n + 1) * l2lo)

    def rhs(prec: int) -> bounds.Enclosure:
        l2lo, l2hi = bounds.ln2_enclosure(prec)
        return (2 * n * (1 - l2hi), 2 * n * (1 - l2lo))

    try:
        holds = bounds.decide_less(rhs, lhs)
    except ArithmeticError as err:
        return AssertionRecord(assertion, "undecided", "", "fail", str(err))
    lo, hi = lhs(96)
    rlo, rhi = rhs(96)
    return AssertionRecord(
        assertion,
        f"log in [{float(lo):.6g}, {float(hi):.6g}]",
        f"log in [{float(rlo):.6g}, {float(rhi):.6g}]",
        "pass" if holds else "fail",
    )


def chain_check(n: int, k: int, phi: PhiSpec) -> LemmaReport:
    """Verify every scalar inequality in the constant chains at (n, k, Φ).

    All comparisons are exact rationals or certified directed-rounded
    enclosures; nothing is constructed.  The growth condition Φ(t) > e^{2n}
    is a parameter diagnostic (reported, with the minimal n attaining it when
    Φ is eventually large enough); when it holds, the final divergence
    display is asserted on top of it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    gamma = _gamma_of(n)
    c3 = c3_holds(phi, n, k)
    minimal, why_none = None, ""
    if not c3:
        try:
            minimal = minimal_n_for_c3(phi, k)
        except ValueError as err:
            why_none = str(err)
        else:
            if minimal >= 10**_PRINT_DIGITS:
                raise ValueError(
                    f"the least n with Phi(n/(50*2^k)) > exp(2n) at k={k} has "
                    f"{_digit_count(minimal)} digits, more than the "
                    f"{_PRINT_DIGITS} a report prints"
                )
    rows = [
        AssertionRecord(
            "gamma = floor(log2 exp(n/36))", str(gamma), "", "reported"
        )
    ]
    holds = bounds.decide_less(
        lambda prec: bounds.exp_enclosure(Fraction(n, 36), prec),
        lambda prec: (Fraction(2 << gamma), Fraction(2 << gamma)),
    )
    rows.append(
        AssertionRecord(
            "2^(gamma+1) >= exp(n/36)",
            f"2^{gamma + 1}",
            f"exp({n}/36)",
            "pass" if holds else "fail",
        )
    )
    rows.append(
        AssertionRecord(
            "2^gamma > n/40",
            f"2^{gamma}",
            _frac(Fraction(n, 40)),
            "pass" if (1 << gamma) * 40 > n else "fail",
        )
    )
    rows.append(
        AssertionRecord(
            "n/30 - 1 > n/40 (needs n > 120)",
            _frac(Fraction(n, 30) - 1),
            _frac(Fraction(n, 40)),
            "pass" if Fraction(n, 30) - 1 > Fraction(n, 40) else "fail",
        )
    )
    transfer_ok = Fraction(n, 40) - Fraction(n, 200) == Fraction(n, 50)
    rows.append(
        AssertionRecord(
            "threshold transfer n/40 - n/200 = n/50",
            _frac(Fraction(n, 40) - Fraction(n, 200)),
            _frac(Fraction(n, 50)),
            "pass" if transfer_ok else "fail",
            "interference < n/(200*2^k) under the stage-growth condition",
        )
    )
    margin = Fraction(n, 30) - 1 - Fraction(n, 200)
    rows.append(
        AssertionRecord(
            "n/30 - 1 - n/200 > n/50 (needs n > 120)",
            _frac(margin),
            _frac(Fraction(n, 50)),
            "pass" if margin > Fraction(n, 50) else "fail",
            "single-stage bound survives cross-stage interference",
        )
    )
    t = Fraction(n, 50 << k)
    t_text = _frac(t) if _digit_count(t.denominator) <= _PRINT_DIGITS else f"{n}/(50*2^{k})"
    rows.append(
        AssertionRecord(
            "Phi(n/(50*2^k)) > exp(2n)",
            f"Phi({t_text})",
            f"exp({2 * n})",
            "reported",
            "holds" if c3 else "does not hold",
        )
    )
    if not c3:
        rows.append(
            AssertionRecord(
                "minimal n with Phi(n/(50*2^k)) > exp(2n)",
                "none" if minimal is None else str(minimal),
                "",
                "reported",
                why_none,
            )
        )
    else:
        rows.append(_final_display_row(phi, n, k))
    return LemmaReport(
        "chains",
        tuple(rows),
        (("lemma", "chains"), ("n", str(n)), ("k", str(k)), ("phi", phi.to_text())),
    )
