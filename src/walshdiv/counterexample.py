"""The divergence construction and its machine checks.

Pieces, bottom-up:

- the sign-change set ``E_n`` (points whose Rademacher sequence changes sign
  often), realized exactly as a union of level-(n+2) cells, with its measure
  computed by an exact dynamic program over sign-product partial sums;
- the selector ``select_m`` extracting descent positions (r_k = 1 followed by
  r_{k+1} = -1) and packing them into an integer m with companion p = m(1+2^n);
- the exact closed form for the kernel integral ∫_0^x D*_m(x ⊕ t) dt plus an
  independent grid oracle;
- the polynomial f_n = 2^γ·1_{(E_n)^c}·w_{2^n} + (1/2^n) Σ_j (D_q − D_{u_j})(·⊕θ_j)
  as an :class:`~walshdiv.atoms.AtomSum` with exact spectral bookkeeping;
- structured verifiers (:func:`verify_lemma2`, :func:`verify_lemma1`) that
  re-derive each identity and inequality along two independent paths and emit
  a :class:`LemmaReport`;
- scalar chain checks (:func:`chain_check`) for the threshold inequalities
  that only make sense at parameter scales where f_n cannot be materialized,
  using certified directed rounding throughout; and
- the staged assembly :func:`assemble_f` combining several f_{n_k} with
  weights 2^{-k}.

Selector positions run over [1, n-1] (not [1, n]): position n would
contribute 2^n to m and break the m < 2^n contract that every spectral
argument relies on.  The count bound ν ≥ n/6 - 1 survives the restriction:
membership forces more than n/3 sign changes, descents make up at least
⌈changes/2⌉ - 1 of the positions below n, and ⌈(n/3)/2⌉ - 1 ≥ n/6 - 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import bounds
from ._kernels import cell_scan, walsh_sign_row
from .atoms import AtomSum, IndicatorAtom, KernelAtom, SpectralBlock
from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    Rat,
    bit,
    containing_interval,
    xor_add,
)
from .fourier import ExactSeries, PhiSpec
from .walsh import GridVector, bit_reverse, dirichlet, dirichlet_star, fwht, walsh

__all__ = [
    "EmptySelectionError",
    "InfeasibleParameters",
    "ConstructionParams",
    "SelectorResult",
    "AssertionRecord",
    "LemmaReport",
    "build_En",
    "en_cell_mask",
    "measure_En",
    "measure_En_range",
    "pairsum_distribution",
    "pairsum_tail_measure",
    "select_m",
    "integral_Dstar_closed",
    "integral_Dstar_grid",
    "verify_lemma2",
    "build_fn",
    "progression_L",
    "partial_sum_series",
    "verify_lemma1",
    "chain_check",
    "c3_holds",
    "minimal_n_for_c3",
    "check_c2",
    "check_c4",
    "StageRecord",
    "Assembly",
    "assemble_f",
]

#: Default cap on exhaustive cell enumeration (2^(cap+2) cells).
EXHAUSTIVE_CAP = 16

#: Default cap on dense grid resolution (2^cap values).
GRID_CAP = 26


class EmptySelectionError(ValueError):
    """No descent position exists: m is undefined at this point."""


class InfeasibleParameters(ValueError):
    """Neither verification branch is checkable at these parameters."""


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

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.c < 2:
            raise ValueError(f"c must be at least 2, got {self.c}")

    @cached_property
    def gamma(self) -> int:
        return _gamma_of(self.n)

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

    def base_cell(self, k: int) -> DyadicInterval:
        """Δ_k = [(k-1)/2^n, k/2^n)."""
        return DyadicInterval(self.n, k - 1)


# ---------------------------------------------------------------------------
# the set E_n
# ---------------------------------------------------------------------------


def en_cell_mask(n: int) -> np.ndarray:
    """Boolean membership mask over the 2^(n+2) level-(n+2) cells of E_n."""
    member, _, _, _ = cell_scan(n)
    return member


def build_En(n: int) -> list[DyadicInterval]:
    """E_n = {x : |Σ_{j=1}^n r_j(x) r_{j+1}(x)| < n/3} as merged intervals.

    The defining sum reads bits 2 … n+2 only, so the set is a union of
    level-(n+2) cells; the return value merges sibling cells into maximal
    dyadic intervals (canonical form).
    """
    if n + 2 > GRID_CAP:
        raise ValueError(f"cell enumeration for n={n} exceeds the grid cap")
    cells = np.flatnonzero(en_cell_mask(n)).astype(np.int64)
    out: list[DyadicInterval] = []
    level = n + 2
    while level > 0 and cells.size:
        evens = cells[cells % 2 == 0] >> 1
        odds = cells[cells % 2 == 1] >> 1
        parents = np.intersect1d(evens, odds)
        lone = np.setdiff1d(cells, np.concatenate([parents * 2, parents * 2 + 1]))
        out.extend(DyadicInterval(level, int(i)) for i in lone)
        cells = parents
        level -= 1
    if cells.size:  # the whole of [0, 1)
        out.append(DyadicInterval(0, 0))
    return sorted(out, key=lambda iv: (iv.left, -iv.level))


def pairsum_distribution(n: int) -> list[int]:
    """Counts of sign vectors by b = #{j ≤ n : s_j s_{j+1} = -1}.

    The products of consecutive signs are themselves independent fair signs
    (the map (s_1, products) ↔ (s_1, …, s_{n+1}) is a bijection), so the
    distribution is built by the Pascal-row dynamic program; entry b counts
    the φ-vectors with b negative products, out of 2^n.
    """
    row = [1]
    for _ in range(n):
        row = [
            (row[b - 1] if b else 0) + (row[b] if b < len(row) else 0)
            for b in range(len(row) + 1)
        ]
    return row


def measure_En(n: int) -> Fraction:
    """Exact |E_n| = P(|n - 2b| < n/3) with b the negative-product count."""
    row = pairsum_distribution(n)
    hits = sum(row[b] for b in range(n + 1) if 3 * abs(n - 2 * b) < n)
    return Fraction(hits, 1 << n)


def measure_En_range(n_lo: int, n_hi: int) -> list[tuple[int, Fraction]]:
    """(n, |E_n|) for n_lo ≤ n ≤ n_hi in one incremental DP pass."""
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    out: list[tuple[int, Fraction]] = []
    row = [1]
    for n in range(1, n_hi + 1):
        row = [
            (row[b - 1] if b else 0) + (row[b] if b < len(row) else 0)
            for b in range(len(row) + 1)
        ]
        if n >= n_lo:
            hits = sum(row[b] for b in range(n + 1) if 3 * abs(n - 2 * b) < n)
            out.append((n, Fraction(hits, 1 << n)))
    return out


def pairsum_tail_measure(n: int, lam: Rat) -> Fraction:
    """Exact P(|Σ_{j≤n} s_j s_{j+1}| ≤ λ) for the concentration bound."""
    lam = Fraction(lam)
    row = pairsum_distribution(n)
    hits = sum(row[b] for b in range(n + 1) if abs(n - 2 * b) <= lam)
    return Fraction(hits, 1 << n)


# ---------------------------------------------------------------------------
# selector and kernel integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectorResult:
    """Descent positions of x and the integers they assemble into."""

    positions: tuple[int, ...]
    m: int
    p: int

    @property
    def nu(self) -> int:
        return len(self.positions)


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
    total = Fraction(0)
    e = x.exponent
    k = 0
    mm = m
    while mm:
        if mm & 1 and k < e:
            rho = Fraction((x.numerator << k) & ((1 << e) - 1), 1 << e)
            total += rho - bit(x, k + 1)
        mm >>= 1
        k += 1
    return total


def integral_Dstar_grid(m: int, x: DyadicPoint, K: int) -> Fraction:
    """Brute-force oracle: 2^-K Σ_{cells ⊂ [0,x)} D*_m(x ⊕ t_cell).

    Requires 2^K > m and K ≥ exponent(x) so the integrand is constant on
    every level-K cell and [0, x) is a union of such cells.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if (1 << K) <= m or K < x.exponent:
        raise ValueError(
            f"resolution 2^{K} cannot resolve m={m} and x={x.to_text()}"
        )
    top = x.scaled_numerator(K)
    total = sum(
        dirichlet_star(m, xor_add(x, DyadicPoint(j, K))) for j in range(top)
    )
    return Fraction(total, 1 << K)


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
        width = max((len(r.assertion) for r in self.rows), default=0)
        lines = [f"[{self.lemma}] " + " ".join(f"{k}={v}" for k, v in self.parameters)]
        for r in self.rows:
            lines.append(
                f"  {r.verdict.upper():8s} {r.assertion:{width}s}"
                f"  lhs={r.lhs_exact} rhs={r.rhs_exact}"
                + (f"  [{r.witness}]" if r.witness else "")
            )
        tally = "OK" if self.ok else f"{len(self.failures())} FAILED"
        lines.append(f"  => {tally}")
        return "\n".join(lines) + "\n"


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Lemma 2 verification
# ---------------------------------------------------------------------------


def _measure_bound_row(n: int) -> AssertionRecord:
    """|E_n| > 1 - 2 exp(-n/36), certified at the unfavorable interval end."""
    measure = measure_En(n)

    def rhs(prec: int) -> bounds.Enclosure:
        lo, hi = bounds.exp_enclosure(Fraction(-n, 36), prec)
        return (1 - 2 * hi, 1 - 2 * lo)

    rhs_lo, rhs_hi = rhs(96)
    if rhs_hi <= 0:
        return AssertionRecord(
            "measure > 1 - 2*exp(-n/36)",
            _frac_str(measure),
            f"<= {float(rhs_hi):.6g}",
            "pass",
            "bound nonpositive (vacuous)",
        )
    holds = bounds.decide_less(
        rhs, lambda prec: (Fraction(measure), Fraction(measure))
    )
    return AssertionRecord(
        "measure > 1 - 2*exp(-n/36)",
        _frac_str(measure),
        f"in [{float(rhs_lo):.6g}, {float(rhs_hi):.6g}]",
        "pass" if holds else "fail",
    )


def verify_lemma2(
    n: int,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
    cap: int = EXHAUSTIVE_CAP,
) -> LemmaReport:
    """Check the sign-change lemma: measure bound plus per-point integrals.

    Exhaustive mode certifies every level-(n+2) cell of E_n (left endpoints
    minimize every descent term over their cell, so cell lefts bound all x);
    sample mode draws cells uniformly with the given seed and checks members.
    """
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = [_measure_bound_row(n)]
    params = [("lemma", "2"), ("n", str(n)), ("mode", mode)]

    if mode == "exhaustive":
        if n > cap:
            raise ValueError(f"exhaustive mode capped at n <= {cap}, got {n}")
        member, m_vals, nu, int_scaled = cell_scan(n)
        idx = np.flatnonzero(member)
        scale = 1 << (n + 2)
        rows.append(
            AssertionRecord(
                "member cells at level n+2",
                str(int(idx.size)),
                f"of {scale}",
                "reported",
            )
        )
        if idx.size == 0:
            rows.append(
                AssertionRecord(
                    "integral >= n/30 on E_n",
                    "-",
                    _frac_str(Fraction(n, 30)),
                    "vacuous",
                    "E_n empty",
                )
            )
            return LemmaReport("lemma2", tuple(rows), tuple(params))

        empty = idx[nu[idx] == 0]
        rows.append(
            AssertionRecord(
                "selector nonempty on E_n",
                str(int(idx.size - empty.size)),
                str(int(idx.size)),
                "pass" if empty.size == 0 else "fail",
                "" if empty.size == 0 else f"x={_cell_left(n, int(empty[0]))}",
            )
        )
        rows.append(
            AssertionRecord(
                "m < 2^n on E_n",
                str(int(m_vals[idx].max())),
                str(1 << n),
                "pass" if int(m_vals[idx].max()) < (1 << n) else "fail",
            )
        )
        worst_nu = int(nu[idx].min())
        rows.append(
            AssertionRecord(
                "6*nu >= n - 6 on E_n",
                str(worst_nu),
                _frac_str(Fraction(n - 6, 6)),
                "pass" if 6 * worst_nu >= n - 6 else "fail",
                f"x={_cell_left(n, int(idx[int(np.argmin(nu[idx]))]))}",
            )
        )
        # integral >= n/30, certified for every x via the left endpoints
        checkable = idx[nu[idx] > 0]
        ok = 30 * int_scaled[checkable] >= n * scale
        bad = checkable[~ok]
        if checkable.size:
            arg = int(checkable[int(np.argmin(int_scaled[checkable]))])
            min_integral = Fraction(int(int_scaled[arg]), scale)
            witness = f"x={_cell_left(n, arg)} integral={_frac_str(min_integral)}"
        else:
            witness = "no checkable cells"
        if empty.size:
            witness += f"; {int(empty.size)} cells lack a selector"
        rows.append(
            AssertionRecord(
                "integral >= n/30 on E_n",
                str(int(checkable.size - bad.size)),
                str(int(checkable.size)),
                "fail" if bad.size or empty.size else "pass",
                witness,
            )
        )
        params.append(("cells", str(scale)))
    else:
        rng = random.Random(seed)
        size = 1 << (n + 2)
        members = 0
        failures = 0
        min_integral: Fraction | None = None
        min_witness = ""
        empty_sel = 0
        for _ in range(samples):
            j = rng.randrange(size)
            if not _cell_member(n, j):
                continue
            members += 1
            x = DyadicPoint(j, n + 2)
            try:
                sel = select_m(x, n)
            except EmptySelectionError:
                empty_sel += 1
                failures += 1
                continue
            value = integral_Dstar_closed(sel.m, x)
            if min_integral is None or value < min_integral:
                min_integral, min_witness = value, x.to_text()
            if 30 * value < n:
                failures += 1
        params += [("samples", str(samples)), ("seed", str(seed))]
        rows.append(
            AssertionRecord(
                "sampled members of E_n", str(members), str(samples), "reported"
            )
        )
        rows.append(
            AssertionRecord(
                "integral >= n/30 on sampled E_n",
                str(members - failures),
                str(members),
                "pass" if failures == 0 else "fail",
                (
                    f"min integral {_frac_str(min_integral)} at {min_witness}"
                    if min_integral is not None
                    else "no members sampled"
                )
                + (f"; {empty_sel} empty selectors" if empty_sel else ""),
            )
        )
    return LemmaReport("lemma2", tuple(rows), tuple(params))


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
    n, c = params.n, params.c
    if n + 2 > GRID_CAP:
        raise ValueError(f"indicator mask for n={n} exceeds the grid cap")
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


def progression_L(sel: SelectorResult, n: int, lo: int, hi: int) -> list[int]:
    """All l = p + μ·2^{2n} (μ ≥ 0) with lo ≤ l < hi."""
    step = 1 << (2 * n)
    if hi <= sel.p:
        return []
    mu = max(0, -(-(lo - sel.p) // step))  # ceil division, clamped
    out = []
    l = sel.p + mu * step
    while l < hi:
        out.append(l)
        l += step
    return out


@lru_cache(maxsize=8)
def _prepared_fn(params: ConstructionParams, grid_cap: int):
    """Build f_n once per parameter set; render + transform when affordable."""
    fn = build_fn(params)
    coeffs = None
    if params.q_exponent <= grid_cap:
        grid = fn.render(params.q_exponent, cap=grid_cap)
        coeffs = fwht(grid)
    return fn, coeffs


def _partial_sums_scaled(coeffs: GridVector, x: DyadicPoint) -> np.ndarray:
    """All S_l(x)·den for l = 1 … 2^K as an integer cumulative sum.

    int64 coefficients satisfy peak·2^K < 2^62, which bounds every prefix;
    object (big-int) coefficients keep the sum in object dtype.
    """
    K = coeffs.resolution
    rx = bit_reverse(x.scaled_numerator(K), K)
    signs = walsh_sign_row(rx, 1 << K).astype(np.int64)
    return np.cumsum(coeffs.numerators * signs)


def partial_sum_series(
    params: ConstructionParams,
    x: DyadicPoint,
    count: int,
    grid_cap: int = GRID_CAP,
) -> ExactSeries:
    """S_l(x, f_n) for l = 1 … count.

    Grid-accelerated when q(n) is renderable (one transform, one cumulative
    sum; S_l is constant at f(x) beyond the spectral ceiling); otherwise each
    cut is evaluated symbolically.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    fn, coeffs = _prepared_fn(params, grid_cap)
    if coeffs is not None and x.exponent <= coeffs.resolution:
        scaled = _partial_sums_scaled(coeffs, x)
        tail = np.repeat(scaled[-1:], max(count - len(scaled), 0))
        return ExactSeries(np.concatenate([scaled[:count], tail]), coeffs.denominator)
    return ExactSeries.of([fn.partial_sum(l, x) for l in range(1, count + 1)])


def verify_lemma1(
    params: ConstructionParams,
    x: DyadicPoint,
    grid_cap: int = GRID_CAP,
) -> LemmaReport:
    """Check the polynomial's partial-sum behavior at one point.

    Branch 1 (x in the support of f): S_l(x) = f(x) for every l ≥ q, and
    |f(x)| ≥ 2^γ, giving exceedance density ≥ 1/2 at N = 2q.

    Branch 2 (f(x) = 0, hence x ∈ E_n): along x's progression window
    [u_{k-1}, u_k) the identity chain is recomputed independently —
    S_l = 2^{-n} Σ_{j<k} D_l(x⊕θ_j), every character value w_p(θ_j) and
    w_l(θ_j) equals 1, the kernel-locality collapse D*_l = D*_m holds at
    each x⊕θ_j, and |S_l| ≥ ∫_0^x D*_m(x⊕t)dt - 1.  The exceedance density
    at N = 2q against max(n/40, integral - 1) is reported.
    """
    n = params.n
    if n + 2 > GRID_CAP:
        raise InfeasibleParameters(
            f"n={n} admits neither branch: the indicator mask alone needs "
            f"2^{n + 2} cells; use chain_check for threshold inequalities"
        )
    fn, coeffs = _prepared_fn(params, grid_cap)
    rows: list[AssertionRecord] = []
    parameters = [
        ("lemma", "1"),
        ("n", str(n)),
        ("c", str(params.c)),
        ("x", x.to_text()),
        ("grid", str(params.q_exponent) if coeffs is not None else "symbolic-only"),
    ]
    q = params.q
    fx = fn.value(x)
    threshold = Fraction(n, 40)
    in_support = fx != 0
    rows.append(
        AssertionRecord(
            "branch",
            "1 (x in supp f)" if in_support else "2 (f(x) = 0)",
            "",
            "reported",
            f"f(x)={_frac_str(fx)}",
        )
    )

    grid_sums = None
    if coeffs is not None and x.exponent <= coeffs.resolution:
        grid_sums = _partial_sums_scaled(coeffs, x)
        den = coeffs.denominator

    if in_support:
        gamma_floor = Fraction(1 << params.gamma)
        rows.append(
            AssertionRecord(
                "|f(x)| >= 2^gamma",
                _frac_str(abs(fx)),
                _frac_str(gamma_floor),
                "pass" if abs(fx) >= gamma_floor else "fail",
            )
        )
        cuts = [q, q + 1, 2 * q]
        sym_ok = all(fn.partial_sum(l, x) == fx for l in cuts)
        grid_ok = True
        if grid_sums is not None:
            grid_ok = Fraction(int(grid_sums[q - 1]), den) == fx
        rows.append(
            AssertionRecord(
                "S_l(x) = f(x) for l >= q",
                "symbolic+grid" if grid_sums is not None else "symbolic",
                f"cuts {cuts}",
                "pass" if sym_ok and grid_ok else "fail",
            )
        )
        exceeds = abs(fx) > threshold
        rows.append(
            AssertionRecord(
                "|f(x)| > n/40",
                _frac_str(abs(fx)),
                _frac_str(threshold),
                "pass" if exceeds else "fail",
            )
        )
        # Cuts q+1 … 2q all evaluate to f(x): that alone settles the density
        # when |f(x)| clears the threshold; the grid adds the exact count for
        # cuts 1 … q when available.
        if grid_sums is not None:
            low_count = int(np.count_nonzero(np.abs(grid_sums) * 40 > n * den))
            note = f"count={low_count + q * int(exceeds)} of {2 * q}"
        else:
            low_count = 0
            note = "lower bound; cuts below q uncounted (no grid)"
        density = Fraction(low_count + q * int(exceeds), 2 * q)
        rows.append(
            AssertionRecord(
                "density at N=2q >= 1/2",
                _frac_str(density),
                "1/2",
                "pass" if density >= Fraction(1, 2) else "fail",
                note,
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
            f"{len(cuts)} cuts",
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
            f"{len(cuts)} cuts x {k - 1} shifts",
            "",
            "pass" if a24 else "fail",
        )
    )
    weight = Fraction(1, 1 << n)
    identity_ok = True
    dual_ok = True
    for l in cuts:
        closed = weight * sum(dirichlet(l, y) for y in shifted)
        symbolic = fn.partial_sum(l, x)
        if symbolic != closed:
            identity_ok = False
        if grid_sums is not None and Fraction(int(grid_sums[l - 1]), den) != symbolic:
            dual_ok = False
    rows.append(
        AssertionRecord(
            "S_l = 2^-n sum_{j<k} D_l(x+theta_j)",
            f"{len(cuts)} cuts",
            "",
            "pass" if identity_ok else "fail",
        )
    )
    rows.append(
        AssertionRecord(
            "symbolic S_l = grid S_l",
            f"{len(cuts)} cuts",
            "",
            ("pass" if dual_ok else "fail") if grid_sums is not None else "vacuous",
            "" if grid_sums is not None else "grid not rendered",
        )
    )
    integral = integral_Dstar_closed(sel.m, x)
    stripped = weight * sum(dirichlet_star(sel.m, y) for y in shifted)
    a15 = all(abs(fn.partial_sum(l, x)) >= integral - 1 for l in cuts)
    rows.append(
        AssertionRecord(
            "|S_l| >= integral - 1 on the progression",
            _frac_str(abs(stripped)),
            _frac_str(integral - 1),
            "pass" if a15 else "fail",
            f"integral={_frac_str(integral)}",
        )
    )
    if grid_sums is not None:
        bound = max(threshold, integral - 1)
        scaled = np.abs(grid_sums).astype(object) * bound.denominator
        count = int(np.count_nonzero(scaled > bound.numerator * den))
        # Cuts beyond q contribute nothing: there S_l = f(x) = 0.
        rows.append(
            AssertionRecord(
                "exceedance density at N=2q (reported)",
                _frac_str(Fraction(count, 2 * q)),
                f"threshold {_frac_str(bound)}",
                "reported",
            )
        )
    return LemmaReport("lemma1", tuple(rows), tuple(parameters))


# ---------------------------------------------------------------------------
# scalar chains
# ---------------------------------------------------------------------------


def _phi_main_exponent(phi: PhiSpec, t: Fraction):
    """For exponential kinds, X with Φ(t) = e^X - 1: exact Fraction or None."""
    if phi.kind == "exp_linear":
        return phi.parameter * t
    if phi.kind == "exp_power" and phi.parameter.denominator == 1:
        return t ** int(phi.parameter)
    return None


def c3_holds(phi: PhiSpec, n: int, k: int, max_prec: int = 1 << 14) -> bool:
    """Certified decision of Φ(n / (50·2^k)) > e^{2n}.

    For exponential Φ = e^X - 1 the comparison is X > ln(1 + e^{2n}); since
    ln(1 + e^{2n}) > 2n always, a rational X ≤ 2n decides falsity exactly and
    avoids evaluating the huge exponential.
    """
    t = Fraction(n, 50 << k)
    if phi.kind == "power":
        # t^p > e^{2n}  <=>  p ln t > 2n
        if t <= 1:
            return False

        def lhs(prec: int) -> bounds.Enclosure:
            lo, hi = bounds.ln_enclosure(t, prec)
            return (phi.parameter * lo, phi.parameter * hi)

        return bounds.decide_less(
            lambda prec: (Fraction(2 * n), Fraction(2 * n)), lhs, max_prec=max_prec
        )
    X = _phi_main_exponent(phi, t)
    if X is not None:
        if X <= 2 * n:
            return False
        return bounds.decide_less(
            lambda prec: bounds.log1p_exp_enclosure(Fraction(2 * n), prec),
            lambda prec: (X, X),
            max_prec=max_prec,
        )
    # non-integer exp_power exponent: enclose t^alpha
    lo, hi = bounds.pow_enclosure(t, phi.parameter, 96)
    if hi <= 2 * n:
        return False
    if lo <= 2 * n:  # refine once before conceding to the interval decision
        lo, hi = bounds.pow_enclosure(t, phi.parameter, 512)
        if hi <= 2 * n:
            return False
    return bounds.decide_less(
        lambda prec: bounds.log1p_exp_enclosure(Fraction(2 * n), prec),
        lambda prec: bounds.pow_enclosure(t, phi.parameter, prec),
        max_prec=max_prec,
    )


def minimal_n_for_c3(phi: PhiSpec, k: int) -> int:
    """Smallest n with Φ(n/(50·2^k)) > e^{2n}, when one exists.

    Supported when the inequality holds for all large n: exp_power with
    α > 1, or exp_linear with c > 100·2^k.  Other kinds either never exceed
    e^{2n} or do so only on a bounded window, and are rejected.
    """
    if phi.kind == "exp_power":
        if phi.parameter <= 1:
            raise ValueError("exp_power needs alpha > 1 for (c3) to eventually hold")
    elif phi.kind == "exp_linear":
        if phi.parameter <= 100 << k:
            raise ValueError(
                "exp_linear needs c > 100*2^k for (c3) to eventually hold"
            )
    else:
        raise ValueError(f"(c3) does not eventually hold for kind {phi.kind!r}")
    hi = 1
    while not c3_holds(phi, hi, k):
        hi <<= 1
        if hi > 1 << 62:
            raise ArithmeticError("no (c3) threshold found below 2^62")
    lo = hi >> 1  # c3 fails at lo (or lo = 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if c3_holds(phi, mid, k):
            hi = mid
        else:
            lo = mid
    return hi


def _ln_phi_enclosure(phi: PhiSpec, t: Fraction, prec: int) -> bounds.Enclosure:
    """Enclosure of ln Φ(t), requiring Φ(t) comfortably above 1."""
    if phi.kind == "power":
        lo, hi = bounds.ln_enclosure(t, prec)
        return (phi.parameter * lo, phi.parameter * hi)
    X = _phi_main_exponent(phi, t)
    if X is None:
        X_lo, X_hi = bounds.pow_enclosure(t, phi.parameter, prec)
    else:
        X_lo = X_hi = X
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
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    gamma = _gamma_of(n)
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
            _frac_str(Fraction(n, 40)),
            "pass" if (1 << gamma) * 40 > n else "fail",
        )
    )
    rows.append(
        AssertionRecord(
            "n/30 - 1 > n/40 (needs n > 120)",
            _frac_str(Fraction(n, 30) - 1),
            _frac_str(Fraction(n, 40)),
            "pass" if Fraction(n, 30) - 1 > Fraction(n, 40) else "fail",
        )
    )
    transfer_ok = Fraction(n, 40) - Fraction(n, 200) == Fraction(n, 50)
    rows.append(
        AssertionRecord(
            "threshold transfer n/40 - n/200 = n/50",
            _frac_str(Fraction(n, 40) - Fraction(n, 200)),
            _frac_str(Fraction(n, 50)),
            "pass" if transfer_ok else "fail",
            "interference < n/(200*2^k) under the stage-growth condition",
        )
    )
    margin = Fraction(n, 30) - 1 - Fraction(n, 200)
    rows.append(
        AssertionRecord(
            "n/30 - 1 - n/200 > n/50 (needs n > 120)",
            _frac_str(margin),
            _frac_str(Fraction(n, 50)),
            "pass" if margin > Fraction(n, 50) else "fail",
            "single-stage bound survives cross-stage interference",
        )
    )
    t = Fraction(n, 50 << k)
    c3 = c3_holds(phi, n, k)
    rows.append(
        AssertionRecord(
            "Phi(n/(50*2^k)) > exp(2n)",
            f"Phi({_frac_str(t)})",
            f"exp({2 * n})",
            "reported",
            "holds" if c3 else "does not hold",
        )
    )
    if not c3:
        try:
            minimal = minimal_n_for_c3(phi, k)
            rows.append(
                AssertionRecord(
                    "minimal n with Phi(n/(50*2^k)) > exp(2n)",
                    str(minimal),
                    "",
                    "reported",
                )
            )
        except ValueError as err:
            rows.append(
                AssertionRecord(
                    "minimal n with Phi(n/(50*2^k)) > exp(2n)",
                    "none",
                    "",
                    "reported",
                    str(err),
                )
            )
    else:
        rows.append(_final_display_row(phi, n, k))
    return LemmaReport(
        "chains",
        tuple(rows),
        (("lemma", "chains"), ("n", str(n)), ("k", str(k)), ("phi", phi.to_text())),
    )


# ---------------------------------------------------------------------------
# staged assembly
# ---------------------------------------------------------------------------


def check_c2(prev: ConstructionParams, nxt: ConstructionParams) -> bool:
    """Spectral disjointness p(n_{k+1}) > 2 q(n_k), compared by exponents."""
    return nxt.n > 1 + prev.q_exponent


def check_c4(prev: ConstructionParams, nxt: ConstructionParams, k: int) -> bool:
    """Stage-growth condition n_{k+1} > 800·k·2^k·q(n_k), exact.

    q(n_k) is astronomically large in general, so the comparison shifts
    n_{k+1} down by q's exponent instead of materializing q.
    """
    factor = 800 * k << k
    shifted = nxt.n >> prev.q_exponent
    if shifted > factor:
        return True
    if shifted < factor:
        return False
    return (nxt.n & ((1 << prev.q_exponent) - 1)) > 0


@dataclass(frozen=True)
class StageRecord:
    """Bookkeeping for one stage of the assembly."""

    k: int
    params: ConstructionParams
    weight: Fraction
    spectral_lo: int  # p(n_k) = 2^{n_k}
    q_exponent: int  # q(n_k) = 2^{q_exponent}
    interference_factor: int  # bound 4(k-1)·2^{prev q_exponent}
    interference_exponent: int
    c2_ok: bool  # against the previous stage (True for the first)
    c4_ok: bool


@dataclass(frozen=True)
class Assembly:
    """Weighted sum Σ 2^{-k} f_{n_k} with per-stage records."""

    atom_sum: AtomSum
    stages: tuple[StageRecord, ...]

    def value(self, x: DyadicPoint) -> Fraction:
        return self.atom_sum.value(x)

    def partial_sum(self, cut: int, x: DyadicPoint) -> Fraction:
        return self.atom_sum.partial_sum(cut, x)


def assemble_f(stages: Sequence[tuple[int, int]], strict: bool = True) -> Assembly:
    """Combine stages (n_k, c_k) into Σ_k 2^{-k} f_{n_k}.

    strict=True enforces the spectral-disjointness condition between
    consecutive stages (each stage's lower edge above twice the previous
    upper edge) and rejects violating lists.  strict=False builds the sum
    anyway (structural mode: per-atom partial sums remain exact by linearity)
    and records the violated conditions in the stage records.
    """
    if not stages:
        raise ValueError("need at least one stage")
    records: list[StageRecord] = []
    total: AtomSum | None = None
    prev: ConstructionParams | None = None
    for k, (n, c) in enumerate(stages, start=1):
        params = ConstructionParams(n, c)
        c2 = True if prev is None else check_c2(prev, params)
        c4 = True if prev is None else check_c4(prev, params, k - 1)
        if strict and not c2:
            raise ValueError(
                f"stage {k} violates spectral disjointness: "
                f"2^{params.n} <= 2*2^{prev.q_exponent}"
            )
        weight = Fraction(1, 1 << k)
        part = build_fn(params).scaled(weight)
        total = part if total is None else total + part
        records.append(
            StageRecord(
                k=k,
                params=params,
                weight=weight,
                spectral_lo=params.p,
                q_exponent=params.q_exponent,
                interference_factor=4 * (k - 1),
                interference_exponent=prev.q_exponent if prev else 0,
                c2_ok=c2,
                c4_ok=c4,
            )
        )
        prev = params
    return Assembly(total, tuple(records))
