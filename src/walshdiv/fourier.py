"""Walsh–Fourier coefficients, partial sums, strong Φ-means, and Φ classes.

Partial sums have two independent evaluation paths:

- :func:`partial_sum_grid` — coefficient-prefix sums of a grid-resolved step
  function (the transform path);
- :meth:`~walshdiv.atoms.AtomSum.partial_sum` — per-atom closed forms on an
  :class:`~walshdiv.atoms.AtomSum` (no global grid).

A run of partial sums S_1 … S_N travels as one :class:`ExactSeries`: an
integer numerator array over a single common denominator (int64 while every
numerator is below 2^62 in magnitude, Python big ints otherwise).  :func:`strong_mean`,
:func:`strong_mean_bounds` and :func:`exceed_density` take a census of the
first N numerators (``np.unique``); a series holds only a handful of distinct
values, and only those become :class:`~fractions.Fraction` objects.

Exact steps: the series, the census and its counts, the centering |S_k − s|,
the strict threshold test, the exceedance density, and the rational
enclosures of :func:`strong_mean_bounds` (one :meth:`PhiSpec.enclosure` per
distinct magnitude), which carry every verdict.  In mpf: only Φ itself in
:func:`strong_mean` (one :meth:`PhiSpec.value_mpf` per distinct magnitude),
summed in order of first occurrence, for display.  Φ growth classification is
symbolic, from the kind of the Φ specification, never from numeric limit
probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from . import bounds
from .dyadic import DyadicPoint, Rat
from .walsh import GridVector, _int_array, fwht, walsh

__all__ = [
    "StepFunction",
    "ExactSeries",
    "PhiSpec",
    "PhiClass",
    "SUBEXPONENTIAL",
    "SUPEREXPONENTIAL",
    "parse_phi",
    "coefficients",
    "partial_sum_grid",
    "strong_mean",
    "strong_mean_bounds",
    "exceed_density",
    "phi_classify",
]

#: mpf exponents beyond this magnitude report as +inf (overflow marker).
_EXPONENT_CAP = 10**15


class StepFunction:
    """A function on [0,1) constant on each dyadic cell of width 2^-K."""

    __slots__ = ("grid", "_coeffs")

    def __init__(self, grid: GridVector):
        self.grid = grid
        self._coeffs: GridVector | None = None

    @classmethod
    def from_values(cls, resolution: int, values: Sequence[Rat]) -> "StepFunction":
        return cls(GridVector.from_values(resolution, values))

    @property
    def resolution(self) -> int:
        return self.grid.resolution

    def value_at(self, x: DyadicPoint) -> Fraction:
        return self.grid.value_at(x)

    def norm1(self) -> Fraction:
        return self.grid.norm1()

    def mean(self) -> Fraction:
        return self.grid.mean()


def coefficients(f: StepFunction) -> GridVector:
    """Exact Walsh coefficients f̂(m), 0 ≤ m < 2^K (cached on f)."""
    if f._coeffs is None:
        f._coeffs = fwht(f.grid)
    return f._coeffs


def partial_sum_grid(f: StepFunction, l: int, x: DyadicPoint) -> Fraction:
    """Exact S_l(x, f) = Σ_{m<l} f̂(m) w_m(x) from the coefficient prefix.

    Valid for 0 ≤ l ≤ 2^K; beyond that the spectrum of a 2^-K step function
    is not representable and the cut is rejected.
    """
    size = 1 << f.resolution
    if not 0 <= l <= size:
        raise ValueError(
            f"cut {l} outside the representable range [0, {size}] "
            f"at resolution {f.resolution}"
        )
    if l == 0:
        return Fraction(0)
    if l == size:
        return f.value_at(x)  # full inversion of a step function
    co = coefficients(f)
    total = Fraction(0)
    for m in co.nonzero_indices():
        if m >= l:
            break
        total += co[m] * walsh(m, x)
    return total


class ExactSeries:
    """Exact rationals numerators[i] / denominator, i = 0 … len − 1.

    ``numerators`` is an integer array: int64 when every entry is below 2^62
    in magnitude, object (Python big ints) otherwise.  Indexing returns a
    :class:`Fraction`.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: np.ndarray, denominator: int):
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        self.numerators = numerators
        self.denominator = int(denominator)

    @classmethod
    def of(cls, values: "ExactSeries | Sequence[Rat]") -> "ExactSeries":
        """``values`` itself if already a series, else one conversion over the lcm."""
        if isinstance(values, ExactSeries):
            return values
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in fracs))
        nums = [v.numerator * (den // v.denominator) for v in fracs]
        return cls(_int_array(nums, 0), den)

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


# ---------------------------------------------------------------------------
# Φ growth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiClass:
    """Growth class of Φ: is limsup log Φ(t) / t finite or infinite?"""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("subexponential", "superexponential"):
            raise ValueError(f"unknown growth class {self.tag!r}")


SUBEXPONENTIAL = PhiClass("subexponential")
SUPEREXPONENTIAL = PhiClass("superexponential")


@dataclass(frozen=True)
class PhiSpec:
    """An increasing continuous growth function Φ with Φ(0) = 0.

    kinds:
      - ``power``      Φ(t) = t^p            (p > 0)
      - ``exp_linear`` Φ(t) = e^{c·t} − 1    (c > 0)
      - ``exp_power``  Φ(t) = e^{t^α} − 1    (α > 0)
    """

    kind: str
    parameter: Fraction

    def __post_init__(self) -> None:
        if self.kind not in ("power", "exp_linear", "exp_power"):
            raise ValueError(f"unknown Phi kind {self.kind!r}")
        object.__setattr__(self, "parameter", Fraction(self.parameter))
        if self.parameter <= 0:
            raise ValueError(f"Phi parameter must be positive, got {self.parameter}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def power(cls, p: Fraction | int) -> "PhiSpec":
        return cls("power", Fraction(p))

    @classmethod
    def exp_linear(cls, c: Fraction | int) -> "PhiSpec":
        return cls("exp_linear", Fraction(c))

    @classmethod
    def exp_power(cls, alpha: Fraction | int) -> "PhiSpec":
        return cls("exp_power", Fraction(alpha))

    def to_text(self) -> str:
        p = self.parameter
        arg = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
        tag = {"power": "pow", "exp_linear": "exp", "exp_power": "exppow"}[self.kind]
        return f"{tag}:{arg}"

    # -- evaluation ------------------------------------------------------------

    def value_mpf(self, t: Rat) -> mpmath.mpf:
        """Φ(t) as an arbitrary-precision float (t ≥ 0 exact rational)."""
        t = Fraction(t)
        if t < 0:
            raise ValueError("Phi is defined on [0, infinity)")
        if t == 0:
            return mpmath.mpf(0)
        tf = _mpf_of_fraction(t)
        p = _mpf_of_fraction(self.parameter)
        if self.kind == "power":
            out = tf**p
        elif self.kind == "exp_linear":
            out = mpmath.expm1(p * tf)
        else:
            out = mpmath.expm1(tf**p)
        return _cap_overflow(out)

    def enclosure(self, t: Rat, prec: int = 96) -> bounds.Enclosure:
        """Rational enclosure of Φ(t) for certified comparisons.

        Raises ArithmeticError when the exponential argument is too large to
        evaluate directly (compare in log space instead).
        """
        t = Fraction(t)
        if t < 0:
            raise ValueError("Phi is defined on [0, infinity)")
        if t == 0:
            return (Fraction(0), Fraction(0))
        if self.kind == "power":
            return bounds.pow_enclosure(t, self.parameter, prec)
        if self.kind == "exp_linear":
            lo, hi = bounds.exp_enclosure(self.parameter * t, prec)
            return (lo - 1, hi - 1)
        alo, ahi = bounds.pow_enclosure(t, self.parameter, prec)
        lo = bounds.exp_enclosure(alo, prec)[0]
        hi = bounds.exp_enclosure(ahi, prec)[1]
        return (lo - 1, hi - 1)


def parse_phi(text: str) -> PhiSpec:
    """Parse ``pow:p`` / ``exp:c`` / ``exppow:alpha`` (rational ``a/b`` or int)."""
    head, sep, arg = text.strip().partition(":")
    if not sep:
        raise ValueError(f"expected kind:parameter, got {text!r}")
    kinds = {"pow": "power", "exp": "exp_linear", "exppow": "exp_power"}
    if head not in kinds:
        raise ValueError(
            f"unknown growth-function kind {head!r} (expected pow, exp, exppow)"
        )
    try:
        parameter = Fraction(arg)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad parameter {arg!r}: {err}") from None
    return PhiSpec(kinds[head], parameter)


def phi_classify(phi: PhiSpec) -> PhiClass:
    """Symbolic growth class: superexponential iff kind=exp_power with α > 1."""
    if phi.kind == "exp_power" and phi.parameter > 1:
        return SUPEREXPONENTIAL
    return SUBEXPONENTIAL


# ---------------------------------------------------------------------------
# strong means and exceedance densities
# ---------------------------------------------------------------------------


def _mpf_of_fraction(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _cap_overflow(v: mpmath.mpf) -> mpmath.mpf:
    if mpmath.isinf(v) or (v != 0 and abs(mpmath.mag(v)) > _EXPONENT_CAP):
        return mpmath.mpf("+inf")
    return v


def _census(sums: ExactSeries | Sequence[Rat], N: int) -> list[tuple[Fraction, int]]:
    """Distinct values of S_1 … S_N with their counts, in order of first occurrence."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    series = ExactSeries.of(sums)
    if len(series) < N:
        raise ValueError(f"need at least {N} partial sums, got {len(series)}")
    values, first, counts = np.unique(
        series.numerators[:N], return_index=True, return_counts=True
    )
    den = series.denominator
    return [(Fraction(int(values[i]), den), int(counts[i])) for i in np.argsort(first)]


def _magnitudes(sums: ExactSeries | Sequence[Rat], N: int, s: Rat) -> dict[Fraction, int]:
    """Counts of |S_k − s| for k ≤ N, keyed in order of first occurrence."""
    s = Fraction(s)
    out: dict[Fraction, int] = {}
    for v, count in _census(sums, N):
        magnitude = abs(v - s)
        out[magnitude] = out.get(magnitude, 0) + count
    return out


def strong_mean(
    sums: ExactSeries | Sequence[Rat],
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
    dps: int = 30,
) -> mpmath.mpf:
    """(1/N) Σ_{k=1}^{N} Φ(|S_k − s|) in high-precision floating point.

    ``sums`` holds S_1 … S_N (at least N entries); ``s`` is the optional
    centering constant (0 for the uncentered mean).  Partial sums stay exact;
    only Φ is evaluated in floating point, once per distinct magnitude.
    Returns +inf on overflow.
    """
    magnitudes = _magnitudes(sums, N, s)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for magnitude, count in magnitudes.items():
            term = phi.value_mpf(magnitude)
            if mpmath.isinf(term):
                return mpmath.mpf("+inf")
            total += count * term
        return _cap_overflow(total / N)


def strong_mean_bounds(
    sums: ExactSeries | Sequence[Rat],
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
    prec: int = 96,
) -> bounds.Enclosure:
    """Certified rational enclosure of the strong mean (for sound verdicts)."""
    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for magnitude, count in _magnitudes(sums, N, s).items():
        lo, hi = phi.enclosure(magnitude, prec)
        lo_total += count * lo
        hi_total += count * hi
    return (lo_total / N, hi_total / N)


def exceed_density(
    sums: ExactSeries | Sequence[Rat], threshold: Rat, N: int
) -> Fraction:
    """Exact #{k ≤ N : |S_k| > threshold} / N."""
    threshold = Fraction(threshold)
    count = sum(c for v, c in _census(sums, N) if abs(v) > threshold)
    return Fraction(count, N)
