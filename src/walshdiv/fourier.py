"""Growth functions Φ, strong Φ-means, and exceedance densities.

A run of partial sums S_1 … S_N reaches this module as a :class:`Census`: its
distinct values (integer numerators over one denominator) with their counts,
in order of first occurrence.  :func:`strong_mean`, :func:`strong_mean_bounds`
and :func:`exceed_density` read only the census, so their cost is one step
per distinct value whatever N is, and only those values become
:class:`~fractions.Fraction` objects.  :mod:`walshdiv.counterexample` builds
the census of f_n's partial sums from the window structure of f_n.

Exact steps: the census and its counts, the centering |S_k − s|, the strict
threshold test, the exceedance density, and the rational enclosures of
:func:`strong_mean_bounds`, which carry every verdict.  In mpf: only Φ itself
in :func:`strong_mean`, summed in order of first occurrence, for display.
Each :class:`PhiSpec` remembers what it has computed, so a table of means
over several N with one Φ calls :meth:`PhiSpec.value_mpf` once per distinct
(magnitude, working precision) and :meth:`PhiSpec.enclosure` once per
distinct (magnitude, precision), however many N share a magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import mpmath

from . import bounds
from .dyadic import Rat

__all__ = [
    "Census",
    "PhiSpec",
    "parse_phi",
    "strong_mean",
    "strong_mean_bounds",
    "exceed_density",
]

#: mpf exponents beyond this magnitude report as +inf (overflow marker).
_EXPONENT_CAP = 10**15

#: Most Φ values one PhiSpec remembers; a full memo starts over.
_MEMO_CAP = 1 << 16


# ---------------------------------------------------------------------------
# Φ growth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """An increasing continuous growth function Φ with Φ(0) = 0.

    Build one as ``PhiSpec(kind, parameter)`` or from text with
    :func:`parse_phi`.  kinds (text tag in brackets):
      - ``power``      [pow]     Φ(t) = t^p            (p > 0)
      - ``exp_linear`` [exp]     Φ(t) = e^{c·t} − 1    (c > 0)
      - ``exp_power``  [exppow]  Φ(t) = e^{t^α} − 1    (α > 0)

    The means of this module keep the values they compute in ``_memo``,
    keyed by (method, t, precision); it plays no part in equality or hashing.
    """

    kind: str
    parameter: Fraction
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("power", "exp_linear", "exp_power"):
            raise ValueError(f"unknown Phi kind {self.kind!r}")
        object.__setattr__(self, "parameter", Fraction(self.parameter))
        if self.parameter <= 0:
            raise ValueError(f"Phi parameter must be positive, got {self.parameter}")

    # -- text ------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# strong means and exceedance densities
# ---------------------------------------------------------------------------


def _mpf_of_fraction(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _cap_overflow(v: mpmath.mpf) -> mpmath.mpf:
    if mpmath.isinf(v) or (v != 0 and abs(mpmath.mag(v)) > _EXPONENT_CAP):
        return mpmath.mpf("+inf")
    return v


class Census(NamedTuple):
    """The distinct values of S_1 … S_N with their counts.

    ``numerators[i] / denominator`` is the i-th distinct value in order of
    first occurrence, and ``counts[i]`` the number of cuts k ≤ N at which it
    occurs; the counts add up to N.
    """

    numerators: tuple[int, ...]
    counts: tuple[int, ...]
    denominator: int

    @property
    def cuts(self) -> int:
        return sum(self.counts)

    def items(self) -> Iterator[tuple[Fraction, int]]:
        """(value, count) pairs in order of first occurrence."""
        for v, count in zip(self.numerators, self.counts):
            yield Fraction(v, self.denominator), count


def _memoized(phi: PhiSpec, method: str, t: Fraction, prec: int):
    """``phi.value_mpf(t)`` at working precision ``prec``, or ``phi.enclosure(t, prec)``,
    computed once per (method, t, prec) while the memo has room."""
    key = (method, t, prec)
    memo = phi._memo
    if key not in memo:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = phi.value_mpf(t) if method == "mpf" else phi.enclosure(t, prec)
    return memo[key]


def _magnitudes(census: Census, N: int, s: Rat) -> dict[Fraction, int]:
    """Counts of |S_k − s| for k ≤ N, keyed in order of first occurrence."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if census.cuts != N:
        raise ValueError(f"the census holds {census.cuts} partial sums, not N = {N}")
    s = Fraction(s)
    out: dict[Fraction, int] = {}
    for v, count in census.items():
        magnitude = abs(v - s)
        out[magnitude] = out.get(magnitude, 0) + count
    return out


def strong_mean(
    census: Census,
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
) -> mpmath.mpf:
    """(1/N) Σ_{k=1}^{N} Φ(|S_k − s|) in 30-digit floating point.

    ``census`` holds S_1 … S_N; ``s`` is the optional centering constant (0
    for the uncentered mean).  Partial sums stay exact; only Φ is evaluated
    in floating point, once per distinct magnitude.  Returns +inf on overflow.
    """
    magnitudes = _magnitudes(census, N, s)
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for magnitude, count in magnitudes.items():
            term = _memoized(phi, "mpf", magnitude, mpmath.mp.prec)
            if mpmath.isinf(term):
                return mpmath.mpf("+inf")
            total += count * term
        return _cap_overflow(total / N)


def strong_mean_bounds(
    census: Census,
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
) -> bounds.Enclosure:
    """Certified rational enclosure of the strong mean (for sound verdicts),
    from 96-bit enclosures of each Φ value."""
    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for magnitude, count in _magnitudes(census, N, s).items():
        lo, hi = _memoized(phi, "enclosure", magnitude, 96)
        lo_total += count * lo
        hi_total += count * hi
    return (lo_total / N, hi_total / N)


def exceed_density(census: Census, threshold: Rat, N: int) -> Fraction:
    """Exact #{k ≤ N : |S_k| > threshold} / N."""
    threshold = Fraction(threshold)
    count = sum(c for v, c in _magnitudes(census, N, 0).items() if v > threshold)
    return Fraction(count, N)
