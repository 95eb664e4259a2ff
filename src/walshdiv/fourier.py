"""Growth functions Φ, strong Φ-means, and exceedance densities.

A run of partial sums S_1 … S_N reaches this module as a :class:`Census`: its
distinct values (integer numerators over one denominator) with their counts,
in order of first occurrence.  :func:`strong_mean`, :func:`strong_mean_bounds`
and :func:`exceed_density` read only the census, so their cost is one step
per distinct value whatever N is.  The magnitudes |S_k − s| stay integer
numerators over one denominator; only the Φ arguments, one per distinct
magnitude, become :class:`~fractions.Fraction` objects.
:mod:`walshdiv.counterexample` builds the census of f_n's partial sums from
the window structure of f_n.

Exact steps: the census and its counts, the centering |S_k − s|, the strict
threshold test and the exceedance density.  Every Φ value is one fixed-point
enclosure (:func:`walshdiv.bounds.exp_scaled` after an exact or enclosed
exponent), whatever its size: :meth:`PhiSpec.enclosure` turns it into the
rational ends that :func:`strong_mean_bounds` sums for the verdicts, and
:meth:`PhiSpec.value_mpf` rounds it to the working precision for the display
mean of :func:`strong_mean`, which mpmath sums in order of first occurrence.
Each :class:`PhiSpec` remembers what it has computed, so a table of means
over several N with one Φ calls :meth:`PhiSpec.value_mpf` once per distinct
(magnitude, working precision) and :meth:`PhiSpec.enclosure` once per
distinct (magnitude, precision), however many N share a magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath.libmp import from_man_exp, from_rational

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

#: Largest p·(bits of t) at which value_mpf rounds t^p, p an integer, from the
#: exact rational; larger powers go through e^{p ln t}.
_EXACT_BITS = 1 << 16


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

    def exponent(self, t: Rat, prec: int = 96) -> bounds.Enclosure:
        """Enclosure of X with Φ(t) = e^X − 1, for the two exponential kinds:
        c·t, or t^α (exact at integer α, else to 2^-prec)."""
        t = Fraction(t)
        if self.kind == "exp_linear":
            X = self.parameter * t
            return (X, X)
        if self.kind == "exp_power":
            return bounds.pow_enclosure(t, self.parameter, prec)
        raise ValueError("a power Phi has no exponent")

    def value_mpf(self, t: Rat) -> mpmath.mpf:
        """Φ(t) rounded to nearest at the working precision (t ≥ 0 exact rational).

        Both ends of the fixed-point enclosure are rounded, with more guard
        bits until they agree; +inf when the binary exponent passes
        ±_EXPONENT_CAP.
        """
        t = _nonnegative(t)
        if t == 0:
            return mpmath.mpf(0)
        prec = mpmath.mp.prec
        p = self.parameter
        if self.kind == "power" and p.denominator == 1 and p.numerator * max(
                t.numerator.bit_length(), t.denominator.bit_length()) <= _EXACT_BITS:
            v = t**p.numerator
            return mpmath.mp.make_mpf(from_rational(v.numerator, v.denominator, prec, "n"))
        guard = 16
        while guard <= 1 << 16:
            scaled = self._scaled(t, prec + guard, _EXPONENT_CAP)
            if scaled is None:
                return mpmath.mpf("+inf")
            lo, hi, e = scaled
            rounded = from_man_exp(lo, e, prec, "n")
            if rounded == from_man_exp(hi, e, prec, "n"):
                _, _, exp, bc = rounded
                if abs(exp + bc) > _EXPONENT_CAP:  # the binary exponent
                    return mpmath.mpf("+inf")
                return mpmath.mp.make_mpf(rounded)
            guard *= 2
        raise ArithmeticError(f"Phi({t}) not rounded at {prec} bits")

    def enclosure(self, t: Rat, prec: int = 96) -> bounds.Enclosure:
        """Rational enclosure of Φ(t), to about prec significant bits, for
        certified comparisons.

        Raises ArithmeticError when the exponential argument is too large to
        evaluate directly (compare in log space instead).
        """
        t = _nonnegative(t)
        if t == 0:
            return (Fraction(0), Fraction(0))
        if self.kind == "power":
            return bounds.pow_enclosure(t, self.parameter, prec)
        scaled = self._scaled(t, prec, bounds.EXP_ARGUMENT_CAP)
        if scaled is None:
            raise ArithmeticError(
                f"Phi({t}) = exp(X) - 1 with X > 2^20 is too large for direct "
                "enclosure; compare logs"
            )
        return bounds.scaled_enclosure(scaled)

    def _power(self, t: Fraction, prec: int) -> bounds.Scaled:
        """t^p = e^{p ln t} for the parameter p, to prec significant bits."""
        p = self.parameter
        llo, lhi = bounds.ln_enclosure(t, prec + 8 + math.ceil(p).bit_length())
        return bounds.exp_scaled(p * llo, p * lhi, prec)

    def _scaled(self, t: Fraction, prec: int, limit: int) -> bounds.Scaled | None:
        """(lo, hi, e) with lo·2^e ≤ Φ(t) ≤ hi·2^e to about prec bits, t > 0.

        None when Φ(t) is beyond ``limit``: an exponent X > limit for the
        exponential kinds, a binary exponent surely past ±limit for powers.
        """
        a, b = self.parameter.numerator, self.parameter.denominator
        size = t.numerator.bit_length() - t.denominator.bit_length()  # log2 t ± 1
        if self.kind == "power":
            if a * (size - 1) > b * limit or a * (size + 1) < -b * limit:
                return None
            return self._power(t, prec + 4)
        if self.kind == "exp_power" and a * (size - 1) >= b * limit.bit_length():
            return None  # X = t^α ≥ 2^(α(size - 1)) > limit
        if self.kind == "exp_power" and b > 1:
            # e^X − 1 needs X to prec + log2 X bits
            xbits = max(a * (size + 1) // b, 0)
            xlo, xhi = bounds.scaled_enclosure(self._power(t, prec + 8 + xbits))
        else:
            xlo, xhi = self.exponent(t)
        if xhi.numerator > limit * xhi.denominator:
            return None
        # e^X − 1 cancels about log2(1/X) leading bits at small X
        tiny = xhi.denominator.bit_length() - xhi.numerator.bit_length()
        lo, hi, e = bounds.exp_scaled(xlo, xhi, prec + max(tiny, 0) + 4)
        if e >= 0:
            return lo - 1, hi, e
        return lo - (1 << -e), hi - (1 << -e), e


def _nonnegative(t: Rat) -> Fraction:
    t = Fraction(t)
    if t < 0:
        raise ValueError("Phi is defined on [0, infinity)")
    return t


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


def _magnitudes(census: Census, N: int, s: Rat) -> tuple[dict[int, int], int]:
    """Counts of |S_k − s| for k ≤ N as numerators over one denominator,
    keyed in order of first occurrence."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if census.cuts != N:
        raise ValueError(f"the census holds {census.cuts} partial sums, not N = {N}")
    s = Fraction(s)
    # |v/d − a/b| = |v·b − a·d| / (d·b)
    scale, shift = s.denominator, s.numerator * census.denominator
    out: dict[int, int] = {}
    for v, count in zip(census.numerators, census.counts):
        magnitude = abs(v * scale - shift)
        out[magnitude] = out.get(magnitude, 0) + count
    return out, census.denominator * scale


def strong_mean(
    census: Census,
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
) -> mpmath.mpf:
    """(1/N) Σ_{k=1}^{N} Φ(|S_k − s|) in 30-digit floating point.

    ``census`` holds S_1 … S_N; ``s`` is the optional centering constant (0
    for the uncentered mean).  Partial sums stay exact; each distinct
    magnitude's Φ value is rounded once from its fixed-point enclosure, and
    the terms are summed in floating point.  Returns +inf on overflow.
    """
    magnitudes, den = _magnitudes(census, N, s)
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for magnitude, count in magnitudes.items():
            term = _memoized(phi, "mpf", Fraction(magnitude, den), mpmath.mp.prec)
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
    from 96-bit enclosures of each Φ value.

    The largest magnitude is enclosed first, so a Φ value too large to
    enclose raises before any other is computed; exact sums do not depend
    on the order.
    """
    magnitudes, den = _magnitudes(census, N, s)
    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for magnitude in sorted(magnitudes, reverse=True):
        lo, hi = _memoized(phi, "enclosure", Fraction(magnitude, den), 96)
        count = magnitudes[magnitude]
        lo_total += count * lo
        hi_total += count * hi
    return (lo_total / N, hi_total / N)


def exceed_density(census: Census, threshold: Rat, N: int) -> Fraction:
    """Exact #{k ≤ N : |S_k| > threshold} / N."""
    threshold = Fraction(threshold)
    magnitudes, den = _magnitudes(census, N, 0)
    bar = threshold.numerator * den
    count = sum(c for m, c in magnitudes.items() if m * threshold.denominator > bar)
    return Fraction(count, N)
