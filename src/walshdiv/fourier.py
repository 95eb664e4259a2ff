"""Growth functions Φ, strong Φ-means, and exceedance densities.

A run of partial sums S_1 … S_N reaches this module as a :class:`Census`: its
distinct values (integer numerators over one denominator) with their counts,
in order of first occurrence, so the means and densities cost one step per
distinct value whatever N is.  :mod:`walshdiv.counterexample` builds the
census of f_n's partial sums from the window structure of f_n.

The census, the centering |S_k − s|, the strict threshold test and the
exceedance density are exact.  Every Φ value is one
:data:`~walshdiv.bounds.Scaled` triple (a, b, e), meaning [a·2^e, b·2^e], to
relative precision: :func:`~walshdiv.bounds.exp_scaled` after an exact or
enclosed exponent, t^p as e^{p ln t}, so it stays about 100 bits wide at any
size.  :func:`strong_mean_bounds` sums the triples into one triple that the
verdicts compare exactly; :meth:`PhiSpec.value_mpf` rounds each value for the
display mean of :func:`strong_mean`, which mpmath sums.  ln Φ, for the
log-space growth condition, and the exact test X ≤ bound for Φ = e^X − 1 are
:class:`PhiSpec` methods too, on the same kernel.  Each
:class:`PhiSpec` remembers the values it computes, so a table over several N
evaluates Φ once per distinct magnitude and precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

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

#: Φ values past 2^_EXPONENT_CAP display as +inf, and those below
#: 2^-_EXPONENT_CAP as 0.  Past it, or past an exponent X > _EXPONENT_CAP for
#: Φ = e^X − 1, Φ has no enclosure.
_EXPONENT_CAP = 10**15

#: Most Φ values one PhiSpec remembers; a full memo starts over.
_MEMO_CAP = 1 << 16

#: Largest p·(bits of t) at which t^p, p an integer, is computed exactly (for
#: value_mpf's powers, the exponent of exp_power and its exact test); larger
#: powers go through e^{p ln t}.
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
    keyed by (method, numerator and denominator of t, precision); it plays
    no part in equality or hashing.
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
        """Φ(t) rounded to nearest at the working precision (t ≥ 0 exact rational).

        Both ends of the fixed-point enclosure are rounded, with more guard
        bits until they agree; +inf when the binary exponent passes
        _EXPONENT_CAP, and 0 when it falls below −_EXPONENT_CAP.
        """
        t = _nonnegative(t)
        if t == 0:
            return mpmath.mpf(0)
        prec = mpmath.mp.prec
        v = _exact_power(t, self.parameter) if self.kind == "power" else None
        if v is not None:
            return mpmath.mp.make_mpf(from_rational(v.numerator, v.denominator, prec, "n"))
        guard = 16
        while guard <= 1 << 16:
            scaled = self._scaled(t, prec + guard)
            if scaled is None:
                return mpmath.mpf("+inf")
            lo, hi, e = scaled
            rounded = from_man_exp(lo, e, prec, "n")
            if rounded == from_man_exp(hi, e, prec, "n"):
                _, _, exp, bc = rounded
                if abs(exp + bc) > _EXPONENT_CAP:  # the binary exponent
                    return mpmath.mpf("+inf" if exp + bc > 0 else 0)
                return mpmath.mp.make_mpf(rounded)
            guard *= 2
        raise ArithmeticError(f"Phi({t}) not rounded at {prec} bits")

    def enclosure(self, t: Rat, prec: int = 96) -> bounds.Scaled:
        """(lo, hi, e) with lo·2^e ≤ Φ(t) ≤ hi·2^e to about prec significant bits.

        Its range is the one :meth:`value_mpf` shows: ArithmeticError past an
        exponent X > _EXPONENT_CAP for the exponential kinds, and past a binary
        exponent surely above _EXPONENT_CAP for powers.
        """
        t = _nonnegative(t)
        if t == 0:
            return (0, 0, 0)
        scaled = self._scaled(t, prec)
        if scaled is None:
            what = "t^p past 2^(10^15)" if self.kind == "power" else "exp(X) - 1 with X > 10^15"
            raise ArithmeticError(f"Phi({t}) = {what} is too large for direct enclosure")
        return scaled

    def ln_enclosure(self, t: Fraction, prec: int = 96) -> bounds.Enclosure:
        """Enclosure of ln Φ(t) to about 2^-prec beside the width of X or ln t:
        p·ln t for a power at t > 0, and X + ln(1 − e^-X) for Φ = e^X − 1 at
        X ≥ 1, with e^-X from :func:`~walshdiv.bounds.exp_scaled` while X ≤ prec
        and −2^(1−prec) < ln(1 − e^-X) < 0 past that, so a huge X costs no exp."""
        if self.kind == "power":
            lo, hi = bounds.ln_enclosure(t, prec)
            return self.parameter * lo, self.parameter * hi
        X = self._exact_exponent(t)
        xlo, xhi = (X, X) if X is not None else bounds.scaled_enclosure(self._power(t, prec))
        if xlo > prec:
            return xlo - Fraction(2, 1 << prec), xhi
        ulo, uhi = bounds.scaled_enclosure(bounds.exp_scaled(-xhi, -xlo, prec))
        return (xlo + bounds.ln_enclosure(1 - uhi, prec)[0],
                xhi + bounds.ln_enclosure(1 - ulo, prec)[1])

    def exponent_at_most(self, t: Fraction, bound: int) -> bool:
        """Exact X ≤ bound for Φ(t) = e^X − 1, at t > 0 and an integer bound ≥ 2;
        False for a power, whose ln Φ(t) = p·ln t is never such a bound."""
        if self.kind == "power":
            return False
        if self.kind == "exp_linear":
            return self.parameter * t <= bound
        return _power_at_most(t, self.parameter, bound)

    def _exact_exponent(self, t: Fraction) -> Fraction | None:
        """X = c·t, or t^α while :func:`_exact_power` allows; else None."""
        if self.kind == "exp_linear":
            return self.parameter * t
        return _exact_power(t, self.parameter)

    def _power(self, t: Fraction, prec: int) -> bounds.Scaled:
        """t^p = e^{p ln t} for the parameter p, to prec significant bits."""
        p = self.parameter
        llo, lhi = bounds.ln_enclosure(t, prec + 8 + math.ceil(p).bit_length())
        return bounds.exp_scaled(p * llo, p * lhi, prec)

    def _scaled(self, t: Fraction, prec: int) -> bounds.Scaled | None:
        """(lo, hi, e) with lo·2^e ≤ Φ(t) ≤ hi·2^e to about prec bits, t > 0;
        None past an exponent X > _EXPONENT_CAP for the exponential kinds, and
        for powers past a binary exponent surely above _EXPONENT_CAP."""
        a, b = self.parameter.numerator, self.parameter.denominator
        size = t.numerator.bit_length() - t.denominator.bit_length()  # log2 t ± 1
        if self.kind == "power":
            if a * (size - 1) > b * _EXPONENT_CAP:
                return None
            return self._power(t, prec + 4)
        if self.kind == "exp_power" and a * (size - 1) >= b * _EXPONENT_CAP.bit_length():
            return None  # X = t^α ≥ 2^(α(size - 1)) > _EXPONENT_CAP
        xlo = xhi = self._exact_exponent(t)
        if xlo is None:
            # e^X − 1 needs X to prec + log2 X bits, and log2 X is at most
            # log2 _EXPONENT_CAP wherever X is used
            extra = min(max(a * (size + 1) // b, 0), _EXPONENT_CAP.bit_length())
            lo, hi, e = self._power(t, prec + 8 + extra)
            if hi.bit_length() + e < -(prec + 8):
                # X < 2^-(prec+8), and X ≤ e^X − 1 ≤ X(1 + X) for 0 < X ≤ 1;
                # X² ≤ hi²·2^(2e) is rounded up to a whole unit 2^e
                return lo, hi - (-hi * hi >> -e), e
            xlo, xhi = bounds.scaled_enclosure((lo, hi, e))
        if xhi > _EXPONENT_CAP:
            return None
        # e^X − 1 cancels about log2(1/X) leading bits at small X
        tiny = xhi.denominator.bit_length() - xhi.numerator.bit_length()
        lo, hi, e = bounds.exp_scaled(xlo, xhi, prec + max(tiny, 0) + 4)
        if e >= 0:
            return lo - 1, hi, e
        return lo - (1 << -e), hi - (1 << -e), e


def _exact_power(t: Fraction, p: Fraction) -> Fraction | None:
    """t^p exactly at integer p while p·(bits of t) is within _EXACT_BITS, else None."""
    if p.denominator == 1 and p.numerator * max(
            t.numerator.bit_length(), t.denominator.bit_length()) <= _EXACT_BITS:
        return t**p.numerator
    return None


def _power_at_most(t: Fraction, alpha: Fraction, bound: int) -> bool:
    """Exact t^α ≤ bound for rational t > 0, α = a/b > 0 and an integer bound ≥ 2.

    The comparison is t^a ≤ bound^b.  Bit lengths settle it first: log2 t
    lies within 1 of s = bitlen(num) − bitlen(den), and log2 bound in
    [m − 1, m) for m = bitlen(bound).  Past that, t^a is built exactly only
    while a·bitlen(t) stays within _EXACT_BITS.  Beyond it a tie needs t an
    integer r^b with bound = r^a (a and b are coprime), which one integer
    root tests, and any other pair differs, so enclosures of a·ln t and
    b·ln bound separate.
    """
    a, b = alpha.numerator, alpha.denominator
    s = t.numerator.bit_length() - t.denominator.bit_length()
    m = bound.bit_length()
    if a * (s - 1) >= b * m:
        return False
    if a * (s + 1) <= b * (m - 1):
        return True
    if a * max(t.numerator.bit_length(), t.denominator.bit_length()) <= _EXACT_BITS:
        return t**a <= bound**b
    if t.denominator == 1 and a < m:  # a ≥ m leaves r = 1 < bound^(1/a)
        r = _iroot(bound, a)
        if r**a == bound and r**b == t.numerator:
            return True

    def times_ln(factor: int, v: Fraction) -> Callable[[int], bounds.Enclosure]:
        def enclosure(prec: int) -> bounds.Enclosure:
            lo, hi = bounds.ln_enclosure(v, prec + factor.bit_length())
            return factor * lo, factor * hi
        return enclosure

    return not bounds.decide_less(times_ln(b, Fraction(bound)), times_ln(a, t))


def _iroot(x: int, m: int) -> int:
    """⌊x^(1/m)⌋ for integers x ≥ 1 and m ≥ 1, by bisection between the powers
    of two that the bit length of x puts around it."""
    lo, hi = 1 << (x.bit_length() - 1) // m, 1 << -(-x.bit_length() // m)
    while hi - lo > 1:  # lo^m ≤ x < hi^m
        mid = (lo + hi) // 2
        if mid**m <= x:
            lo = mid
        else:
            hi = mid
    return lo


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


def _memoized(phi: PhiSpec, method: str, magnitude: int, den: int, prec: int):
    """``phi.value_mpf(t)`` at working precision ``prec``, or ``phi.enclosure(t, prec)``, at
    t = magnitude/den, once per (method, magnitude, den, prec) while the memo has room."""
    key = (method, magnitude, den, prec)
    memo = phi._memo
    if key not in memo:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        t = Fraction(magnitude, den)
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
    the terms are summed in floating point.  Returns +inf when a Φ value
    passes 2^_EXPONENT_CAP; one below 2^-_EXPONENT_CAP counts as 0.
    """
    magnitudes, den = _magnitudes(census, N, s)
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for magnitude, count in magnitudes.items():
            term = _memoized(phi, "mpf", magnitude, den, mpmath.mp.prec)
            if mpmath.isinf(term):
                return mpmath.mpf("+inf")
            total += count * term
        return total / N


def strong_mean_bounds(
    census: Census,
    phi: PhiSpec,
    N: int,
    s: Rat = 0,
) -> bounds.Scaled:
    """Certified enclosure (lo, hi, e) of the strong mean, [lo·2^e, hi·2^e].

    The terms count·Φ, from 96-bit enclosures, are summed at one unit 2^f,
    96 + log2(#terms) + 8 bits below the largest Φ value, low ends floored and
    high ends ceiled.  Magnitudes go from the largest down, so a Φ value too
    large to enclose raises first, and once the cuts left weigh under one unit
    together (each at most the last Φ value) they add that unit to the high
    end, uncomputed.
    """
    magnitudes, den = _magnitudes(census, N, s)
    order = sorted(magnitudes, reverse=True)
    _, top, e = _memoized(phi, "enclosure", order[0], den, 96)
    if not top:
        return (0, 0, 0)  # every magnitude is 0
    f = top.bit_length() + e - (96 + len(order).bit_length() + 8)
    lo_sum = hi_sum = 0
    rest = N
    for magnitude in order:
        count = magnitudes[magnitude]
        lo, hi, e = _memoized(phi, "enclosure", magnitude, den, 96)
        up, down = max(e - f, 0), max(f - e, 0)  # up is at most the working width
        lo_sum += count * lo << up >> down
        hi_sum -= -count * hi << up >> down
        rest -= count
        if rest and (rest * hi).bit_length() + e <= f:
            hi_sum += 1
            break
    g = N.bit_length()
    return ((lo_sum << g) // N, -((-hi_sum << g) // N), f - g)


def exceed_density(census: Census, threshold: Rat, N: int, s: Rat = 0) -> Fraction:
    """Exact #{k ≤ N : |S_k − s| > threshold} / N (``s`` as in :func:`strong_mean`)."""
    threshold = Fraction(threshold)
    magnitudes, den = _magnitudes(census, N, s)
    bar = threshold.numerator * den
    count = sum(c for m, c in magnitudes.items() if m * threshold.denominator > bar)
    return Fraction(count, N)
