"""Certified rational bounds for exponentials and logarithms.

Every inequality verdict in this package that involves a transcendental
quantity (e**x, ln 2, ln(1 + e**x), powers with rational exponents, ...)
is decided through the directed-rounding enclosures in this module: a check
passes only if it holds at the unfavorable end of a rational interval
[lo, hi] that provably contains the true value.

Implementation notes:

- All endpoints are `fractions.Fraction`; no floating point is involved.
- exp uses argument halving to |y| <= 1/2, an exact Taylor partial sum with
  the standard tail bound, then interval squaring; ln uses the atanh series
  after range reduction by powers of two.
- After each step the endpoints are re-rounded outward to denominators
  2**prec so repeated operations cannot blow up fraction sizes.
- Callers that need a strict decision use :func:`decide_less`, which refines
  precision until the interval separates the operands (the compared values
  in this package are never equal to the rational side, so this terminates).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

__all__ = [
    "Enclosure",
    "round_down",
    "round_up",
    "outward",
    "ln2_enclosure",
    "exp_enclosure",
    "ln_enclosure",
    "pow_enclosure",
    "log1p_exp_enclosure",
    "decide_less",
    "floor_enclosed",
]

#: A rational enclosure [lo, hi] of a real number.
Enclosure = tuple[Fraction, Fraction]

_DEFAULT_PREC = 96


def round_down(x: Fraction, prec: int) -> Fraction:
    """Largest multiple of 2**-prec that is <= x."""
    scaled = x * (1 << prec)
    return Fraction(scaled.numerator // scaled.denominator, 1 << prec)

def round_up(x: Fraction, prec: int) -> Fraction:
    """Smallest multiple of 2**-prec that is >= x."""
    scaled = x * (1 << prec)
    return Fraction(-((-scaled.numerator) // scaled.denominator), 1 << prec)

def outward(lo: Fraction, hi: Fraction, prec: int) -> Enclosure:
    return round_down(lo, prec), round_up(hi, prec)


def ln2_enclosure(prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln 2 = 2·atanh(1/3) = 2 Σ_{i>=0} (1/9)**i / (3(2i+1))."""
    terms = max(4, prec // 3 + 2)
    total = Fraction(0)
    power = Fraction(1, 3)
    for i in range(terms):
        total += power / (2 * i + 1)
        power /= 9
    lo = 2 * total
    # Tail: 2 Σ_{i>=T} (1/3)^{2i+1}/(2i+1) < 2·(1/3)^{2T+1}/(2T+1) · 9/8.
    tail = 2 * power * 3 * Fraction(9, 8) / (2 * terms + 1)
    return outward(lo, lo + tail, prec)


def exp_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of e**x for rational x.

    For x <= -64 a deliberately crude enclosure [0, 2**-floor(-x)] is
    returned (e > 2 makes it valid); the only consumers of such arguments
    are log-space comparisons whose gaps dwarf that width.  Arguments above
    2**20 are rejected: their values are astronomically large and every
    caller is expected to compare in log space instead.
    """
    if x > (1 << 20):
        raise ArithmeticError(
            f"exp argument {x} too large for direct enclosure; compare logs"
        )
    if x <= -64:
        return Fraction(0), Fraction(1, 1 << ((-x).numerator // (-x).denominator))
    if x < 0:
        lo, hi = exp_enclosure(-x, prec + 8)
        # reciprocal: e**x = 1 / e**(-x); endpoints swap
        return outward(1 / hi, 1 / lo, prec)
    # Halve until the argument is at most 1/2.
    halvings = 0
    y = x
    while y > Fraction(1, 2):
        y /= 2
        halvings += 1
    # Exact Taylor partial sum with tail bound:  0 <= R < 2 y**T / T!.
    terms = max(8, (prec + halvings) // 2 + 4)
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms):
        term = term * y / i
        total += term
    tail = 2 * term * y / terms
    lo, hi = total, total + tail
    work = prec + 2 * halvings + 8
    lo, hi = outward(lo, hi, work)
    for _ in range(halvings):
        lo, hi = outward(lo * lo, hi * hi, work)
    return outward(lo, hi, prec)


def ln_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln x for rational x > 0."""
    if x <= 0:
        raise ValueError(f"ln needs a positive argument, got {x}")
    # Reduce x = m · 2**j with m in [2/3, 4/3]: ln x = j ln2 + ln m.
    j = 0
    m = x
    while m > Fraction(4, 3):
        m /= 2
        j += 1
    while m < Fraction(2, 3):
        m *= 2
        j -= 1
    # ln m = 2 atanh(u), u = (m-1)/(m+1), |u| <= 1/5.
    u = (m - 1) / (m + 1)
    terms = max(4, prec // 4 + 2)
    total = Fraction(0)
    power = u
    u2 = u * u
    for i in range(terms):
        total += power / (2 * i + 1)
        power *= u2
    core = 2 * total
    # Tail magnitude: 2 |u|^{2T+1}/(2T+1) · 1/(1-u²) <= 2 |u|^{2T+1}/(2T+1) · 25/24.
    tail = 2 * abs(power) * Fraction(25, 24) / (2 * terms + 1)
    lo_m, hi_m = core - tail, core + tail
    if j == 0:
        return outward(lo_m, hi_m, prec)
    l2lo, l2hi = ln2_enclosure(prec + 8)
    if j > 0:
        return outward(lo_m + j * l2lo, hi_m + j * l2hi, prec)
    return outward(lo_m + j * l2hi, hi_m + j * l2lo, prec)


def pow_enclosure(x: Fraction, p: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of x**p for rational x >= 0 and rational p."""
    if p.denominator == 1:
        if x == 0 and p < 0:
            raise ValueError("0 cannot be raised to a negative power")
        v = x**p.numerator
        return (v, v)
    if x < 0:
        raise ValueError(f"fractional power of a negative base: {x}**{p}")
    if x == 0:
        if p > 0:
            return (Fraction(0), Fraction(0))
        raise ValueError("0 cannot be raised to a nonpositive fractional power")
    llo, lhi = ln_enclosure(x, prec + 16)
    arg_lo = min(p * llo, p * lhi)
    arg_hi = max(p * llo, p * lhi)
    lo = exp_enclosure(arg_lo, prec + 8)[0]
    hi = exp_enclosure(arg_hi, prec + 8)[1]
    return outward(lo, hi, prec)


def log1p_exp_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln(1 + e**x), stable for very large positive x.

    For x >= 1 uses ln(1 + e**x) = x + ln(1 + e**-x), squeezing the
    correction with t − t²/2 <= ln(1 + t) <= t for t = e**-x >= 0.
    """
    if x >= 1:
        tlo, thi = exp_enclosure(-x, prec + 8)
        corr_hi = thi
        corr_lo = tlo - thi * thi / 2
        if corr_lo < 0:
            corr_lo = Fraction(0)
        return outward(x + corr_lo, x + corr_hi, prec)
    elo, ehi = exp_enclosure(x, prec + 8)
    lo = ln_enclosure(1 + elo, prec + 8)[0]
    hi = ln_enclosure(1 + ehi, prec + 8)[1]
    return outward(lo, hi, prec)


def decide_less(
    lhs: Callable[[int], Enclosure],
    rhs: Callable[[int], Enclosure],
    start_prec: int = _DEFAULT_PREC,
    max_prec: int = 1 << 16,
) -> bool:
    """Certified truth of lhs < rhs, refining precision until separated.

    ``lhs`` and ``rhs`` map a precision to an enclosure of their value.
    Raises if the two stay inseparable at ``max_prec`` (which indicates the
    compared values may be equal — callers only compare values known to
    differ).
    """
    prec = start_prec
    while prec <= max_prec:
        llo, lhi = lhs(prec)
        rlo, rhi = rhs(prec)
        if lhi < rlo:
            return True
        if rhi < llo:
            return False
        prec *= 2
    raise ArithmeticError("comparison undecidable at maximum precision")


def floor_enclosed(value: Callable[[int], Enclosure], start_prec: int = 32) -> int:
    """Floor of an (irrational) real given by refinable enclosures."""
    prec = start_prec
    while prec <= (1 << 16):
        lo, hi = value(prec)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        prec *= 2
    raise ArithmeticError("floor undecidable at maximum precision")
