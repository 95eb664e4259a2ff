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
- exp runs in integer fixed point: each endpoint is an integer numerator
  over 2**work, the Taylor sum and its tail are single unreduced
  numerator/denominator pairs, and every rounding is one floor or ceiling
  integer division.  A floor or ceiling depends only on the exact rational
  value, so the endpoints equal those of exact Fraction arithmetic followed
  by the same outward roundings, bit for bit.
- Callers that need a strict decision use :func:`decide_less`, which refines
  precision, up to a fixed 2**16 bits, until the intervals separate the
  operands.  That terminates because no caller compares equal values: the
  growth condition (c3) in ``counterexample.c3_holds`` decides its exact
  ties by a rational test before it calls :func:`decide_less`, after which
  it sets the transcendental ln(1 + e^{2n}) against an algebraic exponent.
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

    For x <= -64 a deliberately crude enclosure [0, 2**-min(floor(-x), prec)]
    is returned (e > 2 makes it valid); capping the exponent at ``prec`` keeps
    its denominator at most 2**prec however far negative x is.  Log-space
    comparisons, whose gaps dwarf that width, are not its only consumers:
    ``counterexample.measure_bound`` asks for e^{-n/36}, and from n = 2304 on
    the lower end 0 puts the upper end of 1 - 2e^{-n/36} at 1, so every such
    order prints a false FAIL (ROADMAP item 1a gives the fix).  Arguments
    above 2**20 are rejected: their values are astronomically large and every
    caller is expected to compare in log space instead.
    """
    if x > (1 << 20):
        raise ArithmeticError(
            f"exp argument {x} too large for direct enclosure; compare logs"
        )
    if x <= -64:
        return Fraction(0), Fraction(1, 1 << min((-x).numerator // (-x).denominator, prec))
    if x < 0:
        # reciprocal: e**x = 1 / e**(-x); endpoints swap
        w = prec + 8
        lo, hi = _exp_fixed(-x.numerator, x.denominator, w)
        one = 1 << (w + prec)
        return Fraction(one // hi, 1 << prec), Fraction(-(-one // lo), 1 << prec)
    lo, hi = _exp_fixed(x.numerator, x.denominator, prec)
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


def _exp_fixed(p: int, q: int, prec: int) -> tuple[int, int]:
    """Numerators over 2**prec of the enclosure of e**(p/q), p >= 0, q > 0."""
    # Halve until the argument y = p/Q, Q = q·2**h, is at most 1/2.
    halvings = 0
    while 2 * p > q << halvings:
        halvings += 1
    big_q = q << halvings
    # Exact Taylor partial sum num/den by Horner, tail bound 0 <= R < 2 y**T / T!.
    terms = max(8, (prec + halvings) // 2 + 4)
    num = den = 1
    for i in range(terms - 1, 0, -1):
        den *= big_q * i
        num = den + p * num
    # hi = num/den + 2 p**T / (den·Q·T), over the common denominator den·Q·T
    hi_den = den * big_q * terms
    hi_num = num * big_q * terms + 2 * p**terms
    work = prec + 2 * halvings + 8
    lo = (num << work) // den
    hi = -(-(hi_num << work) // hi_den)
    for _ in range(halvings):
        lo = lo * lo >> work
        hi = -(-hi * hi >> work)
    shift = work - prec
    return lo >> shift, -(-hi >> shift)


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
    lhs: Callable[[int], Enclosure], rhs: Callable[[int], Enclosure]
) -> bool:
    """Certified truth of lhs < rhs, refining precision until separated.

    ``lhs`` and ``rhs`` map a precision to an enclosure of their value; the
    first try is at 96 bits, and each further one doubles the precision up to
    a fixed 2**16 bits.  Equal values never separate, so callers compare only
    values known to differ; ``counterexample.c3_holds`` settles its exact ties
    (X = 2n) rationally first.  Raises if the two stay inseparable at the cap.
    """
    prec = _DEFAULT_PREC
    while prec <= 1 << 16:
        llo, lhi = lhs(prec)
        rlo, rhi = rhs(prec)
        if lhi < rlo:
            return True
        if rhi < llo:
            return False
        prec *= 2
    raise ArithmeticError("comparison undecidable at maximum precision")


def floor_enclosed(value: Callable[[int], Enclosure]) -> int:
    """Floor of an (irrational) real given by refinable enclosures, from 32 bits
    up, doubling the precision until the floor is settled."""
    prec = 32
    while prec <= (1 << 16):
        lo, hi = value(prec)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        prec *= 2
    raise ArithmeticError("floor undecidable at maximum precision")
