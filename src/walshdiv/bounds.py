"""Certified rational bounds for exponentials and logarithms.

Every inequality verdict in this package that involves a transcendental
quantity (e**x, ln 2, ln(1 + e**x), the growth functions Φ, ...) is decided
through the directed-rounding enclosures in this module: a check passes only
if it holds at the unfavorable end of an interval [lo, hi] that provably
contains the true value.

Implementation notes:

- Endpoints are `fractions.Fraction`, or a :data:`Scaled` triple (a, b, e) of
  two integers over one power of two, the form of every Φ value, which
  :func:`scaled_le` compares exactly; no floating point is involved.
- Every series runs in integer fixed point: a bound is an integer numerator
  over 2**w, w a few guard bits above the requested precision, each rounding
  is one floor or ceiling in the direction that keeps the bound sound, and
  the error of the roundings and of the dropped tail is added as a count of
  units.  Results are rounded outward to denominators 2**prec, so repeated
  operations cannot blow up fraction sizes.
- ln uses the atanh series after range reduction by powers of two, and ln 2
  the same series at 1/3.
- e**x has one kernel, :func:`exp_scaled`.  It reduces by ln 2 first,
  e**x = 2**k · e**r with 0 <= r < ln 2, and sums the Taylor series of e**r
  in fixed point, so its numbers stay about prec bits wide however large x
  is, and it gives e**x to about prec significant bits.  The growth
  functions Φ take its result as it is; :func:`exp_enclosure` rounds it
  outward to denominators 2**prec.
- Callers that need a strict decision use :func:`decide_less`, which refines
  precision, up to a fixed 2**16 bits, until the intervals separate the
  operands.  That terminates because no caller compares equal values: the
  growth condition (c3) in ``counterexample.c3_holds`` decides its exact
  ties by a rational test before it calls :func:`decide_less`, after which
  it sets the transcendental ln(1 + e^{2n}) against an algebraic exponent.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

__all__ = [
    "Enclosure",
    "round_down",
    "round_up",
    "outward",
    "ln2_enclosure",
    "exp_enclosure",
    "exp_scaled",
    "scaled_enclosure",
    "scaled_le",
    "ln_enclosure",
    "log1p_exp_enclosure",
    "decide_less",
    "floor_enclosed",
]

#: A rational enclosure [lo, hi] of a real number.
Enclosure = tuple[Fraction, Fraction]

#: (a, b, e): the enclosure [a·2**e, b·2**e] as two integers over one power of two.
Scaled = tuple[int, int, int]

_DEFAULT_PREC = 96

#: Largest exp argument :func:`exp_enclosure` and the enclosures of the
#: exponential Φ kinds accept; :func:`exp_scaled` has no limit.
EXP_ARGUMENT_CAP = 1 << 20


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


def _atanh_fixed(a: int, b: int, w: int) -> tuple[int, int]:
    """Numerators over 2**w enclosing atanh(a/b) = Σ_{i>=0} (a/b)**(2i+1)/(2i+1),
    for integers 0 <= a and 3a <= b."""
    guard = w.bit_length() + 4
    a2, b2 = a * a, b * b
    power = (a << (w + guard)) // b
    total = terms = 0
    while power:
        total += power // (2 * terms + 1)
        power = power * a2 // b2
        terms += 1
    # Each floored power is under 9/8 units below its true value, so each
    # term loses under 3 units; the powers left out sum to under 3 units.
    return total >> guard, -(-(total + 3 * terms + 3) >> guard)


def _ln2_fixed(w: int) -> tuple[int, int]:
    """Numerators over 2**w enclosing ln 2 = 2·atanh(1/3)."""
    width = -(-w // 64) * 64
    lo, hi = _ln2_cached(width)
    return lo >> (width - w), -(-hi >> (width - w))


@functools.lru_cache(maxsize=16)
def _ln2_cached(w: int) -> tuple[int, int]:
    return _atanh_fixed(1, 3, w + 1)  # 2·atanh(1/3) over 2**w


def ln2_enclosure(prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln 2 = 2·atanh(1/3) = 2 Σ_{i>=0} (1/9)**i / (3(2i+1))."""
    lo, hi = _ln2_fixed(prec + 4)
    return Fraction(lo >> 4, 1 << prec), Fraction(-(-hi >> 4), 1 << prec)


def exp_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of e**x for rational x.

    On -64 < x <= 2**20 this is :func:`exp_scaled` at prec + 8 bits rounded
    outward to denominators 2**prec by shifts, so each end lies within
    2**-prec + 2**-(prec+8)·e**x of e**x.

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
    if x > EXP_ARGUMENT_CAP:
        raise ArithmeticError(
            f"exp argument {x} too large for direct enclosure; compare logs"
        )
    if x <= -64:
        return Fraction(0), Fraction(1, 1 << min((-x).numerator // (-x).denominator, prec))
    a, b, e = _exp_point(x, prec + 8)
    s = -e - prec  # a·2**e = (a·2**-s)/2**prec: round a down and b up
    if s < 0:
        return Fraction(a << -s, 1 << prec), Fraction(b << -s, 1 << prec)
    return Fraction(a >> s, 1 << prec), Fraction(-(-b >> s), 1 << prec)


def exp_scaled(lo: Fraction, hi: Fraction, prec: int = _DEFAULT_PREC) -> Scaled:
    """(a, b, e) with a·2**e <= e**x <= b·2**e for all x in [lo, hi], rational.

    Each end gives its value to prec significant bits (b - a < a·2**-prec
    when lo = hi), from one fixed-point Taylor sum of e**r after the
    reduction x = k ln 2 + r, 0 <= r < ln 2, whatever the size of x.
    """
    low = _exp_point(lo, prec)
    if hi == lo:
        return low
    high = _exp_point(hi, prec)
    e = min(low[2], high[2])
    return low[0] << (low[2] - e), high[1] << (high[2] - e), e


def _exp_point(x: Fraction, prec: int) -> Scaled:
    p, q = x.numerator, x.denominator
    w = prec + (abs(p) // q).bit_length() + 9  # |k| < 2**(w - prec - 7)
    xlo = (p << w) // q
    xhi = -((-p << w) // q)
    if 0 <= 2 * p < q:  # x < 1/2 < ln 2: no reduction
        k, rlo, rhi = 0, xlo, xhi
    else:
        # k <= x/ln 2, so that r >= 0 at both ends
        l2lo, l2hi = _ln2_fixed(w)
        k = xlo // (l2hi if p >= 0 else l2lo)
        rlo = xlo - max(k * l2lo, k * l2hi)
        rhi = xhi - min(k * l2lo, k * l2hi)
    # e**rhi from below: each floored term is under 2 units low, and once a
    # term floors to 0 the rest of the series is under 4 units
    term = total = 1 << w
    terms = 0
    while term:
        terms += 1
        term = (term * rhi >> w) // terms
        total += term
    # e**rlo >= e**rhi·(1 - d), d = (rhi - rlo)/2**w
    lo = total + (-total * (rhi - rlo) >> w)
    return lo, total + 2 * terms + 4, k - w


def scaled_enclosure(scaled: Scaled) -> Enclosure:
    """The rational ends a·2**e and b·2**e of ``scaled`` = (a, b, e)."""
    a, b, e = scaled
    if e >= 0:
        return Fraction(a << e), Fraction(b << e)
    return Fraction(a, 1 << -e), Fraction(b, 1 << -e)


def scaled_le(x: int, e: int, y: int, f: int) -> bool:
    """Exact x·2**e <= y·2**f for integers; signs and leading-bit positions
    decide first, so no shift is longer than the operands however far apart e
    and f are."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx != sy or not sx:
        return sx <= sy
    top_x, top_y = abs(x).bit_length() + e, abs(y).bit_length() + f
    if top_x != top_y:
        return (top_x < top_y) == (sx > 0)
    low = min(e, f)
    return x << (e - low) <= y << (f - low)


def ln_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln x for rational x > 0."""
    if x <= 0:
        raise ValueError(f"ln needs a positive argument, got {x}")
    # Reduce x = m · 2**j with m = num/den in [2/3, 4/3]: ln x = j ln2 + ln m.
    num, den = x.numerator, x.denominator
    j = num.bit_length() - den.bit_length()
    if j >= 0:
        den <<= j
    else:
        num <<= -j
    if 3 * num > 4 * den:
        den <<= 1
        j += 1
    elif 3 * num < 2 * den:
        num <<= 1
        j -= 1
    # ln m = 2 atanh(u), u = (m-1)/(m+1), |u| <= 1/5.
    w = prec + abs(j).bit_length() + 4
    lo, hi = _atanh_fixed(abs(num - den), num + den, w + 1)  # 2·atanh over 2**w
    if num < den:
        lo, hi = -hi, -lo
    l2lo, l2hi = _ln2_fixed(w)
    if j >= 0:
        lo, hi = lo + j * l2lo, hi + j * l2hi
    else:
        lo, hi = lo + j * l2hi, hi + j * l2lo
    shift = w - prec
    return Fraction(lo >> shift, 1 << prec), Fraction(-(-hi >> shift), 1 << prec)


def log1p_exp_enclosure(x: Fraction, prec: int = _DEFAULT_PREC) -> Enclosure:
    """Enclosure of ln(1 + e**x), stable for very large positive x.

    For x >= 1 uses ln(1 + e**x) = x + ln(1 + e**-x), so the logarithm is
    only ever taken of a number in (1, 1 + e].
    """
    if x >= 1:
        lo, hi = log1p_exp_enclosure(-x, prec + 8)
        return outward(x + lo, x + hi, prec)
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
