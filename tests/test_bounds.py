"""Directed-rounded rational enclosures and certified comparisons.

The reference values come from mpmath at much higher precision than the
enclosures under test, so containment checks are meaningful.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from walshdiv.bounds import (
    decide_less,
    exp_enclosure,
    exp_scaled,
    floor_enclosed,
    ln2_enclosure,
    ln_enclosure,
    log1p_exp_enclosure,
    outward,
    round_down,
    round_up,
    scaled_enclosure,
    scaled_le,
)


def mpf_ref(fn, *args, dps: int = 60) -> Fraction:
    """High-precision reference value as an exact Fraction.

    Computed at far higher precision than the enclosures under test, so the
    reference error is negligible against the enclosure width.
    """
    with mpmath.workdps(dps):
        v = fn(*[mpmath.mpf(a.numerator) / a.denominator for a in args])
        sign, man, exp, _ = v._mpf_
        f = Fraction(man) * Fraction(2) ** exp
        return -f if sign else f


def contains(enclosure, ref: Fraction) -> bool:
    lo, hi = enclosure
    return lo <= ref <= hi


def exp_enclosure_reference(x: Fraction, prec: int):
    """e**x enclosed with exact Fraction arithmetic, rounded outward per step.

    An algorithm independent of the library's ln 2 reduction: argument
    halving, an exact Taylor sum plus tail, interval squaring, and a
    reciprocal for x < 0.  Its ends lie within about 2**-prec·max(1, e**x)
    of e**x on -64 < x <= 2**10, so :func:`exp_enclosure` must land as close.
    """
    if x < 0:
        lo, hi = exp_enclosure_reference(-x, prec + 8)
        return outward(1 / hi, 1 / lo, prec)
    halvings = 0
    y = x
    while y > Fraction(1, 2):
        y /= 2
        halvings += 1
    terms = max(8, (prec + halvings) // 2 + 4)
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms):
        term = term * y / i
        total += term
    tail = 2 * term * y / terms
    work = prec + 2 * halvings + 8
    lo, hi = outward(total, total + tail, work)
    for _ in range(halvings):
        lo, hi = outward(lo * lo, hi * hi, work)
    return outward(lo, hi, prec)


def assert_close_to_reference(x: Fraction, prec: int) -> None:
    """exp_enclosure(x, prec) overlaps the reference [rlo, rhi], and each of
    its ends lies within 2**-prec·max(1, rhi) of the reference's."""
    lo, hi = exp_enclosure(x, prec)
    rlo, rhi = exp_enclosure_reference(x, prec)
    assert lo <= rhi and rlo <= hi
    slack = max(1, rhi) / (1 << prec)
    assert abs(lo - rlo) <= slack and abs(hi - rhi) <= slack


PRECISIONS = [8, 32, 64, 96, 104, 200]

# (-64, 2^10], with small and with large denominators
exp_arguments = st.one_of(
    st.fractions(min_value=Fraction(-64), max_value=Fraction(1 << 10),
                 max_denominator=100),
    st.fractions(min_value=Fraction(-64), max_value=Fraction(1 << 10),
                 max_denominator=10**30),
).filter(lambda x: x > -64)


class TestRounding:
    def test_round_down_up_bracket(self):
        x = Fraction(1, 3)
        lo, hi = round_down(x, 8), round_up(x, 8)
        assert lo <= x <= hi
        assert hi - lo <= Fraction(1, 256)
        assert lo.denominator <= 256 and hi.denominator <= 256

    def test_exact_values_round_to_themselves(self):
        x = Fraction(3, 8)
        assert round_down(x, 5) == x == round_up(x, 5)

    def test_outward_widens(self):
        lo, hi = outward(Fraction(1, 3), Fraction(2, 3), 6)
        assert lo <= Fraction(1, 3) and hi >= Fraction(2, 3)


class TestEnclosures:
    @pytest.mark.parametrize("prec", [*PRECISIONS, 1000])
    def test_ln2(self, prec):
        lo, hi = ln2_enclosure(prec)
        assert contains((lo, hi), mpf_ref(mpmath.log, Fraction(2), dps=400))
        assert hi - lo <= Fraction(2, 1 << prec)

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(151, 36),
            Fraction(-151, 36),
            Fraction(1, 1000),
            Fraction(20),
            Fraction(-90),
        ],
    )
    def test_exp_contains_reference(self, x):
        assert contains(exp_enclosure(x, 96), mpf_ref(mpmath.exp, x))

    @given(exp_arguments, st.sampled_from(PRECISIONS))
    @settings(max_examples=200, deadline=None)
    def test_exp_contains_reference_randomized(self, x, prec):
        # prec decimal digits are over 3·prec bits, and x more cover the
        # integer part of e**x, under 1.45·x bits
        dps = prec + max(0, x.numerator // x.denominator) + 30
        assert contains(exp_enclosure(x, prec), mpf_ref(mpmath.exp, x, dps=dps))

    def test_exp_width_shrinks_with_precision(self):
        x = Fraction(7, 3)
        widths = [hi - lo for lo, hi in (exp_enclosure(x, p) for p in (16, 64, 256))]
        assert widths[0] > widths[1] > widths[2]

    def test_exp_rejects_huge_arguments(self):
        with pytest.raises(ArithmeticError):
            exp_enclosure(Fraction(1 << 21))

    @given(exp_arguments, st.sampled_from(PRECISIONS))
    @settings(max_examples=200, deadline=None)
    def test_exp_is_close_to_fraction_reference(self, x, prec):
        assert_close_to_reference(x, prec)

    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(-1, 36), Fraction(-2303, 36), Fraction(1000, 3)]
    )
    def test_exp_is_close_to_fraction_reference_at_fixed_points(self, x, prec):
        assert_close_to_reference(x, prec)

    @given(st.one_of(exp_arguments, st.just(Fraction(10**6))), st.sampled_from(PRECISIONS))
    @settings(max_examples=200, deadline=None)
    def test_exp_rounds_the_scaled_kernel_outward(self, x, prec):
        # the shifts give what Fraction rounding of the same triple gives
        scaled = exp_scaled(x, x, prec + 8)
        assert exp_enclosure(x, prec) == outward(*scaled_enclosure(scaled), prec)

    def test_exp_far_negative_is_crude_but_sound(self):
        lo, hi = exp_enclosure(Fraction(-100))
        assert lo == 0
        assert hi >= mpf_ref(mpmath.exp, Fraction(-100))

    def test_exp_far_negative_keeps_a_bounded_denominator(self):
        # 2^-floor(-x) here would be a 10^12-bit denominator
        lo, hi = exp_enclosure(Fraction(-10**12), 96)
        assert lo == 0
        assert hi.denominator <= 1 << 96
        assert mpmath.log(hi.numerator) - mpmath.log(hi.denominator) >= -10**12

    @given(
        st.one_of(
            st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=10**30),
            st.builds(lambda a, b: Fraction(a, b),
                      st.integers(-(1 << 50), 1 << 50), st.integers(1, 1 << 30)),
        ),
        st.sampled_from(PRECISIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_exp_scaled_contains_reference_to_prec_bits(self, x, prec):
        # compared as integers over powers of two: at x = 2^50 the value
        # itself would be a 1.6·10^15-bit integer
        lo, hi, e = exp_scaled(x, x, prec)
        with mpmath.workdps(90):
            _, man, exp, _ = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)._mpf_
        low = min(e, exp)
        assert lo << (e - low) <= man << (exp - low) <= hi << (e - low)
        assert 0 < hi - lo < lo >> prec

    def test_exp_scaled_keeps_its_numbers_narrow(self):
        # e^(10^14/3) has a 4.8·10^13-bit integer part; the enclosure does not
        x = Fraction(10**14, 3)
        lo, hi, e = exp_scaled(x, x, 96)
        assert lo.bit_length() < 200 and e > 10**13

    @given(st.one_of(
        st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**12),
                     max_denominator=10**9),
        st.builds(lambda a, b: Fraction(a, b),
                  st.integers(1, 10**300), st.integers(1, 10**300)),
    ), st.sampled_from(PRECISIONS))
    @settings(max_examples=200, deadline=None)
    def test_ln_contains_reference_to_prec_bits(self, x, prec):
        lo, hi = ln_enclosure(x, prec)
        assert contains((lo, hi), mpf_ref(mpmath.log, x, dps=90))
        assert hi - lo <= Fraction(3, 1 << prec)

    @pytest.mark.parametrize(
        "x", [Fraction(1, 7), Fraction(1), Fraction(2), Fraction(1000, 3)]
    )
    def test_ln_contains_reference(self, x):
        assert contains(ln_enclosure(x, 96), mpf_ref(mpmath.log, x))

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_enclosure(Fraction(0))

    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(1), Fraction(5), Fraction(302), Fraction(-3)]
    )
    def test_log1p_exp_contains_reference(self, x):
        ref = mpf_ref(lambda a: mpmath.log(1 + mpmath.exp(a)), x)
        assert contains(log1p_exp_enclosure(x, 96), ref)

    def test_log1p_exp_exceeds_linear_part(self):
        # ln(1 + e^x) > x always; the certified lower end must respect >= x
        for x in (Fraction(1), Fraction(40), Fraction(400)):
            lo, _ = log1p_exp_enclosure(x, 96)
            assert lo >= x


class TestDecisions:
    @given(st.integers(-(1 << 70), 1 << 70), st.integers(-80, 80),
           st.integers(-(1 << 70), 1 << 70), st.integers(-80, 80))
    @settings(max_examples=300, deadline=None)
    def test_scaled_le_matches_fraction_comparison(self, x, e, y, f):
        assert scaled_le(x, e, y, f) == (x * Fraction(2) ** e <= y * Fraction(2) ** f)

    @given(st.integers(-(1 << 70), 1 << 70), st.integers(-80, 80), st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_scaled_le_holds_both_ways_at_equal_values(self, x, e, k):
        # x·2^e written a second way, with k more trailing zero bits
        assert scaled_le(x, e, x << k, e - k)
        assert scaled_le(x << k, e - k, x, e)

    @pytest.mark.parametrize("x, e, y, f, holds", [
        (1, 0, 1, 10**15, True),
        (1, 10**15, 1, 0, False),
        (-1, 10**15, 1, -10**15, True),
        (-1, 0, -1, 10**15, False),
        (3, -10**15, 0, 0, False),
        (0, 10**15, 0, -10**15, True),
        (5 << 40, -10**15, 5, 40 - 10**15, True),
        ((1 << 100) + 1, -10**15, 1, 100 - 10**15, False),
    ])
    def test_scaled_le_at_exponents_far_apart(self, x, e, y, f, holds):
        # a shift by 10^15 bits would need 125 TB; the leading bits decide first
        assert scaled_le(x, e, y, f) is holds

    def test_decide_known_inequalities(self):
        e = exp_enclosure
        assert decide_less(lambda p: e(Fraction(1), p), lambda p: (Fraction(272, 100),) * 2)
        assert not decide_less(
            lambda p: e(Fraction(2), p), lambda p: (Fraction(738, 100),) * 2
        )

    def test_decide_tight_inequality(self):
        # e^(1/2) = 1.64872127070012814...; a 10-digit truncation sits barely
        # below it, forcing precision escalation before the sides separate
        target = Fraction(16487212707, 10**10)
        assert not decide_less(
            lambda p: exp_enclosure(Fraction(1, 2), p), lambda p: (target, target)
        )
        above = Fraction(16487212708, 10**10)
        assert decide_less(
            lambda p: exp_enclosure(Fraction(1, 2), p), lambda p: (above, above)
        )

    def test_equal_values_are_inseparable(self):
        with pytest.raises(ArithmeticError):
            decide_less(
                lambda p: (Fraction(1), Fraction(1)),
                lambda p: (Fraction(1), Fraction(1)),
            )

    def test_floor_enclosed(self):
        # floor(e) = 2, floor(100/e) = 36
        assert floor_enclosed(lambda p: exp_enclosure(Fraction(1), p)) == 2
        def inv_e(p):
            lo, hi = exp_enclosure(Fraction(1), p)
            return (100 / hi, 100 / lo)
        assert floor_enclosed(inv_e) == 36

    def test_floor_enclosed_integer_boundary(self):
        # enclosures straddling an exact integer never separate its floor;
        # the search must fail loudly instead of guessing
        def around_three(p):
            tiny = Fraction(1, 1 << p)
            return (Fraction(3) - tiny, Fraction(3) + tiny)
        with pytest.raises(ArithmeticError):
            floor_enclosed(around_three)
