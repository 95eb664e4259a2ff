"""Partial sums on the transform path, growth functions, and strong means.

The means and densities read a census; ``census_of`` builds one from a list
of values by ``np.unique``, so each test states its sums as a plain list.
"""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from walshdiv.atoms import AtomSum, KernelAtom, SpectralBlock
from walshdiv.bounds import scaled_enclosure, scaled_le
from walshdiv.counterexample import ConstructionParams, partial_sum_series
from walshdiv.dyadic import DyadicPoint, containing_interval, xor_add
from walshdiv.fourier import (
    PhiSpec,
    exceed_density,
    parse_phi,
    strong_mean,
    strong_mean_bounds,
)
from walshdiv.walsh import ExactSeries, GridVector, dirichlet, fwht

from oracles import _partial_sums_scaled, census_of, grid_of, series_of


def exact_fraction(v: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf (no float round-trip)."""
    sign, man, exp, _ = v._mpf_
    out = Fraction(man) * Fraction(2) ** exp
    return -out if sign else out


def random_step_function(rng: random.Random, k: int) -> GridVector:
    return grid_of(
        k, [Fraction(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(1 << k)]
    )


def grid_partial_sums(f: GridVector, x: DyadicPoint) -> list[Fraction]:
    """S_1(x) … S_{2^K}(x) along the transform path of the oracle."""
    coeffs = fwht(f)
    return [Fraction(int(v), coeffs.denominator) for v in _partial_sums_scaled(coeffs, x)]


class TestPartialSums:
    def test_grid_prefix_matches_kernel_convolution(self):
        # S_l(x) = 2^-K Σ_t f(t) D_l(x ⊕ t): the convolution oracle
        rng = random.Random(1)
        k = 5
        f = random_step_function(rng, k)
        for _ in range(12):
            x = DyadicPoint(rng.randrange(0, 1 << k), k)
            sums = grid_partial_sums(f, x)
            for l in (1, 2, 7, 31, 32):
                conv = sum(
                    (f[i] * dirichlet(l, xor_add(x, DyadicPoint(i, k))) for i in range(1 << k)),
                    Fraction(0),
                ) / (1 << k)
                assert sums[l - 1] == conv

    def test_full_inversion(self):
        f = random_step_function(random.Random(2), 4)
        for x in (DyadicPoint(5, 4), DyadicPoint(3, 2), DyadicPoint.zero()):
            assert grid_partial_sums(f, x)[-1] == f[containing_interval(x, 4).index]

    def test_rejects_unrepresentable_cuts(self):
        # the series holds every cut up to count, so count is bounded first
        params, x = ConstructionParams(2, 2), DyadicPoint(3, 4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid cap"):
                partial_sum_series(params, x, (1 << 26) + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 2^26-entry series alone would take 512 MiB
        with pytest.raises(ValueError):
            partial_sum_series(params, x, 0)
        assert len(partial_sum_series(params, x, 1 << 12)) == 1 << 12

    def test_linearity(self):
        rng = random.Random(4)
        xs = [Fraction(rng.randrange(-9, 10)) for _ in range(16)]
        ys = [Fraction(rng.randrange(-9, 10)) for _ in range(16)]
        f = grid_of(4, xs)
        g = grid_of(4, ys)
        h = grid_of(4, [3 * a - 2 * b for a, b in zip(xs, ys)])
        x = DyadicPoint(7, 4)
        for sh, sf, sg in zip(*(grid_partial_sums(v, x) for v in (h, f, g))):
            assert sh == 3 * sf - 2 * sg

    def test_spectral_window(self):
        # spectrum in [u, 2u): prefix vanishes up to u, completes at 2u
        u = 8
        theta = DyadicPoint(3, 3)
        s = AtomSum([KernelAtom(1, 2 * u, theta), KernelAtom(-1, u, theta)],
                    [SpectralBlock(u, 2 * u)])
        x = DyadicPoint(9, 5)
        for l in range(0, u + 1):
            assert s.partial_sum(l, x) == 0
        for l in range(2 * u, 3 * u):
            assert s.partial_sum(l, x) == s.value(x)

    def test_symbolic_equals_grid(self):
        theta = DyadicPoint(5, 4)
        s = AtomSum([KernelAtom(Fraction(1, 3), 16, theta)], [SpectralBlock(0, 16)])
        x = DyadicPoint(13, 6)
        sums = grid_partial_sums(s.render(6), x)
        for l in range(1, 65):
            assert s.partial_sum(l, x) == sums[l - 1]


PHIS = [
    PhiSpec("power", 2), PhiSpec("power", Fraction(3, 2)), PhiSpec("power", Fraction(1, 3)),
    PhiSpec("exp_linear", 1), PhiSpec("exp_linear", Fraction(7, 3)),
    PhiSpec("exp_power", 2), PhiSpec("exp_power", Fraction(3, 2)),
    PhiSpec("exp_power", Fraction(1, 2)),
]


@st.composite
def phi_arguments(draw):
    """(Φ, t) with t > 0 from 2^-40 up to where the exponent reaches 2^20:
    X = c·t, X = t^α, or t itself for powers."""
    phi = draw(st.sampled_from(PHIS))
    t = Fraction(draw(st.integers(1, 1 << 30)), draw(st.integers(1, 999)))
    t *= Fraction(2) ** draw(st.integers(-70, 20))
    p = phi.parameter
    if phi.kind == "exp_linear":
        assume(p * t <= 1 << 20)
    elif phi.kind == "exp_power":
        assume(t ** p.numerator <= (1 << 20) ** p.denominator)
    return phi, t


def phi_reference(phi: PhiSpec, t: Fraction) -> mpmath.mpf:
    """Φ(t) by mpmath at 100 digits."""
    with mpmath.workdps(100):
        tf = mpmath.mpf(t.numerator) / t.denominator
        p = mpmath.mpf(phi.parameter.numerator) / phi.parameter.denominator
        if phi.kind == "power":
            return tf**p
        return mpmath.expm1(p * tf if phi.kind == "exp_linear" else tf**p)


class TestPhiSpec:
    def test_text_round_trip(self):
        for text in ("pow:2", "exp:3", "exppow:2", "pow:17/5", "exppow:1/2"):
            assert parse_phi(text).to_text() == text

    def test_parse_rejects_garbage(self):
        for bad in ("pow", "gauss:2", "pow:zero", "exppow:0", "pow:-1"):
            with pytest.raises(ValueError):
                parse_phi(bad)

    def test_value_mpf(self):
        phi = PhiSpec("power", 2)
        assert phi.value_mpf(Fraction(3, 2)) == mpmath.mpf(9) / 4
        assert phi.value_mpf(0) == 0
        with pytest.raises(ValueError):
            phi.value_mpf(-1)
        e = PhiSpec("exp_linear", 1)
        assert abs(float(e.value_mpf(1)) - (math.e - 1)) < 1e-12
        assert mpmath.isinf(PhiSpec("exp_power", 2).value_mpf(10**8))

    def test_enclosure_brackets_value(self):
        for t in (Fraction(1, 20), Fraction(3, 2), Fraction(4)):
            lo, hi = scaled_enclosure(PhiSpec("power", 2).enclosure(t))
            assert lo <= t * t <= hi
            for phi in (PhiSpec("exp_linear", 3), PhiSpec("exp_power", 2)):
                lo, hi = scaled_enclosure(phi.enclosure(t))
                with mpmath.workdps(60):
                    v = exact_fraction(phi.value_mpf(t))
                assert 0 <= lo <= v <= hi

    def test_enclosure_rejects_huge_arguments(self):
        with pytest.raises(ArithmeticError):
            PhiSpec("exp_power", 2).enclosure(Fraction(10**6))
        # a power is refused only past 2^(10^15), and kept far below 2^(-10^15)
        with pytest.raises(ArithmeticError, match="past 2"):
            PhiSpec("power", 10**16).enclosure(Fraction(4))
        lo, hi, e = PhiSpec("power", 10**16).enclosure(Fraction(1, 2))
        assert lo <= 1 << -e - 10**16 <= hi
        assert hi.bit_length() < 200

    def test_a_power_below_2_to_the_minus_10_to_the_15_shows_as_0(self):
        assert PhiSpec("power", 10**16).value_mpf(Fraction(1, 2)) == 0
        assert mpmath.isinf(PhiSpec("power", 10**16).value_mpf(Fraction(2)))

    @given(phi_arguments(), st.sampled_from([53, 103, 200]))
    @settings(max_examples=150, deadline=None)
    def test_value_mpf_is_correctly_rounded(self, case, prec):
        phi, t = case
        with mpmath.workprec(prec):
            got = phi.value_mpf(t)
            want = +phi_reference(phi, t)  # rounds the 100-digit value
        assert got == want

    @given(phi_arguments())
    @settings(max_examples=150, deadline=None)
    def test_enclosure_contains_the_value(self, case):
        phi, t = case
        lo, hi = scaled_enclosure(phi.enclosure(t))
        ref = exact_fraction(phi_reference(phi, t))
        assert lo <= ref <= hi
        assert hi - lo <= ref / 2**90  # to about 96 significant bits

    @pytest.mark.parametrize("t, alpha", [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(5, 4), Fraction(7, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(151, 100), Fraction(5, 2)),
        (Fraction(3, 1 << 40), Fraction(101, 100)),
    ])
    @pytest.mark.parametrize("prec", [96, 192, 1024])
    def test_exponent_at_fractional_alpha_contains_the_power(self, t, alpha, prec):
        lo, hi = PhiSpec("exp_power", alpha).exponent(t, prec)
        with mpmath.workprec(2 * prec + 64):
            ref = exact_fraction(mpmath.power(
                mpmath.mpf(t.numerator) / t.denominator,
                mpmath.mpf(alpha.numerator) / alpha.denominator))
        assert lo <= ref <= hi
        assert hi - lo <= ref / 2 ** (prec - 4)

    def test_exponent_at_integer_alpha_is_exact(self):
        assert PhiSpec("exp_power", 3).exponent(Fraction(3, 2)) == (Fraction(27, 8),) * 2


class TestStrongMean:
    def test_hand_computed_power_mean(self):
        sums = [Fraction(1), Fraction(-2), Fraction(3)]
        got = strong_mean(census_of(sums, 3), PhiSpec("power", 2), 3)
        with mpmath.workdps(30):
            want = mpmath.mpf(14) / 3
        assert got == want

    def test_centering(self):
        sums = [Fraction(1), Fraction(2), Fraction(3)]
        got = strong_mean(census_of(sums, 3), PhiSpec("power", 2), 3, s=2)
        with mpmath.workdps(30):
            want = mpmath.mpf(2) / 3
        assert got == want

    def test_prefix_length_guard(self):
        # N must be the number of sums the census holds
        census = census_of([1], 1)
        with pytest.raises(ValueError):
            strong_mean(census, PhiSpec("power", 2), 2)
        with pytest.raises(ValueError):
            strong_mean(census, PhiSpec("power", 2), 0)

    def test_overflow_goes_to_infinity(self):
        sums = [Fraction(10**8)]
        assert mpmath.isinf(strong_mean(census_of(sums, 1), PhiSpec("exp_power", 2), 1))

    def test_monotone_in_phi(self):
        # e^(t²) − 1 ≥ t² pointwise, so the means are ordered the same way
        rng = random.Random(5)
        sums = [Fraction(rng.randrange(-40, 41), 8) for _ in range(64)]
        census = census_of(sums, 64)
        small = strong_mean(census, PhiSpec("power", 2), 64)
        large = strong_mean(census, PhiSpec("exp_power", 2), 64)
        assert small <= large

    def test_bounds_bracket_the_mean(self):
        rng = random.Random(6)
        sums = [Fraction(rng.randrange(-40, 41), 8) for _ in range(32)]
        for phi in (PhiSpec("power", 2), PhiSpec("exp_linear", 2),
                    PhiSpec("exp_power", 2)):
            lo, hi = scaled_enclosure(strong_mean_bounds(census_of(sums, 32), phi, 32))
            v = exact_fraction(mean_by_counter(sums, phi, 32, 0, dps=60))
            assert lo <= v <= hi

    def test_bounds_hold_the_power_two_mean_to_96_bits(self):
        sums = [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)]
        lo, hi = scaled_enclosure(strong_mean_bounds(census_of(sums, 3), PhiSpec("power", 2), 3))
        want = Fraction(sum(s * s for s in sums), 3)
        assert lo <= want <= hi
        assert hi - lo <= want / 2**92

    def test_bounds_stay_narrow_at_values_far_apart(self):
        # Φ(1/2) = 2^(-10^16) at p = 10^16: the mean 3·2^(-10^16-2) is a
        # triple of about 100 bits
        lo, hi, e = strong_mean_bounds(census_of([Fraction(1, 2)] * 3 + [0], 4),
                                       PhiSpec("power", 10**16), 4)
        assert lo.bit_length() < 200 and hi.bit_length() < 200
        assert scaled_le(lo, e, 3, -10**16 - 2) and scaled_le(3, -10**16 - 2, hi, e)
        # a term 2^400 times below the largest is under one working unit
        census = census_of([Fraction(1, 1 << 200), 1], 2)
        lo, hi = scaled_enclosure(strong_mean_bounds(census, PhiSpec("power", 2), 2))
        assert lo <= Fraction((1 << 400) + 1, 1 << 401) <= hi

    def test_cuts_below_one_unit_still_lift_the_high_end(self):
        # exact stand-in Φ values put in the memo: 1, then 7/8 and 3/4 of the
        # working unit 2^-105; the last is left uncomputed, below one unit
        census = census_of([2, 1, Fraction(1, 2)], 3)
        phi, d = PhiSpec("power", 2), census.denominator
        for v, scaled in ((2, (1, 1, 0)), (1, (7, 7, -108)), (Fraction(1, 2), (3, 3, -107))):
            phi._memo["enclosure", int(v * d), d, 96] = scaled
        lo, hi = scaled_enclosure(strong_mean_bounds(census, phi, 3))
        assert lo <= (1 + Fraction(13, 8 << 105)) / 3 <= hi


class TestExceedDensity:
    def test_hand_computed(self):
        sums = [Fraction(1), Fraction(-3), Fraction(2), Fraction(0)]
        census = census_of(sums, 4)
        assert exceed_density(census, Fraction(3, 2), 4) == Fraction(1, 2)
        assert exceed_density(census, Fraction(3), 4) == 0  # strict inequality
        assert exceed_density(census, 0, 4) == Fraction(3, 4)

    def test_prefix_restriction(self):
        sums = [Fraction(5), Fraction(0), Fraction(0), Fraction(0)]
        assert exceed_density(census_of(sums, 1), 1, 1) == 1
        assert exceed_density(census_of(sums, 4), 1, 4) == Fraction(1, 4)
        with pytest.raises(ValueError):  # a census of 4 sums is not one of 1
            exceed_density(census_of(sums, 4), 1, 1)

    def test_markov_inequality_against_strong_mean(self):
        # density(|S| > τ) · Φ(τ) ≤ mean Φ(|S|) for increasing Φ, checked on
        # the sound sides of the enclosures
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(1, 40)
            sums = [Fraction(rng.randrange(-60, 61), 12) for _ in range(n)]
            tau = Fraction(rng.randrange(0, 30), 7)
            for phi in (PhiSpec("power", 2), PhiSpec("exp_linear", 1)):
                census = census_of(sums, n)
                density = exceed_density(census, tau, n)
                _, mean_hi = scaled_enclosure(strong_mean_bounds(census, phi, n))
                tau_lo, _ = scaled_enclosure(phi.enclosure(tau))
                assert density * tau_lo <= mean_hi


# -- the series type against the per-element definitions -----------------------


def mean_by_counter(sums, phi, N, s, dps=30):
    magnitudes = Counter(abs(Fraction(v) - s) for v in sums[:N])
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for magnitude, count in magnitudes.items():
            term = phi.value_mpf(magnitude)
            if mpmath.isinf(term):
                return mpmath.mpf("+inf")
            total += count * term
        return total / N


def bounds_by_counter(sums, phi, N, s):
    """The exact Fraction mean of the low ends and of the high ends."""
    magnitudes = Counter(abs(Fraction(v) - s) for v in sums[:N])
    ends = {m: scaled_enclosure(phi.enclosure(m)) for m in magnitudes}
    lo = sum(count * ends[m][0] for m, count in magnitudes.items())
    hi = sum(count * ends[m][1] for m, count in magnitudes.items())
    return (Fraction(lo) / N, Fraction(hi) / N)


def density_by_count(sums, threshold, N, s=0):
    return Fraction(sum(1 for v in sums[:N] if abs(Fraction(v) - s) > threshold), N)


# numerators up to 2^70 (past int64), denominators up to 48; few distinct
# values so the census merges repeats as the real series does
values = st.builds(
    Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 48)
) | st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3)])


@st.composite
def series_and_cut(draw):
    xs = draw(st.lists(values, min_size=1, max_size=40))
    N = draw(st.integers(1, len(xs)))
    # denominator 101 never divides the lcm of denominators up to 48
    s = Fraction(draw(st.integers(-(1 << 72), 1 << 72).filter(lambda a: a % 101)), 101)
    return xs, N, draw(st.sampled_from([Fraction(0), s]))


class TestExactSeries:
    def test_of_is_exact_and_idempotent(self):
        xs = [Fraction(1, 6), Fraction(-(1 << 80), 4), 3]
        series = series_of(xs)
        assert list(series) == xs
        assert series.numerators.dtype == object
        assert series_of(series) is series
        small = series_of([Fraction(1, 2), Fraction(1, 3)])
        assert small.numerators.dtype == np.int64
        assert small.denominator == 6
        fits = ExactSeries(np.array([1 << 61, -(1 << 61), 3], dtype=object), 5)
        assert fits.numerators.dtype == np.int64
        assert not fits.numerators.flags.writeable

    def test_value_equality_across_denominators(self):
        a = ExactSeries(np.array([2, 4, -6]), 4)
        b = series_of([Fraction(1, 2), 1, Fraction(-3, 2)])
        assert a == b
        assert a != series_of([Fraction(1, 2), 1])

    @settings(max_examples=150, deadline=None)
    @given(series_and_cut(), st.fractions(min_value=0, max_denominator=60))
    def test_consumers_match_per_element_definitions(self, case, threshold):
        xs, N, s = case
        census = census_of(series_of(xs), N)
        for phi in (PhiSpec("power", 2), PhiSpec("power", Fraction(3, 2)),
                    PhiSpec("exp_linear", 1)):
            assert strong_mean(census, phi, N, s=s) == mean_by_counter(xs, phi, N, s)
        assert exceed_density(census, threshold, N) == density_by_count(xs, threshold, N)
        assert exceed_density(census, threshold, N, s=s) == density_by_count(
            xs, threshold, N, s)


@settings(max_examples=200, deadline=None)
@given(series_and_cut(), st.sampled_from(PHIS))
def test_scaled_sum_contains_the_fraction_sum(case, phi):
    # scaled by 2^-64 to |v| <= 64, so that every Φ stays under the exp cap
    xs, N, s = case
    xs = [v / (1 << 64) for v in xs]
    s = s / (1 << 64)
    census = census_of(series_of(xs), N)
    lo, hi = scaled_enclosure(strong_mean_bounds(census, phi, N, s=s))
    ref_lo, ref_hi = bounds_by_counter(xs, phi, N, s)
    assert lo <= ref_lo and ref_hi <= hi
    assert hi - lo <= ref_hi - ref_lo + ref_hi / 2**96
