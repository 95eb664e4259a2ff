"""Step functions, partial sums, growth functions, and strong means."""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshdiv.atoms import AtomSum, KernelAtom
from walshdiv.dyadic import DyadicPoint, xor_add
from walshdiv.fourier import (
    ExactSeries,
    _cap_overflow,
    PhiSpec,
    StepFunction,
    coefficients,
    exceed_density,
    parse_phi,
    partial_sum_grid,
    phi_classify,
    strong_mean,
    strong_mean_bounds,
)
from walshdiv.walsh import dirichlet, walsh


def exact_fraction(v: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf (no float round-trip)."""
    sign, man, exp, _ = v._mpf_
    out = Fraction(man) * Fraction(2) ** exp
    return -out if sign else out


def random_step_function(rng: random.Random, k: int) -> StepFunction:
    return StepFunction.from_values(
        k, [Fraction(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(1 << k)]
    )


class TestStepFunction:
    def test_value_norm_mean(self):
        f = StepFunction.from_values(2, [1, -2, Fraction(1, 2), 0])
        assert f.value_at(DyadicPoint(1, 2)) == -2
        assert f.norm1() == Fraction(7, 8)
        assert f.mean() == Fraction(-1, 8)
        assert f.resolution == 2

    def test_coefficients_are_cached(self):
        f = random_step_function(random.Random(0), 4)
        assert coefficients(f) is coefficients(f)


class TestPartialSums:
    def test_grid_prefix_matches_kernel_convolution(self):
        # S_l(x) = 2^-K Σ_t f(t) D_l(x ⊕ t): the convolution oracle
        rng = random.Random(1)
        k = 5
        f = random_step_function(rng, k)
        pts = [DyadicPoint(i, k) for i in range(1 << k)]
        for _ in range(12):
            x = DyadicPoint(rng.randrange(0, 1 << k), k)
            for l in (1, 2, 7, 31, 32):
                conv = sum(
                    (f.value_at(t) * dirichlet(l, xor_add(x, t)) for t in pts),
                    Fraction(0),
                ) / (1 << k)
                assert partial_sum_grid(f, l, x) == conv

    def test_cut_zero_and_full_inversion(self):
        f = random_step_function(random.Random(2), 4)
        x = DyadicPoint(5, 4)
        assert partial_sum_grid(f, 0, x) == 0
        assert partial_sum_grid(f, 16, x) == f.value_at(x)

    def test_rejects_unrepresentable_cuts(self):
        f = random_step_function(random.Random(3), 3)
        with pytest.raises(ValueError):
            partial_sum_grid(f, 9, DyadicPoint.zero())
        with pytest.raises(ValueError):
            partial_sum_grid(f, -1, DyadicPoint.zero())

    def test_linearity(self):
        rng = random.Random(4)
        xs = [Fraction(rng.randrange(-9, 10)) for _ in range(16)]
        ys = [Fraction(rng.randrange(-9, 10)) for _ in range(16)]
        f = StepFunction.from_values(4, xs)
        g = StepFunction.from_values(4, ys)
        h = StepFunction.from_values(4, [3 * a - 2 * b for a, b in zip(xs, ys)])
        x = DyadicPoint(7, 4)
        for l in range(17):
            assert partial_sum_grid(h, l, x) == 3 * partial_sum_grid(
                f, l, x
            ) - 2 * partial_sum_grid(g, l, x)

    def test_spectral_window(self):
        # spectrum in [u, 2u): prefix vanishes up to u, completes at 2u
        u = 8
        theta = DyadicPoint(3, 3)
        s = AtomSum([KernelAtom(1, 2 * u, theta), KernelAtom(-1, u, theta)])
        x = DyadicPoint(9, 5)
        for l in range(0, u + 1):
            assert s.partial_sum(l, x) == 0
        for l in range(2 * u, 3 * u):
            assert s.partial_sum(l, x) == s.value(x)

    def test_symbolic_equals_grid(self):
        theta = DyadicPoint(5, 4)
        s = AtomSum([KernelAtom(Fraction(1, 3), 16, theta)])
        f = StepFunction(s.render(6))
        x = DyadicPoint(13, 6)
        for l in range(0, 65):
            assert s.partial_sum(l, x) == partial_sum_grid(f, l, x)


class TestPhiSpec:
    def test_text_round_trip(self):
        for text in ("pow:2", "exp:3", "exppow:2", "pow:17/5", "exppow:1/2"):
            assert parse_phi(text).to_text() == text

    def test_parse_rejects_garbage(self):
        for bad in ("pow", "gauss:2", "pow:zero", "exppow:0", "pow:-1"):
            with pytest.raises(ValueError):
                parse_phi(bad)

    def test_classification(self):
        assert phi_classify(PhiSpec.power(17)).tag == "subexponential"
        assert phi_classify(PhiSpec.exp_linear(3)).tag == "subexponential"
        assert phi_classify(PhiSpec.exp_power(2)).tag == "superexponential"
        assert phi_classify(PhiSpec.exp_power(1)).tag == "subexponential"
        assert phi_classify(PhiSpec.exp_power(Fraction(3, 2))).tag == "superexponential"

    def test_value_mpf(self):
        phi = PhiSpec.power(2)
        assert phi.value_mpf(Fraction(3, 2)) == mpmath.mpf(9) / 4
        assert phi.value_mpf(0) == 0
        with pytest.raises(ValueError):
            phi.value_mpf(-1)
        e = PhiSpec.exp_linear(1)
        assert abs(float(e.value_mpf(1)) - (math.e - 1)) < 1e-12
        assert mpmath.isinf(PhiSpec.exp_power(2).value_mpf(10**8))

    def test_enclosure_brackets_value(self):
        for t in (Fraction(1, 20), Fraction(3, 2), Fraction(4)):
            lo, hi = PhiSpec.power(2).enclosure(t)
            assert lo <= t * t <= hi
            for phi in (PhiSpec.exp_linear(3), PhiSpec.exp_power(2)):
                lo, hi = phi.enclosure(t)
                with mpmath.workdps(60):
                    v = exact_fraction(phi.value_mpf(t))
                assert 0 <= lo <= v <= hi

    def test_enclosure_rejects_huge_arguments(self):
        with pytest.raises(ArithmeticError):
            PhiSpec.exp_power(2).enclosure(Fraction(10**6))


class TestStrongMean:
    def test_hand_computed_power_mean(self):
        sums = [Fraction(1), Fraction(-2), Fraction(3)]
        got = strong_mean(sums, PhiSpec.power(2), 3)
        with mpmath.workdps(30):
            want = mpmath.mpf(14) / 3
        assert got == want

    def test_centering(self):
        sums = [Fraction(1), Fraction(2), Fraction(3)]
        got = strong_mean(sums, PhiSpec.power(2), 3, s=2)
        with mpmath.workdps(30):
            want = mpmath.mpf(2) / 3
        assert got == want

    def test_prefix_length_guard(self):
        with pytest.raises(ValueError):
            strong_mean([1], PhiSpec.power(2), 2)
        with pytest.raises(ValueError):
            strong_mean([1], PhiSpec.power(2), 0)

    def test_overflow_goes_to_infinity(self):
        sums = [Fraction(10**8)]
        assert mpmath.isinf(strong_mean(sums, PhiSpec.exp_power(2), 1))

    def test_monotone_in_phi(self):
        # e^(t²) − 1 ≥ t² pointwise, so the means are ordered the same way
        rng = random.Random(5)
        sums = [Fraction(rng.randrange(-40, 41), 8) for _ in range(64)]
        small = strong_mean(sums, PhiSpec.power(2), 64)
        large = strong_mean(sums, PhiSpec.exp_power(2), 64)
        assert small <= large

    def test_bounds_bracket_the_mean(self):
        rng = random.Random(6)
        sums = [Fraction(rng.randrange(-40, 41), 8) for _ in range(32)]
        for phi in (PhiSpec.power(2), PhiSpec.exp_linear(2), PhiSpec.exp_power(2)):
            lo, hi = strong_mean_bounds(sums, phi, 32)
            v = exact_fraction(strong_mean(sums, phi, 32, dps=60))
            assert lo <= v <= hi

    def test_bounds_are_exact_for_power_two(self):
        sums = [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)]
        lo, hi = strong_mean_bounds(sums, PhiSpec.power(2), 3)
        want = Fraction(sum(s * s for s in sums), 3)
        assert lo == hi == want


class TestExceedDensity:
    def test_hand_computed(self):
        sums = [Fraction(1), Fraction(-3), Fraction(2), Fraction(0)]
        assert exceed_density(sums, Fraction(3, 2), 4) == Fraction(1, 2)
        assert exceed_density(sums, Fraction(3), 4) == 0  # strict inequality
        assert exceed_density(sums, 0, 4) == Fraction(3, 4)

    def test_prefix_restriction(self):
        sums = [Fraction(5), Fraction(0), Fraction(0), Fraction(0)]
        assert exceed_density(sums, 1, 1) == 1
        assert exceed_density(sums, 1, 4) == Fraction(1, 4)

    def test_markov_inequality_against_strong_mean(self):
        # density(|S| > τ) · Φ(τ) ≤ mean Φ(|S|) for increasing Φ, checked on
        # the sound sides of the enclosures
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(1, 40)
            sums = [Fraction(rng.randrange(-60, 61), 12) for _ in range(n)]
            tau = Fraction(rng.randrange(0, 30), 7)
            for phi in (PhiSpec.power(2), PhiSpec.exp_linear(1)):
                density = exceed_density(sums, tau, n)
                _, mean_hi = strong_mean_bounds(sums, phi, n)
                tau_lo, _ = phi.enclosure(tau)
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
        return _cap_overflow(total / N)


def bounds_by_counter(sums, phi, N, s):
    magnitudes = Counter(abs(Fraction(v) - s) for v in sums[:N])
    lo = sum(count * phi.enclosure(m)[0] for m, count in magnitudes.items())
    hi = sum(count * phi.enclosure(m)[1] for m, count in magnitudes.items())
    return (Fraction(lo) / N, Fraction(hi) / N)


def density_by_count(sums, threshold, N):
    return Fraction(sum(1 for v in sums[:N] if abs(Fraction(v)) > threshold), N)


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
        series = ExactSeries.of(xs)
        assert list(series) == xs
        assert series.numerators.dtype == object
        assert ExactSeries.of(series) is series
        small = ExactSeries.of([Fraction(1, 2), Fraction(1, 3)])
        assert small.numerators.dtype == np.int64
        assert small.denominator == 6

    def test_value_equality_across_denominators(self):
        a = ExactSeries(np.array([2, 4, -6]), 4)
        b = ExactSeries.of([Fraction(1, 2), 1, Fraction(-3, 2)])
        assert a == b
        assert a != ExactSeries.of([Fraction(1, 2), 1])

    @settings(max_examples=150, deadline=None)
    @given(series_and_cut(), st.fractions(min_value=0, max_denominator=60))
    def test_consumers_match_per_element_definitions(self, case, threshold):
        xs, N, s = case
        series = ExactSeries.of(xs)
        for phi in (PhiSpec.power(2), PhiSpec.power(Fraction(3, 2)), PhiSpec.exp_linear(1)):
            assert strong_mean(series, phi, N, s=s) == mean_by_counter(xs, phi, N, s)
        square = PhiSpec.power(2)
        assert strong_mean_bounds(series, square, N, s=s) == bounds_by_counter(xs, square, N, s)
        assert exceed_density(series, threshold, N) == density_by_count(xs, threshold, N)
