"""The sign-change set, the selector, the polynomials, and their verifiers.

Frozen values in this file were computed independently (Pascal-row dynamic
programs, digit-chasing selectors, brute-force integrals) before being
asserted against the library.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from walshdiv._kernels import walsh_sign_row
from walshdiv.counterexample import (
    GRID_CAP,
    MEASURE_N_MAX,
    AssertionRecord,
    ConstructionParams,
    EmptySelectionError,
    LemmaReport,
    _nu_min,
    build_fn,
    c3_holds,
    chain_check,
    en_cell_mask,
    integral_Dstar_closed,
    measure_En_range,
    minimal_n_for_c3,
    partial_sum_series,
    progression_L,
    select_m,
    verify_lemma1,
    verify_lemma2,
)
from walshdiv.dyadic import DyadicPoint, containing_interval, xor_add
from walshdiv.fourier import PhiSpec
from walshdiv.walsh import GridVector, bit_reverse, dirichlet, walsh

from oracles import (
    _count_above,
    _partial_sums_scaled,
    c3_by_enclosures,
    integral_Dstar_grid,
    lemma2_exhaustive_rows,
    measure_En,
)

EXP_POW_2 = PhiSpec("exp_power", 2)


def digit(x: DyadicPoint, j: int) -> int:
    """j-th binary digit of x, read off the exact value (library-free)."""
    v = Fraction(x.numerator << j, 1 << x.exponent)
    return int(v - (v % 1)) % 2


def row_map(report: LemmaReport) -> dict:
    return {r.assertion: r for r in report.rows}


class TestConstructionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(0)
        with pytest.raises(ValueError):
            ConstructionParams(5, c=1)

    def test_gamma_values(self):
        assert [ConstructionParams(n).gamma for n in (1, 2, 12, 151)] == [0, 0, 0, 6]

    def test_build_bound(self):
        # c·4^n ≤ 2^28: n = 13 at c = 4 is the largest order that builds
        assert ConstructionParams.BUILD_MAX == 4 << 26
        for n, c in ((13, 4), (12, 16), (3, 10), (2, 3)):
            ConstructionParams(n, c).check_buildable()
        for n, c in ((13, 5), (14, 2), (20, 3), (10**12, 2)):
            with pytest.raises(ValueError, match="too large to build"):
                ConstructionParams(n, c).check_buildable()
            with pytest.raises(ValueError, match="too large to build"):
                build_fn(ConstructionParams(n, c))

    def test_spectral_edges(self):
        p = ConstructionParams(2, 3)
        assert p.p == 4
        assert p.q_exponent == 18
        assert p.q == 1 << 18

    def test_kernel_orders(self):
        p = ConstructionParams(2, 3)
        assert p.u(0) == 16  # the indicator ceiling 2^(n+2)
        assert [p.u(j) for j in range(1, 5)] == [1 << 9, 1 << 12, 1 << 15, 1 << 18]
        assert p.u(4) == p.q
        with pytest.raises(ValueError):
            p.u(5)
        with pytest.raises(ValueError):
            p.u(-1)

    def test_translations(self):
        p = ConstructionParams(2, 2)
        assert [Fraction(t.numerator, 1 << t.exponent) for t in p.thetas()] == [
            Fraction(0),
            Fraction(5, 16),
            Fraction(10, 16),
            Fraction(15, 16),
        ]
        for k in range(1, 5):
            assert containing_interval(p.theta(k), 2).index == k - 1  # in Δ_k
        with pytest.raises(ValueError):
            p.theta(0)
        with pytest.raises(ValueError):
            p.theta(5)


class TestSignChangeSet:
    def test_smallest_sets(self):
        assert np.flatnonzero(en_cell_mask(2)).tolist() == [1, 3, 4, 6, 9, 11, 12, 14]
        assert not en_cell_mask(3).any()

    def test_frozen_measures(self):
        assert measure_En(1) == 0
        assert measure_En(2) == Fraction(1, 2)
        assert measure_En(3) == 0
        assert measure_En(12) == Fraction(627, 1024)
        assert measure_En(60) == Fraction(
            284342351945549387, 288230376151711744
        )

    def test_distribution_matches_cell_enumeration(self):
        for n in range(1, 13):
            mask = en_cell_mask(n)
            assert measure_En(n) == Fraction(int(mask.sum()), mask.size)

    def test_range_helper_consistent(self):
        rows = [(n, Fraction(hits, 1 << n)) for n, hits in measure_En_range(3, 9)]
        assert rows == [(n, measure_En(n)) for n in range(3, 10)]
        with pytest.raises(ValueError):
            measure_En_range(5, 4)
        with pytest.raises(ValueError):
            measure_En_range(0, 4)


class TestPairsumDistribution:
    """|E_n| read through the distribution of b = #{j ≤ n : s_j s_{j+1} = -1}."""

    def test_is_the_binomial_row(self):
        table = dict(measure_En_range(1, 3000))
        for n in [*range(0, 41), 999, 1000, 1001, 2303, 2304, 3000]:
            hits = sum(math.comb(n, b) for b in range(n + 1) if 3 * abs(n - 2 * b) < n)
            assert measure_En(n) == Fraction(hits, 1 << n)
            if n:
                assert Fraction(table[n], 1 << n) == measure_En(n)

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError):
            measure_En(-1)

    def test_rejects_orders_past_the_bound_before_the_recurrence(self):
        for call in (lambda: measure_En(MEASURE_N_MAX + 1),
                     lambda: measure_En_range(1, MEASURE_N_MAX + 1),
                     lambda: measure_En_range(1, 10 ** 12)):
            with pytest.raises(ValueError, match="measure bound"):
                call()
        assert measure_En_range(MEASURE_N_MAX, MEASURE_N_MAX)[0][0] == MEASURE_N_MAX

    def test_matches_sign_vector_enumeration(self):
        n = 8
        counts = [0] * (n + 1)
        for j in range(1 << (n + 1)):  # all sign vectors (s_1 ... s_{n+1})
            b = ((j ^ (j >> 1)) & ((1 << n) - 1)).bit_count()
            counts[b] += 1
        hits = sum(c for b, c in enumerate(counts) if 3 * abs(n - 2 * b) < n)
        assert measure_En(n) == Fraction(hits, 1 << (n + 1))

    def test_concentration_bound(self):
        # P(|pair sum| >= n/3) <= 2 exp(-n/18) (Hoeffding), with lots of slack
        for n in (50, 100, 200):
            outside = 1 - measure_En(n)
            assert float(outside) <= 2 * math.exp(-n / 18)


class TestSelector:
    def test_against_digit_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 12)
            x = DyadicPoint(rng.randrange(1, 1 << 10), 10)
            want = tuple(
                k for k in range(1, n) if digit(x, k + 1) == 0 and digit(x, k + 2) == 1
            )
            if not want:
                with pytest.raises(EmptySelectionError):
                    select_m(x, n)
                continue
            sel = select_m(x, n)
            assert sel.positions == want
            assert sel.m == sum(1 << k for k in want)
            assert sel.p == sel.m * (1 + (1 << n))

    def test_no_descents_at_zero(self):
        with pytest.raises(EmptySelectionError):
            select_m(DyadicPoint.zero(), 8)
        with pytest.raises(ValueError):
            select_m(DyadicPoint(1, 2), 0)

    def test_sound_on_the_sign_change_set(self):
        n = 10
        mask = en_cell_mask(n)
        for j in range(mask.size):
            if not mask[j]:
                continue
            sel = select_m(DyadicPoint(j, n + 2), n)
            assert 6 * len(sel.positions) >= n - 6
            assert sel.m % 2 == 0
            assert sel.m < 1 << n
            assert sel.p < 1 << (2 * n)


class TestKernelIntegral:
    def test_closed_form_equals_brute_force(self):
        rng = random.Random(12)
        for _ in range(60):
            m = rng.randrange(1, 1 << 7)
            x = DyadicPoint(rng.randrange(1, 1 << 9), 9)
            assert integral_Dstar_closed(m, x) == integral_Dstar_grid(m, x, 12)

    def test_frozen_value(self):
        # m = 2, x = 3/16: the single bit contributes frac(2x) - x_2 = 3/8
        assert integral_Dstar_closed(2, DyadicPoint(3, 4)) == Fraction(3, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_Dstar_closed(0, DyadicPoint(1, 2))
        with pytest.raises(ValueError):
            integral_Dstar_grid(0, DyadicPoint(1, 2), 8)
        with pytest.raises(ValueError):
            integral_Dstar_grid(300, DyadicPoint(1, 2), 8)  # 2^8 <= 300
        with pytest.raises(ValueError):
            integral_Dstar_grid(3, DyadicPoint(1, 8), 4)  # coarser than x


class TestVerifyLemma2:
    def test_passes_at_twelve(self):
        report = verify_lemma2(12)
        assert report.ok
        rows = row_map(report)
        assert rows["m < 2^n on E_n"].verdict == "pass"
        assert rows["6*nu >= n - 6 on E_n"].verdict == "pass"
        assert rows["integral >= n/30 on E_n"].verdict == "pass"

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_small_n_fail_honestly(self, n):
        report = verify_lemma2(n)
        assert not report.ok
        failed = {r.assertion for r in report.failures()}
        assert failed == {"selector nonempty on E_n", "integral >= n/30 on E_n"}

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_set_is_vacuous(self, n):
        report = verify_lemma2(n)
        assert report.ok
        rows = row_map(report)
        assert rows["integral >= n/30 on E_n"].verdict == "vacuous"
        assert rows["integral >= n/30 on E_n"].witness == "E_n empty"

    @pytest.mark.parametrize("n", range(1, 21))
    def test_exhaustive_rows_equal_the_full_scan(self, n):
        # counts over the x_1 = 0 half, doubled, and its first-index
        # witnesses equal a reduction over all 2^(n+2) cells
        assert verify_lemma2(n, cap=20).rows == lemma2_exhaustive_rows(n)

    def test_exhaustive_scan_memory(self):
        verify_lemma2(2)  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            verify_lemma2(20, cap=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2^21 cells of two int64 and two uint8 arrays are 36 MiB; the
        # 2^22-cell scan peaked at about 108 MiB
        assert peak < 64 << 20

    @pytest.mark.parametrize("n", range(1, 21))
    def test_certificate_agrees_with_the_scan(self, n):
        # cap=0 certifies every order the closed form decides and scans the rest
        closed = row_map(verify_lemma2(n, cap=0))
        scan = row_map(verify_lemma2(n, cap=20))
        shared = closed.keys() & scan.keys()
        assert {"measure > 1 - 2*exp(-n/36)", "integral >= n/30 on E_n"} <= shared
        assert {a: closed[a].verdict for a in shared} == {a: scan[a].verdict for a in shared}
        if "6*nu >= n - 6 on E_n" in scan:  # E_n nonempty: ν_min is the scan's least ν
            row, want = closed["6*nu >= n - 6 on E_n"], scan["6*nu >= n - 6 on E_n"]
            assert (row.lhs_exact, row.rhs_exact) == (want.lhs_exact, want.rhs_exact)
            assert want.lhs_exact == str(_nu_min(n))

    def test_closed_form_is_too_weak_only_below_24(self):
        # ν_min/4 >= n/30 reads 30·ν_min >= 4n; past 24 it holds by algebra
        weak = {n for n in range(1, 10_001) if 30 * _nu_min(n) < 4 * n}
        assert weak == {1, 2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 23}
        for n in (24, 25, 999):
            assert dict(verify_lemma2(n, cap=0).parameters)["mode"] == "certify"

    def test_integral_fails_exactly_at_the_weak_orders(self):
        # at the default cap: scanned up to 16, and at 17 and 23, certified at the rest
        verdicts = {
            n: row_map(verify_lemma2(n))["integral >= n/30 on E_n"].verdict
            for n in range(1, 25)
        }
        fails = {n for n, v in verdicts.items() if v == "fail"}
        assert fails == {2, 4, 5, 8, 9, 10, 11, 16, 17, 23}
        assert {n for n, v in verdicts.items() if v == "vacuous"} == {1, 3}

    def test_certificate_far_past_the_scan(self):
        assert verify_lemma2(2303).ok
        report = verify_lemma2(10_000)
        assert dict(report.parameters)["mode"] == "certify"
        assert [r.assertion for r in report.failures()] == ["measure > 1 - 2*exp(-n/36)"]

    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            verify_lemma2(0)
        with pytest.raises(ValueError, match="grid cap"):
            verify_lemma2(30, cap=30)


class TestBuildFn:
    def test_shape(self):
        f = build_fn(ConstructionParams(2, 3))
        assert len(f.atoms) == 1 + (1 << 3)
        assert f.norm1_certificate() == Fraction(5, 2)
        assert [(b.lo, b.hi, b.owners) for b in f.spectral_blocks] == [
            (4, 15, ("indicator",)),
            (1 << 9, 1 << 12, ("pair 1",)),
            (1 << 12, 1 << 15, ("pairs 1..2",)),
            (1 << 15, 1 << 18, ("pairs 1..3",)),
        ]

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_are_sorted_and_disjoint(self, n, c):
        # AtomSum stores the blocks as given; the CLI's summary and block
        # table read them in order
        blocks = build_fn(ConstructionParams(n, c)).spectral_blocks
        assert all(a.hi <= b.lo for a, b in zip(blocks, blocks[1:]))

    def test_certificate_formula(self):
        # 2^gamma (1 - |E_n|) + 2, for a few small parameter sets
        for n, c in ((1, 2), (2, 2), (3, 2), (6, 2)):
            p = ConstructionParams(n, c)
            f = build_fn(p)
            want = Fraction(1 << p.gamma) * (1 - measure_En(n)) + 2
            assert f.norm1_certificate() == want

    def test_value_against_literal_formula(self):
        p = ConstructionParams(2, 2)
        f = build_fn(p)
        mask = en_cell_mask(2)
        thetas = p.thetas()
        for j in range(64):
            x = DyadicPoint(j, 6)
            cell = j >> 2  # level-4 cell of x
            indicator = 0 if mask[cell] else (1 << p.gamma) * walsh(4, x)
            kernels = sum(
                dirichlet(p.q, xor_add(x, thetas[i - 1]))
                - dirichlet(p.u(i), xor_add(x, thetas[i - 1]))
                for i in range(1, 5)
            )
            assert f.value(x) == indicator + Fraction(kernels, 4)

    def test_zero_set_is_the_sign_change_set(self):
        p = ConstructionParams(2, 2)
        f = build_fn(p)
        mask = en_cell_mask(2)
        for j in range(16):
            x = DyadicPoint(j, 4)
            if mask[j]:
                assert f.value(x) == 0
            else:
                assert abs(f.value(x)) >= 1 << p.gamma

    def test_rejects_unrenderable_mask(self):
        with pytest.raises(ValueError):
            build_fn(ConstructionParams(30))


class TestProgressionL:
    def test_structure(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randrange(2, 9)
            x = DyadicPoint(rng.randrange(1, 1 << (n + 2)), n + 2)
            try:
                sel = select_m(x, n)
            except EmptySelectionError:
                continue
            step = 1 << (2 * n)
            lo = rng.randrange(0, 4 * step)
            hi = lo + rng.randrange(0, 6 * step)
            cuts = progression_L(sel, n, lo, hi)
            assert all(lo <= l < hi and l >= sel.p for l in cuts)
            assert all(l % step == sel.p % step for l in cuts)
            assert all(b - a == step for a, b in zip(cuts, cuts[1:]))
            if hi > sel.p:
                span = hi - max(lo, sel.p)
                assert span // step - 1 <= len(cuts) <= span // step + 1

    def test_density_on_long_windows(self):
        sel = select_m(DyadicPoint(5, 5), 4)  # digits 00101: descent at k = 3
        n, cap = 4, 1 << 12
        cuts = progression_L(sel, n, 1, cap + 1)
        assert len(cuts) >= cap >> (2 * n + 1)

    def test_empty_when_window_precedes_p(self):
        sel = select_m(DyadicPoint(5, 5), 4)
        assert list(progression_L(sel, 4, 1, sel.p)) == []


class TestPartialSumSeries:
    def test_matches_symbolic_cuts(self):
        p = ConstructionParams(2, 2)
        f = build_fn(p)
        x = DyadicPoint(11, 6)
        series = partial_sum_series(p, x, 40)
        assert list(series) == [f.partial_sum(l, x) for l in range(1, 41)]

    def test_constant_beyond_the_spectrum(self):
        p = ConstructionParams(2, 2)
        x = DyadicPoint(3, 4)
        series = partial_sum_series(p, x, p.q + 5)
        assert list(series)[-6:] == [series[p.q - 1]] * 6
        assert series[p.q - 1] == build_fn(p).value(x)

    def test_matches_symbolic_cuts_past_the_grid_cap(self):
        # q = 2^30 cannot be rendered; the window runs need no grid
        p = ConstructionParams(2, 5)
        assert p.q_exponent > GRID_CAP
        f = build_fn(p)
        for x in (DyadicPoint(7, 5), DyadicPoint(12345, 20)):
            series = partial_sum_series(p, x, 4096)
            assert list(series) == [f.partial_sum(l, x) for l in range(1, 4097)]

    def test_count_below_the_indicator_level(self):
        # counts under 2^(n+2) read a prefix of the indicator's coefficient table
        p = ConstructionParams(3, 2)
        f = build_fn(p)
        x = DyadicPoint(11, 6)
        for count in (1, 2, 5, 31):
            assert list(partial_sum_series(p, x, count)) == [
                f.partial_sum(l, x) for l in range(1, count + 1)
            ]

    def test_point_finer_than_the_grid_reads_its_cell(self):
        p = ConstructionParams(2, 2)
        f = build_fn(p)
        x = DyadicPoint((1 << 20) - 1, 20)
        assert list(partial_sum_series(p, x, 10)) == [
            f.partial_sum(l, x) for l in range(1, 11)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_sum_series(ConstructionParams(2, 2), DyadicPoint.zero(), 0)

    def test_big_int_coefficients_do_not_wrap(self):
        # coefficients whose exact prefix sums pass 2^63: the cumulative sum
        # must stay in Python ints, also for int64 input (2^61·2^2 >= 2^62)
        for numerators in (
            np.array([1 << 62] * 4, dtype=object),
            np.array([1 << 61] * 4, dtype=np.int64),
        ):
            peak = int(numerators[0])
            coeffs = GridVector(2, numerators, 1)
            sums = _partial_sums_scaled(coeffs, DyadicPoint.zero())
            assert sums.dtype == object
            assert list(sums) == [k * peak for k in range(1, 5)]


@st.composite
def grid_and_point(draw):
    """A GridVector (int64 or big-int numerators) and a point x with e ≤ K."""
    K = draw(st.integers(min_value=0, max_value=10))
    e = draw(st.integers(min_value=0, max_value=K))
    a = draw(st.integers(min_value=0, max_value=(1 << e) - 1))
    peak = draw(st.sampled_from([1 << 20, 1 << 80]))  # int64 / object grid
    nums = draw(st.lists(st.integers(-peak, peak), min_size=1 << K, max_size=1 << K))
    den = draw(st.integers(min_value=1, max_value=1 << 40))
    return GridVector(K, np.array(nums, dtype=object), den), DyadicPoint(a, e)


class TestPartialSumFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(grid_and_point())
    def test_period_row_matches_full_length_row(self, case):
        coeffs, x = case
        K = coeffs.resolution
        full = walsh_sign_row(bit_reverse(x.scaled_numerator(K), K), 1 << K)
        expected = np.cumsum(coeffs.numerators * full)
        sums = _partial_sums_scaled(coeffs, x)
        assert sums.dtype == coeffs.numerators.dtype
        assert sums.shape == (1 << K,)
        assert [int(v) for v in sums] == [int(v) for v in expected]

    def test_every_exponent_at_k10(self):
        rng = np.random.default_rng(3)
        nums = rng.integers(-(1 << 40), 1 << 40, size=1 << 10)
        for coeffs in (GridVector(10, nums, 7),
                       GridVector(10, nums.astype(object) << 30, 7)):
            for e in range(11):
                x = DyadicPoint(int(rng.integers(0, 1 << e)) | (e > 0), e)
                rx = bit_reverse(x.scaled_numerator(10), 10)
                expected = np.cumsum(coeffs.numerators * walsh_sign_row(rx, 1 << 10))
                assert np.array_equal(_partial_sums_scaled(coeffs, x), expected)

    def test_count_above_past_int64_cutoff(self):
        # cutoff ≥ 2^63: the two one-sided counts must agree with |S| > cutoff
        big = Fraction((1 << 65) + 1, 3)
        for sums, at_den_1 in (
            (np.array([0, -1, 1 << 62, -(1 << 62), (1 << 63) - 1]), 0),
            (np.array([1 << 70, -(1 << 70), 1 << 64, -(1 << 64), 5], dtype=object), 4),
        ):
            for den in (1, 3, 1 << 10):
                cutoff = big.numerator * den // big.denominator
                assert cutoff >= 1 << 63
                expected = int(np.count_nonzero(np.abs(sums) > cutoff))
                assert _count_above(sums, den, big) == expected
            assert _count_above(sums, 1, big) == at_den_1


class TestVerifyLemma1:
    def test_branch_split_over_all_cells(self):
        p = ConstructionParams(2, 2)
        split = {"support": 0, "progression": 0, "no selector": 0}
        for j in range(16):
            report = verify_lemma1(p, DyadicPoint(j, 4))
            assert report.ok
            rows = row_map(report)
            if rows["branch"].lhs_exact == "1 (x in supp f)":
                split["support"] += 1
            elif any(r.verdict == "vacuous" and "selector" in r.assertion
                     for r in report.rows):
                split["no selector"] += 1
            else:
                split["progression"] += 1
        assert split == {"support": 8, "progression": 2, "no selector": 6}

    def test_support_branch_frozen(self):
        report = verify_lemma1(ConstructionParams(2, 2), DyadicPoint.zero())
        rows = row_map(report)
        assert rows["|f(x)| >= 2^gamma"].lhs_exact == "1009"
        assert rows["S_l(x) = f(x) for l >= q"].lhs_exact == "symbolic+grid"
        assert rows["density at N=2q >= 1/2"].lhs_exact == "2047/2048"
        assert report.ok

    def test_progression_branch_frozen(self):
        report = verify_lemma1(ConstructionParams(2, 2), DyadicPoint(11, 4))
        rows = row_map(report)
        assert ("m", "2") in report.parameters
        assert ("p", "10") in report.parameters
        assert ("k", "3") in report.parameters
        assert rows["w_l(theta_j) = 1 on the progression"].witness == "window [256, 1024)"
        assert rows["|S_l| >= integral - 1 on the progression"].witness == "integral=3/8"
        assert (
            rows["exceedance density at N=2q (reported)"].lhs_exact == "1589/4096"
        )
        assert report.ok

    def test_second_progression_point(self):
        report = verify_lemma1(ConstructionParams(2, 2), DyadicPoint(3, 4))
        rows = row_map(report)
        assert rows["w_l(theta_j) = 1 on the progression"].witness == "window [16, 64)"
        assert rows["exceedance density at N=2q (reported)"].lhs_exact == "1481/4096"

    def test_point_finer_than_the_grid_is_counted(self):
        # x has 20 digits, q = 2^12: every cut below q reads x's level-12 cell
        p, x = ConstructionParams(2, 2), DyadicPoint(12345, 20)
        rows = row_map(verify_lemma1(p, x))
        assert rows["S_l(x) = f(x) for l >= q"].lhs_exact == "symbolic+grid"
        assert rows["density at N=2q >= 1/2"].lhs_exact == "8121/8192"
        f = build_fn(p)
        low = sum(abs(f.partial_sum(l, x)) > Fraction(1, 20) for l in range(1, p.q + 1))
        assert abs(f.value(x)) > Fraction(1, 20)
        assert Fraction(low + p.q, 2 * p.q) == Fraction(8121, 8192)

    def test_large_n_is_infeasible(self):
        for n in (14, 25, 30):  # c·4^n past the construction bound 2^28
            with pytest.raises(ValueError, match="too large to build"):
                verify_lemma1(ConstructionParams(n), DyadicPoint.zero())


class TestChainCheck:
    def test_main_scale_passes(self):
        report = chain_check(151, 1, EXP_POW_2)
        assert report.ok
        assert len(report.rows) == 8
        rows = row_map(report)
        assert rows["gamma = floor(log2 exp(n/36))"].lhs_exact == "6"
        assert rows["Phi(n/(50*2^k)) > exp(2n)"].witness == "does not hold"
        assert (
            rows["minimal n with Phi(n/(50*2^k)) > exp(2n)"].lhs_exact == "20001"
        )

    def test_sweep_of_the_working_range(self):
        assert all(chain_check(n, 1, EXP_POW_2).ok for n in range(151, 301))

    def test_margin_flips_at_121(self):
        low = chain_check(120, 1, EXP_POW_2)
        assert {r.assertion for r in low.failures()} == {
            "n/30 - 1 > n/40 (needs n > 120)",
            "n/30 - 1 - n/200 > n/50 (needs n > 120)",
        }
        assert chain_check(121, 1, EXP_POW_2).ok

    def test_divergence_display_fails_honestly_in_thin_band(self):
        # at n = 1 the growth condition holds but the displayed constant
        # inequality (and the n > 120 margins) genuinely fail
        report = chain_check(1, 1, PhiSpec("exp_linear", 250))
        assert not report.ok
        rows = row_map(report)
        assert rows["Phi(n/(50*2^k)) > exp(2n)"].witness == "holds"
        assert rows["2^(-2n-1)*Phi(t) >= (e/2)^(2n)"].verdict == "fail"

    def test_never_attaining_kinds_report_none(self):
        report = chain_check(200, 1, PhiSpec("power", 2))
        rows = row_map(report)
        row = rows["minimal n with Phi(n/(50*2^k)) > exp(2n)"]
        assert row.lhs_exact == "none"
        assert "power" in row.witness

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_check(151, 0, EXP_POW_2)
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            chain_check(0, 1, EXP_POW_2)


class TestGrowthThreshold:
    def test_exact_false_branches(self):
        assert not c3_holds(PhiSpec("exp_linear", 100), 400, 1)  # X = n <= 2n
        assert not c3_holds(PhiSpec("power", 2), 10, 1)  # t <= 1
        assert not c3_holds(PhiSpec("power", 2), 200, 1)  # p ln t far below 2n

    def test_threshold_boundary(self):
        assert not c3_holds(EXP_POW_2, 20000, 1)
        assert c3_holds(EXP_POW_2, 20001, 1)

    def test_minimal_n_frozen(self):
        minima = [minimal_n_for_c3(EXP_POW_2, k) for k in range(25)]
        assert minima[:5] == [5001, 20001, 80001, 320001, 1280001]
        # t^2 > 2n reads n > 2·(50·2^k)^2 = 5000·4^k
        assert minima == [5000 * 4**k + 1 for k in range(25)]

    @pytest.mark.parametrize("alpha, minima", [
        (Fraction(3, 2), [4000001, 32000001, 256000001]),
        (Fraction(5, 3), [282843, 1600001]),
    ])
    def test_minimal_n_at_fractional_alpha(self, alpha, minima):
        phi = PhiSpec("exp_power", alpha)
        assert [minimal_n_for_c3(phi, k) for k in range(1, len(minima) + 1)] == minima

    @pytest.mark.parametrize("c, k, n", [
        (300, 1, 1), (201, 1, 2), (101, 0, 2), (1001, 3, 1),
        (100 * 2**10 + 1, 10, 5), (100 * 2**40 + 1, 40, 15),
    ])
    def test_minimal_n_for_exp_linear_frozen(self, c, k, n):
        assert minimal_n_for_c3(PhiSpec("exp_linear", c), k) == n

    @pytest.mark.parametrize("k", range(1, 31))
    def test_exact_tie_is_decided(self, k):
        # at n = 4·(50·2^k)^3, t^(3/2) = 2n exactly: no enclosure separates
        # X from 2n, and ln(1 + e^{2n}) > 2n makes (c3) false there
        phi = PhiSpec("exp_power", Fraction(3, 2))
        n = 4 * (50 << k) ** 3
        assert not c3_holds(phi, n, k)
        assert c3_holds(phi, n + 1, k)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda b: st.tuples(st.integers(b + 1, 3 * b), st.just(b))
        ),
        st.integers(0, 8),
        st.integers(-64, 64),
        st.integers(1, 10**6),
    )
    def test_exact_decision_matches_enclosures(self, ab, k, offset, n_far):
        # n near the closed-form threshold, where the two sides are closest
        a, b = ab
        phi = PhiSpec("exp_power", Fraction(a, b))
        near = round((2**b * (50 << k) ** a) ** (1 / (a - b)))
        for n in (max(1, near + offset), n_far):
            t = Fraction(n, 50 << k)
            assume(t**a != (2 * n) ** b)
            assert c3_holds(phi, n, k) == c3_by_enclosures(phi, n, k)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 8), st.integers(-50, 50), st.integers(1, 40))
    def test_exact_linear_decision_matches_enclosures(self, k, dc, n):
        # c = 100·2^k + dc, so c·t - 2n = n·dc/(50·2^k)
        assume(dc != 0)
        phi = PhiSpec("exp_linear", (100 << k) + dc)
        assert c3_holds(phi, n, k) == c3_by_enclosures(phi, n, k)

    def test_minimal_n_for_fast_exponential(self):
        # c > 100*2^k: threshold where cn/(50*2^k) - 2n clears ln(1+e^{2n})
        n = minimal_n_for_c3(PhiSpec("exp_linear", 300), 1)
        assert not c3_holds(PhiSpec("exp_linear", 300), n - 1, 1)
        assert c3_holds(PhiSpec("exp_linear", 300), n, 1)

    def test_rejects_kinds_without_a_threshold(self):
        with pytest.raises(ValueError):
            minimal_n_for_c3(PhiSpec("power", 5), 1)
        with pytest.raises(ValueError):
            minimal_n_for_c3(PhiSpec("exp_power", 1), 1)
        with pytest.raises(ValueError):
            minimal_n_for_c3(PhiSpec("exp_linear", 200), 1)  # needs c > 100*2^k


class TestReports:
    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            AssertionRecord("a", "1", "2", "maybe")

    def test_ok_semantics(self):
        rows = (
            AssertionRecord("a", "1", "2", "pass"),
            AssertionRecord("b", "-", "-", "vacuous"),
            AssertionRecord("c", "3", "", "reported"),
        )
        assert LemmaReport("demo", rows).ok
        with_fail = rows + (AssertionRecord("d", "0", "1", "fail"),)
        report = LemmaReport("demo", with_fail)
        assert not report.ok
        assert [r.assertion for r in report.failures()] == ["d"]

    def test_csv_quoting(self):
        report = LemmaReport(
            "demo",
            (AssertionRecord("a,b", "1", "2", "pass", 'say "hi", twice'),),
            (("n", "3"),),
        )
        text = report.to_csv()
        assert text.startswith("# n=3\n")
        assert "lemma,assertion,lhs_exact,rhs_exact,verdict,witness" in text
        assert '"a,b"' in text
        assert '"say ""hi"", twice"' in text

    def test_text_rendering(self):
        report = LemmaReport(
            "demo", (AssertionRecord("a", "1", "2", "fail"),), (("n", "3"),)
        )
        text = report.to_text()
        assert "[demo] n=3" in text
        assert "FAIL" in text
        assert "1 FAILED" in text
