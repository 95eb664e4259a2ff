"""The window census of S_1 … S_N(x, f_n) against the transform and symbolic oracles.

The census must equal ``np.unique`` over the transform oracle's series in
values, counts and order of first occurrence, and the drift-aware
``count_above`` must equal a plain count over that series, at every point
including x = 0 and every θ_j, where S_l drifts with l.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walshdiv import counterexample
from walshdiv.counterexample import ConstructionParams, WindowSums
from walshdiv.dyadic import DyadicPoint
from walshdiv.walsh import ExactSeries

from oracles import _count_above, census_items, census_of, symbolic_census, transform_scaled

#: The transform oracle renders 2^16 cells at most here.
ORACLE_CUTS = 1 << 16

THRESHOLDS = (Fraction(0), Fraction(3, 40), Fraction(1, 2), Fraction(3, 2), Fraction(5))


def assert_matches_transform(params, x, N, thresholds=THRESHOLDS):
    scaled, den = transform_scaled(params, x, N)
    sums = WindowSums(params, x, N)
    assert census_items(sums.census()) == census_items(census_of(ExactSeries(scaled, den), N))
    for bound in thresholds:
        assert sums.count_above(bound) == _count_above(scaled, den, bound)


def interesting_cuts(params):
    """Cut counts at and around every run boundary the oracle can render."""
    edges = [1, 1 << (params.n + 2)] + [params.u(j) for j in range(1, params.p + 1)]
    cuts = {e + d for e in edges for d in (-1, 0, 1)} | {2 * params.q}
    return sorted(N for N in cuts if 1 <= N <= ORACLE_CUTS)


def draw_point(draw, params):
    """x = 0, some θ_j, or a random point of at most 8 digits."""
    special = [DyadicPoint.zero(), *params.thetas()]
    e = draw(st.integers(0, 8))
    return draw(st.sampled_from(special) | st.builds(DyadicPoint, st.integers(0, (1 << e) - 1),
                                                     st.just(e)))


@st.composite
def case(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(2, 4))
    params = ConstructionParams(n, c)
    x = draw_point(draw, params)
    N = draw(st.integers(1, min(2 * params.q, ORACLE_CUTS)))
    bounds = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=80),
                           min_size=1, max_size=3))
    return params, x, N, bounds


class TestCensusAgainstTheTransform:
    @settings(max_examples=60, deadline=None)
    @given(case())
    def test_random_points_and_cut_counts(self, drawn):
        params, x, N, bounds = drawn
        assert_matches_transform(params, x, N, bounds)

    @pytest.mark.parametrize("n, c", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_zero_and_every_translation(self, n, c):
        params = ConstructionParams(n, c)
        for x in (DyadicPoint.zero(), *params.thetas()):
            for N in interesting_cuts(params):
                assert_matches_transform(params, x, N)

    def test_series_and_single_cuts(self):
        params = ConstructionParams(2, 2)
        for x in (DyadicPoint(5, 4), DyadicPoint(7, 5), DyadicPoint(12345, 20)):
            scaled, den = transform_scaled(params, x, 2 * params.q)
            sums = WindowSums(params, x, 2 * params.q)
            assert [v * den for v in sums.series()] == [int(v) for v in scaled]
            for l in (1, 16, 17, 64, 65, 1000, params.q, 2 * params.q):
                assert sums.at(l) == Fraction(int(scaled[l - 1]), den)


def assert_prefixes_match(params, x, cuts):
    """Each census read off one build at the largest cut count equals a fresh build's."""
    sums = WindowSums(params, x, max(cuts))
    for N in cuts:
        # Census equality covers values, counts, order and the denominator
        assert sums.census(N) == WindowSums(params, x, N).census(), N


@st.composite
def prefix_case(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(2, 4))
    params = ConstructionParams(n, c)
    x = draw_point(draw, params)
    cuts = draw(st.lists(st.integers(1, min(2 * params.q, 1 << 20)), min_size=1, max_size=4,
                         unique=True))
    return params, x, sorted(cuts)


class TestCensusPrefixes:
    """``census(N)`` of one build serves every N of a list, as a fresh build would."""

    @settings(max_examples=60, deadline=None)
    @given(prefix_case())
    def test_random_points_and_cut_lists(self, drawn):
        assert_prefixes_match(*drawn)

    @pytest.mark.parametrize("n, c", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_every_translation_and_run_boundary(self, n, c):
        # at x = θ_j, S_l drifts past u_j; the cuts include N ≤ 2^(n+2),
        # every run boundary ± 1, one N in the middle of each window, and 2q
        params = ConstructionParams(n, c)
        middles = [(params.u(j) + params.u(j + 1)) // 2 for j in range(params.p)]
        cuts = sorted({*interesting_cuts(params), *(N for N in middles if N <= ORACLE_CUTS)})
        for x in (DyadicPoint.zero(), *params.thetas(), DyadicPoint(7, 5)):
            assert_prefixes_match(params, x, cuts)

    def test_past_the_grid(self):
        # the 14-entry list 2^4, 2^12, ..., 2^108 of a paper-scale table
        params = ConstructionParams(3, 10)
        cuts = [1 << e for e in (4, *range(12, 109, 8))]
        assert_prefixes_match(params, DyadicPoint(5, 6), cuts)

    def test_cut_counts_outside_the_build_are_rejected(self):
        sums = WindowSums(ConstructionParams(2, 3), DyadicPoint(7, 5), 4096)
        for N in (0, 4097):
            with pytest.raises(ValueError, match=f"cut count {N} outside"):
                sums.census(N)

    def test_drift_rejection_names_the_censused_cut_count(self):
        params = ConstructionParams(2, 10)
        theta = params.theta(2)  # 5/2^4, drifting past u_2 = 2^40
        sums = WindowSums(params, theta, params.u(2) + (1 << 30))
        assert sums.census(params.u(2)).cuts == params.u(2)
        N = params.u(2) + (1 << 26) + 1
        with pytest.raises(ValueError, match=f"the census of {N} cuts"):
            sums.census(N)


class TestDriftPoints:
    # x = θ_2, θ_4, θ_6 at n = 3: S_l drifts by l/8 past u_j, so S_1 … S_N
    # take about N distinct values; a census of them would cost O(N) memory
    POINTS = (DyadicPoint(9, 6), DyadicPoint(27, 6), DyadicPoint(45, 6))
    THRESHOLDS = (Fraction(3, 40), Fraction(1, 2), Fraction(3, 2), Fraction(5))

    def test_counts_stay_small_in_memory(self):
        params = ConstructionParams(3, 2)
        N = 2 * params.q  # 2^23
        assert set(self.POINTS) <= set(params.thetas())
        for x in self.POINTS:
            tracemalloc.start()
            try:
                counts = [WindowSums(params, x, N).count_above(b) for b in self.THRESHOLDS]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20
            scaled, den = transform_scaled(params, x, N)
            assert counts == [_count_above(scaled, den, b) for b in self.THRESHOLDS]

    def test_census_past_the_grid_cap_is_rejected(self, monkeypatch):
        params = ConstructionParams(2, 10)
        theta = params.theta(2)  # 5/2^4, drifting past u_2 = 2^40
        assert WindowSums(params, theta, params.u(2)).census().cuts == params.u(2)
        with pytest.raises(ValueError, match="drifts"):
            WindowSums(params, theta, params.u(2) + (1 << 26) + 1).census()
        # a lower cap: 64 table entries fit in 2^10, 2000 drifting cuts do not
        monkeypatch.setattr(counterexample, "GRID_CAP", 10)
        params, theta = ConstructionParams(2, 3), ConstructionParams(2, 3).theta(2)
        assert WindowSums(params, theta, params.u(2) + 1000).census()
        with pytest.raises(ValueError, match="drifts"):
            WindowSums(params, theta, params.u(2) + 2000).census()


class TestPastTheGrid:
    """Orders q far past any grid, against one symbolic cut per residue class."""

    @pytest.mark.parametrize("x", [DyadicPoint(a, 5) for a in (1, 7, 11, 22, 29)])
    def test_census_at_c10(self, x):
        params = ConstructionParams(2, 10)
        for N in (params.u(2) + 12345, 2 * params.q):
            assert census_items(WindowSums(params, x, N).census()) == symbolic_census(params, x, N)

    def test_counts_at_n3_c10(self):
        params = ConstructionParams(3, 10)
        N = 2 * params.q  # 2^111
        for x in (DyadicPoint(3, 6), DyadicPoint(33, 6), DyadicPoint(61, 6)):
            sums = WindowSums(params, x, N)
            census = symbolic_census(params, x, N)
            for bound in THRESHOLDS:
                assert sums.count_above(bound) == sum(c for v, c in census if abs(v) > bound)

    def test_tables_past_the_grid_cap_are_rejected_before_allocation(self):
        # x with 40 digits: one window period is 2^40 residues
        params = ConstructionParams(2, 10)
        with pytest.raises(ValueError, match="grid cap"):
            WindowSums(params, DyadicPoint(1, 40), 2 * params.q)
        # residues past 2^62 do not fit the int64 tables: window 6 at n = 3
        # ends at 2^100 and reads all 100 digits of x
        params = ConstructionParams(3, 10)
        with pytest.raises(ValueError, match="supports 62"):
            WindowSums(params, DyadicPoint(1, 100), 2 * params.q)
