"""Symbolic atoms: pointwise values, exact spectra, and closed-form prefixes.

The load-bearing check is the dual path: every atom sum is rendered onto a
grid, transformed, and its prefix sums compared cut-by-cut against the
symbolic closed forms — exact equality, no tolerance.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from walshdiv.atoms import (
    AtomSum,
    IndicatorAtom,
    KernelAtom,
    SpectralBlock,
)
from walshdiv.dyadic import DyadicPoint, xor_add
from walshdiv.walsh import dirichlet, fwht, walsh

from oracles import grid_of, low_pass, norm1, values_of


def random_atom_sum(rng: random.Random) -> AtomSum:
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.5:
            level = rng.randrange(0, 6)
            mask = np.array([rng.random() < 0.5 for _ in range(1 << level)])
            coef = Fraction(rng.randrange(-6, 7) or 1, rng.randrange(1, 5))
            atoms.append(
                IndicatorAtom(coef, level, mask, rng.randrange(1 << level))
            )
        else:
            order = 1 << rng.randrange(0, 7)
            shift = DyadicPoint(rng.randrange(0, 1 << 6), 6)
            coef = Fraction(rng.randrange(-6, 7) or 1, rng.randrange(1, 5))
            atoms.append(KernelAtom(coef, order, shift))
    # every atom's spectrum lies below 2^level, the atom's own or the sum's
    return AtomSum(atoms, [SpectralBlock(0, 1 << max(a.level for a in atoms))])


class TestSpectralBlock:
    def test_rejects_empty_or_negative_ranges(self):
        with pytest.raises(ValueError):
            SpectralBlock(3, 3)
        with pytest.raises(ValueError):
            SpectralBlock(-1, 2)

    def test_owners_normalized_to_tuple(self):
        assert SpectralBlock(0, 4, ["a", "b"]).owners == ("a", "b")


class TestIndicatorAtom:
    def atom(self) -> IndicatorAtom:
        mask = np.array([True, False, True, False])
        return IndicatorAtom(Fraction(3, 2), 2, mask, 3)

    def test_value_is_masked_character(self):
        a = self.atom()
        for i in range(4):
            x = DyadicPoint(2 * i + 1, 3)  # interior points of the 4 cells
            want = Fraction(3, 2) * walsh(3, x) if i in (0, 2) else Fraction(0)
            assert a.value(x) == want

    def test_coefficient_table_matches_sampled_transform(self):
        a = self.atom()
        sampled = grid_of(
            2, [a.value(DyadicPoint(i, 2)) for i in range(4)]
        )
        assert a.coefficient_table() == fwht(sampled)

    def test_prefix_interpolates_between_zero_and_value(self):
        a = self.atom()
        x = DyadicPoint(5, 3)
        table = a.coefficient_table()
        for cut in range(0, 5):
            want = sum(
                (table[m] * walsh(m, x) for m in range(cut)), Fraction(0)
            )
            assert a.prefix(cut, x) == want
        assert a.prefix(0, x) == 0
        assert a.prefix(4, x) == a.value(x)
        assert a.prefix(10**9, x) == a.value(x)

    def test_norm1_is_mask_measure(self):
        assert self.atom().norm1() == Fraction(3, 2) * Fraction(2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndicatorAtom(1, 2, np.array([True] * 3), 0)  # wrong mask size
        with pytest.raises(ValueError):
            IndicatorAtom(1, 2, np.array([True] * 4), 4)  # unresolved character


class TestKernelAtom:
    def test_value_is_translated_kernel(self):
        theta = DyadicPoint(3, 3)
        a = KernelAtom(Fraction(-1, 2), 8, theta)
        for i in range(16):
            x = DyadicPoint(i, 4)
            assert a.value(x) == Fraction(-1, 2) * dirichlet(8, xor_add(x, theta))

    def test_prefix_telescopes_into_smaller_kernel(self):
        # the atom's coefficient at m < u is coef · w_m(θ), so the prefix at
        # cut l is the literal character sum below min(l, u)
        theta = DyadicPoint(5, 4)
        a = KernelAtom(Fraction(2), 16, theta)
        x = DyadicPoint(7, 4)
        for cut in (0, 1, 5, 16, 40):
            want = 2 * sum(
                (walsh(m, theta) * walsh(m, x) for m in range(min(cut, 16))),
                Fraction(0),
            )
            assert a.prefix(cut, x) == want

    def test_norm1_is_coefficient_magnitude(self):
        assert KernelAtom(Fraction(-5, 3), 4, DyadicPoint.zero()).norm1() == Fraction(5, 3)

    def test_rejects_non_power_of_two_orders(self):
        with pytest.raises(ValueError):
            KernelAtom(1, 12, DyadicPoint.zero())
        with pytest.raises(ValueError):
            KernelAtom(1, 0, DyadicPoint.zero())


class TestAtomSum:
    def test_value_is_atomwise_sum(self):
        rng = random.Random(21)
        for _ in range(20):
            s = random_atom_sum(rng)
            x = DyadicPoint(rng.randrange(0, 1 << 8), 8)
            assert s.value(x) == sum(
                (a.value(x) for a in s.atoms), Fraction(0)
            )

    def test_render_matches_pointwise_values(self):
        rng = random.Random(22)
        sums = [random_atom_sum(rng) for _ in range(10)]
        # a coefficient >= 2^62 takes render's big-int accumulator
        sums.append(AtomSum([
            KernelAtom(Fraction(1 << 62, 3), 4, DyadicPoint(5, 6)),
            IndicatorAtom(-1, 2, np.array([True, False, True, True]), 3),
        ], [SpectralBlock(0, 4)]))
        for s in sums:
            g = s.render(8)
            for i in (0, 1, 17, 100, 255):
                assert g[i] == s.value(DyadicPoint(i, 8))

    def test_dual_path_partial_sums(self):
        # symbolic closed-form prefixes == transform-then-prefix on the grid
        rng = random.Random(23)
        for _ in range(8):
            s = random_atom_sum(rng)
            coeffs = fwht(s.render(8))
            x = DyadicPoint(rng.randrange(0, 1 << 8), 8)
            signs = [walsh(m, x) for m in range(256)]
            running = Fraction(0)
            for cut in range(257):
                assert s.partial_sum(cut, x) == running
                if cut < 256:
                    running += coeffs[cut] * signs[cut]

    def test_low_pass_renders_the_leading_coefficients(self):
        # Paley's lemma: low_pass(L) on 2^L cells has the first 2^L coefficients
        rng = random.Random(31)
        for _ in range(12):
            s = random_atom_sum(rng)
            full = fwht(s.render(8))
            floor = max((a.level for a in s.atoms if isinstance(a, IndicatorAtom)),
                        default=0)
            for level in range(floor, 9):
                low = fwht(low_pass(s, level).render(level))
                assert values_of(low) == values_of(full)[: 1 << level]

    def test_partial_sum_beyond_spectrum_is_the_value(self):
        rng = random.Random(24)
        s = random_atom_sum(rng)
        x = DyadicPoint(11, 8)
        assert s.partial_sum(s.max_spectral_index, x) == s.value(x)

    def test_norm1_certificate_dominates_true_norm(self):
        rng = random.Random(25)
        for _ in range(10):
            s = random_atom_sum(rng)
            assert norm1(s.render(8)) <= s.norm1_certificate()

    def test_level_and_spectral_bounds(self):
        s = AtomSum(
            [
                KernelAtom(1, 16, DyadicPoint(1, 6)),
                IndicatorAtom(1, 3, np.ones(8, dtype=bool), 0),
            ],
            [SpectralBlock(0, 16, ("kernel", "indicator"))],
        )
        assert s.level == 6
        assert s.max_spectral_index == 16

    def test_render_rejects_finer_atoms_and_big_grids(self):
        s = AtomSum([KernelAtom(1, 1 << 10, DyadicPoint.zero())], [SpectralBlock(0, 1 << 10)])
        with pytest.raises(ValueError):
            s.render(8)  # atom level 10 > resolution 8
        with pytest.raises(ValueError):
            s.render(30)  # above the default cap
