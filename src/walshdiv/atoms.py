"""Sparse symbolic Walsh polynomials: indicator and translated-kernel atoms.

An :class:`AtomSum` represents a Walsh polynomial as a list of atoms:

- :class:`IndicatorAtom` — coef · 1_E(x) · w_c(x) for a set E that is a
  union of cells at one dyadic level (stored as a boolean mask);
- :class:`KernelAtom` — coef · D_u(x ⊕ θ) for a power-of-two order u.

Both evaluate pointwise in time polynomial in log(order) plus the mask size,
with no global grid.  Each atom also knows its exact *prefix cut*: the value
of Σ_{m<l} (its coefficient at m) · w_m(x) for any cut l, which is what makes
whole-sum partial sums closed-form:

- a translated kernel D_u(· ⊕ θ) has coefficient w_m(θ) at every m < u, so
  its prefix at cut l is D_{min(l,u)}(x ⊕ θ);
- an indicator atom is a step function at its mask level L, so its spectrum
  lives below 2**L; a small exact transform of the mask yields the full
  coefficient table and hence any prefix.

Spectral blocks are recorded on the AtomSum as half-open index intervals
[lo, hi) with owner labels.  The builder supplies them, sorted and pairwise
disjoint, because only it knows the cancellations (kernel pairs sharing a
shift) that make the recorded spectrum tight; the sum stores them as given.

Atoms and sums are immutable after construction; all methods are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .dyadic import DyadicPoint, containing_interval, xor_add
from .walsh import GRID_CAP, ExactSeries, GridVector, dirichlet, fwht, walsh

__all__ = [
    "SpectralBlock",
    "IndicatorAtom",
    "KernelAtom",
    "AtomSum",
]

@dataclass(frozen=True)
class SpectralBlock:
    """Half-open spectral index interval [lo, hi) with owner labels."""

    lo: int
    hi: int
    owners: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"bad spectral block [{self.lo}, {self.hi})")
        object.__setattr__(self, "owners", tuple(self.owners))


class IndicatorAtom:
    """coef · 1_E(x) · w_character(x), E a union of level-``level`` cells."""

    __slots__ = ("coefficient", "level", "mask", "character", "_table")

    def __init__(
        self,
        coefficient: Fraction | int,
        level: int,
        mask: np.ndarray,
        character: int,
    ):
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (1 << level,):
            raise ValueError(f"mask must have 2^{level} entries")
        if not 0 <= character < (1 << level):
            raise ValueError(
                f"character {character} is not resolved at level {level}"
            )
        self.coefficient = Fraction(coefficient)
        self.level = level
        self.mask = mask
        self.character = character
        self._table: GridVector | None = None
        mask.setflags(write=False)

    # -- pointwise -----------------------------------------------------------

    def cell_index(self, x: DyadicPoint) -> int:
        return containing_interval(x, self.level).index

    def value(self, x: DyadicPoint) -> Fraction:
        if not self.mask[self.cell_index(x)]:
            return Fraction(0)
        return self.coefficient * walsh(self.character, x)

    # -- spectrum --------------------------------------------------------------

    def coefficient_table(self) -> GridVector:
        """Exact Walsh coefficients (index m < 2**level) of this atom."""
        if self._table is None:
            sign_row = GridVector.sample_walsh(self.character, self.level)
            nums = np.where(self.mask, sign_row.numerators, 0)
            vals = GridVector(self.level, nums, 1).scaled(self.coefficient)
            self._table = fwht(vals)
        return self._table

    def spectrum(self) -> list[int]:
        """Indices with nonzero coefficient, ascending (exact)."""
        return self.coefficient_table().nonzero_indices()

    def spectral_block(self) -> SpectralBlock:
        support = self.spectrum()
        if support:
            return SpectralBlock(support[0], support[-1] + 1, ("indicator",))
        return SpectralBlock(0, 1, ("indicator",))

    # -- closed-form prefix ----------------------------------------------------

    def prefix(self, cut: int, x: DyadicPoint) -> Fraction:
        """Σ_{m<cut} (coefficient of this atom at m) · w_m(x), exact."""
        if cut <= 0:
            return Fraction(0)
        if cut >= 1 << self.level:
            return self.value(x)
        table = self.coefficient_table()
        total = Fraction(0)
        for m in table.nonzero_indices():
            if m >= cut:
                break
            total += table[m] * walsh(m, x)
        return total

    # -- aggregates --------------------------------------------------------------

    def norm1(self) -> Fraction:
        """Exact L1 norm: |coef| times the measure of the mask."""
        return abs(self.coefficient) * Fraction(
            int(np.count_nonzero(self.mask)), 1 << self.level
        )

    def render_into(self, nums: np.ndarray, resolution: int, den: int) -> None:
        scale = self.coefficient * den
        if scale.denominator != 1:
            raise ValueError("common denominator does not clear the coefficient")
        sign_row = GridVector.sample_walsh(self.character, self.level).numerators
        cellvals = np.where(self.mask, sign_row, 0).astype(nums.dtype) * scale.numerator
        nums += np.repeat(cellvals, 1 << (resolution - self.level))


class KernelAtom:
    """coef · D_u(x ⊕ θ) for a power-of-two order u and dyadic shift θ."""

    __slots__ = ("coefficient", "order", "shift")

    def __init__(self, coefficient: Fraction | int, order: int, shift: DyadicPoint):
        if order < 1 or order & (order - 1):
            raise ValueError(f"kernel order must be a power of two, got {order}")
        self.coefficient = Fraction(coefficient)
        self.order = order
        self.shift = shift

    @property
    def level(self) -> int:
        """The atom is a step function on cells of this level."""
        return max(self.order.bit_length() - 1, self.shift.exponent)

    def value(self, x: DyadicPoint) -> Fraction:
        return self.coefficient * dirichlet(self.order, xor_add(x, self.shift))

    def prefix(self, cut: int, x: DyadicPoint) -> Fraction:
        """Prefix at cut l: coef · D_{min(l, u)}(x ⊕ θ), exact for every l.

        The atom's coefficient at index m is coef · w_m(θ) for m < u and 0
        beyond, so the prefix sum telescopes back into a smaller kernel.
        """
        effective = min(cut, self.order)
        if effective <= 0:
            return Fraction(0)
        return self.coefficient * dirichlet(effective, xor_add(x, self.shift))

    def norm1(self) -> Fraction:
        return abs(self.coefficient)  # ∫ |D_u| = u · (1/u) = 1

    def render_into(self, nums: np.ndarray, resolution: int, den: int) -> None:
        s = self.order.bit_length() - 1
        scale = self.coefficient * self.order * den
        if scale.denominator != 1:
            raise ValueError("common denominator does not clear the coefficient")
        start = containing_interval(self.shift, s).index << (resolution - s)
        nums[start : start + (1 << (resolution - s))] += scale.numerator


Atom = IndicatorAtom | KernelAtom


class AtomSum:
    """A finite sum of atoms with the spectral blocks its builder records."""

    __slots__ = ("atoms", "spectral_blocks")

    def __init__(self, atoms: Iterable[Atom], spectral_blocks: Iterable[SpectralBlock]):
        self.atoms = tuple(atoms)
        self.spectral_blocks = tuple(spectral_blocks)

    # -- geometry ------------------------------------------------------------

    @property
    def level(self) -> int:
        """All atoms are step functions on cells of this (maximal) level."""
        return max((a.level for a in self.atoms), default=0)

    @property
    def max_spectral_index(self) -> int:
        """Exclusive upper end of the recorded spectrum."""
        return max((b.hi for b in self.spectral_blocks), default=0)

    # -- pointwise -----------------------------------------------------------

    def value(self, x: DyadicPoint) -> Fraction:
        return sum((a.value(x) for a in self.atoms), Fraction(0))

    def partial_sum(self, cut: int, x: DyadicPoint) -> Fraction:
        """Exact S_cut(x) = Σ_{m<cut} f̂(m) w_m(x), atom by atom, at any cut."""
        if cut < 0:
            raise ValueError(f"cut must be nonnegative, got {cut}")
        return sum((a.prefix(cut, x) for a in self.atoms), Fraction(0))

    # -- aggregates ------------------------------------------------------------

    def norm1_certificate(self) -> Fraction:
        """Triangle-inequality upper bound Σ |coef_a| · ||atom_a||_1, exact."""
        return sum((a.norm1() for a in self.atoms), Fraction(0))

    # -- rendering ---------------------------------------------------------------

    def render(self, resolution: int) -> GridVector:
        """Exact step-function rendering on the 2**-resolution grid.

        Requires every atom level to be at most ``resolution`` (so the
        rendering is exact, not a sampling) and resolution <= GRID_CAP.
        """
        if resolution > GRID_CAP:
            raise ValueError(
                f"resolution {resolution} exceeds the grid cap {GRID_CAP}"
            )
        if self.level > resolution:
            raise ValueError(
                f"atom at level {self.level} is finer than resolution {resolution}"
            )
        weights = [
            a.coefficient * a.order if isinstance(a, KernelAtom) else a.coefficient
            for a in self.atoms
        ]
        den = math.lcm(*(w.denominator for w in weights))
        # a priori bound on every cell numerator; the series' own dtype rule
        # at this peak picks the accumulator
        peak = sum(abs(w.numerator) * (den // w.denominator) for w in weights)
        dtype = ExactSeries([peak << resolution], 1).numerators.dtype
        nums = np.zeros(1 << resolution, dtype=dtype)
        for a in self.atoms:
            a.render_into(nums, resolution, den)
        return GridVector(resolution, nums, den)

