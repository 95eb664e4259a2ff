"""Exact dyadic rationals in [0, 1), dyadic cells, and the dyadic group.

Every evaluation point in this package is a dyadic rational a / 2**e with a
finite binary expansion.  This module provides:

- :class:`DyadicPoint` — canonical exact point, with digit access;
- the group operation :func:`xor_add` (digitwise XOR, no carries);
- :func:`cell_index`, the index k of the level-j cell [k/2**j, (k+1)/2**j)
  that holds a point, as a plain integer.

Conventions
-----------
Cells are half-open [a, b).  Digits use the *terminating* expansion
(x_i eventually 0), so 1/2 has digits (1, 0, 0, ...): this makes every
digit-driven function right-continuous and keeps the half-open convention
consistent (a boundary point belongs to the cell on its right).

``Rat`` is an alias for :class:`fractions.Fraction`: reduced exact rational
arithmetic with no rounding, used for all integrals, norms and means.

All values are immutable after construction and every operation is pure, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Rat",
    "DyadicPoint",
    "bit",
    "xor_add",
    "cell_index",
    "parse_point",
]

#: Exact rational scalar type (always reduced; exact arithmetic, no rounding).
Rat = Fraction

_POINT_RE = re.compile(r"^\s*(\d+)\s*/\s*2\^(\d+)\s*$")


@dataclass(frozen=True)
class DyadicPoint:
    """Exact point ``numerator / 2**exponent`` in [0, 1).

    Canonical form: ``numerator`` is odd, or ``numerator == 0`` with
    ``exponent == 0``.  Construction normalizes, so equality is structural.

    The binary digits x_1, x_2, ... of the value (x = Σ x_i 2**-i) are the
    finite terminating expansion; digit j is ``bit(x, j)``.
    """

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        num, exp = self.numerator, self.exponent
        if exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {exp}")
        if not 0 <= num < (1 << exp):
            raise ValueError(f"{num}/2^{exp} is outside [0, 1)")
        if num == 0:
            exp = 0
        else:
            # Strip trailing zero bits so the numerator is odd.
            shift = (num & -num).bit_length() - 1
            num >>= shift
            exp -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DyadicPoint":
        return cls(0, 0)

    # -- rescaling ---------------------------------------------------------

    def scaled_numerator(self, e: int) -> int:
        """Numerator of the point written over denominator 2**e (e >= exponent)."""
        if e < self.exponent:
            raise ValueError(f"cannot rescale 2^{self.exponent} point to 2^{e}")
        return self.numerator << (e - self.exponent)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form ``a/2^e``."""
        return f"{self.numerator}/2^{self.exponent}"

    def __str__(self) -> str:
        return self.to_text()


# -- operations ------------------------------------------------------------


def bit(x: DyadicPoint, j: int) -> int:
    """The j-th binary digit x_j of x (j >= 1), terminating expansion."""
    if j < 1:
        raise ValueError(f"digit index must be >= 1, got {j}")
    if j > x.exponent:
        return 0
    return (x.numerator >> (x.exponent - j)) & 1


def xor_add(x: DyadicPoint, y: DyadicPoint) -> DyadicPoint:
    """Dyadic addition x ⊕ y: digitwise XOR of the binary expansions.

    Commutative, associative, identity 0, and self-inverse (x ⊕ x = 0); no
    carries ever occur, so digits satisfy bit(x ⊕ y, j) = bit(x, j) ^ bit(y, j).
    """
    e = max(x.exponent, y.exponent)
    num = x.scaled_numerator(e) ^ y.scaled_numerator(e)
    return DyadicPoint(num, e)


def cell_index(x: DyadicPoint, level: int) -> int:
    """The index k of the level-``level`` cell [k/2**level, (k+1)/2**level) holding x."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level >= x.exponent:
        return x.numerator << (level - x.exponent)
    return x.numerator >> (x.exponent - level)


# -- parsing ---------------------------------------------------------------


def parse_point(text: str) -> DyadicPoint:
    """Parse the text form ``a/2^e`` (also accepts the bare integer ``0``)."""
    if text.strip() == "0":
        return DyadicPoint.zero()
    match = _POINT_RE.match(text)
    if match is None:
        raise ValueError(f"expected 'a/2^e', got {text!r}")
    return DyadicPoint(int(match.group(1)), int(match.group(2)))

