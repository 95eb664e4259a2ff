"""Hot integer kernels, vectorized over whole arrays with numpy.

Kernels
-------
- in-place Hadamard butterflies (the core of the exact fwht), on int64 or
  on object-dtype Python big ints;
- bit-reversal index tables;
- Walsh sign rows (w_m(x) for every m below a power of two);
- Dirichlet rows (D_r(y) for every r in an array of orders, in closed form);
- the exhaustive cell scan behind the sign-change-set verification:
  membership, descent selector, and the exact (scaled) kernel integral for
  every level-(n+2) cell with x_1 = 0 at once; the top digit x_1 enters none
  of them, so these 2^(n+1) cells stand for all 2^(n+2);
- decimal text rows: a newline, an index in decimal and a suffix, for a
  whole ascending index array, written as ASCII bytes in one grid and
  decoded once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hadamard_inplace",
    "bit_reversal_table",
    "walsh_sign_row",
    "dirichlet_row",
    "cell_scan",
    "decimal_rows",
]


def hadamard_inplace(a: np.ndarray) -> None:
    """In-place unnormalized Hadamard butterflies on a length-2**K vector.

    For int64 input the caller must guarantee 2**K * max|a| fits in int64;
    object-dtype (Python big-int) input cannot overflow.
    """
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    h = 1
    while h < n:
        view = a.reshape(-1, 2, h)
        x = view[:, 0, :].copy()
        y = view[:, 1, :]
        view[:, 0, :] = x + y
        view[:, 1, :] = x - y
        h *= 2


def bit_reversal_table(k: int) -> np.ndarray:
    """rev[i] = the K-bit reversal of i, for 0 <= i < 2**K."""
    rev = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def walsh_sign_row(rx: int, size: int) -> np.ndarray:
    """Signs (-1)**popcount(m & rx) for m = 0..size-1, as int64 ±1.

    With ``rx`` the e-bit reversal of the numerator of x = a/2**e, entry m
    is w_m(x), which repeats with period 2**e in m (r_k(x) = 1 for k >= e),
    so that caller passes 2**e as ``size``.  With ``rx`` the K-bit reversal
    of n and size 2**K, entry i is w_n(i/2**K), the grid sample of w_n.
    """
    masked = np.arange(size, dtype=np.int64) & np.int64(rx)
    parity = (np.bitwise_count(masked) & 1).astype(np.int64)
    return 1 - 2 * parity


def dirichlet_row(rx: int, z: int, orders: np.ndarray) -> np.ndarray:
    """D_r(y) for every r in ``orders`` (int64, below 2**62), as int64.

    Here y = a/2**e with a odd, ``rx`` is the e-bit reversal of a and
    z = e - bitlen(a) counts the zero digits of y before its first 1.  Each
    entry is w_r(y) = (-1)**popcount(r & rx) times the closed form
    D*_r(y) = (r mod 2**z) - (r & 2**z) that
    :func:`walshdiv.walsh.dirichlet_star` derives; order 0 gives 0.
    """
    parity = (np.bitwise_count(orders & np.int64(rx)) & 1).astype(np.int64)
    star = (orders & np.int64((1 << z) - 1)) - (orders & np.int64(1 << z))
    return (1 - 2 * parity) * star


def cell_scan(n: int):
    """Exhaustive per-cell data for the level-(n+2) cells j < 2**(n+1) (x = j/2**(n+2)).

    Returns ``(member, m_vals, nu, integral_num)`` where, writing x for the
    cell's left endpoint:

    - ``member[j]``: |Σ_{k=1..n} r_k(x) r_{k+1}(x)| < n/3;
    - ``m_vals[j]``: Σ 2**k over descent positions k in [1, n-1]
      (r_k(x) = 1, r_{k+1}(x) = -1), i.e. the maximal-selector integer m(x);
    - ``nu[j]``: the number of those descent positions (uint8);
    - ``integral_num[j]``: 2**(n+2) · ∫_0^x D*_{m(x)}(x ⊕ t) dt (exact).

    The arrays cover the 2**(n+1) cells with top digit x_1 = 0 only.  No
    entry reads x_1 (the integral reads the digits after x_{k+1}, k ≥ 1), so
    cell j + 2**(n+1) agrees with cell j in all four, and a count over all
    2**(n+2) cells is twice the count over these.

    The arrays are built by digit doubling, from the least significant bit
    b = 0 of j (digit x_{n+2}) upwards.  Step b copies the filled prefix
    [0, 2**(b+1)) to [2**(b+1), 2**(b+2)), which sets bit b+1, and then adds
    what the pair of bits (b, b+1) contributes: a sign change on the two
    slices where they differ, and for 1 <= b <= n-1 the descent k = n - b on
    [2**b, 2**(b+1)), where bit b = x_{k+2} = 1 and bit b+1 = x_{k+1} = 0.
    That descent adds 2**k to m, one to nu and 2**(n+2) · frac(2**k x) =
    j << k to the integral, since frac(2**k x) reads only the digits after
    x_{k+1}.  No term reads a digit above its own pair, so a higher digit
    never changes what is already summed.  Each array is written about twice
    its length in total.

    Requires n <= 40 so the scaled integrals fit in int64 comfortably.
    """
    if not 1 <= n <= 40:
        raise ValueError(f"cell_scan supports 1 <= n <= 40, got {n}")
    ncells = 1 << (n + 1)
    c = np.zeros(ncells, dtype=np.uint8)  # sign changes, at most n
    m_vals = np.zeros(ncells, dtype=np.int64)
    nu = np.zeros(ncells, dtype=np.uint8)
    integral_num = np.zeros(ncells, dtype=np.int64)
    for b in range(n):
        half, size = 1 << b, 1 << (b + 1)
        for arr in (c, m_vals, nu, integral_num):
            arr[size : 2 * size] = arr[:size]
        c[half:size] += 1
        c[size : size + half] += 1
        if b:
            k = n - b
            m_vals[half:size] += 1 << k
            nu[half:size] += 1
            integral_num[half:size] += np.arange(half, size, dtype=np.int64) << k
    member = (3 * np.abs(n - 2 * np.arange(n + 1)) < n)[c]
    return member, m_vals, nu, integral_num


def decimal_rows(numbers: np.ndarray, suffixes: list[bytes], which: np.ndarray) -> str:
    """A newline, m in decimal and ``suffixes[j]``, for each m, j of
    ``numbers``, ``which``, joined into one string.

    ``numbers`` is an ascending array of nonnegative integers and ``which``
    indexes ``suffixes``, ASCII texts without NUL bytes.  Every row is one
    line of a uint8 grid as wide as the longest: a newline, the decimal
    digits right-aligned, then the suffix left-aligned, with NUL filling the
    gaps.  Each digit column costs one scalar ``% 10`` and ``//= 10`` over
    the whole array, and a column's leading zeros are a prefix of the rows,
    since the numbers ascend; the units column stays, so m = 0 prints ``0``.
    Dropping the NULs leaves the text.
    """
    if not numbers.size:
        return ""
    digits = len(str(int(numbers[-1])))
    tail = max(map(len, suffixes))
    grid = np.zeros((numbers.size, 1 + digits + tail), dtype=np.uint8)
    grid[:, 0] = ord("\n")
    rest = numbers.astype(np.min_scalar_type(numbers[-1]))
    for col in range(digits, 0, -1):
        grid[:, col] = rest % 10 + ord("0")
        rest //= 10
    for col in range(1, digits):
        grid[: np.searchsorted(numbers, 10 ** (digits - col)), col] = 0
    table = np.zeros((len(suffixes), tail), dtype=np.uint8)
    for row, text in zip(table, suffixes):
        row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    grid[:, 1 + digits :] = table[which]
    return grid[grid != 0].tobytes().decode("ascii")
