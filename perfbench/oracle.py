"""Independent checks of exact values in CLI output, run outside the timed region.

- ``measure-en``: every ``measure_exact`` equals Σ_{3|n-2b|<n} C(n, b) / 2^n,
  summed from ``math.comb`` rather than the library's Pascal-row DP.
- ``lemma2``: the "member cells" count equals 2^(n+2)·|E_n|, and the measure
  row equals |E_n|, both from the same binomial sum.
- ``strong-mean``: ``density_exact`` at every N ≤ 4096 equals the exceedance
  density of the symbolic partial sums ``build_fn(params).partial_sum(l, x)``,
  which never touch the grid transform.

Each check returns a list of disagreements; an empty list means the output
agrees with the oracle.  The library must be importable (``run.py`` puts the
checkout's ``src`` on ``sys.path``).
"""

from __future__ import annotations

import csv
import math
import re
from fractions import Fraction

SYMBOLIC_CUTS = 4096


def en_measure(n: int) -> Fraction:
    """|E_n| = P(n/3 < b < 2n/3) for b ~ Binomial(n, 1/2)."""
    lo = n // 3 + 1  # smallest b with 3(n - 2b) < n
    hi = n - lo  # largest b with 3(2b - n) < n
    if lo > hi:
        return Fraction(0)
    term = math.comb(n, lo)
    hits = term
    for b in range(lo + 1, hi + 1):
        term = term * (n - b + 1) // b  # C(n, b) from C(n, b - 1)
        hits += term
    return Fraction(hits, 1 << n)


def _header(text: str) -> dict[str, str]:
    pairs = (line[2:].partition("=") for line in text.splitlines() if line.startswith("# "))
    return {key: value for key, sep, value in pairs if sep}


def _table(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_measure_en(argv: list[str], text: str) -> list[str]:
    header = _header(text)
    expected = range(int(header["n_min"]), int(header["n_max"]) + 1)
    rows = _table(text)
    if [int(row["n"]) for row in rows] != list(expected):
        return [f"measure-en rows do not cover n = {expected.start}..{expected.stop - 1}"]
    return [
        f"measure-en: |E_{row['n']}| printed as {row['measure_exact'][:40]}..."
        for row in rows
        if Fraction(row["measure_exact"]) != en_measure(int(row["n"]))
    ]


def check_lemma2(argv: list[str], text: str) -> list[str]:
    n = int(_header(text)["n"])
    measure = en_measure(n)
    lhs = {}
    for line in text.splitlines():
        match = re.match(r"\s+\w+\s+(.*?)\s+lhs=(\S+)", line)
        if match:
            lhs[match.group(1)] = match.group(2)
    problems = []
    members = lhs.get("member cells at level n+2")
    if members is None or int(members) != measure * (1 << (n + 2)):
        problems.append(f"lemma2: member cells {members} != 2^{n + 2}*|E_{n}|")
    printed = lhs.get("measure > 1 - 2*exp(-n/36)")
    if printed is None or Fraction(printed) != measure:
        problems.append(f"lemma2: measure {printed} != |E_{n}| = {measure}")
    return problems


def check_strong_mean(argv: list[str], text: str) -> list[str]:
    from walshdiv.counterexample import ConstructionParams, build_fn
    from walshdiv.dyadic import parse_point

    params = ConstructionParams(int(_option(argv, "--n")), int(_option(argv, "--c")))
    x = parse_point(_option(argv, "--x"))
    threshold = Fraction(_header(text)["threshold"])
    rows = [row for row in _table(text) if int(row["N"]) <= SYMBOLIC_CUTS]
    if not rows:
        return ["strong-mean: no row with N <= 4096 to check"]
    fn = build_fn(params)
    last = max(int(row["N"]) for row in rows)
    exceeds = [abs(fn.partial_sum(l, x)) > threshold for l in range(1, last + 1)]
    problems = []
    for row in rows:
        N = int(row["N"])
        if Fraction(row["density_exact"]) != Fraction(sum(exceeds[:N]), N):
            problems.append(f"strong-mean: density at N={N} is {row['density_exact']}")
    return problems


CHECKS = {
    "measure-en": check_measure_en,
    "lemma2": check_lemma2,
    "strong-mean": check_strong_mean,
}


def check(argv: list[str], text: str) -> list[str]:
    """Disagreements between one command's stdout and the oracle."""
    checker = CHECKS.get(argv[0])
    return checker(argv, text) if checker else []
