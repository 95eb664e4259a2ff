"""End-to-end acceptance gate: seven suites, one verdict line apiece.

Every suite prints ``[PASS]``/``[FAIL] acceptance k/7 <name>`` on the real
stdout (pytest's capture is bypassed on purpose so the verdicts always appear
in the run log) and then asserts.  All numeric claims are exact rational
arithmetic or certified binary enclosures — no float tolerances anywhere.
Each suite also enforces its own wall-clock budget.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from walshdiv import bounds
from walshdiv._kernels import cell_scan, hadamard_inplace
from walshdiv.counterexample import (
    ConstructionParams,
    WindowSums,
    build_fn,
    c3_holds,
    chain_check,
    en_cell_mask,
    integral_Dstar_closed,
    measure_En_range,
    verify_lemma1,
    verify_lemma2,
)
from walshdiv.dyadic import DyadicPoint, xor_add
from walshdiv.fourier import (
    PhiSpec,
    exceed_density,
    strong_mean_bounds,
)
from walshdiv.walsh import GridVector, dirichlet, fwht, walsh

from oracles import (
    fwht_inverse,
    grid_of,
    integral_Dstar_grid,
    measure_En,
    norm1,
    sample_dirichlet,
    values_of,
)


def _verdict(
    capsys, num: int, label: str, failures: list[str], elapsed: float, extra: str = ""
) -> None:
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}/7 {label} ({elapsed:.1f}s)"
    if extra:
        line += f" {extra}"
    if failures:
        line += " -- " + "; ".join(failures)
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, f"acceptance {num}/7 {label}: {failures}"


def _budget(failures: list[str], elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit:g}s budget")


def _paley_matrix(k: int) -> np.ndarray:
    """P[m, i] = w_m(i/2^k): Kronecker squaring plus string bit reversal."""
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), h)
    rev = [int(format(i, f"0{k}b")[::-1], 2) if k else 0 for i in range(1 << k)]
    return h[:, rev]


def _naive_transform(values: list[Fraction], k: int) -> list[Fraction]:
    """out[m] = 2^-k Σ_i v[i] w_m(i/2^k) by full matrix application."""
    p = _paley_matrix(k)
    scale = Fraction(1, 1 << k)
    return [
        scale * sum(int(p[m, i]) * values[i] for i in range(1 << k))
        for m in range(1 << k)
    ]


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 40))


# ---------------------------------------------------------------------------
# 1. character algebra and kernel identities, exact on a 2^-10 grid
# ---------------------------------------------------------------------------


def test_acceptance_1_walsh_algebra(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []
    K = 10
    size = 1 << K

    oracle = _paley_matrix(K)
    lib_rows = np.vstack(
        [np.asarray(GridVector.sample_walsh(m, K).numerators) for m in range(size)]
    )
    if not np.array_equal(lib_rows, oracle):
        failures.append("sampled character rows differ from product construction")

    # D_n = Σ_{k<n} w_k, pointwise on the grid, for every n up to 1024.  The
    # top order n = 2^10 is still constant on grid cells (only w_k, k < 2^10,
    # contribute) but the sampler's aliasing guard rejects it, so that one row
    # is checked through the pointwise evaluator instead.
    partial_rows = np.cumsum(oracle, axis=0)
    for n in range(1, size + 1):
        row = partial_rows[n - 1]
        if n < size:
            gv = sample_dirichlet(n, K)
            row_ok = gv.denominator == 1 and np.array_equal(
                np.asarray(gv.numerators), row
            )
        else:
            row_ok = all(
                dirichlet(n, DyadicPoint(i, K)) == int(row[i]) for i in range(size)
            )
        if not row_ok:
            failures.append(f"kernel row disagrees at order {n}")
            break
    if [int(r[0]) for r in partial_rows] != list(range(1, size + 1)):
        failures.append("kernel value at zero is not the order")
    if not (partial_rows.sum(axis=1) == size).all():
        failures.append("kernel mean is not one")

    # 10^4 randomized character/translation cases at depth 14 (off the grid).
    rng = random.Random(20260814)
    for _ in range(10_000):
        m = rng.randrange(0, 4096)
        n = rng.randrange(0, 4096)
        x = DyadicPoint(rng.randrange(0, 1 << 14), 14)
        y = DyadicPoint(rng.randrange(0, 1 << 14), 14)
        if walsh(m, x) * walsh(n, x) != walsh(m ^ n, x):
            failures.append(f"character identity fails at m={m} n={n}")
            break
        if walsh(n, xor_add(x, y)) != walsh(n, x) * walsh(n, y):
            failures.append(f"translation identity fails at n={n}")
            break

    # The same two identities on the grid itself, vectorized.
    idx = np.random.default_rng(1014)
    m_v = idx.integers(0, size, 10_000)
    n_v = idx.integers(0, size, 10_000)
    if not (oracle[m_v] * oracle[n_v] == oracle[m_v ^ n_v]).all():
        failures.append("grid character identity fails")
    i_v = idx.integers(0, size, 10_000)
    j_v = idx.integers(0, size, 10_000)
    if not (oracle[n_v, i_v ^ j_v] == oracle[n_v, i_v] * oracle[n_v, j_v]).all():
        failures.append("grid translation identity fails")

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 60.0)
    _verdict(capsys, 1, "walsh algebra", failures, elapsed)


# ---------------------------------------------------------------------------
# 2. fast transform vs. direct matrix transform, Parseval, involution
# ---------------------------------------------------------------------------


def test_acceptance_2_transform(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(2)

    for k in range(0, 9):
        vals = [_random_fraction(rng) for _ in range(1 << k)]
        if values_of(fwht(grid_of(k, vals))) != _naive_transform(
            vals, k
        ):
            failures.append(f"fast transform differs from matrix at K={k}")
            break

    # 100 random rational vectors, sizes cycling through K = 0..12: exact
    # Parseval and exact round-trip.
    rng = random.Random(3)
    for i in range(100):
        k = i % 13
        vals = [_random_fraction(rng) for _ in range(1 << k)]
        g = grid_of(k, vals)
        c = fwht(g)
        if Fraction(sum(v * v for v in vals), 1 << k) != sum(
            w * w for w in values_of(c)
        ):
            failures.append(f"Parseval fails at vector {i} (K={k})")
            break
        if fwht_inverse(c) != g:
            failures.append(f"round trip fails at vector {i} (K={k})")
            break

    # Unnormalized butterfly applied twice is multiplication by the length.
    v = np.array([rng.randrange(-50, 50) for _ in range(1 << 12)], dtype=np.int64)
    w = v.copy()
    hadamard_inplace(w)
    hadamard_inplace(w)
    if not np.array_equal(w, v << 12):
        failures.append("butterfly involution fails at K=12")

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 60.0)
    _verdict(capsys, 2, "transform", failures, elapsed)


# ---------------------------------------------------------------------------
# 3. selector scan at n = 12: every member cell clears the integral bound
# ---------------------------------------------------------------------------


def test_acceptance_3_selector_integral_bound(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []
    n = 12

    report = verify_lemma2(n)
    if not report.ok:
        failures.append("selector report has failing rows")

    member, m_vals, nu, integral_num = cell_scan(n)
    idx = np.nonzero(member)[0]
    if idx.size == 0:
        failures.append("no member cells at n=12")
    if not (nu[idx] > 0).all():
        failures.append("a member cell has no descent positions")
    if not (m_vals[idx] < (1 << n)).all():
        failures.append("a selector index reaches 2^n")
    # integral_num carries 2^{n+2} · ∫_0^x D*_m(x ⊕ t) dt, so the n/30 bound
    # reads 30 · integral_num >= n · 2^{n+2}.
    if not (30 * integral_num[idx].astype(object) >= n << (n + 2)).all():
        failures.append("a member cell misses the n/30 integral bound")

    rng = random.Random(1)
    for _ in range(1000):
        m = rng.randrange(1, 1 << 10)
        x = DyadicPoint(rng.randrange(0, 1 << 12), 12)
        if integral_Dstar_closed(m, x) != integral_Dstar_grid(m, x, 12):
            failures.append(f"closed integral differs from grid at m={m}")
            break

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 300.0)
    _verdict(capsys, 3, "selector integral bound", failures, elapsed)


# ---------------------------------------------------------------------------
# 4. measure of the admissible set: certified lower bound and exact census
# ---------------------------------------------------------------------------


def test_acceptance_4_measure_bound(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []

    rows = measure_En_range(51, 400)
    if [n for n, _ in rows] != list(range(51, 401)):
        failures.append("measure range is not 51..400")
    for n, hits in rows:
        measure = Fraction(hits, 1 << n)
        # measure > 1 - 2 e^{-n/36}, decided against the sound side of the
        # enclosure: e^{-n/36} >= ex_lo, so 1 - 2·ex_lo is an upper bound for
        # the right-hand side.
        ex_lo, _ = bounds.exp_enclosure(Fraction(-n, 36), 96)
        if not measure > 1 - 2 * ex_lo:
            failures.append(f"measure bound fails at n={n}")
            break

    for n in range(1, 17):
        census = Fraction(int(np.count_nonzero(en_cell_mask(n))), 1 << (n + 2))
        if census != measure_En(n):
            failures.append(f"counted measure differs from recurrence at n={n}")
            break

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 60.0)
    _verdict(capsys, 4, "measure bound", failures, elapsed)


# ---------------------------------------------------------------------------
# 5. desk instance n=2, c=3 on a 2^18 grid: norm, spectrum, per-cell checks
# ---------------------------------------------------------------------------

_DESK = ConstructionParams(n=2, c=3)


def _desk_reports() -> list:
    """One verification report per level-4 cell, taken at cell midpoints."""
    return [
        verify_lemma1(_DESK, DyadicPoint(2 * i + 1, 5))
        for i in range(1 << (_DESK.n + 2))
    ]


def _row_map(report) -> dict:
    return {r.assertion: r for r in report.rows}


def test_acceptance_5_desk_instance(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []

    fn = build_fn(_DESK)
    if fn.level > 18:
        failures.append("construction is not exactly representable at 2^-18")
    grid = fn.render(18)
    cert = fn.norm1_certificate()
    if not (norm1(grid) <= cert <= 4):
        failures.append(f"L1 norm {norm1(grid)} or certificate {cert} exceeds 4")

    spectrum = fwht(grid).nonzero_indices()
    if not spectrum or spectrum[0] < _DESK.p or spectrum[-1] > _DESK.q:
        failures.append("spectrum leaves the window [2^n, q]")

    reports = _desk_reports()
    if not all(r.ok for r in reports):
        failures.append("a per-cell report has failing rows")

    support = progression = quiet = 0
    for rep in reports:
        rows = _row_map(rep)
        if rows["branch"].lhs_exact.startswith("1"):
            support += 1
            for name in (
                "|f(x)| >= 2^gamma",
                "S_l(x) = f(x) for l >= q",
                "density at N=2q >= 1/2",
            ):
                if rows[name].verdict != "pass":
                    failures.append(f"support cell fails: {name}")
        else:
            if rows["f(x) = 0 implies x in E_n"].verdict != "pass":
                failures.append("a vanishing cell is not a member")
            if rows.get("selector nonempty") is not None:
                quiet += 1
                continue
            progression += 1
            for name in (
                "w_p(theta_j) = 1 for all j",
                "w_l(theta_j) = 1 on the progression",
                "D*_l = D*_m at x+theta_j (j < k)",
                "S_l = 2^-n sum_{j<k} D_l(x+theta_j)",
                "symbolic S_l = grid S_l",
            ):
                if rows[name].verdict != "pass":
                    failures.append(f"progression cell fails: {name}")
    if (support, progression, quiet) != (8, 2, 6):
        failures.append(
            f"cell census (support, progression, quiet) = "
            f"({support}, {progression}, {quiet}) != (8, 2, 6)"
        )

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 600.0)
    _verdict(capsys, 5, "desk instance", failures, elapsed)


# ---------------------------------------------------------------------------
# 6. stacked-stage inequalities and minimal thresholds for the growth test
# ---------------------------------------------------------------------------


def test_acceptance_6_constant_chains(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []
    phi = PhiSpec("exp_power", 2)

    bad = [n for n in range(151, 301) if not chain_check(n, 1, phi).ok]
    if bad:
        failures.append(f"chain fails at n={bad[0]}")

    # Minimal n per stage index, pinned once and re-certified at both sides of
    # the boundary; each must clear the closed-form threshold 5000·4^k coming
    # from e^{(n/(50·2^k))^2} > e^{2n}.
    minima = {1: 20_001, 2: 80_001, 3: 320_001, 4: 1_280_001, 5: 5_120_001}
    for k, nk in minima.items():
        if nk <= 5000 * 4**k:
            failures.append(f"threshold at k={k} violates the closed form")
        if not c3_holds(phi, nk, k):
            failures.append(f"growth test fails at its threshold for k={k}")
        if c3_holds(phi, nk - 1, k):
            failures.append(f"threshold for k={k} is not minimal")

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 1.0)
    detail = "n_k=" + ",".join(str(v) for v in minima.values())
    _verdict(capsys, 6, "constant chains", failures, elapsed, extra=detail)


# ---------------------------------------------------------------------------
# 7. divergence trend at the desk instance: mean growth beats the display
# ---------------------------------------------------------------------------


def test_acceptance_7_divergence_trend(capsys) -> None:
    t0 = time.perf_counter()
    failures: list[str] = []
    phi = PhiSpec("exp_power", 2)
    n = _DESK.n
    N = 2 * _DESK.q
    tau = Fraction(n, 40)
    phi_lo, phi_hi = bounds.scaled_enclosure(phi.enclosure(tau, 96))
    display_rhs = phi_hi / (1 << (2 * n + 1))

    witnesses = [
        DyadicPoint(2 * i + 1, 5)
        for i, rep in enumerate(_desk_reports())
        if "exceedance density at N=2q (reported)" in _row_map(rep)
    ]
    if len(witnesses) != 2:
        failures.append(f"expected 2 progression witnesses, found {len(witnesses)}")

    for x in witnesses:
        sums = WindowSums(_DESK, x, N)
        census = sums.census()
        density = exceed_density(census, tau, N)
        mean_lo, mean_hi = bounds.scaled_enclosure(strong_mean_bounds(census, phi, N))
        if density < Fraction(1, 1 << (2 * n + 1)):
            failures.append(f"exceedance density below 2^-{2 * n + 1} at x={x}")
        if not mean_lo > display_rhs:
            failures.append(f"mean fails the display inequality at x={x}")
        if not density * phi_lo <= mean_hi:
            failures.append(f"Markov check fails at x={x}")

        # The emitted tables must satisfy the same Markov inequality row by
        # row; re-derive every row of the CLI table exactly.
        for cut in (16, 256, 4096, 65_536):
            cut_census = sums.census(cut)
            for spec in (PhiSpec("power", 2), phi):
                d = exceed_density(cut_census, tau, cut)
                p_lo, _ = bounds.scaled_enclosure(spec.enclosure(tau, 96))
                _, m_hi = bounds.scaled_enclosure(strong_mean_bounds(cut_census, spec, cut))
                if not d * p_lo <= m_hi:
                    failures.append(f"table row fails Markov at N={cut}")

    elapsed = time.perf_counter() - t0
    _budget(failures, elapsed, 60.0)
    _verdict(capsys, 7, "divergence trend", failures, elapsed)
