"""Command-line behavior: exit codes, headers, tables, and option parsing."""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walshdiv.cli import _SUBCOMMANDS, _coefficient_rows, _float, _frac, main
from walshdiv.counterexample import ConstructionParams, build_fn, verify_lemma2
from walshdiv.walsh import GridVector, fwht

from oracles import coefficient_rows, measure_En, measure_en_output, symbolic_census


def run_main(argv):
    return main(argv)


def one_error_line(capsys) -> str:
    """The single ``walshdiv: error:`` line a rejected invocation leaves on stderr."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("walshdiv: error: ")
    return err


def checkout_env():
    """Environment for a child interpreter that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


class TestLemma2Command:
    def test_passing_run(self, capsys):
        assert main(["lemma2", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# walshdiv lemma2\n# seed=0\n")
        assert "# n=12" in out
        assert "=> OK" in out

    def test_failing_run_exits_one(self, capsys):
        assert main(["lemma2", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAILED (")
        assert "lemma2" in err

    def test_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "lemma2.csv"
        assert main(["lemma2", "--n", "12", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith("# walshdiv lemma2\n")
        assert "lemma,assertion,lhs_exact,rhs_exact,verdict,witness" in text

    @pytest.mark.parametrize("n, code", [(24, 0), (10_000, 1)])
    def test_orders_past_the_cap_are_certified_quickly(self, n, code, capsys):
        start = time.perf_counter()
        assert main(["lemma2", "--n", str(n)]) == code
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert out.startswith(f"# walshdiv lemma2\n# seed=0\n# mode=certify\n# n={n}\n")
        assert "PASS     integral >= n/30 on E_n" in out


    def test_text_lines_stay_short_at_order_10000(self, tmp_path, capsys):
        # |E_n| has 3,000-digit terms here; the text shows it as 1 minus a
        # distance, the CSV and nothing else keeps it exact
        out_file = tmp_path / "lemma2.csv"
        assert main(["lemma2", "--n", "10000", "--out", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert max(len(line) for line in captured.out.splitlines()) <= 120
        assert "lhs=≈1 - 3.0e-248 (exact in CSV) rhs=" in captured.out
        assert len(captured.err) < 120
        row = next(line for line in out_file.read_text().splitlines()
                   if line.startswith("lemma2,measure"))
        assert Fraction(row.split(",")[2]) == measure_En(10_000)


class TestMeasureEnCommand:
    def test_table_shape_and_verdicts(self, capsys):
        assert main(["measure-en", "--n-min", "1", "--n-max", "40"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == (
            "n,measure_exact,measure_float,bound_upper_float,margin_float,verdict"
        )
        assert len(lines) == 41
        assert all(line.endswith(("pass", "vacuous")) for line in lines[1:])
        assert lines[2].startswith("2,1/2,0.5,")

    def test_failure_summary_keeps_long_fractions_off_stderr(self, capsys):
        # at n = 2304 the crude exp enclosure still yields the known false
        # FAIL; the exact |E_n| (about 1,400 digits) belongs in the CSV only
        assert main(["measure-en", "--n-min", "2304", "--n-max", "2304"]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200
        # the shortfall, not a rounded measure, is what the line reports
        assert "measure-en: |E_2304| is " in captured.err
        shortfall, bound = captured.err.split(" is ")[1].split(" below the bound ")
        assert 0 < float(shortfall) < 1e-50
        assert float(bound) == 1
        row = captured.out.splitlines()[-1]
        assert Fraction(row.split(",")[1]) == measure_En(2304)

    @pytest.mark.parametrize("n_lo, n_hi", [(1, 3000), (9990, 10000)])
    def test_integer_rows_equal_the_fraction_rows(self, n_lo, n_hi, capsys):
        # 9990..10000: margins underflow to -0 over 10,000-bit denominators
        payload, first = measure_en_output(n_lo, n_hi)
        code = main(["measure-en", "--n-min", str(n_lo), "--n-max", str(n_hi)])
        captured = capsys.readouterr()
        got = [l for l in captured.out.splitlines() if not l.startswith("#")]
        want = payload.splitlines()
        first_diff = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert first_diff is None, (got[first_diff], want[first_diff])  # short report
        assert len(got) == len(want)
        if first is None:
            assert (code, captured.err) == (0, "")
        else:
            assert code == 1
            assert captured.err == f"FAILED ({payload.count(',fail')}): {first}\n"

    @pytest.mark.parametrize("n", [1, 24, 25, 60, 2303, 2304])
    def test_lemma2_measure_row_has_the_table_verdict(self, n, capsys):
        main(["measure-en", "--n-min", str(n), "--n-max", str(n)])
        table_verdict = capsys.readouterr().out.splitlines()[-1].rsplit(",", 1)[1]
        row = verify_lemma2(n).rows[0]
        # lemma2 prints a vacuous bound as a pass with a "(vacuous)" witness
        lemma2_verdict = "vacuous" if "vacuous" in row.witness else row.verdict
        assert lemma2_verdict == table_verdict


class TestBuildFnCommand:
    def test_summary(self, capsys):
        assert main(["build-fn"]) == 0
        out = capsys.readouterr().out
        assert "construction n=2 c=3: gamma=0 p=2^2 q=2^18" in out
        assert "atoms: 1 indicator + 8 kernels" in out
        assert "L1 certificate: 5/2 (2.5) <= 4: yes" in out

    def test_coefficient_dump_matches_transform(self, tmp_path, capsys):
        out_file = tmp_path / "coeffs.csv"
        code = main(
            ["build-fn", "--n", "2", "--c", "2", "--dump-coefficients",
             "--out", str(out_file)]
        )
        assert code == 0
        params = ConstructionParams(2, 2)
        co = fwht(build_fn(params).render(params.q_exponent))
        rows = [
            line.split(",")
            for line in out_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("index")
        ]
        assert [int(r[0]) for r in rows] == list(co.nonzero_indices())
        for r in rows:
            assert Fraction(r[1]) == co[int(r[0])]

    @pytest.mark.parametrize("make", [
        lambda: fwht(build_fn(ConstructionParams(2, 2)).render(14)),
        lambda: GridVector(2, np.array([4, -2, 0, 3]), 1),
        lambda: GridVector(3, np.array([1, -3, 0, 1 << 55, 5, 0, -(1 << 53), 7]), 3),
        lambda: GridVector(2, np.array([1, 0, -6, 2]), 3 ** 40),
        lambda: GridVector(2, np.array([1 << 70, 0, -3, 9], dtype=object), 6),
    ], ids=["transform", "integers", "past-2^53", "big-denominator", "big-int"])
    def test_coefficient_rows_match_fraction_formatting(self, make):
        co = make()
        expected = "".join(f"\n{m},{_frac(co[m])},{_float(co[m])}"
                           for m in co.nonzero_indices())
        assert _coefficient_rows(co) == expected

    @given(
        st.integers(0, 5).flatmap(lambda k: st.lists(
            st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(1 << 80), 1 << 80)),
            min_size=1 << k, max_size=1 << k)),
        st.one_of(st.integers(1, 100), st.just(3**40), st.integers(1, 1 << 90)),
    )
    @example([0, 0, 0, 0], 7)
    @example([-(1 << 70), 3, 0, 1 << 70], 3**40)
    @settings(max_examples=150, deadline=None)
    def test_coefficient_rows_match_the_row_oracle(self, numerators, denominator):
        # no nonzero entry, negative numerators, numerators past int64 (object
        # dtype) and denominators past 2^64
        co = GridVector(len(numerators).bit_length() - 1,
                        np.array(numerators, dtype=object), denominator)
        assert _coefficient_rows(co) == coefficient_rows(co)

    def test_dump_requires_renderable_spectrum(self, capsys):
        # q = 2^30 at c = 5 is past the grid cap 2^26
        assert main(["build-fn", "--n", "2", "--c", "5", "--dump-coefficients"]) == 2
        assert "coefficient dump" in one_error_line(capsys)

    def test_block_table(self, tmp_path, capsys):
        out_file = tmp_path / "blocks.csv"
        assert main(["build-fn", "--out", str(out_file)]) == 0
        lines = [
            l for l in out_file.read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "lo,hi,owners"
        assert lines[1] == '4,15,"indicator"'
        assert lines[-1] == '32768,262144,"pairs 1..3"'

    def test_spectral_ends_past_60_digits_print_as_powers_of_two(self, tmp_path, capsys):
        # q = 2^16432 has 4,947 decimal digits, past Python's int-to-str limit
        out_file = tmp_path / "blocks.csv"
        for extra in ([], ["--out", str(out_file)]):
            assert main(["build-fn", "--n", "12", "--c", "4", *extra]) == 0
            out = capsys.readouterr().out
            assert "  spectral blocks: 4096, span [4, 2^16432)\n" in out
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 4096
        assert rows[1] == '4,16377,"indicator"'
        # u_1 = 2^52 has 16 digits, u_13 = 2^100 has 31 and u_16 = 2^112 has 34
        assert rows[2] == '4503599627370496,72057594037927936,"pair 1"'
        assert rows[14].startswith("1267650600228229401496703205376,")
        assert rows[-1] == '2^16428,2^16432,"pairs 1..4095"'


class TestLemma1Command:
    def test_single_point(self, capsys):
        assert main(["lemma1", "--n", "2", "--c", "2", "--x", "11/2^4"]) == 0
        out = capsys.readouterr().out
        assert "# points=1" in out
        assert "[lemma1]" in out
        assert "=> OK" in out

    def test_all_cells_default(self, capsys):
        assert main(["lemma1"]) == 0
        out = capsys.readouterr().out
        assert "# points=16" in out
        assert out.count("=> OK") == 16


# every subcommand that prints report rows, at desk scale
REPORT_COMMANDS = [
    ["lemma1", "--n", "1", "--c", "2"],
    ["lemma1", "--n", "2", "--c", "2"],
    ["lemma1", "--n", "2", "--c", "3"],
    ["lemma1", "--n", "3", "--c", "2"],
    ["lemma2", "--n", "12"],
    ["lemma2", "--n", "3"],
    ["chain-check"],
]


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
def test_no_pass_rests_on_a_nonpositive_bound_of_an_absolute_value(argv, capsys):
    # |y| >= b with b <= 0 holds for every y, so such a row must say vacuous
    main(argv)
    rows = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  PASS ") for line in rows)
    empty = []
    for line in rows:
        row = re.match(r"  PASS +(\|.*\| *>=?.*?)  lhs=\S* rhs=(-?\d+(?:/\d+)?)(?: |$)", line)
        if row and Fraction(row.group(2)) <= 0:
            empty.append(line)
    assert empty == []


class TestPartialSumsCommand:
    def test_table_matches_library(self, tmp_path, capsys):
        out_file = tmp_path / "sums.csv"
        code = main(
            ["partial-sums", "--n", "2", "--c", "2", "--x", "3/2^4",
             "--l-min", "1", "--l-max", "20", "--out", str(out_file)]
        )
        assert code == 0
        from walshdiv.counterexample import partial_sum_series

        series = partial_sum_series(ConstructionParams(2, 2), _point("3/2^4"), 20)
        lines = [
            l for l in out_file.read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "l,value_exact,value_float"
        assert len(lines) == 21
        for line, want in zip(lines[1:], series):
            l, exact, _ = line.split(",")
            assert Fraction(exact) == want

    def test_rejects_bad_range(self, capsys):
        assert main(["partial-sums", "--x", "1/2^2", "--l-min", "9", "--l-max", "5"]) == 2
        assert "bad cut range" in one_error_line(capsys)


class TestStrongMeanCommand:
    def test_table_shape(self, tmp_path):
        out_file = tmp_path / "mean.csv"
        code = main(
            ["strong-mean", "--n", "2", "--c", "2", "--x", "3/2^4",
             "--phi", "pow:2", "--phi", "exppow:2", "--N-list", "64,16",
             "--out", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        assert "# threshold=1/20" in text  # default n/40 at n=2
        assert "# phis=pow:2;exppow:2" in text
        assert "# grid=12" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == (
            "phi,N,mean,density_exact,density_float,markov_lhs_float,verdict"
        )
        data = [l.split(",") for l in lines[1:]]
        assert [(r[0], r[1]) for r in data] == [
            ("pow:2", "16"), ("pow:2", "64"),
            ("exppow:2", "16"), ("exppow:2", "64"),
        ]
        assert all(r[-1] in ("pass", "reported") for r in data)

    def test_rejects_bad_n_list(self, capsys):
        assert main(["strong-mean", "--x", "1/2^2", "--N-list", "0,4"]) == 2
        assert "bad N list" in one_error_line(capsys)

    def test_values_beyond_double_range_render(self, capsys):
        # Φ = e^{100000 t} − 1 at the desk witness: exact means and Markov
        # bounds far past 1e308 must print, not raise OverflowError
        code = main(["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5",
                     "--phi", "exp:100000"])
        assert code == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if l.startswith("exp:100000,")]
        assert [r[1] for r in rows] == ["16", "256", "4096"]
        for r in rows:
            mantissa, _, exponent = r[5].partition("e+")
            assert int(exponent) > 308
            assert len(mantissa.replace(".", "")) <= 12


    def test_the_paper_scale_mean_is_quick(self, capsys):
        # 4096 cuts at n = 3, c = 2: Φ = e^{t²} - 1 up to t = 385, one
        # fixed-point enclosure per distinct magnitude
        start = time.perf_counter()
        assert main(["strong-mean", "--n", "3", "--c", "2", "--x", "9/2^6",
                     "--N-list", "4096"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out.splitlines()[-1] == (
            "exppow:2,4096,4.8665384779597755e+64369,511/512,0.998046875,"
            "0.00562983273216,pass"
        )

    def test_a_phi_past_the_exp_cap_fails_fast(self, capsys):
        # e^{4096·385} is enclosed like any Φ value below 2^(10^15) ...
        assert main(["strong-mean", "--n", "3", "--c", "2", "--x", "9/2^6",
                     "--N-list", "4096", "--phi", "exp:4096"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "exp:4096,4096,2.5931175475106774e+684861,511/512,0.998046875,"
            "2.59666413684e+133,pass"
        )
        # ... and X = 10^13·385 is past it: the largest magnitude is enclosed
        # first, so the one error line comes before any other enclosure
        start = time.perf_counter()
        assert main(["strong-mean", "--n", "3", "--c", "2", "--x", "9/2^6",
                     "--N-list", "4096", "--phi", "exp:10000000000000"]) == 2
        assert time.perf_counter() - start < 5
        assert "too large for direct enclosure" in one_error_line(capsys)

    TINY = ["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5", "--N-list", "16",
            "--phi", "pow:10000000000000000"]

    def test_a_mean_below_2_to_the_minus_10_to_the_15_shows_as_0(self, capsys):
        # Φ(1/2) = 2^(-10^16) at 10 of the 16 cuts: the mean is (5/8)·2^(-10^16),
        # printed 0.0, and its verdict comes from the certified bounds
        assert main([*self.TINY, "--threshold", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "pow:10000000000000000,16,0.0,5/8,0.625,0,pass")

    def test_a_power_far_below_one_is_quick(self):
        # Φ(1/20) = 20^(-10^16) at the default threshold: no exact power
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", *self.TINY],
                              capture_output=True, text=True, env=checkout_env(),
                              timeout=60)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if l.startswith("pow:")]
        assert rows == ["pow:10000000000000000,16,0.0,5/8,0.625,0,pass"]

    def test_a_large_integer_exppow_is_quick(self):
        # Φ(1/20) = e^(20^(-10^8)) - 1: t^α past the exact-power budget goes
        # through e^(α ln t), and X < 2^-104 encloses e^X - 1 by [X, X(1 + X)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", *self.TINY[:-1],
                               "exppow:100000000"], capture_output=True, text=True,
                              env=checkout_env(), timeout=60)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if l.startswith("exppow:")]
        assert len(rows) == 1 and rows[0].endswith(",pass")

    @given(st.sampled_from(["3/2^5", "7/2^5", "13/2^5", "29/2^5"]),
           st.fractions(-3, 3, max_denominator=16), st.fractions(0, 3, max_denominator=16),
           st.sampled_from(["pow:2", "pow:3/2", "exp:1", "exppow:2", "exppow:3/2"]))
    @example("7/2^5", Fraction(-1, 2), Fraction(2, 5), "pow:2")
    @settings(max_examples=40, deadline=None)
    def test_centered_rows_never_fail(self, x, center, threshold, phi):
        # Markov: density(|S_k - s| > τ)·Φ(τ) ≤ mean Φ(|S_k - s|) is a theorem,
        # so a row may be reported but never fail
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["strong-mean", "--x", x, "--N-list", "16,256", "--phi", phi,
                         f"--center={center}", f"--threshold={threshold}"])
        rows = [l.split(",") for l in out.getvalue().splitlines()
                if l.startswith(phi + ",")]
        assert code == 0
        assert len(rows) == 2 and all(r[-1] in ("pass", "reported") for r in rows)

    def test_a_power_past_2_to_the_10_to_the_15_ends_in_one_line(self, capsys):
        # |S - s| = 4 at the first cuts with s = -4: Φ = 4^(10^16) = 2^(2·10^16)
        assert main([*self.TINY, "--center", "-4"]) == 2
        assert "past 2^(10^15)" in one_error_line(capsys)

    def test_a_power_of_two_million_passes_quickly(self, capsys):
        start = time.perf_counter()
        assert main(["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5",
                     "--N-list", "16,4096", "--phi", "pow:2000000"]) == 0
        assert time.perf_counter() - start < 5
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if l.startswith("pow:")]
        assert [(r[1], r[-1]) for r in rows] == [("16", "pass"), ("4096", "pass")]


class TestChainCheckCommand:
    @pytest.mark.parametrize("k", [8, 12, 24, 25, 100, 1000])
    def test_far_growth_thresholds_are_quick(self, k, tmp_path, capsys):
        # the least n is one integer root and one (c3) decision there, with
        # e^{-2n} enclosed at 2^-prec however large n is; the text shows it
        # exactly up to 60 digits (k = 24), the CSV always
        out_file = tmp_path / "chains.csv"
        start = time.perf_counter()
        assert main(["chain-check", "--k", str(k), "--out", str(out_file)]) == 0
        assert time.perf_counter() - start < 1
        least = 5000 * 4**k + 1
        assert f",{least},," in out_file.read_text()
        text = capsys.readouterr().out
        if len(str(least)) <= 60:
            assert f"lhs={least} rhs=" in text
        else:
            shown = re.search(r"lhs=≈(\d(?:\.\d)?)e\+(\d+) \(exact in CSV\) rhs=", text)
            assert abs(Fraction(shown[1]) * 10 ** int(shown[2]) - least) < least // 10

    def test_the_longest_printable_threshold(self, tmp_path, capsys):
        # 5000·4^7136 + 1 has 4,300 digits, CPython's default str limit;
        # k = 7137 is rejected in test_rejected_values_are_named
        out_file = tmp_path / "chains.csv"
        assert main(["chain-check", "--k", "7136", "--out", str(out_file)]) == 0
        row = out_file.read_text().splitlines()[-1]
        assert row.startswith("chains,minimal n with Phi(n/(50*2^k)) > exp(2n),")
        assert len(row.split(",")[2]) == 4300
        assert "lhs=≈1.0e+4300 (exact in CSV) rhs=" in capsys.readouterr().out

    def test_a_phi_argument_past_the_print_limit_prints_symbolically(self, tmp_path, capsys):
        # t = 151/(50·2^15000) has a 4,517-digit denominator, past CPython's
        # 4,300-digit str limit; the row names it by its parts instead
        out_file = tmp_path / "chains.csv"
        argv = ["chain-check", "--k", "15000", "--phi", "pow:2"]
        assert main(argv + ["--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "lhs=Phi(151/(50*2^15000)) rhs=exp(302)" in out
        assert "Phi(151/(50*2^15000))" in out_file.read_text()
        assert max(len(line) for line in out.splitlines()) < 200

    @pytest.mark.parametrize("phi", ["exppow:101/100", "exppow:3/2"])
    def test_a_fractional_alpha_threshold_is_quick(self, phi, capsys):
        # fixed-point ln and exp: a 233-digit threshold at α = 101/100
        start = time.perf_counter()
        assert main(["chain-check", "--k", "1", "--phi", phi]) == 0
        assert time.perf_counter() - start < 5
        assert "REPORTED minimal n with Phi(n/(50*2^k)) > exp(2n)" in capsys.readouterr().out

    def test_gamma_rows_at_an_exp_argument_of_a_million(self, capsys):
        # exp(n/36) against 2^(γ+1) is decided as n/36 < (γ+1)·ln 2, so no
        # exp enclosure is built, here or at any larger n
        assert main(["chain-check", "--n", "36000000", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert ("  REPORTED gamma = floor(log2 exp(n/36))            lhs=1442695 rhs="
                in out)
        assert ("  PASS     2^(gamma+1) >= exp(n/36)                 lhs=2^1442696 "
                "rhs=exp(36000000/36)" in out)

    @pytest.mark.parametrize("n, holds", [
        (5629499534213120001, True), (5629499534213120000, False)])
    def test_gamma_rows_at_the_least_n_of_k_25(self, n, holds, capsys):
        # 5000·4^25 + 1, the least n that chain-check --k 25 reports: the γ
        # rows need neither exp(n/36) nor 2^γ, whose γ is about 2.3·10^17
        start = time.perf_counter()
        assert main(["chain-check", "--k", "25", "--n", str(n)]) == 0
        assert time.perf_counter() - start < 5
        out = capsys.readouterr().out
        assert "  PASS     2^(gamma+1) >= exp(n/36)" in out
        assert "  PASS     2^gamma > n/40" in out
        assert ("[holds]" if holds else "[does not hold]") in out
        if not holds:
            assert "minimal n with Phi(n/(50*2^k)) > exp(2n)  lhs=5629499534213120001 " in out
        assert out.endswith("  => OK\n")

    @pytest.mark.parametrize("phi, log_lo", [
        # α·ln t past the exact-power budget: (c3) is settled in log space, and
        # the final row's logs, past double range, print as mpmath rounds them
        ("exppow:100000000", "5.36188e+17897694"),
        ("exppow:100000", "4.95141e+17897"),
    ])
    def test_a_huge_integer_alpha_ends_quickly(self, phi, log_lo, capsys):
        start = time.perf_counter()
        assert main(["chain-check", "--k", "1", "--phi", phi]) == 0
        assert time.perf_counter() - start < 5
        out = capsys.readouterr().out
        assert f"  PASS     2^(-2n-1)*Phi(t) >= (e/2)^(2n)           lhs=log in [{log_lo}, " in out

    @pytest.mark.parametrize("phi", ["exppow:1000000", "exppow:100000000"])
    def test_the_least_n_of_a_huge_alpha_needs_no_radicand(self, phi, capsys):
        # (50·2^k)^α would take 6.6·10^8 bits at α = 10^8; the n > 120
        # margins fail at n = 2, so the exit status is 1
        start = time.perf_counter()
        assert main(["chain-check", "--k", "1", "--phi", phi, "--n", "2"]) == 1
        assert time.perf_counter() - start < 2
        assert "minimal n with Phi(n/(50*2^k)) > exp(2n)  lhs=101 " in capsys.readouterr().out

    def test_the_display_row_beside_its_threshold_is_decided(self, capsys):
        # X = 2.76 against ln(1 + 2e^2) = 2.7586...; the n > 120 margins fail
        assert main(["chain-check", "--n", "1", "--k", "1", "--phi", "exp:276"]) == 1
        out = capsys.readouterr().out
        assert "  PASS     2^(-2n-1)*Phi(t) >= (e/2)^(2n)           lhs=log in [" in out
        assert "undecided" not in out

    @pytest.mark.parametrize("c, verdict", [
        ("201732867951399863273543080303646", "PASS"),
        ("201732867951399863273543080303645", "FAIL"),
    ])
    def test_the_display_row_past_an_exponent_of_64_is_decided(self, c, verdict, capsys):
        # X = 2c/5 ≈ 80.69 against ln(1 + 2e^80): the threshold c·10^30 lies
        # between these two numerators, 2^-101 from either; e^-X must be
        # enclosed to relative precision for the row to decide
        argv = ["chain-check", "--n", "40", "--k", "1", "--phi", f"exp:{c}/{10**30}"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[holds]" in out
        assert f"  {verdict:<8} 2^(-2n-1)*Phi(t) >= (e/2)^(2n)           lhs=log in [" in out
        assert "undecided" not in out

    @pytest.mark.parametrize("shift, holds", [(85, True), (115, True), (116, False)])
    def test_c3_just_above_2n_is_decided(self, shift, holds, capsys):
        # X = 2c/5 = 80 + 2^-shift against ln(1 + e^80) = 80 + 2^-115.42...:
        # the exact test X <= 2n cannot settle it, and e^-80 is about 2^-115
        c = Fraction(200) + Fraction(5, 2 << shift)
        argv = ["chain-check", "--n", "40", "--k", "1", "--phi", f"exp:{c}"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert ("[holds]" if holds else "[does not hold]") in out
        assert "undecided" not in out

    def test_an_exact_tie_past_the_exact_power_budget(self, tmp_path):
        # t = 200^100 and X = t^(101/100) = 200^101 = 2n: a tie that one
        # integer root settles, so (c3) does not hold and the least n is n + 1
        n = 100 * 200**100
        out_file = tmp_path / "chains.csv"
        argv = ["chain-check", "--k", "1", "--phi", "exppow:101/100", "--n", str(n)]
        assert main(argv + ["--out", str(out_file)]) == 0
        rows = out_file.read_text().splitlines()
        assert rows[-2].endswith(",reported,does not hold")
        assert rows[-1] == f"chains,minimal n with Phi(n/(50*2^k)) > exp(2n),{n + 1},,reported,"

    def test_pass_and_fail_codes(self, capsys):
        assert main(["chain-check", "--n", "151"]) == 0
        capsys.readouterr()
        assert main(["chain-check", "--n", "100"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "chains" in captured.err

    def test_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "chains.csv"
        assert main(["chain-check", "--n", "151", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# phi=exppow:2" in text
        assert "gamma = floor(log2 exp(n/36))" in text


def _point(text: str):
    from walshdiv.dyadic import parse_point

    return parse_point(text)


ARGS = ["strong-mean", "--n", "2", "--c", "2", "--x", "3/2^4",
        "--N-list", "16,64"]


class TestDeterminism:
    def run_subprocess(self, args, tmp_path, name):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "walshdiv.cli", *args, "--out", str(out)],
            capture_output=True, text=True, check=True, env=checkout_env(),
        )
        return out.read_bytes(), proc.stdout

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, _ = self.run_subprocess(ARGS, tmp_path, "a.csv")
        b, _ = self.run_subprocess(ARGS, tmp_path, "b.csv")
        assert a == b


@pytest.mark.parametrize("args", [
    ["build-fn", "--n", "0", "--c", "3"],
    ["lemma1", "--n", "30", "--x", "7/2^5"],
    ["partial-sums", "--x", "1/2^2", "--l-min", "9", "--l-max", "5"],
    ["plot", "--table", "missing.csv", "--x-col", "0", "--y-col", "1", "--svg", "x.svg"],
    # 10^12 cuts would need terabytes: rejected before the series is built
    ["partial-sums", "--x", "7/2^5", "--l-max", "1000000000000"],
    # 2^32 cells would need 32 GiB per int64 array: rejected before the scan
    ["lemma2", "--n", "30", "--cap", "30"],
    # c·4^n past the construction bound: rejected before the header is printed
    ["lemma1", "--n", "20", "--x", "7/2^5"],
    ["lemma1", "--n", "25"],
    # rejected after the construction is known, still before any output
    ["build-fn", "--n", "2", "--c", "5", "--dump-coefficients"],
    ["lemma1", "--n", "2", "--c", "10", "--x", "11/2^4"],
    # all cells: the fourth point's progression is past the cap
    ["lemma1", "--n", "2", "--c", "10"],
    # an N list whose largest N drifts past the grid cap at x = θ_2
    ["strong-mean", "--n", "2", "--c", "10", "--x", "5/2^4", "--N-list", "16,2199023255552"],
    # usage errors: one line, without a usage block
    ["strong-mean", "--n", "x"],
    ["lemma2", "--mode", "nope"],
    ["strong-mean", "--x", "7/2^5", "extra"],
    ["bogus"],
    [],
    # options that no longer exist
    ["lemma2", "--mode", "sample"],
    ["lemma2", "--samples", "5"],
    ["chain-check", "--seed", "3"],
    ["lemma2", "--config", "missing.cfg"],
    # least n past the digits a report prints: rejected before (c3) is
    # decided at it, which past the exact-power budget would take minutes
    ["chain-check", "--k", "17000"],
    ["chain-check", "--k", "100000"],
])
def test_rejected_parameters_end_in_one_stderr_line(args, tmp_path):
    # run in an empty directory, so the missing files really are missing
    proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", *args],
                          capture_output=True, text=True, env=checkout_env(),
                          cwd=tmp_path, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("walshdiv: error: ")
    assert "Traceback" not in proc.stderr


#: one successful invocation of each subcommand that takes --out
WRITERS = [
    ["lemma2", "--n", "5"],
    ["measure-en", "--n-max", "5"],
    ["build-fn"],
    ["lemma1", "--n", "1", "--c", "2"],
    ["partial-sums", "--x", "7/2^5", "--l-max", "4"],
    ["strong-mean", "--x", "7/2^5", "--N-list", "16"],
    ["chain-check"],
]
#: the removed plot subcommand, now an unknown one
PLOT = ["plot", "--table", "t.csv", "--x-col", "0", "--y-col", "1", "--svg", "x.svg"]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_an_unwritable_out_prints_nothing(argv, tmp_path, capsys):
    # a directory cannot be written as a file; nothing reaches stdout first
    assert main([*argv, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("walshdiv: error: ")


@pytest.mark.parametrize("argv, header", [
    (["lemma2"], "# walshdiv lemma2\n# seed=0\n# mode=exhaustive\n# n=12\n"),
    (["build-fn"], "# walshdiv build-fn\n# seed=0\n# c=3\n# grid=18\n# n=2\n"),
    (["chain-check"], "# walshdiv chain-check\n# seed=0\n# k=1\n# n=151\n"
                      "# phi=exppow:2\n"),
    (["strong-mean", "--x", "7/2^5", "--N-list", "16"],
     "# walshdiv strong-mean\n# seed=0\n# c=3\n# center=0\n# grid=18\n# n=2\n"
     "# phis=exppow:2\n# threshold=1/20\n# x=7/2^5\n"),
], ids=["lemma2", "build-fn", "chain-check", "strong-mean"])
def test_default_n_and_c_give_the_documented_headers(argv, header, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(header)


@pytest.mark.parametrize("argv, message", [
    (["lemma2", "--n", "0"], "n must be positive, got 0"),
    (["chain-check", "--n", "0"], "n must be positive, got 0"),
    (["chain-check", "--n", "-5"], "n must be positive, got -5"),
    (["lemma2", "--n", "-5"], "n must be positive, got -5"),
    (["strong-mean", "--x", "7/2^5", "--N-list", "16,a"], "bad N list '16,a'"),
    # least n past the 4,300 digits a report prints, named with k
    (["chain-check", "--k", "7137"], "the least n with Phi(n/(50*2^k)) > exp(2n) at "
     "k=7137 has 4301 digits, more than the 4300 a report prints"),
    (["chain-check", "--k", "8000"], "the least n with Phi(n/(50*2^k)) > exp(2n) at "
     "k=8000 has 4821 digits, more than the 4300 a report prints"),
    (["chain-check", "--k", "15000"], "the least n with Phi(n/(50*2^k)) > exp(2n) at "
     "k=15000 has 9035 digits, more than the 4300 a report prints"),
    # rational options name themselves, before any census is built
    (["strong-mean", "--x", "7/2^5", "--center", "1/0"],
     "--center: invalid rational value '1/0'"),
    (["strong-mean", "--x", "7/2^5", "--threshold=-1"],
     "--threshold must be at least 0, got -1"),
])
def test_rejected_values_are_named(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"walshdiv: error: {message}\n")


def test_values_may_start_with_a_dash(capsys):
    outputs = []
    for center in (["--center", "-1/2"], ["--center=-1/2"]):
        assert main(["strong-mean", "--x", "7/2^5", "--N-list", "16", *center]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "# center=-1/2\n" in outputs[0]


def test_a_repeated_flag_keeps_its_last_value(capsys):
    assert main(["chain-check", "--n", "100", "--n", "151", "--k=3", "--k", "2"]) == 0
    assert capsys.readouterr().out.startswith("# walshdiv chain-check\n# seed=0\n# k=2\n# n=151\n")


#: every option each subcommand accepts, in the order its help lists them
OPTIONS = {
    "lemma2": ["--out", "--n", "--cap"],
    "measure-en": ["--out", "--n-min", "--n-max"],
    "build-fn": ["--out", "--n", "--c", "--dump-coefficients"],
    "lemma1": ["--out", "--n", "--c", "--x"],
    "partial-sums": ["--out", "--n", "--c", "--x", "--l-min", "--l-max"],
    "strong-mean": ["--out", "--n", "--c", "--x", "--phi", "--N-list",
                    "--threshold", "--center"],
    "chain-check": ["--out", "--n", "--k", "--phi"],
}


@pytest.mark.parametrize("name", OPTIONS)
def test_help_lists_exactly_the_options(name, capsys):
    # a new knob has to show up here as a diff
    assert main([name, "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: walshdiv {name} ")
    assert re.findall(r"^  (--[\w-]+)", out, re.MULTILINE) == OPTIONS[name]
    assert err == ""


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_top_level_help_lists_every_subcommand(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^  (\S+)", out, re.MULTILINE) == list(OPTIONS) == list(_SUBCOMMANDS)


@pytest.mark.parametrize("argv", [
    ["strong-mean", "--n", "x"],
    ["lemma2", "--mode", "nope"],
    ["strong-mean", "--x", "7/2^5", "extra"],
    ["plot", "--table", "t.csv"],
    ["bogus"],
    [],
    ["lemma2", "--mode", "sample"],
    ["lemma2", "--samples", "5"],
    ["chain-check", "--seed", "3"],
    *([*argv, "--config", "run.cfg"] for argv in [*WRITERS, PLOT]),
    [*PLOT, "--out", "y.csv"],
    # flags match exactly: no abbreviations
    ["build-fn", "--dump"],
    ["strong-mean", "--x", "7/2^5", "--N", "16"],
    # a missing value, a value on a switch, a missing required option
    ["strong-mean", "--x"],
    ["build-fn", "--dump-coefficients=yes"],
    ["partial-sums", "--x", "7/2^5"],
    ["--out", "t.csv"],
])
def test_usage_errors_end_in_one_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("walshdiv: error: ") and err.count("\n") == 1


DESK = ["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5", "--N-list", "16,4096,524288"]


def test_the_desk_command_imports_no_argparse():
    # argparse's gettext lookups import locale, a few ms of every command
    code = ("import sys; from walshdiv import cli; status = cli.main(sys.argv[1:]); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), status)")
    proc = subprocess.run([sys.executable, "-c", code, *DESK], capture_output=True,
                          text=True, env=checkout_env(), timeout=60)
    assert proc.stdout.splitlines()[-1] == "[] 0"


class TestPastTheGridCap:
    """q past 2^GRID_CAP: the window census counts every cut, at every c."""

    def test_lemma1_prints_an_exact_count(self, capsys):
        assert main(["lemma1", "--n", "2", "--c", "10", "--x", "1/2^5"]) == 0
        out = capsys.readouterr().out
        params = ConstructionParams(2, 10)
        census = symbolic_census(params, _point("1/2^5"), 2 * params.q)
        count = sum(c for v, c in census if abs(v) > Fraction(1, 20))
        assert f"[count={count} of 2305843009213693952]" in out
        assert "uncounted" not in out

    def test_lemma1_counts_all_cells_at_c10_quickly(self, capsys):
        start = time.perf_counter()
        assert main(["lemma1", "--n", "3", "--c", "10"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert out.count(f" of {2 * ConstructionParams(3, 10).q}]") == 32
        assert elapsed < 1.0

    def test_strong_mean_takes_any_cut_count(self, capsys):
        N = 1 << 40
        assert main(["strong-mean", "--n", "2", "--c", "10", "--x", "7/2^5",
                     "--N-list", f"16,4096,{N}"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if l.startswith("exppow:2,")]
        assert [r[1] for r in rows] == ["16", "4096", str(N)]
        census = symbolic_census(ConstructionParams(2, 10), _point("7/2^5"), N)
        count = sum(c for v, c in census if abs(v) > Fraction(1, 20))
        assert Fraction(rows[-1][3]) == Fraction(count, N)

    def test_strong_mean_at_a_translation_rejects_a_drifting_census(self, capsys):
        # x = theta_2 = 5/2^4: S_l drifts past u_2 = 2^40, one value per cut
        argv = ["strong-mean", "--n", "2", "--c", "10", "--x", "5/2^4", "--N-list"]
        assert main([*argv, "16,4096,1099511627776"]) == 0
        capsys.readouterr()
        assert main([*argv, "16,2199023255552"]) == 2
        assert "drifts" in one_error_line(capsys)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_lemma1_rejects_an_unbounded_progression():
    # at c = 10 the window [2^40, 2^50) holds 2^46 progression cuts
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "walshdiv.cli", "lemma1", "--n", "2", "--c", "10",
         "--x", "11/2^4"],
        capture_output=True, text=True, env=checkout_env(), timeout=10,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("walshdiv: error: ")
    assert "progression" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["lemma1", "--n", "20", "--x", "1/2^5"],
    ["build-fn", "--n", "20", "--c", "3"],
])
def test_constructions_past_the_bound_are_rejected_before_building(argv):
    # 2^20 kernel orders of up to 3·2^20 bits: a MemoryError traceback
    # under the address-space limit unless c·4^n is bounded first
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", *argv],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=30, preexec_fn=_limit_memory)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("walshdiv: error: ")
    assert "too large to build" in proc.stderr


def test_lemma1_over_all_cells_rejects_a_huge_order_before_allocating():
    # without --x, n = 30 would mean 2^32 points: rejected up front instead
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", "lemma1", "--n", "30"],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=10)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("walshdiv: error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["measure-en", "--n-max", "15000"],
    ["lemma2", "--n", "20000"],
])
def test_orders_past_the_measure_bound_fail_fast(argv):
    # rejected before the |E_n| recurrence, not after computing every row
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "walshdiv.cli", *argv],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("walshdiv: error: ")
    assert "measure bound" in proc.stderr


DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_matches_the_benchmark_digest(command, capsys):
    # every command the benchmark recorded a stdout SHA-256 for, at every
    # seed point; this test only reads the file
    main(command.split())
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command]


#: stdout SHA-256 of chain-check commands, recorded before ln Φ moved into
#: PhiSpec; each runs in well under a second
CHAIN_CHECK_DIGESTS = {
    "": "fd3324111b9479f49c6d9b82bea9165cd08124e167b126d13224b126c61d646d",
    "--k 24": "53d2ab9a3896a08f09a1daaf80c9c026bf8c3b94e2cbe647e2bfd44f9f10dcdf",
    "--k 7000": "45ed12f56a2c9b4dd4ebaacf3394d2738b4b7be2baa840b9296de235bd344d1a",
    "--phi exppow:3/2": "597f239dfebc68c4eee88811a6324a728e5e8c5859ad6f85199097b87b2d34ac",
    "--phi exppow:100000": "4414952b05b48b16c5a127ee28fdbe517929265c3f8508111d1206ead7a64242",
    "--phi pow:5000": "2c85267e8b9781354d0cc2a9ce17cc119188d71519b83b94ce7228f4db3a7424",
    "--n 400 --phi exp:300": "e8c8f511aafd828b4874703d68be3249c7b72d3f05ccfb764b99ca0be4e81a27",
    "--k 1 --phi exppow:101/100":
        "9852d38abe6ef2e2d18b198d424cb00896a0e1cb44688d9b00025966281294e3",
    "--phi exppow:5/3 --k 2": "bdabce09d2f94ebb54bf0dda7dedb65ee6e3f7788d5f83d9b81001425679f286",
    "--k 15000 --phi pow:2": "386084ece20730a3e0998c4dd41f1036c9e8a400a419f7a9aecafb54b343f19c",
    "--n 1 --k 1 --phi exp:276": "cc377913a6fabc8f16fcd1a51570edd6d89cf6297b4fc829c9f7916dddc4c133",
    "--n 1 --k 1 --phi exp:250": "18ac9c0cea767dbfc24cad25668cbd922aad849dd4384b01638b17d101610a7e",
    "--k 25 --n 5629499534213120001":
        "d916a1e48df60f27674b6c66596ee1ae18f0265675dbf3c5f02badb321f0df81",
    "--k 1 --phi exppow:1000000 --n 2":
        "5518f9bbadf2523c10e6f2bec39eb44606fbf1f57a50acbd2e213a7ade352d65",
    "--k 1 --phi exppow:100000000 --n 2":
        "44ddb2ca95d06712d5309ff4ccda097a21c37feb87e28cd7b46aff90d99d63f3",
    "--n 10 --k 1 --phi exp:1000": "326de38789fda5c282b037ae56ce84b3a7e756878dda535be4612c122bf68eb0",
    "--k 2 --phi exp:100000": "af6f2489c6e401d138a6a64e6b017dec37df8766c56095a0e9e6cc87c32a91ee",
    "--n 3 --k 1 --phi pow:2": "7a5184e4c3ddce6d59eedb9be1b84bb936e092182e50b5affd7727735e45b2fb",
    "--n 100 --k 1 --phi exppow:3": "6f4308403a818d9d4dd5a90429af8521b2929bf9d9055528cdd2dce5208a85fb",
    "--n 60 --k 1 --phi exp:220": "41991e4894497ab6c52a68c48f9324c0882c932d9902ed4bc0b10d0ef4cc8e13",
}


@pytest.mark.parametrize("options", list(CHAIN_CHECK_DIGESTS))
def test_chain_check_prints_the_recorded_bytes(options, capsys):
    main(["chain-check", *options.split()])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CHAIN_CHECK_DIGESTS[options]
