"""Command-line behavior: exit codes, headers, tables, and plots."""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from walshdiv.cli import (
    _SUBCOMMANDS, _build_parser, _coefficient_rows, _float, _frac, main,
)
from walshdiv.counterexample import ConstructionParams, build_fn, verify_lemma2
from walshdiv.walsh import GridVector, fwht

from oracles import measure_En, measure_en_output, symbolic_census


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
        expected = [f"{m},{_frac(co[m])},{_float(co[m])}"
                    for m in co.nonzero_indices()]
        assert _coefficient_rows(co) == expected

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


class TestChainCheckCommand:
    @pytest.mark.parametrize("k", [8, 12, 24, 25, 100, 1000])
    def test_far_growth_thresholds_are_quick(self, k, capsys):
        # the least n is one integer root and one (c3) decision there, with
        # e^{-2n} enclosed at 2^-prec however large n is
        start = time.perf_counter()
        assert main(["chain-check", "--k", str(k)]) == 0
        assert time.perf_counter() - start < 1
        assert f"lhs={5000 * 4**k + 1} rhs=" in capsys.readouterr().out

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


class TestPlotCommand:
    def make_table(self, tmp_path):
        table = tmp_path / "measure.csv"
        assert main(
            ["measure-en", "--n-min", "1", "--n-max", "30", "--out", str(table)]
        ) == 0
        return table

    def test_writes_valid_svg(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        capsys.readouterr()
        svg = tmp_path / "measure.svg"
        code = main(
            ["plot", "--table", str(table), "--x-col", "n",
             "--y-col", "measure_float", "--svg", str(svg),
             "--title", "measure <of> E_n"]
        )
        assert code == 0
        assert "30 points" in capsys.readouterr().out
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        body = svg.read_text()
        assert "<polyline" in body
        assert "measure &lt;of&gt; E_n" in body

    def test_numeric_column_indices(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        svg = tmp_path / "by-index.svg"
        assert main(
            ["plot", "--table", str(table), "--x-col", "0", "--y-col", "2",
             "--svg", str(svg)]
        ) == 0
        assert svg.exists()

    def test_log_scale_guard(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        capsys.readouterr()
        # |E_1| = 0, so a log-scale measure plot must be refused
        assert main(["plot", "--table", str(table), "--x-col", "n",
                     "--y-col", "measure_float", "--svg",
                     str(tmp_path / "x.svg"), "--log-y"]) == 2
        assert "strictly positive" in one_error_line(capsys)

    def test_rejects_unknown_and_textual_columns(self, tmp_path, capsys):
        table = self.make_table(tmp_path)
        capsys.readouterr()
        assert main(["plot", "--table", str(table), "--x-col", "nope",
                     "--y-col", "n", "--svg", str(tmp_path / "x.svg")]) == 2
        assert "no column" in one_error_line(capsys)
        assert main(["plot", "--table", str(table), "--x-col", "n",
                     "--y-col", "verdict", "--svg", str(tmp_path / "x.svg")]) == 2
        assert "non-numeric" in one_error_line(capsys)

    def test_svg_flag_is_required(self):
        with pytest.raises(SystemExit) as err:
            main(["plot", "--table", "t.csv", "--x-col", "0", "--y-col", "1"])
        assert err.value.code == 2


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
    # usage errors: argparse's message alone, without its usage block
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
    # the least n has 4,821 digits, past what Python prints
    (["chain-check", "--k", "8000"], "Exceeds the limit (4300 digits) for integer "
     "string conversion; use sys.set_int_max_str_digits() to increase the limit"),
])
def test_rejected_values_are_named(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"walshdiv: error: {message}\n")


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subparsers a parser holds, by subcommand."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParserPerCommand:
    """A command builds only its own subparser, and prints what the full parser would."""

    def test_a_subcommand_builds_only_its_subparser(self):
        assert list(subparsers(_build_parser(ARGS))) == ["strong-mean"]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--out", "t.csv"]])
    def test_no_subcommand_builds_all_eight(self, argv):
        assert list(subparsers(_build_parser(argv))) == list(_SUBCOMMANDS)
        assert len(_SUBCOMMANDS) == 8

    @staticmethod
    def outputs(argv, capsys) -> list[tuple[int, str, str]]:
        """(exit status, stdout, stderr) of parsing argv, per-command and full."""
        runs = []
        for parser in (_build_parser(argv), _build_parser([])):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
            runs.append((exit_.value.code, *capsys.readouterr()))
        return runs

    @pytest.mark.parametrize("name", [None, *_SUBCOMMANDS])
    def test_help_equals_the_full_parsers(self, name, capsys):
        argv = [name, "-h"] if name else ["-h"]
        mine, full = self.outputs(argv, capsys)
        assert mine == full
        assert mine[0] == 0 and mine[1].startswith("usage: walshdiv")

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
    ])
    def test_usage_errors_equal_the_full_parsers(self, argv, capsys):
        mine, full = self.outputs(argv, capsys)
        assert mine == full
        assert mine[0] == 2 and mine[1] == ""
        assert mine[2].startswith("walshdiv: error: ") and mine[2].count("\n") == 1


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
    "plot": ["--table", "--x-col", "--y-col", "--svg", "--log-y",
             "--title"],
}


def test_option_inventory():
    # a new knob has to show up here as a diff
    options = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in subparsers(_build_parser([])).items()
    }
    assert options == OPTIONS


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
