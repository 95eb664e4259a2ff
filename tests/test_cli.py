"""Command-line behavior: exit codes, headers, tables, config, and plots."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from walshdiv.cli import main
from walshdiv.counterexample import ConstructionParams, build_fn
from walshdiv.walsh import fwht


def run_main(argv):
    return main(argv)


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

    def test_seed_is_echoed(self, capsys):
        code = main(
            ["lemma2", "--n", "30", "--mode", "sample", "--samples", "50",
             "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# seed=5" in out
        assert "# samples=50" in out


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

    def test_dump_requires_renderable_spectrum(self, capsys):
        with pytest.raises(SystemExit, match="coefficient dump"):
            main(["build-fn", "--n", "2", "--c", "3", "--grid-cap", "12",
                  "--dump-coefficients"])

    def test_block_table(self, tmp_path, capsys):
        out_file = tmp_path / "blocks.csv"
        assert main(["build-fn", "--out", str(out_file)]) == 0
        lines = [
            l for l in out_file.read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "lo,hi,owners"
        assert lines[1] == '4,15,"indicator"'
        assert lines[-1] == '32768,262144,"pairs 1..3"'


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

    def test_rejects_bad_range(self):
        with pytest.raises(SystemExit, match="bad cut range"):
            main(["partial-sums", "--x", "1/2^2", "--l-min", "9", "--l-max", "5"])


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

    def test_rejects_bad_n_list(self):
        with pytest.raises(SystemExit, match="bad N list"):
            main(["strong-mean", "--x", "1/2^2", "--N-list", "0,4"])

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


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn = 1\nc = 2\n")
        assert main(["build-fn", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "construction n=1 c=2" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=1\nc=2\n")
        assert main(["build-fn", "--config", str(cfg), "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "construction n=3 c=2" in out

    def test_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("resolution=9\n")
        with pytest.raises(SystemExit, match="expected one of"):
            main(["build-fn", "--config", str(cfg)])

    def test_rejects_malformed_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n: 4\n")
        with pytest.raises(SystemExit):
            main(["build-fn", "--config", str(cfg)])


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

    def test_log_scale_guard(self, tmp_path):
        table = self.make_table(tmp_path)
        with pytest.raises(SystemExit, match="strictly positive"):
            # |E_1| = 0, so a log-scale measure plot must be refused
            main(["plot", "--table", str(table), "--x-col", "n",
                  "--y-col", "measure_float", "--svg",
                  str(tmp_path / "x.svg"), "--log-y"])

    def test_rejects_unknown_and_textual_columns(self, tmp_path):
        table = self.make_table(tmp_path)
        with pytest.raises(SystemExit, match="no column"):
            main(["plot", "--table", str(table), "--x-col", "nope",
                  "--y-col", "n", "--svg", str(tmp_path / "x.svg")])
        with pytest.raises(SystemExit, match="non-numeric"):
            main(["plot", "--table", str(table), "--x-col", "n",
                  "--y-col", "verdict", "--svg", str(tmp_path / "x.svg")])

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
    def run_subprocess(self, args, tmp_path, name, env_extra=None):
        out = tmp_path / name
        env = dict(os.environ)
        env.update(env_extra or {})
        proc = subprocess.run(
            [sys.executable, "-m", "walshdiv.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=env, check=True,
        )
        return out.read_bytes(), proc.stdout

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, _ = self.run_subprocess(ARGS, tmp_path, "a.csv")
        b, _ = self.run_subprocess(ARGS, tmp_path, "b.csv")
        assert a == b

    def test_backends_agree_end_to_end(self, tmp_path):
        a, _ = self.run_subprocess(ARGS, tmp_path, "numba.csv")
        b, _ = self.run_subprocess(
            ARGS, tmp_path, "numpy.csv", env_extra={"WALSHDIV_NUMBA": "0"}
        )
        assert a == b
