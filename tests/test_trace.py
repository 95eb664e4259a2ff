"""The traced benchmark pass still binds every layer and counts the same work.

``perfbench/layers.py`` wraps library functions by name after
``walshdiv.cli`` is imported; a renamed or removed target goes missing, and a
traced command that raises counts as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import checkout_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from walshdiv import cli
import layers

recorder = layers.Recorder()
missing = layers.install(recorder)
status = cli.main(sys.argv[2:])
print(json.dumps({"missing": missing, "status": status, "values": recorder.snapshot()}))
"""


def _traced(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), *argv],
        capture_output=True, text=True, env=checkout_env(), timeout=60, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    return report


def test_traced_strong_mean_counts():
    report = _traced(["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5",
                      "--N-list", "16,4096"])
    assert report["status"] == 0
    values = report["values"]
    assert values["fourier.terms"] == 12336  # 3 consumers x (16 + 4096) cuts
    # one f_n for the whole N list, and Φ once per distinct magnitude (5 in
    # all) plus the threshold's enclosure, however many N share a magnitude
    assert values["counterexample.build_fn.calls"] == 1
    assert values["fourier.PhiSpec.value_mpf.calls"] == 5
    assert values["fourier.PhiSpec.enclosure.calls"] == 6
    assert values["bounds.exp_enclosure.calls"] == 10


def test_traced_paper_scale_strong_mean_builds_f_n_once():
    cuts = ",".join(str(1 << e) for e in (4, *range(12, 109, 8)))  # 2^4, 2^12, ..., 2^108
    report = _traced(["strong-mean", "--n", "3", "--c", "10", "--x", "5/2^6",
                      "--N-list", cuts])
    assert report["status"] == 0
    assert report["values"]["counterexample.build_fn.calls"] == 1


def test_traced_measure_table_counts():
    # one certified enclosure per order; the false FAILs from n = 2304 on stay
    report = _traced(["measure-en", "--n-max", "3000"])
    assert report["status"] == 1
    values = report["values"]
    assert values["bounds.exp_enclosure.calls"] == 3000
    assert values["counterexample.measure_En_range.calls"] == 1
    assert values["counterexample.measure_En_range.s"] > 0


def test_traced_exhaustive_lemma2_counts():
    # the scan covers the 2^21 cells with x_1 = 0 of the 2^22 at level n + 2
    report = _traced(["lemma2", "--n", "20", "--cap", "20"])
    assert report["status"] == 0
    values = report["values"]
    assert values["kernels.cell_scan.cells"] == 1 << 21
    assert values["kernels.cell_scan.calls"] == 1
    assert values["bounds.exp_enclosure.calls"] == 1


def test_traced_lemma1_builds_f_n_once():
    # 32 level-5 cells, one WindowSums each, all reading the one f_n of params
    report = _traced(["lemma1", "--n", "3", "--c", "2"])
    assert report["status"] == 0
    values = report["values"]
    assert values["counterexample.verify_lemma1.calls"] == 32
    assert values["counterexample.build_fn.calls"] == 1


def test_traced_coefficient_dump_counts():
    # the indicator's 2^4-cell table and the 2^18-cell render of f_n
    report = _traced(["build-fn", "--n", "2", "--c", "3", "--dump-coefficients"])
    assert report["status"] == 0
    values = report["values"]
    assert values["walsh.fwht.calls"] == 2
    assert values["kernels.hadamard_inplace.ops"] == 16 * 4 + (1 << 18) * 18  # 4,718,656


def test_traced_partial_sums_counts():
    report = _traced(["partial-sums", "--n", "2", "--c", "3", "--x", "7/2^5",
                      "--l-max", "64"])
    assert report["status"] == 0
    assert report["values"]["counterexample.partial_sum_series.calls"] == 1


def test_traced_chain_check_decides_c3_once():
    # the γ row plus one (c3) decision at the closed-form threshold
    report = _traced(["chain-check", "--k", "24"])
    assert report["status"] == 0
    assert report["values"]["bounds.decide_less.calls"] == 2


def test_traced_chain_check_at_fractional_alpha_needs_no_refinement():
    # the threshold n = 4·100^3 + 1 lies one above the exact tie t^(3/2) = 2n
    report = _traced(["chain-check", "--k", "1", "--phi", "exppow:3/2"])
    assert report["status"] == 0
    assert report["values"]["bounds.decide_less.max_prec"] == 96
