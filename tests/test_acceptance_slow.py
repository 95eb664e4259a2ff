"""Slow companions to the acceptance gate.

Run with ``pytest -m slow``.

- The exhaustive selector sweep n <= 16.  The claim under test is the
  full-strength one: at every admissible order n up to 16, every member cell
  must clear the n/30 integral bound with a nonempty selector.  The sweep
  asserts exactly that and reports one line per order, so a genuinely failing
  order fails the test — by design there is no allow-list softening the
  verdict.
- A strong mean over 2^20 cuts with 352,520 distinct magnitudes, whose Φ
  values reach e^392835: it ends in a verdict within a bounded peak memory.
- The 3.76 M-row coefficient dump at n = 3, c = 2, byte for byte against the
  row oracle, with the command's own peak memory.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from walshdiv.counterexample import ConstructionParams, build_fn, verify_lemma2
from walshdiv.walsh import fwht

from oracles import coefficient_rows
from test_cli import checkout_env


@pytest.mark.slow
def test_selector_integral_bound_full_sweep(capsys) -> None:
    failing: list[int] = []
    with capsys.disabled():
        print(flush=True)
        for n in range(1, 17):
            t0 = time.perf_counter()
            report = verify_lemma2(n)
            elapsed = time.perf_counter() - t0
            if not report.ok:
                failing.append(n)
            bad = [r.assertion for r in report.rows if r.verdict == "fail"]
            print(
                f"[{'PASS' if report.ok else 'FAIL'}] selector sweep n={n:2d} "
                f"({elapsed:.1f}s)" + (f" -- {'; '.join(bad)}" if bad else ""),
                flush=True,
            )
            assert elapsed < 300.0, f"n={n} exceeded the 5-minute budget"
    assert not failing, f"integral bound fails at n in {failing}"


# runs one command, then reports the peak resident set of its own process
_PEAK_RSS = """
import sys
from walshdiv import cli
status = cli.main(sys.argv[1:])
with open("/proc/self/status") as f:
    peak = next(line for line in f if line.startswith("VmHWM:"))
print(status, int(peak.split()[1]) // 1024, file=sys.stderr)
"""


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_strong_mean_over_a_million_cuts_ends_in_bounded_memory(capsys) -> None:
    argv = ["strong-mean", "--n", "3", "--c", "2", "--x", "9/2^6",
            "--N-list", "16,1024,1048576", "--phi", "exp:3"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                          text=True, env=checkout_env(), timeout=600)
    elapsed = time.perf_counter() - t0
    status, peak_mib = map(int, proc.stderr.split())
    with capsys.disabled():
        print(f"\nstrong-mean exp:3 at N = 2^20: {elapsed:.1f}s, peak {peak_mib} MiB")
    assert status == 0
    rows = [line.split(",") for line in proc.stdout.splitlines() if line.startswith("exp:3,")]
    assert [(r[1], r[-1]) for r in rows] == [
        ("16", "pass"), ("1024", "pass"), ("1048576", "pass")]
    assert peak_mib < 300


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_coefficient_dump_at_n3_c2_matches_the_row_oracle(capsys) -> None:
    argv = ["build-fn", "--n", "3", "--c", "2", "--dump-coefficients"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                          text=True, env=checkout_env(), timeout=600)
    elapsed = time.perf_counter() - t0
    status, peak_mib = map(int, proc.stderr.split())
    with capsys.disabled():
        print(f"\nbuild-fn dump at n = 3, c = 2: {elapsed:.1f}s, peak {peak_mib} MiB")
    assert status == 0
    head, sep, rows = proc.stdout.partition("\nindex,value_exact,value_float")
    assert head.endswith("# grid=22\n# n=3") and sep
    params = ConstructionParams(3, 2)
    assert rows == coefficient_rows(fwht(build_fn(params).render(params.q_exponent))) + "\n"
