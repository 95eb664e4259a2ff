"""Time-to-verdict benchmark for the walshdiv command line.

Run from the repository root::

    python3 perfbench/run.py --workload desk-means --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload spectrum --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --record-digests

It prints one ``#`` line per command with its verdict, a table of metrics
with units, and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

A workload is a fixed list of real ``walshdiv`` CLI commands (``WORKLOADS``;
``BENCHMARK.json`` says why each was chosen).  A pass runs the list once.  Every
command runs in a fresh interpreter (``child.py``) launched from this process,
one at a time: ``counterexample._prepared_fn`` caches build, render and
transform per process, and a CLI user pays for them on every invocation.
Passes repeat while another one fits in ``--seconds``.

End-to-end metrics (``--trace 0``, no tracing installed):

- ``setup_s``: fresh interpreter until ``walshdiv.cli`` is imported, median
  over the run's untraced launches plus ``SETUP_PROBES`` import-only ones;
- ``verify_s``: wall time inside ``cli.main``, summed over the workload's
  commands, median over passes;
- ``peak_rss_mb``: the highest peak resident set of any command process.

Per-layer metrics (``--trace 1``): passes alternate untraced and traced; a
traced pass installs the wrappers of ``layers.py`` in each child.  Span times
are medians over traced passes, counts are summed over a pass's commands, and
``trace.overhead`` is traced ``verify_s`` over untraced ``verify_s``.

Outcome: ``attempted`` counts the workload's distinct commands and ``failed``
those with a launch that exited nonzero, raised, hit its timeout, or printed
output that differs between launches, from the SHA-256 recorded in
``digests.json``, or from the independent oracle (``oracle.py``).  All checks
run outside the timed region.  ``correct`` is false when an output differs from
its digest or the oracle, or could not be checked.  A command that exits
nonzero with the recorded output counts as failed but not as incorrect: at
the commit the digests were recorded at, ``measure-en --n-max 3000`` prints
false FAIL verdicts for n >= 2304, and certify keeps that defect visible.

The seed picks the point x = a/2^5 (a odd) of both strong-mean commands; seed
0 gives the documented desk witness 7/2^5.  Commands with no free input
ignore it.  ``WALSHDIV_*`` variables are removed from the environment first.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

COMMAND_TIMEOUT = 60.0  # seconds; a command still running is killed and fails
RUN_LIMIT = 150.0  # seconds after start at which any running command is killed
POINTS = 16  # odd numerators a of x = a/2^5
SETUP_PROBES = 8  # import-only launches per run, for a steadier setup_s median


def point_for(seed: int) -> str:
    """x = a/2^5 with a odd; seed 0 gives 7/2^5."""
    return f"{2 * ((seed + 3) % POINTS) + 1}/2^5"


def _desk_means(x: str) -> list[list[str]]:
    return [["strong-mean", "--n", "2", "--c", "3", "--x", x, "--N-list", "16,4096,524288"]]


def _spectrum(x: str) -> list[list[str]]:
    return [
        ["lemma1", "--n", "3", "--c", "2"],
        ["build-fn", "--n", "2", "--c", "3", "--dump-coefficients"],
    ]


def _certify(x: str) -> list[list[str]]:
    # q = 2^30 at c = 5 is past the grid cap, so strong-mean takes the
    # symbolic series; the measure-en range runs past n = 2304 on purpose.
    return [
        ["lemma2", "--n", "20", "--cap", "20"],
        ["measure-en", "--n-max", "3000"],
        ["strong-mean", "--n", "2", "--c", "5", "--x", x, "--N-list", "16,256,4096"],
    ]


WORKLOADS = {"desk-means": _desk_means, "spectrum": _spectrum, "certify": _certify}


def launch(argv: list[str], traced: bool, work: Path, deadline: float) -> dict:
    """Run one CLI command in a fresh interpreter; return its measurements."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    out_path, err_path = Path(result_path + ".out"), Path(result_path + ".err")
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), repr(spawn), result_path, str(SRC),
             "1" if traced else "0", "--", *argv],
            stdout=out, stderr=err, cwd=ROOT,
        )
        try:
            proc.wait(timeout=max(min(COMMAND_TIMEOUT, deadline - time.monotonic()), 0.0))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall_s = time.monotonic() - spawn
    report = Path(result_path).read_text()
    record = json.loads(report) if report and not timed_out else {}
    record.update(
        argv=argv,
        wall_s=wall_s,
        traced=traced,
        timed_out=timed_out,
        exit_code=proc.returncode,
        output=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace")[-2000:],
    )
    for path in (Path(result_path), out_path, err_path):
        path.unlink()
    return record


def run_passes(commands: list[list[str]], seconds: int, trace: bool,
               work: Path) -> tuple[list[dict], list[list[dict]]]:
    """(setup probes, passes over the command list while ``seconds`` last).

    A pass starts only if one more pass as long as the last one still ends
    within ``seconds``.  With ``trace`` the passes alternate untraced and
    traced, and there are at least one of each.
    """
    start = time.monotonic()
    probes = [launch([], False, work, start + RUN_LIMIT) for _ in range(SETUP_PROBES)]
    passes: list[list[dict]] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        begin = time.monotonic()
        passes.append([launch(argv, traced, work, start + RUN_LIMIT) for argv in commands])
        now = time.monotonic()
        enough = not trace or len(passes) >= 2
        if enough and now + (now - begin) > start + seconds or now >= start + RUN_LIMIT:
            return probes, passes


def command_problems(argv: list[str], launches: list[dict], digests: dict[str, str]) -> tuple[list[str], bool]:
    """(reasons the command failed, whether its output was shown correct)."""
    problems = []
    for rec in launches:
        last_line = (rec["stderr"].strip().splitlines() or [""])[-1][:160]
        if rec["timed_out"]:
            problems.append("timed out")
        elif rec.get("raised"):
            problems.append(f"raised: {last_line}")
        elif rec["exit_code"] != 0:
            problems.append(f"exit {rec['exit_code']}: {last_line}")
    finished = [rec for rec in launches if "verify_s" in rec and not rec["raised"]]
    if not finished:
        return list(dict.fromkeys(problems)), False
    correct = len(finished) == len(launches)
    shas = {hashlib.sha256(rec["output"]).hexdigest() for rec in finished}
    recorded = digests.get(" ".join(argv))
    if len(shas) > 1:
        problems.append("output differs between launches")
        correct = False
    elif recorded is not None and recorded not in shas:
        problems.append(f"output sha256 {shas.pop()[:12]} != recorded {recorded[:12]}")
        correct = False
    try:
        disagreements = oracle.check(argv, finished[0]["output"].decode())
    except Exception as exc:  # unparsable output is a disagreement, not a crash
        disagreements = [f"oracle could not check the output: {exc!r}"]
    if disagreements:
        problems += [f"{len(disagreements)} oracle disagreements"] + disagreements[:3]
        correct = False
    return list(dict.fromkeys(problems)), correct


def _verify_s(one_pass: list[dict]) -> float:
    """Time to verdict of a pass; a command with no report counts its wall time."""
    return sum(rec.get("verify_s", rec["wall_s"]) for rec in one_pass)


def summarize(probes: list[dict], passes: list[list[dict]],
              trace: bool) -> tuple[dict[str, float], dict[str, float]]:
    """(end-to-end values, per-layer values) from the launches of one run."""
    plain = [p for p in passes if not p[0]["traced"]]
    traced = [p for p in passes if p[0]["traced"]]
    reports = [rec for p in plain for rec in p if "verify_s" in rec]
    verify = statistics.median(_verify_s(p) for p in plain)
    end_to_end = {
        "setup_s": statistics.median(rec["setup_s"] for rec in probes + reports if "setup_s" in rec),
        "verify_s": verify,
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in reports) / 1024,
    }
    if not trace:
        return end_to_end, {}
    per_pass = []
    for p in traced:
        values: dict[str, float] = {"trace.overhead": _verify_s(p) / verify}
        for rec in p:
            for name, value in rec.get("layers", {}).items():
                if name.endswith(".max_prec"):
                    values[name] = max(values.get(name, 0), value)
                else:
                    values[name] = values.get(name, 0) + value
            sub = f"cli.{rec['argv'][0]}.s"
            values[sub] = values.get(sub, 0.0) + rec.get("layers", {}).get("cli.main.s", 0.0)
            text = rec["output"].decode(errors="replace")
            values["cli.rows"] = values.get("cli.rows", 0) + sum(
                1 for line in text.splitlines() if line and not line.startswith("#"))
            values["cli.output_bytes"] = values.get("cli.output_bytes", 0) + len(rec["output"])
        per_pass.append(values)
    names = set().union(*per_pass)
    per_layer = {name: statistics.median(v.get(name, 0) for v in per_pass) for name in names}
    return end_to_end, per_layer


def environment() -> list[str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    versions = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in ("numpy", "mpmath"))
    numba = "yes" if importlib.util.find_spec("numba") else "no"
    return [
        f"machine: {platform.platform()}, nproc={os.cpu_count()}",
        f"python {platform.python_version()}, {versions}, numba importable: {numba}",
        f"commit: {commit}",
    ]


def record_digests() -> None:
    """Rewrite digests.json with the stdout SHA-256 of every command at every point."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        for build in WORKLOADS.values():
            for seed in range(POINTS):
                for argv in build(point_for(seed)):
                    key = " ".join(argv)
                    if key not in digests:
                        rec = launch(argv, False, Path(work), time.monotonic() + COMMAND_TIMEOUT)
                        digests[key] = hashlib.sha256(rec["output"]).hexdigest()
                        print(f"{digests[key][:12]}  exit {rec['exit_code']}  {key}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program and exit")
    args = parser.parse_args()
    if not (SRC / "walshdiv" / "cli.py").is_file():
        print(f"perfbench: no walshdiv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("WALSHDIV_")]:
        del os.environ[key]  # neither the children nor the oracle see library settings
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    x = point_for(args.seed)
    commands = WORKLOADS[args.workload](x)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        probes, passes = run_passes(commands, args.seconds, bool(args.trace), Path(work))

    sys.path.insert(0, str(SRC))
    digests = json.loads(DIGESTS.read_text())
    failed, correct = 0, True
    print(f"# workload {args.workload}: {why.get(args.workload, '')}")
    print(f"# seed={args.seed} x={x} seconds={args.seconds} trace={args.trace} passes={len(passes)}")
    for p in passes:
        kind = "traced" if p[0]["traced"] else "untraced"
        print(f"# {kind} pass verify_s: " + " + ".join(f"{_verify_s([rec]):.3f}" for rec in p))
    for line in environment():
        print(f"# {line}")
    for i, argv in enumerate(commands):
        problems, ok = command_problems(argv, [p[i] for p in passes], digests)
        failed += bool(problems)
        correct &= ok
        verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"# walshdiv {' '.join(argv)} -> {verdict}")
    missing = sorted({m for p in passes for rec in p for m in rec.get("missing", [])})
    if missing:
        print(f"# trace targets not found: {', '.join(missing)}")

    if not any("verify_s" in rec for p in passes for rec in p if not rec["traced"]):
        print("perfbench: no command reported its measurements", file=sys.stderr)
        return 1
    end_to_end, per_layer = summarize(probes, passes, bool(args.trace))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [("ops_failed", failed, "count"), ("ops_attempted", len(commands), "count")]
    if args.trace:
        rows.append(("untraced verify_s", end_to_end["verify_s"], "s"))
    for name, value, unit in rows:
        note = "  (computed from array sizes)" if name.endswith((".ops", ".bytes_computed")) else ""
        print(f"{name:45s} {value:>16.6g} {unit}{note}")
    print(json.dumps({"correct": correct, "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
