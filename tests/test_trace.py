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


def test_traced_strong_mean_counts():
    argv = ["strong-mean", "--n", "2", "--c", "3", "--x", "7/2^5", "--N-list", "16,4096"]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), *argv],
        capture_output=True, text=True, env=checkout_env(), timeout=60, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["status"] == 0
    values = report["values"]
    assert values["fourier.terms"] == 12336  # 3 consumers x (16 + 4096) cuts
    assert values["fourier.PhiSpec.value_mpf.calls"] == 7
    assert values["fourier.PhiSpec.enclosure.calls"] == 8
