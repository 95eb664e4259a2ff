"""Run one walshdiv CLI command in this fresh interpreter and report its cost.

Usage (launched by ``run.py``, one process per command)::

    python3 child.py SPAWN RESULT_JSON SRC_DIR TRACE -- [SUBCOMMAND ARGS...]

``SPAWN`` is the launcher's ``time.monotonic()`` just before it started this
process; the monotonic clock is system-wide on Linux, so ``setup_s`` spans
interpreter start plus ``import walshdiv.cli``.  The command's stdout goes to
whatever stdout the launcher gave this process.  With ``TRACE`` = 1 the layer
wrappers of ``layers.py`` are installed after setup is measured.  With no
command after ``--`` only setup is measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _exit_status(exc: SystemExit) -> int:
    """The status the interpreter would exit with for ``exc``."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def main() -> int:
    spawn, result_path, src_dir, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPAWN RESULT_JSON SRC_DIR TRACE -- [ARGS]")
    sys.path.insert(0, src_dir)
    from walshdiv import cli

    setup_s = time.monotonic() - float(spawn)
    if not argv:
        with open(result_path, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0
    recorder, missing = None, []
    if trace == "1":
        import layers

        recorder = layers.Recorder()
        missing = layers.install(recorder)

    raised = False
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = _exit_status(exc)
    except Exception:  # reported to the launcher as a failed command
        traceback.print_exc()
        status, raised = 1, True
    finally:
        sys.stdout.flush()
    verify_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "raised": raised,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["layers"] = recorder.snapshot()
        result["missing"] = missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
