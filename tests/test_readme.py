"""The README quick start runs as written against the current API, its
command lines parse and run with the current command line, and its
rejected-parameter examples are rejected as it says."""

import re
import shlex
from pathlib import Path

import pytest

from walshdiv.cli import _SUBCOMMANDS, _parse, main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README quick start has no python block"
    return match.group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "5/2"  # the L1 certificate the README comments promise
    assert lines[1] == "True"


def command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "README command line section has no sh block"
    return [line for line in match.group(1).splitlines()
            if line.startswith("python3 -m walshdiv.cli ")]


def test_command_lines_cover_every_subcommand():
    assert {line.split()[3] for line in command_lines()} == set(_SUBCOMMANDS)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[3:]
    handler, _ = _parse(argv)
    assert handler is _SUBCOMMANDS[argv[0]][1]


@pytest.mark.parametrize("line", command_lines())
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # in tmp_path, since one line writes its table to a file with --out
    argv = shlex.split(line, comments=True)[3:]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    assert out.startswith(f"# walshdiv {argv[0]}\n")


def rejected_examples() -> list[str]:
    """The backticked commands of the paragraph on rejected parameters, up to
    the exit status it promises them."""
    paragraph = next(p for p in README.read_text().split("\n\n")
                     if p.startswith("Parameters the library rejects"))
    examples = paragraph.split("end with exit status 2", 1)[0]
    spans = re.findall(r"`([^`]+)`", examples.replace("\n", " "))
    return [span for span in spans if span.split()[0] in _SUBCOMMANDS]


def test_rejected_examples_are_found():
    assert len(rejected_examples()) == 15


@pytest.mark.parametrize("command", rejected_examples())
def test_rejected_example_ends_in_one_stderr_line(command, capsys):
    assert main(shlex.split(command)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("walshdiv: error: ")
