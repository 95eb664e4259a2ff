"""Every exported name has a caller in the library or the benchmark.

A name in a module's ``__all__`` counts as used when some code in
``src/walshdiv`` or ``perfbench`` refers to it outside its own definition: as
a name or attribute in code, or, in ``perfbench``, as a string naming a
wrapped target (``"AtomSum.render"``).  Imports, docstrings, comments and
``__all__`` entries do not count.  Tests are not callers.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "walshdiv"
MODULES = sorted(
    "walshdiv" if path.stem == "__init__" else f"walshdiv.{path.stem}"
    for path in PACKAGE.glob("*.py")
)

def _source_path(module: str) -> Path:
    return PACKAGE / ("__init__.py" if module == "walshdiv" else f"{module.split('.')[1]}.py")


def _definition_lines(tree: ast.Module, name: str) -> set[int]:
    """Lines of the module-level definition of ``name`` (its whole body)."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _references(path: Path, with_strings: bool) -> list[tuple[str, int]]:
    """(identifier, line) for every name and attribute use in the file's code."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((part, node.lineno) for part in node.value.split("."))
    return out


REFERENCES = {
    path: _references(path, with_strings=path.parent.name == "perfbench")
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
}


def _exported() -> list[tuple[str, str]]:
    return [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(module).__all__
        if not (name.startswith("__") and name.endswith("__"))  # metadata
    ]


@pytest.mark.parametrize("module, name", _exported())
def test_exported_name_has_a_caller_outside_tests(module, name):
    own = _source_path(module)
    skip = _definition_lines(ast.parse(own.read_text()), name)
    callers = [
        f"{path.name}:{line}"
        for path, refs in REFERENCES.items()
        for ident, line in refs
        if ident == name and not (path == own and line in skip)
    ]
    assert callers, f"{module}.{name} is exported but only tests call it"
