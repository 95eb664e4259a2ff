"""Every exported name, and every public method of an exported class, has a
caller in the library or the benchmark.

A name in a module's ``__all__`` counts as used when some code in
``src/walshdiv`` or ``perfbench`` refers to it outside its own definition: as
a name or attribute in code, or, in ``perfbench``, as a string naming a
wrapped target (``"AtomSum.render"``).  A method counts as used when its name
appears the same way as an attribute, or as such a string, outside the
method's own body.  Imports, docstrings, comments and ``__all__`` entries do
not count.  Tests are not callers.
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


def _references(path: Path, with_strings: bool) -> list[tuple[str, int, bool]]:
    """(identifier, line, is_name) for every name and attribute use in the
    file's code; ``is_name`` is false for attributes and strings."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, False))
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((part, node.lineno, False) for part in node.value.split("."))
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


def _callers(name: str, own: Path, skip: set[int], attributes_only: bool) -> list[str]:
    return [
        f"{path.name}:{line}"
        for path, refs in REFERENCES.items()
        for ident, line, is_name in refs
        if ident == name and not (attributes_only and is_name)
        and not (path == own and line in skip)
    ]


def _exported_methods() -> list:
    """(module, ``Class.method``, lines of its body) for every public method of
    an exported class."""
    out = []
    for module, name in _exported():
        for node in ast.parse(_source_path(module).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                out += [
                    pytest.param(module, f"{name}.{item.name}",
                                 set(range(item.lineno, item.end_lineno + 1)),
                                 id=f"{module}-{name}-{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


@pytest.mark.parametrize("module, name", _exported())
def test_exported_name_has_a_caller_outside_tests(module, name):
    own = _source_path(module)
    skip = _definition_lines(ast.parse(own.read_text()), name)
    assert _callers(name, own, skip, attributes_only=False), (
        f"{module}.{name} is exported but only tests call it")


@pytest.mark.parametrize("module, method, body", _exported_methods())
def test_public_method_has_a_caller_outside_tests(module, method, body):
    name = method.rpartition(".")[2]
    assert _callers(name, _source_path(module), body, attributes_only=True), (
        f"{module}.{method} is public but only tests call it")
