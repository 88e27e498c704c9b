"""Every name a module under src/ imports is used in that module, and every
import sits at module level.

The package's ``__init__`` is left out of the first check: re-exporting what
it imports is its job.  The one import inside a function is the cycle-breaker
in ``warp_profiles.parse_warp_spec`` (``profile_io`` imports
``warp_profiles``).  No module imports ``warnings``: a warning silenced
inside the package would get round the test suite's
``filterwarnings = ["error", ...]``.  No linter is needed; the checks walk
each module's syntax tree."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "singular_geodesics"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# (module, function) pairs allowed an import in their body
FUNCTION_IMPORTS = {("warp_profiles.py", "parse_warp_spec")}


def function_imports(source: str) -> list:
    tree = ast.parse(source)
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name} (line {node.lineno})" for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    found = function_imports(path.read_text())
    allowed = {f for module, f in FUNCTION_IMPORTS if module == path.name}
    assert [f for f in found if f.split(" ")[0] not in allowed] == []


def test_detects_an_import_inside_a_function():
    source = "import math\n\ndef f():\n    def g():\n        from os import sep\n    return g\n"
    assert function_imports(source) == ["f (line 5)", "g (line 5)"]


def test_detects_an_unused_name():
    source = "from typing import List, Optional\nimport numpy as np\nx: Optional[int] = np.pi\n"
    assert unused_imports(source) == ["List (line 1)"]


def imported_modules(source: str) -> set:
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_warning_suppression(path):
    assert "warnings" not in imported_modules(path.read_text())


def test_detects_a_warnings_import():
    source = "from warnings import catch_warnings\nimport numpy.linalg\nfrom . import errors\n"
    assert imported_modules(source) == {"warnings", "numpy"}
