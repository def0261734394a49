"""The example and benchmark scripts must at least parse and compile.

Running them end-to-end takes minutes each (they build real victim
systems); full runs are exercised manually / in CI nightlies.  Here we
guarantee they stay syntactically valid and import only existing public
API names — so deleting a name a script still uses breaks tier-1.
"""

import ast
import py_compile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((REPO_ROOT / "benchmarks").glob("*.py"))
SCRIPTS = EXAMPLES + BENCHMARKS


def _script_id(path: Path) -> str:
    return path.name if path.parent.name == "examples" else \
        f"benchmarks/{path.name}"


@pytest.mark.parametrize("path", SCRIPTS, ids=_script_id)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", SCRIPTS, ids=_script_id)
def test_example_imports_resolve(path):
    """Every ``from repro.x import y`` in a script must resolve."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("repro"):
            module = __import__(node.module, fromlist=[a.name for a in
                                                       node.names])
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing"
                )


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 4  # quickstart + ≥3 domain scenarios