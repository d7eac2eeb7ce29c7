"""Every name a boxdet module imports is used in that module.

``__init__`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "boxdet"

# Imported only so that the benchmark's tracer (perfbench/spans.py) can wrap
# them by name in these modules.  They go once the tracer wraps the
# program's public entries instead, and the sweep's unused samplers and
# detector kernels are deleted (ROADMAP items 1 and 11).
TRACER_HOOKS = {
    ("success", "ordered_map"),
    ("experiment", "sample_uniform_x"),
    ("experiment", "sample_noise"),
    ("experiment", "rounding_success_batch"),
    ("experiment", "babai_success_batch"),
}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_every_imported_name_is_used():
    # Equality, so that a hook the tracer no longer needs leaves the
    # allowlist together with its import.
    unused = set().union(*(_unused_imports(path) for path in SOURCE.glob("*.py")
                           if path.name != "__init__.py"))
    assert unused == TRACER_HOOKS
