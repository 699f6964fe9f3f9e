"""The package exports only what the package, the demos or the benchmark
use: a name that only tests reach belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

import bernshift

ROOT = Path(__file__).resolve().parents[1]

# star_image is the declared star-map output law (p/2 on each pair, 1-2p
# on *) that a Monte Carlo verdict is meant to be compared against; tests
# pin it until an engine reads it
ALLOWED_UNREFERENCED = {"star_image"}


def _exports() -> set[str]:
    tree = ast.parse((ROOT / "src" / "bernshift" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return {alias.asname or alias.name for node in imports for alias in node.names}


def _references(path: Path) -> set[str]:
    """Names read in a file outside their own top-level definition: bare
    names, attributes, and the string constants that name an attribute to
    look up or patch."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
        found |= names - {getattr(stmt, "name", None)}
    return found


def test_every_export_is_used_outside_the_tests():
    exports = _exports()
    assert exports and all(hasattr(bernshift, name) for name in exports)
    files = [p for p in (ROOT / "src" / "bernshift").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(_references, files))
    unused = sorted(exports - used - ALLOWED_UNREFERENCED)
    assert not unused, f"exported but used only by tests: {unused}"
