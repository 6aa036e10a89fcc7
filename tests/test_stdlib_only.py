"""The runtime uses only the standard library: every absolute import in the
package names a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def foreign_imports(root: Path) -> list[str]:
    """`file:line name` for each absolute import under `root` whose top-level
    name is neither a standard-library module nor graded_topos."""
    allowed = set(sys.stdlib_module_names) | {"graded_topos"}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] not in allowed]
    return found


def test_the_package_imports_only_the_standard_library():
    assert list(SRC.rglob("*.py"))
    assert foreign_imports(SRC) == []
