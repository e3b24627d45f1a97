"""The fast-path arithmetic shares no code with the oracle it is checked against."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vantieghem"
FAST_PATH_MODULES = ("modmath.py", "cosets.py")


def imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            else:  # from . import oracle
                names.update(alias.name for alias in node.names)
    return names


def test_fast_path_modules_do_not_import_oracle():
    found = []
    for name in FAST_PATH_MODULES:
        source = PACKAGE / name
        if "oracle" in imported_modules(ast.parse(source.read_text(), filename=str(source))):
            found.append(name)
    assert found == []


def test_scan_sees_every_import_form():
    for line in ("import vantieghem.oracle", "from .oracle import is_prime_trial", "from . import oracle"):
        assert "oracle" in imported_modules(ast.parse(line)), line
