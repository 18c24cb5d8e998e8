"""Rules that hold across the modules of the package."""

import ast
from pathlib import Path

import semogp


def test_no_module_imports_another_modules_private_names():
    # A module's _-names are its own: a rule another module needs is a
    # public function of the module that owns it.
    borrowed = []
    for path in sorted(Path(semogp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                source = "." * node.level + (node.module or "")
                borrowed += [f"{path.name}: {source}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert borrowed == []
