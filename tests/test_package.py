"""Rules that hold across the modules of the package."""

import ast
from pathlib import Path

import semogp


def package_modules():
    """(file name, AST) for every module of the package."""
    for path in sorted(Path(semogp.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def package_nodes():
    """(file name, AST node) for every node of every module of the package."""
    for name, tree in package_modules():
        for node in ast.walk(tree):
            yield name, node


def test_no_module_imports_another_modules_private_names():
    # A module's _-names are its own: a rule another module needs is a
    # public function of the module that owns it.
    borrowed = []
    for name, node in package_nodes():
        if isinstance(node, ast.ImportFrom) and node.level:
            source = "." * node.level + (node.module or "")
            borrowed += [f"{name}: {source}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert borrowed == []


def module_level_names(tree: ast.Module):
    """Names a module defines or assigns at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_read_in_its_module():
    # A module's _-names are its own (see above), so one its module never
    # reads is a helper left behind.
    unread = []
    for name, tree in package_modules():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{name}: {private}"
            for private in module_level_names(tree)
            if private.startswith("_") and not private.startswith("__") and private not in read
        ]
    assert unread == []


def test_no_module_stacks_objective_vectors_itself():
    # emo.objective_matrix is the one builder of objective matrices, so no
    # module calls np.stack. This catches that one spelling only: a matrix
    # built by np.asarray, np.vstack or numpy.stack passes, and the reader
    # rule itself is test_emo's test_pool_readers_reject_what_is_not_one_matrix.
    stacked = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stack"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]
    assert stacked == []
