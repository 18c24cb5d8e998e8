"""Rules that hold across the modules of the package."""

import ast
from pathlib import Path

import semogp

from conftest import REUSE_CACHES


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


def decorator_name(node: ast.expr) -> str:
    """The last dotted name of a decorator, called or not: lru_cache for @functools.lru_cache(maxsize=1)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_cache_is_one_the_fixture_clears():
    # A cache carries results from one run (and one test) into the next, so
    # each one is in conftest.REUSE_CACHES, which the autouse fixture clears.
    cached = {
        f"{name.removesuffix('.py')}.{node.name}"
        for name, node in package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    }
    cleared = {f"{c.__module__.removeprefix('semogp.')}.{c.__name__}" for c in REUSE_CACHES}
    assert cached == cleared


def test_the_worker_dataset_is_the_only_global_rebound():
    # A pool worker keeps the dataset its initializer received; any other
    # module state a function rebinds would outlive the run that set it.
    rebound = {
        f"{name.removesuffix('.py')}.{g}"
        for name, node in package_nodes()
        if isinstance(node, ast.Global)
        for g in node.names
    }
    assert rebound == {"harness._worker_dataset"}


# Every reader of a result directory; report.py alone defines them.
RESULT_READERS = {
    "load_results",
    "ConfigKey",
    "ConfigSummary",
    "Summary",
    "_config_key",
    "_settings",
    "_test_hypervolume",
    "summarize",
    "format_summary",
}


def imported_modules(tree: ast.Module):
    """The package modules a module imports, relative or absolute: report for `from .report import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield from (module.rpartition(".")[2] or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.rpartition(".")[2] for a in node.names)


def test_results_are_read_back_in_report_alone():
    # harness configures, runs and writes; report reads the files back. So
    # each reader is defined in report.py only, with no alias left in
    # harness, and neither module imports the other.
    modules = dict(package_modules())
    defined = sorted(
        (name, reader)
        for name, tree in modules.items()
        for reader in module_level_names(tree)
        if reader in RESULT_READERS
    )
    assert defined == [("report.py", reader) for reader in sorted(RESULT_READERS)]
    assert "report" not in imported_modules(modules["harness.py"])
    assert "harness" not in imported_modules(modules["report.py"])
