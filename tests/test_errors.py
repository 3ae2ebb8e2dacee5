"""The exception hierarchy: one class per way a run ends, and a subclass only
where a handler catches it by name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtgrowth"
# the classes cli.main maps to exit codes 2, 3 and 4
EXIT_BASES = {"ConfigError", "StableRegime", "SolverError"}


def caught_names(tree: ast.AST) -> set[str]:
    """The names of the classes that the except clauses of tree name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(ast.unparse(t).split(".")[-1] for t in types)
    return names


def defined_names() -> set[str]:
    """The names of the classes that errors.py defines."""
    return {node.name for node in ast.parse((SRC / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}


def test_errors_defines_exactly_the_three_exit_bases():
    # no handler needs a subclass by name: catching SolverError does the
    # job at every site
    assert defined_names() == EXIT_BASES


def test_every_error_class_is_an_exit_base_or_caught_by_name():
    defined = defined_names()
    caught = set().union(*(caught_names(ast.parse(path.read_text())) for path in SRC.glob("*.py")))
    assert EXIT_BASES <= defined
    assert defined - EXIT_BASES - caught == set()
