"""The trusted kernel and the corpus do not depend on the search or the CLI."""

import ast
import pathlib

import pytest

import polyterm

PACKAGE = pathlib.Path(polyterm.__file__).parent
KERNEL = ("numeric", "poly", "positivity", "trs", "interp")


def _relative_imports(module):
    """The sibling modules that ``module`` imports with ``from . ...``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", KERNEL + ("corpus",))
def test_kernel_and_corpus_do_not_import_search_or_cli(module):
    assert not _relative_imports(module) & {"prover", "cli"}


def test_import_reader_sees_the_cli_imports():
    assert {"corpus", "interp", "prover"} <= _relative_imports("cli")
