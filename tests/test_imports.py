import ast
import pathlib

import pytest

import pdesym

_PACKAGE = pathlib.Path(pdesym.__file__).parent


def _imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", ["expr", "canon", "tokens"])
def test_symbolic_core_does_not_import_numpy(module):
    """Parsing, printing, canonicalization and tokenization work on trees
    and exact numbers only; numpy belongs to the numerical layers."""
    imported = set(_imported_modules(_PACKAGE / f"{module}.py"))
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
