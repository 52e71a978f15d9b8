import ast
import os
import pathlib
import subprocess
import sys

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


def test_importing_the_cli_builds_no_table():
    """``metrics`` builds its shared sample grids and index plans on first
    use, so CLI start-up pays for none of them."""
    src = str(_PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import pdesym.cli\nfrom pdesym import metrics as m\n"
            "print(*(f.cache_info().currsize for f in "
            "(m._sample_grid, m._below, m._splits, m._chain_plan)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.split() == ["0"] * 4
