"""Checks on the package source itself."""

import ast
import pathlib

import sympdeg


def test_no_assert_statements():
    """No module of the package guards anything with an assert statement,
    which python -O strips; guards raise instead."""
    package = pathlib.Path(sympdeg.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []
