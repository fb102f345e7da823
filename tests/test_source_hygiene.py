"""Source checks of the package that need no run: no function keeps a dead local.

A local assigned and never read is work whose result nobody uses, or a
name left behind by an edit.  The scan parses every module of the package
with `ast`: a name a function stores (in its own body, not in a nested
function or class) must be loaded somewhere in that function, its nested
functions included, as their closures read it.  Names starting with `_`
are meant to be unused, and an augmented assignment reads its target.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracbvp"
MODULES = sorted(PACKAGE.glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function):
    """The nodes of a function's body outside its nested scopes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list:
    """(line, function, name) of every function local that is assigned and never read."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        for node in _own_nodes(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        read = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        found += [(line, function.name, name) for name, line in stored.items()
                  if name not in read and not name.startswith("_")]
    return sorted(found)


def test_the_scan_finds_a_dead_local_and_passes_a_live_one():
    source = '''
def f(x):
    dead = x + 1
    live, _spare = x, 2
    total = 0
    total += live
    def inner():
        return closed
    closed = 3
    return inner
'''
    assert unread_locals(source) == [(3, "f", "dead")]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_function_keeps_a_local_it_never_reads(module):
    assert unread_locals(module.read_text()) == []
