"""Every top-level function and class of the library has a caller in it."""

import ast
from collections import Counter
from pathlib import Path

import subquant

SOURCE = Path(subquant.__file__).parent


def _names_used(tree):
    """How often each name is read in code: as a bare name or as an
    attribute. Strings, docstrings and imports do not count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_and_class_has_a_caller():
    """A definition counts as used when its name is read in code outside its
    own body, in any module but __init__.py: a re-export is not a use."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    used = sum((_names_used(tree) for tree in modules.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] == _names_used(node)[node.name]]
    assert unused == []
