"""Every top-level function and class of the library, and every method of
its classes but the dunder ones, has a caller in it, and every field of its
dataclasses a reader."""

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


def _definitions(tree):
    """(qualified name, node) of each top-level function and class of a
    module, and of each method of its classes whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("__") and method.name.endswith("__")):
                    yield f"{node.name}.{method.name}", method


def _library_modules():
    """The parsed modules of the library, but __init__.py."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_function_and_class_has_a_caller():
    """A definition counts as used when its name is read in code outside its
    own body, in any module but __init__.py: a re-export is not a use. A
    method's name counts wherever it is read, as any attribute of that name
    is."""
    modules = _library_modules()
    used = sum((_names_used(tree) for tree in modules.values()), Counter())
    unused = [f"{module}.{name}"
              for module, tree in modules.items() for name, node in _definitions(tree)
              if used[node.name] == _names_used(node)[node.name]]
    assert unused == []


def test_every_dataclass_field_is_read():
    """A field of a top-level dataclass counts as read when an attribute of
    its name is loaded anywhere in library code, or when its module calls
    dataclasses.asdict, which reads every field of the classes it writes
    out (analysis.py's report rows)."""
    modules = _library_modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{field.target.id}"
              for module, tree in modules.items()
              if "asdict" not in _names_used(tree)
              for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for field in cls.body
              if isinstance(field, ast.AnnAssign) and field.target.id not in read]
    assert unread == []
