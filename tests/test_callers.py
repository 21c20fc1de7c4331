"""The package holds what a run calls: every public function, class and
method of pmlstrip is named by package code or by the benchmark
(perfbench/*.py), not only by the tests."""

import ast
import glob
import os

import pmlstrip

PACKAGE = os.path.dirname(pmlstrip.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of
    those classes, as dotted names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def _referenced_names(tree):
    """Every Name and Attribute identifier; imports are neither."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
               if os.path.basename(p) != "__init__.py"]
    callers = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    assert modules and callers
    referenced = {name for path in modules + callers
                  for name in _referenced_names(_parse(path))}
    defined = [(os.path.basename(path), name) for path in modules
               for name in _public_definitions(_parse(path))]
    unused = [f"{module}: {name}" for module, name in defined
              if name.rsplit(".", 1)[-1] not in referenced]
    assert not unused
