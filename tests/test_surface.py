"""Every definition in the package is used by some path.

Each ``def`` and ``class`` in ``src/psigroups/*.py`` (methods included) and
each module-level assignment, dunder names excepted, must be referenced
somewhere in ``src/``, ``scripts/`` or ``perfbench/`` other than its own
definition line and the package's ``__init__.py`` re-exports.  Tests do not
count: code that only a test calls is a second route no path needs.

The match is by name, as a whole word, not by binding, so a use of anything
else with the same name masks a dead definition.  Methods and properties are
held to more: each must be read as an attribute (``.name``) somewhere in those
trees, so a local variable or a function of the same name does not count.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "psigroups"


def _definitions(tree):
    """(line, name) of every def, class and module-level assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_every_definition_is_referenced_outside_its_own_line():
    uses = defaultdict(set)  # word -> {(path, line)}
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for line, text in enumerate(path.read_text().splitlines(), 1):
                for word in re.findall(r"\w+", text):
                    uses[word].add((path, line))
    dead = [f"{path.name}:{line} {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _definitions(ast.parse(path.read_text()))
            if not re.fullmatch(r"__\w+__", name) and not uses[name] - {(path, line)}]
    assert dead == []


def test_every_method_and_property_is_read_as_an_attribute():
    read = {node.attr for top in ("src", "scripts", "perfbench")
            for path in (ROOT / top).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name} {cls.name}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not re.fullmatch(r"__\w+__", node.name) and node.name not in read]
    assert unread == []
