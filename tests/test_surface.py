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

Five more guards on the surface: only ``groups.py`` passes ``orders`` to
``group_from_table``, the argument that skips validation; only
``groups.closure`` and ``omega.omega_subgroup`` pass ``_gens`` to
``Subgroup``, the argument that skips its closure proof; ``expr.py`` takes
no private name from ``groups`` but the two limit checks, so each atom
family's parameters, layout and orders stay in ``groups.py`` alone; no
other module reads a group's ``table``, so every product read elsewhere goes
through ``groups._mul`` and its choice of the table or the law; and no other
module names a direct product's law, so ``omega`` and ``cp2`` reach its two
sides through ``groups._sides`` alone.
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


def _called_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_the_groups_module_passes_orders_to_group_from_table():
    # a table wrapped with its orders given skips every check, so every other
    # caller, the CLI and the GT1 import included, goes through validation;
    # a ** splat could carry orders too
    callers = defaultdict(int)
    for top in ("src", "scripts", "perfbench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and _called_name(node.func) == "group_from_table"
                        and any(kw.arg in ("orders", None) for kw in node.keywords)):
                    callers[str(path.relative_to(ROOT))] += 1
    # the metacyclic constructors' wrapper, heisenberg_group and quotient
    assert dict(callers) == {"src/psigroups/groups.py": 3}


def test_only_closure_and_omega_subgroup_pass_gens_to_subgroup():
    # members given with their generators are not proved closed, so every
    # other caller's set is; a ** splat could carry _gens too
    callers = defaultdict(int)
    for top in ("src", "scripts", "perfbench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and _called_name(node.func) == "Subgroup"
                            and any(kw.arg in ("_gens", None) for kw in node.keywords)):
                        callers[f"{path.relative_to(ROOT)} {func.name}"] += 1
    # closure's gathered set, its whole group and its cover; a kept Omega level
    assert dict(callers) == {"src/psigroups/groups.py closure": 3,
                             "src/psigroups/omega.py omega_subgroup": 1}


def test_expr_takes_no_family_decision_from_groups():
    tree = ast.parse((PACKAGE / "expr.py").read_text())
    private = sorted(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "groups"
                     for alias in node.names if alias.name.startswith("_"))
    assert private == ["_check_order_limit", "_exceeds"]


def test_only_the_groups_module_reads_a_table():
    readers = sorted(f"{path.name}:{node.lineno}"
                     for path in PACKAGE.glob("*.py") if path.name != "groups.py"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr == "table")
    assert readers == []


def _names(tree):
    """Every name a module's code uses: bare names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_the_product_route_lives_in_the_groups_module():
    # a product's two sides are decided once, in groups._sides: no other
    # module names the law, and omega and cp2 reach the sides only through it
    naming = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "groups.py"
                    and "_Product" in set(_names(ast.parse(path.read_text()))))
    assert naming == []
    for module in ("omega.py", "cp2.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        assert list(_names(tree)).count("_sides") == 2, module  # its import and its one call
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not {"_law", "left", "right", "factors"} & read, module
