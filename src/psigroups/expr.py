"""Parser and evaluator for the group construction expression language.

Grammar (whitespace around tokens is ignored):

    expr := term ('*' term)*
    term := ('C' | 'D' | 'Q' | 'H' | 'M') integer

Products associate to the left.  ``C8`` is the cyclic group of order 8,
``D16`` the dihedral group of order 16, ``Q16`` the generalized quaternion
group of order 16, ``H27`` the extraspecial group of order 27 and exponent 3,
``M27`` the group <a,b | a^9 = b^3 = 1, b^-1 a b = a^4>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .groups import (
    FiniteGroup,
    GroupBuildError,
    GroupExprError,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    max_table_order,
    modular_group,
    quaternion_group,
)

CONSTRUCTOR_LETTERS = "CDQHM"
_MAX_PARAM = 2**31 - 1


@dataclass(frozen=True)
class Atom:
    """A single constructor application, e.g. C8 or D16."""

    kind: str
    param: int


@dataclass(frozen=True)
class Product:
    """Direct product node; the grammar nests these to the left."""

    left: "GroupExpr"
    right: "GroupExpr"


GroupExpr = Union[Atom, Product]

_BUILDERS = {
    "C": cyclic_group,
    "D": dihedral_group,
    "Q": quaternion_group,
    "H": heisenberg_group,
    "M": modular_group,
}


def parse_group_expr(text: str) -> GroupExpr:
    """Parse an expression string into its AST."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_term() -> Atom:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise GroupExprError("expected a constructor term", pos)
        letter = text[pos]
        if not letter.isalpha():
            raise GroupExprError(f"expected a constructor letter, found {letter!r}", pos)
        if letter not in CONSTRUCTOR_LETTERS:
            raise GroupExprError(f"unknown constructor {letter!r}", pos)
        pos += 1
        skip_ws()
        start = pos
        while pos < n and text[pos].isascii() and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise GroupExprError(f"expected an integer after {letter!r}", pos)
        # compared as a decimal string first: int() refuses over 4300 digits
        digits = text[start:pos].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_PARAM)) or int(digits) > _MAX_PARAM:
            raise GroupExprError("integer constant too large", start)
        value = int(digits)
        if value < 1:
            raise GroupExprError("integer constant must be >= 1", start)
        return Atom(letter, value)

    if not text.strip():
        raise GroupExprError("empty expression", 0)
    expr: GroupExpr = parse_term()
    skip_ws()
    while pos < n:
        if text[pos] != "*":
            raise GroupExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        expr = Product(expr, parse_term())
        skip_ws()
    return expr


def expr_to_name(expr: GroupExpr) -> str:
    """Normalized expression string: tokens joined by '*', no whitespace."""
    if isinstance(expr, Atom):
        return f"{expr.kind}{expr.param}"
    return f"{expr_to_name(expr.left)}*{expr_to_name(expr.right)}"


def expr_order(expr: GroupExpr) -> int:
    """Order of the group the expression denotes (every constructor's
    parameter is its order)."""
    if isinstance(expr, Atom):
        return expr.param
    return expr_order(expr.left) * expr_order(expr.right)


def build_group(expr: GroupExpr) -> FiniteGroup:
    """Evaluate an AST to a validated FiniteGroup named by the normalized
    expression."""
    total = expr_order(expr)
    limit = max_table_order()
    if total > limit:
        raise GroupBuildError(
            f"group order {total} exceeds table size limit {limit}")
    return _build(expr)


def _factors(expr: GroupExpr) -> list[Atom]:
    if isinstance(expr, Atom):
        return [expr]
    return _factors(expr.left) + _factors(expr.right)


def _build(expr: GroupExpr) -> FiniteGroup:
    """Build every factor left to right, then multiply from the right.

    Lexicographic indexing makes the product associative on tables and names
    alike, and nesting to the right keeps each product's right factor, the
    innermost axis of its broadcast, the larger one.
    """
    factors = [_BUILDERS[atom.kind](atom.param) for atom in _factors(expr)]
    group = factors.pop()
    for left in reversed(factors):
        group = direct_product(left, group)
    return group


def group_from_text(text: str) -> FiniteGroup:
    """Parse and build in one step."""
    return build_group(parse_group_expr(text))
