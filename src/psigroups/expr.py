"""Parser and evaluator for the group construction expression language.

Grammar (whitespace around tokens is ignored):

    expr := term ('*' term)*
    term := ('C' | 'D' | 'Q' | 'H' | 'M') integer

An expression is its tuple of factors, left to right: the direct product is
associative, so the parse keeps no nesting, and ``build_group`` builds each
atom and wraps a product as one group by a single ``direct_product`` call over
every factor.  ``C8`` is the cyclic group of order 8, ``D16`` the dihedral
group of order 16, ``Q16`` the generalized quaternion group of order 16,
``H27`` the extraspecial group of order 27 and exponent 3, ``M27`` the group
<a,b | a^9 = b^3 = 1, b^-1 a b = a^4>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    GroupExprError,
    _check_order_limit,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    modular_group,
    quaternion_group,
)

_MAX_PARAM = 2**31 - 1


@dataclass(frozen=True)
class Atom:
    """A single constructor application, e.g. C8 or D16."""

    kind: str
    param: int


GroupExpr = tuple[Atom, ...]

_BUILDERS = {
    "C": cyclic_group,
    "D": dihedral_group,
    "Q": quaternion_group,
    "H": heisenberg_group,
    "M": modular_group,
}


def parse_group_expr(text: str) -> GroupExpr:
    """Parse an expression string into its factors, left to right (a single
    atom is a 1-tuple)."""
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
        if letter not in _BUILDERS:
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
    factors = [parse_term()]
    skip_ws()
    while pos < n:
        if text[pos] != "*":
            raise GroupExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        factors.append(parse_term())
        skip_ws()
    return tuple(factors)


def expr_to_name(expr: GroupExpr) -> str:
    """Normalized expression string: tokens joined by '*', no whitespace."""
    return "*".join(f"{atom.kind}{atom.param}" for atom in expr)


def expr_order(expr: GroupExpr) -> int:
    """Order of the group the expression denotes (every constructor's
    parameter is its order)."""
    return math.prod(atom.param for atom in expr)


def build_group(expr: GroupExpr) -> FiniteGroup:
    """Evaluate an expression to a validated FiniteGroup named by the normalized
    expression.  The whole group's order is checked against the table size
    limit and physical memory before any factor is built; a product is then
    laid out by one ``direct_product`` call over every factor."""
    _check_order_limit(expr_order(expr))
    factors = [_BUILDERS[atom.kind](atom.param) for atom in expr]
    return direct_product(*factors) if len(factors) > 1 else factors[0]


def group_from_text(text: str) -> FiniteGroup:
    """Parse and build in one step."""
    return build_group(parse_group_expr(text))
