r"""Parser and evaluator for the group construction expression language.

Grammar (whitespace around tokens is ignored):

    expr := term ('*' term)*
    term := ('C' | 'D' | 'Q' | 'H' | 'M') integer

``parse_group_expr`` reads it one term at a time with one pattern,
``\s*(\S?)\s*([0-9]*)\s*``: a letter, then ASCII decimal digits, with the
whitespace (the ``str.isspace`` class) around them; a group is empty where
its part is missing, and the first missing or wrong part is the error.

An expression is its tuple of factors, left to right: the direct product is
associative, so the parse keeps no nesting, and ``build_group`` builds each
distinct atom once and wraps a product as one group by a single
``direct_product`` call over every factor, a repeated term passing the one
group it built: ``C2*C2`` is one C2 on both sides, so what that group keeps
(its table, filtration and power map) is computed once.  Building writes no
table: each group writes its own when the table is first read, so what reads
only the element orders (psi, the spectrum) never writes one.

``C8`` is the cyclic group of order 8, ``D16`` the dihedral group of order
16, ``Q16`` the generalized quaternion group of order 16, ``H27`` the
extraspecial group of order 27 and exponent 3, ``M27`` the group
<a,b | a^9 = b^3 = 1, b^-1 a b = a^4>.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    GroupExprError,
    _check_order_limit,
    _exceeds,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    modular_group,
    quaternion_group,
)

_MAX_PARAM = 2**31 - 1

_TERM = re.compile(r"\s*(\S?)\s*([0-9]*)\s*")


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
    if not text.strip():
        raise GroupExprError("empty expression", 0)
    factors = []
    pos = 0
    while True:
        term = _TERM.match(text, pos)
        letter, digits = term.groups()
        if not letter:
            raise GroupExprError("expected a constructor term", term.start(1))
        if not letter.isalpha():
            raise GroupExprError(f"expected a constructor letter, found {letter!r}", term.start(1))
        if letter not in _BUILDERS:
            raise GroupExprError(f"unknown constructor {letter!r}", term.start(1))
        if not digits:
            raise GroupExprError(f"expected an integer after {letter!r}", term.start(2))
        digits = digits.lstrip("0") or "0"
        if _exceeds(digits, _MAX_PARAM):
            raise GroupExprError("integer constant too large", term.start(2))
        value = int(digits)
        if value < 1:
            raise GroupExprError("integer constant must be >= 1", term.start(2))
        factors.append(Atom(letter, value))
        pos = term.end()
        if pos == len(text):
            return tuple(factors)
        if text[pos] != "*":
            raise GroupExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1


def expr_order(expr: GroupExpr) -> int:
    """Order of the group the expression denotes (every constructor's
    parameter is its order)."""
    return math.prod(atom.param for atom in expr)


def build_group(expr: GroupExpr) -> FiniteGroup:
    """Evaluate an expression to a validated FiniteGroup named by the normalized
    expression.  The whole group's order is checked against the table size
    limit and physical memory before any factor is built; each distinct atom
    is then built once, in order of first occurrence, and a product wrapped by
    one ``direct_product`` call over every factor, each repeat of a term
    passing the same group.  No table is written until it is first read."""
    _check_order_limit(expr_order(expr))
    built = {atom: _BUILDERS[atom.kind](atom.param) for atom in dict.fromkeys(expr)}
    return direct_product(*(built[atom] for atom in expr)) if len(expr) > 1 else built[expr[0]]


def group_from_text(text: str) -> FiniteGroup:
    """Parse and build in one step."""
    return build_group(parse_group_expr(text))
