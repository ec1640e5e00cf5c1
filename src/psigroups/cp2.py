"""CP2 membership: o(xy) <= max(o(x), o(y)) for all pairs.

Two independent deciders are provided: the definitional pairwise scan, which
works for arbitrary finite groups, and the omega-set criterion for p-groups
(every level's solution set of x^(p^i) = 1 is already a subgroup).

The pairwise scan reads only the pairs that can fail.  Let M be the largest
element order.  The product xy is an element, so o(xy) <= M; when o(x) = M
or o(y) = M, then max(o(x), o(y)) = M >= o(xy) and the pair holds.  A
violating pair therefore has both o(x) < M and o(y) < M, and scanning the
elements of order below M against each other, in (x, y) order, finds the same
first witness as scanning every pair.

A direct product A x B of p-groups of one prime, x = x_A |B| + x_B, is
decided from its sides.  There o((a, b)) = lcm(o(a), o(b)) = max(o(a), o(b)),
so a pair violates exactly when o(x_A y_A) or o(x_B y_B) is above all four
digits' orders, and that side's pair violates too: A x B is CP2 exactly when
A and B are.  If B fails first at (x_B, y_B), that pair with A-digits 0 is
the product's first witness: any x with a nonzero A-digit is at least
|B| > x_B, and a pair before it has x_A = 0, so o(x_A y_A) = o(y_A) holds
and only its B-digits could violate, before B's first witness.  If B never
fails, only A-digits can, and the first violating x and y have B-digit 0:
A's witness times |B|.  The three orders are the side's.  With mixed primes
lcm is not max (C32 x C33 fails at x=1, y=33), so such a product is
scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _mul, _products, _row_blocks, _sides, prime_power
from .omega import OmegaFiltration, omega_filtration


@dataclass(frozen=True)
class Cp2Report:
    """A CP2 decision as its witness of failure: CP2 exactly when there is none.

    ``witness`` is (x, y, o(x), o(y), o(xy)) for the lexicographically first
    violating pair, set by the pairwise scan; ``failing_level`` is the first
    omega level whose set is not closed, set by the omega criterion.
    """

    witness: tuple[int, int, int, int, int] | None = None
    failing_level: int | None = None

    @property
    def is_cp2(self) -> bool:
        return self.witness is None and self.failing_level is None


def _first_pair(group: FiniteGroup, violates, among: np.ndarray) -> tuple[int, int] | None:
    """First pair (x, y), in (x, y) order, with ``violates(o(xy), o(x), o(y))``,
    or None.  Both x and y range over ``among``, ascending indices.

    The rule is applied to order codes, not orders: each order is replaced by
    its rank among the group's distinct orders, in the smallest unsigned dtype
    that holds their count (one byte: every order divides n, and no n up to
    the table limit has 256 divisors).  Ranks keep <, = and max, so a rule
    built of these gives the same answer on codes as on orders.  One row
    block at a time, the codes of the products xy are read with ``np.take``
    as a block, those of x as a column and those of y as a row.  A scan
    block has half as many rows as a block of whole table rows: ``np.take``
    first copies the int32 products to intp, and at a whole block that copy
    took M4096's scan to 7.5 MB by tracemalloc, where half a block holds it
    under 4 MB.  The products are read by ``_products``, so a table over one
    row block is not written."""
    if not among.size:
        return None  # nothing to scan reads no product, so writes no table
    distinct, codes = np.unique(group.element_orders, return_inverse=True)
    codes = codes.astype(np.min_scalar_type(distinct.size))
    scanned = codes[among]
    products = _products(group)
    for rows in _row_blocks(among.size, 2 * group.order):
        block = np.take(codes, products[among[rows, None], among])
        bad = violates(block, scanned[rows, None], scanned)
        if bad.any():
            r, c = divmod(int(np.flatnonzero(bad)[0]), among.size)
            return int(among[rows.start + r]), int(among[c])
    return None


def is_cp2_pairwise(group: FiniteGroup) -> Cp2Report:
    """Decide CP2 by the pairs of elements of order below the largest order M;
    on failure report the first witness by (x, y) over all pairs.

    A pair with o(x) = M or o(y) = M cannot fail, as o(xy) <= M (see the
    module docstring); the elements below M are scanned in ascending order, so
    the first failing pair among them is the first of all pairs.

    The pair products, the witness's included, are read by ``_mul``: from
    the table, or, for a group whose table is unwritten and over one row
    block, from its law (the metacyclic formula, the Heisenberg digits, or a
    mixed-prime product's two sides), so the scan never writes that table.
    Both give the same products, so the same first witness.

    A same-prime product read from its law (``_sides``) reads no pair of its
    own: ``_factor_witness`` decides its two sides by this function (the
    lemma is in the module docstring).  Up to order 1024 a product is read
    from its table and scanned like any group.
    """
    if prime_power(group.order) is not None:
        # order 2 or more, so the scan below would read products too: taking
        # the route writes no table the scan would not
        sides = _sides(group)
        if sides is not None:
            return _factor_witness(*sides)
    orders = group.element_orders
    below_top = np.flatnonzero(orders < orders.max())
    # o(xy) > max(o(x), o(y)) as two bool blocks: no block for the maximum
    pair = _first_pair(group, lambda oxy, ox, oy: (oxy > ox) & (oxy > oy), below_top)
    if pair is None:
        return Cp2Report()
    x, y = pair
    xy = _mul(group, x, y)
    return Cp2Report(witness=(x, y, int(orders[x]), int(orders[y]), int(orders[xy])))


def _factor_witness(left: FiniteGroup, right: FiniteGroup) -> Cp2Report:
    """CP2 of ``left`` x ``right``, p-groups of one prime: the right side's
    witness, else the left side's with x and y times |right|, orders kept."""
    witness = is_cp2_pairwise(right).witness
    if witness is None and (witness := is_cp2_pairwise(left).witness) is not None:
        x, y, *three = witness
        witness = (x * right.order, y * right.order, *three)
    return Cp2Report(witness=witness)


def cp2_from_filtration(filtration: OmegaFiltration) -> Cp2Report:
    """Omega-criterion decision from an already computed filtration."""
    for i, level in enumerate(filtration.levels):
        if not level.set_is_subgroup:
            return Cp2Report(failing_level=i)
    return Cp2Report()


def is_cp2_omega(group: FiniteGroup) -> Cp2Report:
    """Decide CP2 for a p-group by closedness of every omega set."""
    return cp2_from_filtration(omega_filtration(group))
