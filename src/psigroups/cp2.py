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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _mul, _products, _row_blocks
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
    or None.  Both x and y range over ``among``, ascending indices.  The rule
    is applied to int32 order arrays one row block at a time: o(xy) as a
    block, o(x) as a column and o(y) as a row.  A block has as many rows as a
    block of whole table rows, so it never holds more entries.  The products
    are read by ``_products``, so a table over one row block is not written."""
    if not among.size:
        return None  # nothing to scan reads no product, so writes no table
    orders = group.element_orders.astype(np.int32)
    scanned = orders[among]
    products = _products(group)
    for rows in _row_blocks(among.size, group.order):
        bad = violates(orders[products[among[rows, None], among]], scanned[rows, None], scanned)
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
    product's factors), so the scan never writes that table.  Both give the
    same products, so the same first witness.
    """
    orders = group.element_orders
    below_top = np.flatnonzero(orders < orders.max())
    # o(xy) > max(o(x), o(y)) as two bool blocks: no int32 block for the maximum
    pair = _first_pair(group, lambda oxy, ox, oy: (oxy > ox) & (oxy > oy), below_top)
    if pair is None:
        return Cp2Report()
    x, y = pair
    xy = _mul(group, x, y)
    return Cp2Report(witness=(x, y, int(orders[x]), int(orders[y]), int(orders[xy])))


def cp2_from_filtration(filtration: OmegaFiltration) -> Cp2Report:
    """Omega-criterion decision from an already computed filtration."""
    for i, level in enumerate(filtration.levels):
        if not level.set_is_subgroup:
            return Cp2Report(failing_level=i)
    return Cp2Report()


def is_cp2_omega(group: FiniteGroup) -> Cp2Report:
    """Decide CP2 for a p-group by closedness of every omega set."""
    return cp2_from_filtration(omega_filtration(group))
