"""CP2 membership: o(xy) <= max(o(x), o(y)) for all pairs.

Two independent deciders are provided: the definitional pairwise scan, which
works for arbitrary finite groups, and the omega-set criterion for p-groups
(every level's solution set of x^(p^i) = 1 is already a subgroup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _row_blocks
from .omega import OmegaFiltration, omega_filtration


@dataclass(frozen=True)
class Cp2Report:
    """Decision plus a witness of failure.

    ``witness`` is (x, y, o(x), o(y), o(xy)) for the lexicographically first
    violating pair under the pairwise method; ``failing_level`` is the first
    omega level whose set is not closed under the omega method.
    """

    is_cp2: bool
    method: str
    witness: tuple[int, int, int, int, int] | None = None
    failing_level: int | None = None


def _first_pair(group: FiniteGroup, violates) -> tuple[int, int] | None:
    """First pair (x, y), in (x, y) order, with ``violates(o(xy), o(x), o(y))``,
    or None.  The rule is applied to int32 order arrays one row block at a
    time: o(xy) as a block, o(x) as a column and o(y) as a row."""
    orders = group.element_orders.astype(np.int32)
    for rows in _row_blocks(group.order, group.order):
        bad = violates(orders[group.table[rows]], orders[rows, None], orders)
        if bad.any():
            r, y = divmod(int(np.flatnonzero(bad)[0]), group.order)
            return rows.start + r, y
    return None


def is_cp2_pairwise(group: FiniteGroup) -> Cp2Report:
    """Scan all ordered pairs; on failure report the first witness by (x, y)."""
    pair = _first_pair(group, lambda oxy, ox, oy: oxy > np.maximum(ox, oy))
    if pair is None:
        return Cp2Report(is_cp2=True, method="pairwise")
    x, y = pair
    orders = group.element_orders
    return Cp2Report(
        is_cp2=False,
        method="pairwise",
        witness=(x, y, int(orders[x]), int(orders[y]), int(orders[group.table[x, y]])),
    )


def cp2_from_filtration(filtration: OmegaFiltration) -> Cp2Report:
    """Omega-criterion decision from an already computed filtration."""
    for i, level in enumerate(filtration.levels):
        if not level.set_is_subgroup:
            return Cp2Report(is_cp2=False, method="omega-criterion", failing_level=i)
    return Cp2Report(is_cp2=True, method="omega-criterion")


def is_cp2_omega(group: FiniteGroup) -> Cp2Report:
    """Decide CP2 for a p-group by closedness of every omega set."""
    return cp2_from_filtration(omega_filtration(group))
