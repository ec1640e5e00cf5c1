"""CP2 membership: o(xy) <= max(o(x), o(y)) for all pairs.

Two independent deciders are provided: the definitional pairwise scan, which
works for arbitrary finite groups, and the omega-set criterion for p-groups
(every level's solution set of x^(p^i) = 1 is already a subgroup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
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


def _pair_orders(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """n x n matrices o(xy) and max(o(x), o(y)) over all ordered pairs (x, y)."""
    orders = group.element_orders
    return orders[group.table], np.maximum.outer(orders, orders)


def is_cp2_pairwise(group: FiniteGroup) -> Cp2Report:
    """Scan all ordered pairs; on failure report the first witness by (x, y)."""
    orders = group.element_orders
    product_orders, bound = _pair_orders(group)
    bad = product_orders > bound
    if not bad.any():
        return Cp2Report(is_cp2=True, method="pairwise")
    flat = int(np.flatnonzero(bad.ravel())[0])
    x, y = divmod(flat, group.order)
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
