"""Element-order invariants of p-groups: exponent, omega sets and subgroups,
the full omega filtration, and the brute-force element-order sum psi."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import (FiniteGroup, GroupError, NotPGroupError, Subgroup, _indices, _integer,
                     _sides, closure, power_map, prime_power)


@dataclass(frozen=True)
class OmegaLevel:
    """Sizes at one filtration level: the solution set of x^(p^i) = 1 and the
    subgroup it generates.  ``members``, neither compared nor printed, lists
    that subgroup's indices ascending when the level was computed from a
    group."""

    set_size: int
    subgroup_size: int
    members: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def set_is_subgroup(self) -> bool:
        return self.set_size == self.subgroup_size


@dataclass(frozen=True)
class OmegaFiltration:
    """Per-level omega data for a p-group of order ``order`` and exponent p^m,
    both read from ``levels``: ``levels[i]`` covers level i for i = 0..m,
    level 0 is the trivial subgroup and level m, the last, the whole group.
    """

    p: int
    levels: tuple[OmegaLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise GroupError("an omega filtration needs at least level 0")
        if self.levels[0].set_size != 1 or self.levels[0].subgroup_size != 1:
            raise GroupError("level 0 must be the trivial subgroup")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if lo.set_size > hi.set_size or lo.subgroup_size > hi.subgroup_size:
                raise GroupError("omega levels must be non-decreasing")
        for level in self.levels:
            if level.set_size > level.subgroup_size:
                raise GroupError("omega set cannot exceed its generated subgroup")
        if self.all_levels_closed:
            # strict chain up to the whole group when every set is closed
            for i, (lo, hi) in enumerate(zip(self.levels, self.levels[1:])):
                if lo.subgroup_size >= hi.subgroup_size and hi.subgroup_size < self.order:
                    raise GroupError(f"omega chain stalls at level {i + 1}")

    @property
    def m(self) -> int:
        return len(self.levels) - 1

    @property
    def order(self) -> int:
        return self.levels[-1].subgroup_size

    @property
    def all_levels_closed(self) -> bool:
        return all(level.set_is_subgroup for level in self.levels)

    @property
    def subgroup_sizes(self) -> tuple[int, ...]:
        return tuple(level.subgroup_size for level in self.levels)

    def subgroup_size_at(self, i: int) -> int:
        """|Omega_i|, extended by |G| above the top level."""
        return self.levels[min(i, self.m)].subgroup_size


def prime_of(group: FiniteGroup) -> int:
    """The prime p with |G| = p^n; error if |G| is not a prime power or is 1."""
    n = group.order
    if n == 1:
        raise NotPGroupError("trivial group has no determined prime")
    power = prime_power(n)
    if power is None:
        raise NotPGroupError(f"group order {n} is not a prime power")
    return power[0]


def exponent(group: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    return math.lcm(*(int(v) for v in np.unique(group.element_orders)))


def exponent_log(group: FiniteGroup) -> tuple[int, int]:
    """(p, m) with exp(G) = p^m for a p-group G."""
    p = prime_of(group)
    _, m = prime_power(exponent(group))
    return p, m


def _level(i) -> int:
    """An omega level: a nonnegative integer, else GroupError."""
    i = _integer(i, "omega level")
    if i < 0:
        raise GroupError("omega level must be nonnegative")
    return i


def omega_set(group: FiniteGroup, i: int) -> tuple[int, ...]:
    """All element indices x with x^(p^i) = identity, ascending.

    x^(p^i) is the p-th power map, read once from the products by
    ``power_map``, applied i times by gathers: (x^p)^(p^(i-1)).  As
    x^n = 1 for n = p^k, it is applied at most k times.  The set is read
    from products, not from the element orders, so it stays a route
    independent of them."""
    i = _level(i)
    p = prime_of(group)
    step = power_map(group, p)
    powers = np.arange(group.order)
    for _ in range(min(i, prime_power(group.order)[1])):
        powers = step[powers]
    return tuple(np.flatnonzero(powers == 0).tolist())


def omega_subgroup(group: FiniteGroup, i: int) -> Subgroup:
    """The subgroup generated by the level-i omega set: read from the
    group's filtration when it already holds one, else one closure."""
    kept = group._filtration
    if kept is None:
        return closure(group, omega_set(group, i))
    return Subgroup(group, kept.levels[min(_level(i), kept.m)].members)


def omega_filtration(group: FiniteGroup) -> OmegaFiltration:
    """Set and subgroup sizes, and the subgroup members, at every level 0..m,
    where exp(G) = p^m.

    Each level is ``omega_set`` and its ``closure``; for a direct product
    read from its law, the levels are folded from its two sides' (``_sides``,
    ``_product_levels``).  Neither route writes a table over one block.  The
    prime and exponent are read from the group's orders first either way, so
    a group that is not a p-group is refused with the same error.

    Computed once per group instance and kept on it (the table cannot
    change), so every later call returns the same object.
    """
    if group._filtration is None:
        p, m = exponent_log(group)
        sides = _sides(group)
        if sides is not None:
            levels = _product_levels(*sides, m)
        else:
            levels = []
            for i in range(m + 1):
                members = omega_set(group, i)
                generated = closure(group, members)
                levels.append(OmegaLevel(set_size=len(members), subgroup_size=len(generated),
                                         members=generated.members))
        filtration = OmegaFiltration(p=p, levels=tuple(levels))
        object.__setattr__(group, "_filtration", filtration)  # FiniteGroup is frozen
    return group._filtration


def _product_levels(left: FiniteGroup, right: FiniteGroup, m: int) -> list[OmegaLevel]:
    """Levels 0..m of A x B, ``left`` x ``right``, from theirs: x^(p^i) = 1
    exactly when it holds on both sides, so Omega_i(A x B) =
    Omega_i(A) x Omega_i(B), both sizes multiply, and the members are the
    sums a * |B| + b, ascending."""
    levels = []
    for i in range(m + 1):
        a, b = _side_level(left, i), _side_level(right, i)
        members = (np.array(a.members)[:, None] * right.order + np.array(b.members)).ravel()
        levels.append(OmegaLevel(set_size=a.set_size * b.set_size,
                                 subgroup_size=members.size, members=tuple(members.tolist())))
    return levels


def _side_level(side: FiniteGroup, i: int) -> OmegaLevel:
    """Level i of a side, its top level above its exponent; an order-1 side
    has no prime, and its only index, 0, at every level."""
    if side.order == 1:
        return OmegaLevel(set_size=1, subgroup_size=1, members=(0,))
    filtration = omega_filtration(side)
    return filtration.levels[min(i, filtration.m)]


def psi_brute(group: FiniteGroup) -> int:
    """Sum of the orders of all elements, summed exactly."""
    return int(group.element_orders.sum())


def psi_subset(group: FiniteGroup, indices) -> int:
    """Sum of element orders over a subset of indices."""
    idx = _indices(indices, "subset")
    if idx.size and (idx.min() < 0 or idx.max() >= group.order):
        raise IndexError(f"subset index out of range for order {group.order}")
    return int(group.element_orders[idx].sum())
