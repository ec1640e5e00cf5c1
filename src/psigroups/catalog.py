"""Construction-based catalog of small p-groups.

For each prime the catalog realizes every abelian p-group up to the order
cap (one entry per partition of the exponent vector), the dihedral and
generalized quaternion 2-groups, the extraspecial exponent-p group and the
modular groups for odd p, and the classic order-256 counterexample pair.
Entries carry their filtration, CP2 report, psi, per-level psi values and
commutativity so the verification harness never recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .cp2 import Cp2Report, is_cp2_pairwise
from .expr import group_from_text
from .groups import (
    FiniteGroup,
    GroupBuildError,
    _check_order_limit,
    max_table_order,
    prime_power,
)
from .omega import OmegaFiltration, omega_filtration, psi_brute, psi_subset

COUNTEREXAMPLE_PAIR = ("D16*C2*C2*C2*C2", "C4*C4*C4*C4")

# default per-prime order caps used by the verification suites
DEFAULT_CATALOGS = ((2, 256), (3, 243), (5, 125))


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog group, named by its group, with derived data cached at build time."""

    group: FiniteGroup
    filtration: OmegaFiltration
    cp2: Cp2Report
    psi: int
    level_psi: tuple[int, ...]
    is_abelian: bool

    @property
    def name(self) -> str:
        return self.group.name

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def prime(self) -> int:
        return self.filtration.p

    @property
    def exponent(self) -> int:
        return self.filtration.p**self.filtration.m

    def level_psi_at(self, i: int) -> int:
        """psi(Omega_i), extended by psi(G) above the top level."""
        return self.level_psi[min(i, self.filtration.m)]


@dataclass(frozen=True)
class Catalog:
    """The entries of one build, sorted by order and then name."""

    entries: tuple[CatalogEntry, ...]


def partitions(k: int) -> Iterator[tuple[int, ...]]:
    """All partitions of k as non-increasing tuples, lexicographically
    descending."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, cap), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(k, k, ())


def abelian_names(p: int, k: int) -> list[str]:
    """Names of all abelian groups of order p^k, one per partition of k."""
    return ["*".join(f"C{p**part}" for part in lam) for lam in partitions(k)]


def catalog_names(primes: Iterable[int], max_order: int) -> list[str]:
    """Deduplicated entry names for the catalog parameters, order by order."""
    names: list[str] = []
    for p in primes:
        k = 1
        while (q := p**k) <= max_order:
            names += abelian_names(p, k)
            if p == 2 and k >= 3:
                names += [f"D{q}", f"Q{q}"]
            if p != 2 and k == 3:
                names.append(f"H{q}")
            if p != 2 and k >= 3:
                names.append(f"M{q}")
            if q == 256:
                names += COUNTEREXAMPLE_PAIR
            k += 1
    return list(dict.fromkeys(names))


def make_entry(group: FiniteGroup) -> CatalogEntry:
    """Compute and cache every derived quantity for one group.  Commutativity
    is read first, from the law, before the filtration writes the table."""
    is_abelian = group.is_abelian
    filtration = omega_filtration(group)
    level_psi = tuple(psi_subset(group, level.members) for level in filtration.levels)
    return CatalogEntry(
        group=group,
        filtration=filtration,
        cp2=is_cp2_pairwise(group),
        psi=psi_brute(group),
        level_psi=level_psi,
        is_abelian=is_abelian,
    )


def check_catalog_spec(primes: Iterable[int], max_order: int) -> tuple[int, ...]:
    """The distinct primes, ascending; GroupBuildError for a non-prime, a
    prime or an order cap above the table size limit, a prime whose cyclic
    group cannot fit in physical memory, or a cap below 1."""
    primes = tuple(sorted(set(int(p) for p in primes)))
    limit = max_table_order()
    for p in primes:
        if p > limit:  # no p-group fits, and prime_power(p) could run for hours
            raise GroupBuildError(f"{p} exceeds table size limit {limit}")
        _check_order_limit(p)  # C_p must fit in memory before trial division
        if prime_power(p) != (p, 1):
            raise GroupBuildError(f"{p} is not a prime")
    if max_order < 1:
        raise GroupBuildError(f"max order must be positive, got {max_order}")
    if max_order > limit:
        raise GroupBuildError(
            f"max order {max_order} exceeds table size limit {limit}")
    return primes


def build_catalog(primes: Iterable[int], max_order: int) -> Catalog:
    """Build the catalog for the given primes up to the given order."""
    primes = check_catalog_spec(primes, max_order)
    entries = [make_entry(group_from_text(name))
               for name in catalog_names(primes, max_order)]
    entries.sort(key=lambda e: (e.order, e.name))
    return Catalog(entries=tuple(entries))
