"""Construction-based catalog of small p-groups.

For each prime the catalog realizes every abelian p-group up to the order
cap (one entry per partition of the exponent vector), the dihedral and
generalized quaternion 2-groups, the extraspecial exponent-p group and the
modular groups for odd p, and the classic order-256 counterexample pair.
Entries carry their filtration, CP2 report, psi and per-level psi values so
the verification harness never recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .cp2 import Cp2Report, is_cp2_pairwise
from .expr import group_from_text
from .groups import (
    FiniteGroup,
    GroupBuildError,
    max_table_order,
    prime_power,
)
from .omega import OmegaFiltration, omega_filtration, psi_brute, psi_subset

COUNTEREXAMPLE_PAIR = ("D16*C2*C2*C2*C2", "C4*C4*C4*C4")

# default per-prime order caps used by the verification suites
DEFAULT_CATALOGS = ((2, 256), (3, 243), (5, 125))


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog group with all derived data cached at build time."""

    name: str
    group: FiniteGroup
    filtration: OmegaFiltration
    cp2: Cp2Report
    psi: int
    level_psi: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def prime(self) -> int:
        return self.filtration.p

    @property
    def exponent(self) -> int:
        return self.filtration.p**self.filtration.m

    @property
    def is_abelian(self) -> bool:
        return self.group.is_abelian

    def level_psi_at(self, i: int) -> int:
        """psi(Omega_i), extended by psi(G) above the top level."""
        return self.level_psi[min(i, self.filtration.m)]


@dataclass(frozen=True)
class Catalog:
    primes: tuple[int, ...]
    max_order: int
    entries: tuple[CatalogEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> CatalogEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


def partitions(k: int) -> Iterator[tuple[int, ...]]:
    """All partitions of k as non-increasing tuples, lexicographically
    descending."""
    if k == 0:
        yield ()
        return

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
    """Deduplicated entry names for the catalog parameters."""
    names: dict[str, None] = {}
    for p in primes:
        k = 1
        while p ** (k + 1) <= max_order:
            k += 1
        if p > max_order:
            continue
        for exp in range(1, k + 1):
            for name in abelian_names(p, exp):
                names.setdefault(name, None)
        if p == 2:
            size = 8
            while size <= max_order:
                names.setdefault(f"D{size}", None)
                names.setdefault(f"Q{size}", None)
                size *= 2
            if max_order >= 256:
                for name in COUNTEREXAMPLE_PAIR:
                    names.setdefault(name, None)
        else:
            if p**3 <= max_order:
                names.setdefault(f"H{p**3}", None)
            j = 3
            while p**j <= max_order:
                names.setdefault(f"M{p**j}", None)
                j += 1
    return list(names)


def make_entry(group: FiniteGroup) -> CatalogEntry:
    """Compute and cache every derived quantity for one group."""
    filtration = omega_filtration(group)
    level_psi = tuple(psi_subset(group, level.members) for level in filtration.levels)
    return CatalogEntry(
        name=group.name,
        group=group,
        filtration=filtration,
        cp2=is_cp2_pairwise(group),
        psi=psi_brute(group),
        level_psi=level_psi,
    )


def check_catalog_spec(primes: Iterable[int], max_order: int) -> tuple[int, ...]:
    """The distinct primes, ascending; GroupBuildError for a non-prime or an
    order cap outside [1, table size limit]."""
    primes = tuple(sorted(set(int(p) for p in primes)))
    for p in primes:
        if prime_power(p) != (p, 1):
            raise GroupBuildError(f"{p} is not a prime")
    if max_order < 1:
        raise GroupBuildError(f"max order must be positive, got {max_order}")
    limit = max_table_order()
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
    return Catalog(primes=primes, max_order=max_order, entries=tuple(entries))
