"""Finite groups as dense multiplication tables over 0-based element indices.

Every group lives in a complete n x n Cayley table whose entry (a, b) is the
index of a*b.  Index 0 is always the identity.  Element orders and inverses
are computed eagerly, so a constructed group is immutable and safe to share.

Tables are validated once, exactly, where they enter from outside: a table
passed to ``group_from_table`` by a caller, and every GT1 import, is checked
for shape, entry range, the latin property, identity placement and
associativity (Light's test, exact at every size).  Tables this module builds
itself are trusted and not re-checked: the C/D/Q/H/M constructors and
``direct_product`` write group laws by construction, ``Subgroup.as_group``
restricts a table to a set the ``Subgroup`` closure check has accepted, and
``quotient`` multiplies cosets of a subgroup ``is_normal`` has accepted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "PSIGROUPS_MAX_ORDER"


class GroupError(ValueError):
    """Base class for all errors raised by this package."""


class GroupBuildError(GroupError):
    """Constructor parameter outside its domain, or table size limit hit."""


class TableFormatError(GroupError):
    """A table (GT1 text or raw array) fails the group-table invariants."""


class GroupExprError(GroupError):
    """Group expression rejected by the parser.

    ``offset`` is the byte offset of the offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NotPGroupError(GroupError):
    """Operation requires a group of prime-power order."""


class NotNormalError(GroupError):
    """Quotient requested by a non-normal subgroup."""


class NotCp2Error(GroupError):
    """Operation requires a CP2 group."""


class OmegaChainError(GroupError):
    """Top-down psi recursion hit a group equal to its own maximal omega subgroup."""


def max_table_order() -> int:
    """Configured table size limit; PSIGROUPS_MAX_ORDER overrides the default."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise GroupBuildError(f"{MAX_ORDER_ENV} is not an integer: {raw!r}") from exc
    if value < 1:
        raise GroupBuildError(f"{MAX_ORDER_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a, b]`` is the index of the product a*b; index 0 is the identity.
    ``element_orders`` and ``inverses`` are computed once at construction.
    Instances are immutable; all operations on them are pure.
    """

    name: str
    table: np.ndarray
    element_orders: np.ndarray
    inverses: np.ndarray

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @property
    def identity_index(self) -> int:
        return 0

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def power(self, x: int, e: int) -> int:
        """x**e by repeated squaring on table indices (e may be any integer)."""
        if e < 0:
            x, e = self.inv(x), -e
        result, base = 0, x
        while e:
            if e & 1:
                result = int(self.table[result, base])
            e >>= 1
            if e:
                base = int(self.table[base, base])
        return result

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name!r} order {self.order}>"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subset of a parent group's indices, verified closed on construction."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = np.asarray(self.members, dtype=np.int64)
        if mem.size == 0:
            raise GroupError("subgroup must contain the identity")
        if mem[0] != 0:
            raise GroupError("subgroup must contain index 0 as its first member")
        if np.any(np.diff(mem) <= 0):
            raise GroupError("subgroup members must be strictly increasing")
        n = self.parent.order
        if mem[-1] >= n:
            raise IndexError(f"subgroup member {int(mem[-1])} out of range for order {n}")
        if n % mem.size != 0:
            raise GroupError(f"subgroup size {mem.size} does not divide group order {n}")
        inside = np.zeros(n, dtype=bool)
        inside[mem] = True
        if not inside[self.parent.table[np.ix_(mem, mem)]].all():
            raise GroupError("subset is not closed under multiplication")
        if not inside[self.parent.inverses[mem]].all():
            raise GroupError("subset is not closed under inversion")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, index: int) -> bool:
        pos = np.searchsorted(self.members, index)
        return pos < len(self.members) and self.members[pos] == index

    def as_group(self, name: str | None = None) -> FiniteGroup:
        """The subgroup as a standalone group via table restriction.

        Member k of the subgroup becomes element k of the new group, so the
        identity stays at index 0.
        """
        mem = np.asarray(self.members, dtype=np.int64)
        restricted = np.searchsorted(mem, self.parent.table[np.ix_(mem, mem)])
        return group_from_table(
            name or f"{self.parent.name}[{len(mem)}]", restricted, trusted=True)

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.name} size {len(self.members)}>"


def _check_latin(table: np.ndarray) -> None:
    n = table.shape[0]
    expect = np.arange(n, dtype=table.dtype)
    if not np.array_equal(np.sort(table, axis=1), np.broadcast_to(expect, (n, n))):
        bad = int(np.flatnonzero(
            (np.sort(table, axis=1) != expect).any(axis=1))[0])
        raise TableFormatError(f"not a latin square: row {bad} is not a permutation")
    if not np.array_equal(np.sort(table, axis=0), np.broadcast_to(expect[:, None], (n, n))):
        bad = int(np.flatnonzero(
            (np.sort(table, axis=0) != expect[:, None]).any(axis=0))[0])
        raise TableFormatError(f"not a latin square: column {bad} is not a permutation")


def _check_identity(table: np.ndarray) -> None:
    n = table.shape[0]
    expect = np.arange(n, dtype=table.dtype)
    if not np.array_equal(table[0], expect) or not np.array_equal(table[:, 0], expect):
        raise TableFormatError("identity is not at index 0")


def _check_assoc_light(table: np.ndarray) -> None:
    """Exact associativity test (Light; Clifford & Preston 1961, section 1.2).

    The elements g with (xg)y = x(gy) for all x, y are closed under products,
    so it suffices to check a generating set: greedily the lowest element not
    yet generated by the checked ones.  A group needs at most log2(n) of them,
    for O(n^2 log n) work in all.
    """
    n = table.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    gens: list[int] = []
    while not covered.all():
        g = int(np.argmin(covered))
        # (xg)y and x(gy); np.take keeps the column gather in C order, where
        # table[:, perm] comes back in Fortran order and slows the comparison
        lhs, rhs = table[table[:, g]], np.take(table, table[g], axis=1)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise TableFormatError(f"associativity failure at ({int(x)},{g},{int(y)})")
        gens.append(g)
        frontier = np.flatnonzero(covered)
        while frontier.size:
            prods = table[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prods[~covered[prods]])
            covered[frontier] = True


def _compute_orders(table: np.ndarray) -> np.ndarray:
    """Order of every element by iterated multiplication, x^(k+1) = x^k * x."""
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    cur = idx.copy()
    k = 1
    while idx.size:
        done = cur == 0
        orders[idx[done]] = k
        idx, cur = idx[~done], cur[~done]
        if idx.size:
            if k >= n:
                raise TableFormatError(
                    f"element {int(idx[0])} has no order within {n} steps (not a group)")
            cur = table[cur, idx]
            k += 1
    return orders


def _validated(table) -> np.ndarray:
    """The table as contiguous int32 after every group-table check."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise TableFormatError(f"table must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise TableFormatError("table must have at least one element")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TableFormatError(f"table entries must be integers, got {arr.dtype}")
    if arr.min() < 0 or arr.max() >= arr.shape[0]:
        raise TableFormatError("table entry out of range [0, n)")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    _check_latin(arr)
    _check_identity(arr)
    _check_assoc_light(arr)
    return arr


def group_from_table(name: str, table, *, trusted: bool = False) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Every check runs (shape, dtype, range, latin square, identity at index 0,
    exact associativity) unless ``trusted`` is set, which only this module's
    own constructors and operations do, for tables that are groups by
    construction.
    """
    arr = np.ascontiguousarray(table, dtype=np.int32) if trusted else _validated(table)
    orders = _compute_orders(arr)
    inverses = np.ascontiguousarray((arr == 0).argmax(axis=1), dtype=np.int32)
    for a in (arr, orders, inverses):
        a.flags.writeable = False
    return FiniteGroup(name=name, table=arr, element_orders=orders, inverses=inverses)


# ---------------------------------------------------------------------------
# constructors


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GroupBuildError(message)


def _check_order_limit(k: int) -> None:
    limit = max_table_order()
    _require(k <= limit, f"group order {k} exceeds table size limit {limit}")


def cyclic_group(k: int, name: str | None = None) -> FiniteGroup:
    """Cyclic group of order k (additive table mod k)."""
    _require(k >= 1, f"C{k}: order must be >= 1")
    _check_order_limit(k)
    v = np.arange(k, dtype=np.int64)
    return group_from_table(name or f"C{k}", np.add.outer(v, v) % k, trusted=True)


def dihedral_group(k: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of order k: indices 0..k/2-1 are r^i, k/2..k-1 are s r^i."""
    _require(k >= 4 and k % 2 == 0, f"D{k}: order must be even and >= 4")
    _check_order_limit(k)
    m = k // 2
    v = np.arange(k, dtype=np.int64)
    e, i = v // m, v % m
    e1, i1 = e[:, None], i[:, None]
    e2, i2 = e[None, :], i[None, :]
    table = (e1 ^ e2) * m + (i2 + (1 - 2 * e2) * i1) % m
    return group_from_table(name or f"D{k}", table, trusted=True)


def quaternion_group(k: int, name: str | None = None) -> FiniteGroup:
    """Generalized quaternion group of order k = 2^j, j >= 3.

    Normal form a^i b^e with a of order k/2, b^2 = a^(k/4), b a b^-1 = a^-1;
    index e*(k/2) + i.
    """
    _require(k >= 8 and k & (k - 1) == 0, f"Q{k}: order must be 2^j with j >= 3")
    _check_order_limit(k)
    m = k // 2
    v = np.arange(k, dtype=np.int64)
    e, i = v // m, v % m
    e1, i1 = e[:, None], i[:, None]
    e2, i2 = e[None, :], i[None, :]
    table = (e1 ^ e2) * m + (i1 + (1 - 2 * e1) * i2 + e1 * e2 * (m // 2)) % m
    return group_from_table(name or f"Q{k}", table, trusted=True)


def heisenberg_group(k: int, name: str | None = None) -> FiniteGroup:
    """Extraspecial group of order k = p^3 and exponent p, for odd prime p.

    Realized as unitriangular 3x3 matrices over Z/p: triples (a, b, c) with
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2), index a*p^2 + b*p + c.
    """
    p, j = prime_power(k) or (0, 0)
    _require(j == 3 and p > 2, f"H{k}: order must be p^3 for an odd prime p")
    _check_order_limit(k)
    v = np.arange(k, dtype=np.int64)
    a, b, c = v // (p * p), (v // p) % p, v % p
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    table = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
    return group_from_table(name or f"H{k}", table, trusted=True)


def modular_group(k: int, name: str | None = None) -> FiniteGroup:
    """Group <a, b | a^(p^(j-1)) = b^p = 1, b^-1 a b = a^(1+p^(j-2))> of order k = p^j.

    Normal form a^i b^e, index e*p^(j-1) + i.
    """
    p, j = prime_power(k) or (0, 0)
    _require(j >= 3, f"M{k}: order must be p^j with j >= 3")
    _check_order_limit(k)
    mc = p ** (j - 1)
    s = 1 + p ** (j - 2)
    t = pow(s, -1, mc)
    v = np.arange(k, dtype=np.int64)
    e, i = v // mc, v % mc
    tpow = np.array([pow(t, x, mc) for x in range(p)], dtype=np.int64)
    e1, i1 = e[:, None], i[:, None]
    e2, i2 = e[None, :], i[None, :]
    table = ((e1 + e2) % p) * mc + (i1 + i2 * tpow[e1]) % mc
    return group_from_table(name or f"M{k}", table, trusted=True)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with lexicographic indexing, left factor major."""
    n = a.order * b.order
    _check_order_limit(n)
    ia, ib = np.divmod(np.arange(n, dtype=np.int64), b.order)
    table = a.table[np.ix_(ia, ia)].astype(np.int64) * b.order + b.table[np.ix_(ib, ib)]
    return group_from_table(name or f"{a.name}*{b.name}", table, trusted=True)


def prime_power(k: int) -> tuple[int, int] | None:
    """(p, j) with k = p^j for a prime p and j >= 1, by trial division; None
    when k is not a prime power (every k < 2 included)."""
    if k < 2:
        return None
    p = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return (p, j) if k == 1 else None


# ---------------------------------------------------------------------------
# operations


def element_order(group: FiniteGroup, x: int) -> int:
    """Smallest k >= 1 with x^k = identity."""
    if not 0 <= x < group.order:
        raise IndexError(f"element index {x} out of range for order {group.order}")
    return int(group.element_orders[x])


def order_spectrum(group: FiniteGroup) -> dict[int, int]:
    """Multiset of element orders as {order: count}, keys ascending."""
    values, counts = np.unique(group.element_orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def power_map(group: FiniteGroup, e: int) -> np.ndarray:
    """x -> x^e for every element at once, by repeated squaring on indices."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    n = group.order
    result = np.zeros(n, dtype=np.int32)
    base = np.arange(n, dtype=np.int32)
    while e:
        if e & 1:
            result = group.table[result, base]
        e >>= 1
        if e:
            base = group.table[base, base]
    return result


def closure(group: FiniteGroup, seed) -> Subgroup:
    """Smallest subgroup containing ``seed``, by saturation under products
    and inverses."""
    seed = np.fromiter(seed, dtype=np.int64)
    if seed.size and (seed.min() < 0 or seed.max() >= group.order):
        bad = int(seed.min() if seed.min() < 0 else seed.max())
        raise IndexError(f"seed index {bad} out of range for order {group.order}")
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    inside[seed] = True
    inside[group.inverses[seed]] = True
    while True:
        cur = np.flatnonzero(inside)
        prods = group.table[np.ix_(cur, cur)]
        if inside[prods].all() and inside[group.inverses[cur]].all():
            break
        inside[prods] = True
        inside[group.inverses[inside]] = True
    del prods  # Subgroup's closure check gathers the same table again
    return Subgroup(group, tuple(cur.tolist()))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff g s g^-1 stays in ``sub`` for every g in the group."""
    if sub.parent is not group:
        raise GroupError("subgroup does not belong to this group")
    mem = np.asarray(sub.members, dtype=np.int64)
    inside = np.zeros(group.order, dtype=bool)
    inside[mem] = True
    for g in range(group.order):
        conj = group.table[group.table[g, mem], group.inverses[g]]
        if not inside[conj].all():
            return False
    return True


def quotient(group: FiniteGroup, normal: Subgroup, name: str | None = None) -> FiniteGroup:
    """Quotient group on the cosets of a normal subgroup.

    Coset representatives are the minimal element index of each coset; the
    identity coset gets index 0.
    """
    if not is_normal(group, normal):
        raise NotNormalError(
            f"subgroup of size {len(normal)} is not normal in {group.name}")
    mem = np.asarray(normal.members, dtype=np.int64)
    rep = group.table[:, mem].min(axis=1)  # min of each left coset xN
    reps = np.unique(rep)
    coset_of = np.searchsorted(reps, rep)
    qtable = coset_of[group.table[np.ix_(reps, reps)]]
    return group_from_table(name or f"{group.name}/{len(normal)}", qtable, trusted=True)


# ---------------------------------------------------------------------------
# GT1 serialization


def serialize_group(group: FiniteGroup) -> str:
    """Render the table in GT1 format (header line, then one row per line)."""
    lines = [f"GT1 {group.order}"]
    lines.extend(" ".join(map(str, row)) for row in group.table.tolist())
    return "\n".join(lines) + "\n"


def parse_group_table(text: str, name: str = "GT1") -> FiniteGroup:
    """Parse GT1 text and validate every group-table invariant, associativity
    exactly; only ASCII text is accepted, so every entry is an ASCII decimal
    integer.
    """
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise TableFormatError(
            f"non-ASCII character at offset {bad}: "
            "GT1 is ASCII text with decimal entries")
    if not text.endswith("\n"):
        raise TableFormatError("GT1 text must end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != "GT1" or not header[1].isdigit():
        raise TableFormatError(f"malformed header: {lines[0]!r}")
    n = int(header[1])
    if n < 1:
        raise TableFormatError("group order must be at least 1")
    _check_order_limit(n)
    if len(lines) != n + 1:
        raise TableFormatError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for r, line in enumerate(lines[1:]):
        tokens = line.split(" ")
        if len(tokens) != n:
            raise TableFormatError(f"row {r}: expected {n} entries, got {len(tokens)}")
        if not all(t.isdigit() for t in tokens):
            raise TableFormatError(f"row {r}: entries must be nonnegative decimal integers")
        values = [int(t) for t in tokens]
        if max(values) >= n:
            raise TableFormatError(f"row {r}: entry {max(values)} out of range [0, {n})")
        rows.append(values)
    table = np.array(rows, dtype=np.int32)
    del rows  # the Python lists are several times the table: free them before validating
    return group_from_table(name, table)
