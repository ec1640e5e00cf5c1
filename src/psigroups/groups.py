"""Finite groups as dense multiplication tables over 0-based element indices.

Every group lives in a complete n x n Cayley table whose entry (a, b) is the
index of a*b.  Index 0 is always the identity.  Element orders are known
from construction, so a constructed group is immutable and safe to share.
Only an atom (the C/D/Q/H/M constructors), a quotient and a table passed in
from outside have theirs computed: by Lagrange, o(x) is the least divisor d
of n with x^d = 1, which ``power_map``'s repeated-squaring kernel ``_power``
decides, one call per divisor at most.  The rest are read from groups that
already hold them: o(x) does not depend on the group it is taken in, so
``Subgroup.as_group`` reads its orders from the parent's, and
``direct_product`` folds its factors' orders by o((a, b)) = lcm(o(a), o(b)).

As the table never changes, a group also keeps what is derived from it
alone the first time it is asked for: its omega filtration
(``omega.omega_filtration``) and its quotient by each normal subgroup N,
kept on ``N.parent`` by ``quotient(N)``.  A kept value must never reference
the group itself, or the group would only be freed by the cycle collector:
the filtration holds sizes and member tuples, and a quotient is a group of
its own, not a ``Subgroup``.

Tables are validated once, exactly, where they enter from outside: a table
passed to ``group_from_table`` by a caller, and every GT1 import, is checked
for shape, entry range, identity placement, associativity (Light's test,
exact at every size) and element orders.  Tables this module builds
itself are trusted and not re-checked: the C/D/Q/H/M constructors and
``direct_product`` write group laws by construction, ``Subgroup.as_group``
restricts a table to a set the ``Subgroup`` closure check has accepted, and
``quotient`` multiplies cosets of a subgroup ``is_normal`` has accepted.

Every n x n kernel works in int32 and holds at most its table plus one row
block of about ``_BLOCK_ENTRIES`` entries.  Writers build whole tables in
place: C, D, Q and M in one metacyclic kernel, which writes one row block of
whole rows (``_row_blocks``) at a time with an add and a conditional
subtract, no division; H in one broadcast; and ``direct_product`` folding
every factor's table in from the right, one broadcast each, into a product
wrapped as one group.  The readers (the closure check, the closure step, the
subgroup and quotient tables, the coset minima of ``is_normal`` and
``quotient``, the CP2 pair scan, Light's test) go one row block at a time
too, and so does the GT1 export, in the GT1 tokeniser's blocks of about
``_GT1_BLOCK_TOKENS`` entries.  Before a table is allocated, its order is
checked against the table size limit and its bytes, the table plus one row
block, against physical memory, so a build that cannot fit is refused with a
``GroupBuildError`` instead of failing part-way.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .omega import OmegaFiltration

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "PSIGROUPS_MAX_ORDER"
_BLOCK_ENTRIES = 1 << 20  # an n x n kernel's row block: whole rows, about this many entries


class GroupError(ValueError):
    """Base class for all errors raised by this package."""


class GroupBuildError(GroupError):
    """Constructor parameter outside its domain, or table size limit hit."""


class TableFormatError(GroupError):
    """A table (GT1 text or raw array) fails the group-table invariants."""


class GroupExprError(GroupError):
    """Group expression rejected by the parser.

    ``offset`` is the index of the offending character in the expression ``str``.
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
        # int() also refuses a decimal of more than 4300 digits
        # (sys.get_int_max_str_digits()): name that fault, not a non-integer
        text = raw.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        fault = (f"has too many digits ({len(digits)})" if digits.isdecimal()
                 else f"is not an integer: {raw!r}")
        raise GroupBuildError(f"{MAX_ORDER_ENV} {fault}") from exc
    if value < 1:
        raise GroupBuildError(f"{MAX_ORDER_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a, b]`` is the index of the product a*b; index 0 is the identity.
    Products are read from ``table`` and powers from ``power_map``;
    ``element_orders`` is set once at construction: computed as the least
    d | n with x^d = 1 for an atom, a quotient or an outside table, read from
    the parent's for a subgroup's group, and folded from the factors' by lcm
    for a direct product.
    Instances are immutable; all operations on them are pure.

    Two private fields, neither compared nor printed, keep results derived
    from the table on their first computation: ``_filtration``, the omega
    filtration, and ``_quotients``, where ``quotient(N)`` keeps its result on
    ``N.parent`` keyed by ``N.members``.  Nothing kept may reference the group.
    """

    name: str
    table: np.ndarray
    element_orders: np.ndarray
    _filtration: OmegaFiltration | None = field(
        default=None, init=False, compare=False, repr=False)
    _quotients: dict[tuple[int, ...], FiniteGroup] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name!r} order {self.order}>"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subset of a parent group's indices, verified closed on construction.
    Members given as anything but a tuple are stored as a tuple of ints, so
    they can key the parent's kept quotients.

    n strictly increasing members in [0, n) are every index, and every table
    entry is an index, so that set is closed with no products read: the
    whole group is accepted before the closure check gathers a table block.

    A normal subgroup N names each coset by its least index, min(Nx), which
    is min(xN) as well: ``quotient`` reads these from N's rows."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = _indices(self.members, "subgroup member")
        if not isinstance(self.members, tuple):
            object.__setattr__(self, "members", tuple(mem.tolist()))  # frozen dataclass
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
        if mem.size == n:
            return
        inside = np.zeros(n, dtype=bool)
        inside[mem] = True
        for rows in _row_blocks(mem.size, mem.size):
            if not inside[self.parent.table[np.ix_(mem[rows], mem)]].all():
                raise GroupError("subset is not closed under multiplication")

    def __len__(self) -> int:
        return len(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group via table restriction.

        Member k of the subgroup becomes element k of the new group, so the
        identity stays at index 0.  The orders are read from the parent's, not
        computed: o(x) does not depend on the group it is taken in.
        """
        mem = np.asarray(self.members, dtype=np.int64)
        restricted = np.empty((mem.size, mem.size), dtype=np.int32)
        for rows in _row_blocks(mem.size, mem.size):
            restricted[rows] = np.searchsorted(mem, self.parent.table[np.ix_(mem[rows], mem)])
        return _frozen_group(f"{self.parent.name}[{len(mem)}]", restricted,
                             self.parent.element_orders[mem])

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.name} size {len(self.members)}>"


def _indices(values, what: str) -> np.ndarray:
    """``values`` as int64 element indices.  A value that is not an integer is
    refused, not truncated; no values at all are accepted."""
    arr = np.asarray(values if isinstance(values, (tuple, list, np.ndarray)) else list(values))
    if arr.size and arr.dtype.kind not in "iu":
        raise GroupError(f"{what} indices must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _integer(value, what: str) -> int:
    """``value`` as an int.  A value that is not an integer is refused, not
    truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise GroupError(f"{what} must be an integer, got {value!r}") from None


def _exceeds(digits: str, bound: int) -> bool:
    """Whether the decimal ``digits``, without leading zeros, is above
    ``bound``: compared by length first, as int() refuses more than 4300
    digits."""
    return len(digits) > len(str(bound)) or int(digits) > bound


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices of whole rows, about ``_BLOCK_ENTRIES`` entries each (at least
    one row), covering ``rows`` rows of ``cols`` entries: the blocks in which
    the table readers gather."""
    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    return [slice(r0, r0 + step) for r0 in range(0, rows, step)]


def _check_latin(table: np.ndarray) -> None:
    """Every row, then every column, holds each index once: the entries are in
    range, so a line is a permutation iff it counts every value."""
    n = table.shape[0]
    for kind, lines in (("row", table), ("column", table.T)):
        for i, line in enumerate(lines):
            if not np.bincount(line, minlength=n).all():
                raise TableFormatError(f"not a latin square: {kind} {i} is not a permutation")


def _check_identity(table: np.ndarray) -> None:
    n = table.shape[0]
    expect = np.arange(n, dtype=table.dtype)
    if not np.array_equal(table[0], expect) or not np.array_equal(table[:, 0], expect):
        raise TableFormatError("identity is not at index 0")


def _check_assoc_light(table: np.ndarray) -> None:
    """Exact associativity test (Light; Clifford & Preston 1961, section 1.2).

    The elements g with (xg)y = x(gy) for all x, y are closed under products,
    so it suffices to check a generating set: greedily the lowest element not
    yet generated by the checked ones.  On a latin table with identity 0 they
    generate a group that each new one at least doubles, so log2(n) of them
    suffice, for O(n^2 log n) work in all; a table needing more is not latin.
    """
    n = table.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    gens: list[int] = []
    while not covered.all():
        if len(gens) == n.bit_length():
            raise TableFormatError(f"not a latin square: over {len(gens)} generators needed")
        g = int(np.argmin(covered))
        for rows in _row_blocks(n, n):
            # (xg)y and x(gy); np.take keeps the column gather in C order, where
            # table[:, perm] comes back in Fortran order and slows the comparison
            lhs, rhs = table[table[rows, g]], np.take(table[rows], table[g], axis=1)
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0]
                raise TableFormatError(
                    f"associativity failure at ({rows.start + int(x)},{g},{int(y)})")
            del lhs, rhs  # the next block's pair is built after this one is freed
        gens.append(g)
        frontier = np.flatnonzero(covered)
        while frontier.size:
            prods = table[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prods[~covered[prods]])
            covered[frontier] = True


def _power(table: np.ndarray, e: int) -> np.ndarray:
    """x -> x^e for every element at once, by repeated squaring on indices."""
    n = table.shape[0]
    result = np.zeros(n, dtype=np.int32)
    base = np.arange(n, dtype=np.int32)
    while e:
        if e & 1:
            result = table[result, base]
        e >>= 1
        if e:
            base = table[base, base]
    return result


def _compute_orders(table: np.ndarray) -> np.ndarray:
    """Order of every element by Lagrange: o(x) divides n, and x^d = 1 exactly
    when o(x) divides d, so the first divisor d of n with x^d = 1 is o(x)."""
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        orders[(orders == 0) & (_power(table, d) == 0)] = d
        if orders.all():
            return orders
    raise TableFormatError(
        f"element {int(np.argmin(orders))} has no order dividing {n} (not a group)")


def _in_domain(table) -> np.ndarray:
    """The table as contiguous int32, after the shape, dtype and range checks."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise TableFormatError(f"table must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise TableFormatError("table must have at least one element")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TableFormatError(f"table entries must be integers, got {arr.dtype}")
    if arr.min() < 0 or arr.max() >= arr.shape[0]:
        raise TableFormatError("table entry out of range [0, n)")
    return np.ascontiguousarray(arr, dtype=np.int32)


def group_from_table(name: str, table, *, trusted: bool = False) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Every check runs (shape, dtype, range, identity at index 0, exact
    associativity, orders dividing n) unless ``trusted`` is set, which only
    this module's own constructors and operations do, for tables that are
    groups by construction.  The last three decide group-ness, identity first
    as Light's test grows its cover from index 0: when they pass, each x has
    x^(o(x)-1) as an inverse.  A group is latin, so a non-latin table fails
    one of them, and the latin check then names its first bad line.
    """
    arr = np.ascontiguousarray(table, dtype=np.int32) if trusted else _in_domain(table)
    try:
        if not trusted:
            _check_identity(arr)
            _check_assoc_light(arr)
        orders = _compute_orders(arr)
    except TableFormatError:
        _check_latin(arr)
        raise
    return _frozen_group(name, arr, orders)


def _frozen_group(name: str, table: np.ndarray, orders: np.ndarray) -> FiniteGroup:
    """A table and its element orders, both made read-only, as a group."""
    for a in (table, orders):
        a.flags.writeable = False
    return FiniteGroup(name=name, table=table, element_orders=orders)


# ---------------------------------------------------------------------------
# constructors


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GroupBuildError(message)


def _check_order_limit(k: int) -> None:
    """Refuse a table of order k above the table size limit, or one whose
    build cannot fit in physical memory: the int32 table plus one row block
    of int64 entries (a block holds at least one whole row)."""
    limit = max_table_order()
    _require(k <= limit, f"group order {k} exceeds table size limit {limit}")
    need = 4 * k * k + 8 * max(k, _BLOCK_ENTRIES)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no os.sysconf, or no such name here
        return
    _require(need <= memory, f"group order {k} needs about {need} bytes, "
                             f"more than the {memory} bytes of physical memory")


def _metacyclic_table(m: int, s: int, t: int, r: int, *, transposed: bool = False) -> np.ndarray:
    """Table of <a, b | a^m = 1, b^s = a^t, b^-1 a b = a^r> (King 1973), of
    order m*s when r^s = 1 and t(r - 1) = 0 mod m, with a^i b^e at e*m + i:
    a^i1 b^e1 * a^i2 b^e2 = a^(i1 + i2 r^-e1 + t[e1 + e2 >= s]) b^((e1 + e2) mod s).
    ``transposed`` is, for r^2 = 1, the table with b^e a^i at e*m + i:
    b^e1 a^i1 * b^e2 a^i2 = b^((e1 + e2) mod s) a^(i1 r^-e2 + t[e1 + e2 >= s] + i2).

    The rows of each e1 slab are written in row blocks of whole rows
    (``_row_blocks``) with no division: entry (e1, i1; e2, i2) is
    (row term + column term) mod m + ((e1 + e2) mod s) m, both terms in
    [0, m), so the sum u is reduced by min(u, u - m) on unsigned views.
    The row term is i1, or i1 r^-e2 + t[e1 + e2 >= s] mod m when transposed;
    the column term is the rest."""
    n = m * s
    _check_order_limit(n)
    table = np.empty((n, n), dtype=np.int32)
    i = np.arange(m, dtype=np.int32)
    e = np.arange(s)
    twisted = np.outer([pow(r, -x, m) for x in range(s)], np.arange(m)) % m  # [e, i]: i r^-e mod m
    for e1 in range(s):
        carry = t * (e1 + e >= s)
        if transposed:
            row_term = ((twisted.T + carry) % m).astype(np.int32)[:, :, None]
            col_term = i
        else:
            row_term = i[:, None, None]
            col_term = ((twisted[e1] + carry[:, None]) % m).astype(np.int32)
        offset = ((e1 + e) % s * m).astype(np.int32)[:, None]
        slab = table[e1 * m:(e1 + 1) * m].reshape(m, s, m)  # [i1, e2, i2]
        for rows in _row_blocks(m, n):
            block = slab[rows]
            np.add(row_term[rows], col_term, out=block)
            u = block.view(np.uint32)
            np.minimum(u, u - m, out=u)  # u - m wraps past u when u < m
            block += offset
    return table


def cyclic_group(k: int) -> FiniteGroup:
    """Cyclic group of order k: metacyclic (m, s, t, r) = (k, 1, 0, 1)."""
    _require(k >= 1, f"C{k}: order must be >= 1")
    return group_from_table(f"C{k}", _metacyclic_table(k, 1, 0, 1), trusted=True)


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order k: indices 0..k/2-1 are r^i, k/2..k-1 are s r^i,
    metacyclic (m, s, t, r) = (k/2, 2, 0, -1) transposed to this b^e a^i layout."""
    _require(k >= 4 and k % 2 == 0, f"D{k}: order must be even and >= 4")
    return group_from_table(f"D{k}", _metacyclic_table(k // 2, 2, 0, -1, transposed=True),
                            trusted=True)


def quaternion_group(k: int) -> FiniteGroup:
    """Generalized quaternion group of order k = 2^j, j >= 3.

    Normal form a^i b^e with a of order k/2, b^2 = a^(k/4), b a b^-1 = a^-1;
    index e*(k/2) + i: metacyclic (m, s, t, r) = (k/2, 2, k/4, -1).
    """
    _require(k >= 8 and k & (k - 1) == 0, f"Q{k}: order must be 2^j with j >= 3")
    return group_from_table(f"Q{k}", _metacyclic_table(k // 2, 2, k // 4, -1), trusted=True)


def heisenberg_group(k: int) -> FiniteGroup:
    """Extraspecial group of order k = p^3 and exponent p, for odd prime p.

    Realized as unitriangular 3x3 matrices over Z/p: triples (a, b, c) with
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2), index a*p^2 + b*p + c.
    Not metacyclic: one broadcast sum of two p^4-entry terms over a (p,)*6 view.
    """
    p, j = prime_power(k) or (0, 0)
    _require(j == 3 and p > 2, f"H{k}: order must be p^3 for an odd prime p")
    _check_order_limit(k)
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p, dtype=np.int32)] * 6)
    table = np.empty((p,) * 6, dtype=np.int32)
    np.add(((a1 + a2) % p * p + (b1 + b2) % p) * p, (c1 + c2 + a1 * b2) % p, out=table)
    return group_from_table(f"H{k}", table.reshape(k, k), trusted=True)


def modular_group(k: int) -> FiniteGroup:
    """Group <a, b | a^(p^(j-1)) = b^p = 1, b^-1 a b = a^(1+p^(j-2))> of order k = p^j.

    Normal form a^i b^e, index e*p^(j-1) + i: metacyclic (m, s, t, r) =
    (p^(j-1), p, 0, 1 + p^(j-2)).
    """
    p, j = prime_power(k) or (0, 0)
    _require(j >= 3, f"M{k}: order must be p^j with j >= 3")
    return group_from_table(f"M{k}", _metacyclic_table(p ** (j - 1), p, 0, 1 + p ** (j - 2)),
                            trusted=True)


def direct_product(a: FiniteGroup, b: FiniteGroup, *more: FiniteGroup) -> FiniteGroup:
    """Direct product of every factor with lexicographic indexing, left factor
    major, wrapped as one group named by the factors' names joined by '*'.

    (a1, b1) * (a2, b2) = (a1 a2, b1 b2) sits at index (a1 a2) * |B| + b1 b2,
    so the table, viewed as |A| x |B| x |A| x |B|, is one broadcast sum.
    Lexicographic indexing is associative, so the factors' tables are folded
    in from the right: each broadcast's innermost operand is the product
    already built, not a single factor.  The orders are folded beside them,
    o((a1, b1)) = lcm(o(a1), o(b1)) at the same index, not computed.
    """
    factors = (a, b, *more)
    _check_order_limit(math.prod(g.order for g in factors))
    table, orders = factors[-1].table, factors[-1].element_orders
    for left in reversed(factors[:-1]):
        na, nb = left.order, table.shape[0]
        out = np.empty((na, nb, na, nb), dtype=np.int32)
        np.add((left.table * nb)[:, None, :, None], table[None, :, None, :], out=out)
        table = out.reshape(na * nb, na * nb)
        orders = np.lcm.outer(left.element_orders, orders).ravel()
    return _frozen_group("*".join(g.name for g in factors), table, orders)


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


def order_spectrum(group: FiniteGroup) -> dict[int, int]:
    """Multiset of element orders as {order: count}, keys ascending."""
    values, counts = np.unique(group.element_orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def power_map(group: FiniteGroup, e: int) -> np.ndarray:
    """x -> x^e for every element at once, by repeated squaring on indices.
    As x^n = 1 by Lagrange, the kernel takes e mod n."""
    e = _integer(e, "exponent")
    if e < 0:
        raise GroupError("exponent must be nonnegative")
    return _power(group.table, e % group.order)


def closure(group: FiniteGroup, seed) -> Subgroup:
    """Smallest subgroup containing ``seed``: seed and identity, grown by
    products until ``Subgroup`` accepts the set (its GroupError means "not
    closed" for a sorted, in-range set holding 0).  A finite set closed under
    products is a subgroup, since x^-1 = x^(o(x)-1), so no inverse is taken.
    """
    seed = _indices(seed, "seed")
    if seed.size and (seed.min() < 0 or seed.max() >= group.order):
        bad = int(seed.min() if seed.min() < 0 else seed.max())
        raise IndexError(f"seed index {bad} out of range for order {group.order}")
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    inside[seed] = True
    while True:
        cur = np.flatnonzero(inside)
        try:
            return Subgroup(group, tuple(cur.tolist()))
        except GroupError:
            for rows in _row_blocks(cur.size, cur.size):
                inside[group.table[np.ix_(cur[rows], cur)]] = True


def _coset_minima(sub: Subgroup, left: bool) -> np.ndarray:
    """min(xN) (``left``) or min(Nx) for every x in N.parent, one row block
    at a time: min(xN) over blocks of rows x of the columns N, min(Nx) as a
    running minimum over blocks of N's rows."""
    table = sub.parent.table
    mem = np.asarray(sub.members, dtype=np.int64)
    n = table.shape[0]
    if left:
        out = np.empty(n, dtype=table.dtype)
        for rows in _row_blocks(n, mem.size):
            out[rows] = np.take(table[rows], mem, axis=1).min(axis=1)
        return out
    out = np.full(n, n, dtype=table.dtype)
    for rows in _row_blocks(mem.size, n):
        np.minimum(out, table[mem[rows]].min(axis=0), out=out)
    return out


def is_normal(sub: Subgroup) -> bool:
    """True iff xN = Nx for every x in N.parent, decided by the cosets' minima.

    N is normal iff min(xN) = min(Nx) for every x.  When the minima agree,
    every y in the left coset L with minimum m has m in Ny, so L lies inside
    the right coset Nm; both have |N| elements, hence L = Nm = mN.
    """
    return bool(np.array_equal(_coset_minima(sub, left=True), _coset_minima(sub, left=False)))


def quotient(normal: Subgroup) -> FiniteGroup:
    """Quotient of N's parent group on the cosets of the normal subgroup N.

    Coset representatives are the minimal element index of each coset,
    min(Nx), read from N's rows; as N is normal this is min(xN) too.  The
    identity coset gets index 0.  Each quotient is built once and
    kept on ``normal.parent``, keyed by the subgroup's members, so normality
    is decided once per subgroup.
    """
    group = normal.parent
    kept = group._quotients.get(normal.members)
    if kept is not None:
        return kept
    if not is_normal(normal):
        raise NotNormalError(
            f"subgroup of size {len(normal)} is not normal in {group.name}")
    rep = _coset_minima(normal, left=False)
    reps = np.unique(rep)
    coset_of = np.searchsorted(reps, rep).astype(np.int32)
    qtable = np.empty((reps.size, reps.size), dtype=np.int32)
    for rows in _row_blocks(reps.size, reps.size):
        qtable[rows] = coset_of[group.table[np.ix_(reps[rows], reps)]]
    kept = group_from_table(f"{group.name}/{len(normal)}", qtable, trusted=True)
    group._quotients[normal.members] = kept
    return kept


# ---------------------------------------------------------------------------
# GT1 serialization


_GT1_BLOCK_TOKENS = 1 << 16  # a GT1 block, written or read: whole rows, about this many entries


def serialize_group(group: FiniteGroup, handle) -> None:
    """Write the table in GT1 format (header line, then one row per line) to
    the binary ``handle``, one block of whole rows of about
    ``_GT1_BLOCK_TOKENS`` entries at a time.

    Each entry is gathered from a per-value lookup of w + 1 bytes, w the
    digit count of n - 1: its digits right-aligned behind NUL pad bytes, then
    a space.  A row's last space becomes its newline, and one compress drops
    the pads."""
    n = group.order
    handle.write(f"GT1 {n}\n".encode("ascii"))
    width = len(str(n - 1))
    lookup = np.frombuffer("".join(str(v).rjust(width, "\0") + " " for v in range(n)).encode(),
                           dtype=np.uint8).reshape(n, width + 1)
    step = max(1, _GT1_BLOCK_TOKENS // n)
    for r0 in range(0, n, step):
        # np.take copies whole lookup rows; lookup[...] is about 4x slower here
        chunk = np.take(lookup, group.table[r0:r0 + step], axis=0)
        chunk[:, -1, -1] = ord("\n")
        chunk = chunk.ravel()
        handle.write(chunk[chunk != 0])


_INT32_DIGITS = 9  # every decimal of up to 9 digits fits in int32


def parse_group_table(text: str | bytes, name: str = "GT1") -> FiniteGroup:
    """Parse GT1 bytes (a ``str`` as its UTF-8 bytes, lone surrogates passed,
    so an offset is a byte offset) and validate every group-table invariant,
    associativity exactly; only ASCII is accepted, so entries are ASCII decimals.

    The body is tokenised in numpy, in blocks of whole rows holding about
    ``_GT1_BLOCK_TOKENS`` entries, straight into the int32 table.  A row the
    block flags (wrong entry count, a byte that is not a digit, an empty or
    over-long entry, an entry out of range) is checked again on its own by
    ``_gt1_row``, in row order, so an error names the first bad row with the
    same message as a row-by-row parse.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if not data.isascii():
        bad = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 127))
        raise TableFormatError(
            f"non-ASCII character at offset {bad}: "
            "GT1 is ASCII text with decimal entries")
    if not data.endswith(b"\n"):
        raise TableFormatError("GT1 text must end with a newline")
    head = data[:data.index(b"\n")].decode("ascii")
    header = head.split(" ")
    if len(header) != 2 or header[0] != "GT1" or not header[1].isdigit():
        raise TableFormatError(f"malformed header: {head!r}")
    digits = header[1].lstrip("0") or "0"
    if digits == "0":
        raise TableFormatError("group order must be at least 1")
    limit = max_table_order()
    _require(not _exceeds(digits, limit), f"group order {digits} exceeds table size limit {limit}")
    n = int(digits)
    _check_order_limit(n)
    body = np.frombuffer(data, dtype=np.uint8)[len(head) + 1:]
    row_ends = np.flatnonzero(body == ord("\n"))
    if row_ends.size != n:
        raise TableFormatError(f"expected {n} rows after the header, got {row_ends.size}")
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _GT1_BLOCK_TOKENS // n)
    for r0 in range(0, n, step):
        _parse_gt1_block(body, row_ends, r0, table[r0:r0 + step])
    del data, body  # text encoded here is as large as the table: free it before validating
    return group_from_table(name, table)


def _parse_gt1_block(body: np.ndarray, row_ends: np.ndarray, r0: int, out: np.ndarray) -> None:
    """Tokenise GT1 rows r0 .. r0 + len(out) - 1 into ``out``.

    Each entry ends at a separator (a space, or the newline that ends its
    row); its value is accumulated digit by digit, up to ``_INT32_DIGITS``.
    """
    rows, n = out.shape
    start = int(row_ends[r0 - 1]) + 1 if r0 else 0
    seg = body[start:int(row_ends[r0 + rows - 1]) + 1]
    row_end = row_ends[r0:r0 + rows] - start
    sep = seg == ord(" ")
    sep[row_end] = True
    tok_end = np.flatnonzero(sep)
    tok_start = np.concatenate(([0], tok_end[:-1] + 1))
    length = tok_end - tok_start
    last_tok = np.searchsorted(tok_end, row_end)  # each row's last entry
    count = np.diff(last_tok, prepend=-1)
    # entries go straight into the table unless a row has the wrong count,
    # which the row check below reports
    vals = out.reshape(-1) if tok_end.size == out.size else np.empty(tok_end.size, np.int32)
    vals[:] = 0
    bad_tok = (length == 0) | (length > _INT32_DIGITS)
    for k in range(min(int(length.max()), _INT32_DIGITS)):
        more = length > k
        digit = np.take(seg, tok_start + k, mode="clip") - ord("0")  # uint8: wraps below '0'
        bad_tok |= more & (digit > 9)
        np.multiply(vals, 10, out=vals, where=more)
        np.add(vals, digit, out=vals, where=more)
    bad_tok |= vals >= n
    bad = count != n
    bad[np.searchsorted(last_tok, np.flatnonzero(bad_tok))] = True
    for r in np.flatnonzero(bad).tolist():
        line = seg[row_end[r - 1] + 1 if r else 0:row_end[r]].tobytes().decode("ascii")
        out[r] = _gt1_row(r0 + r, line, n)


def _gt1_row(r: int, line: str, n: int) -> list[int]:
    """Row r of a GT1 table, checked and parsed on its own: the entry count,
    then that every entry is decimal, then the range, by ``_exceeds`` on the
    entries without leading zeros; the message prints the row's largest entry
    exactly.
    """
    tokens = line.split(" ")
    if len(tokens) != n:
        raise TableFormatError(f"row {r}: expected {n} entries, got {len(tokens)}")
    if not all(t.isdigit() for t in tokens):
        raise TableFormatError(f"row {r}: entries must be nonnegative decimal integers")
    values = [t.lstrip("0") or "0" for t in tokens]
    top = max(values, key=lambda v: (len(v), v))
    if _exceeds(top, n - 1):
        raise TableFormatError(f"row {r}: entry {top} out of range [0, {n})")
    return [int(v) for v in values]
