"""Finite groups over 0-based element indices, given by a multiplication law
or a dense multiplication table.

A group's products x*y are its law or its n x n Cayley table, whose entry
(a, b) is the index of a*b; index 0 is always the identity.  A group this
module constructs, a C/D/Q/H/M atom or a direct product, holds its law: the
metacyclic normal form a^i b^e with King's product formula (``_Metacyclic``)
for C, D, Q and M, the triple law of the unitriangular matrices
(``_Heisenberg``) for H, and its two sides (``_Product``) for a direct
product, as a group given by a normal form and a multiplication rule needs
no table (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
ch. 8).  A product is bracketed into its two sides once, when built
(``_bracket``), so each reader of it, ``omega`` and ``cp2`` through
``_sides``, is one two-term formula.  Its table is written from the law
once, on its first read, and replaces the law; the group is immutable after
that.  A quotient, a subgroup's group and a table passed in from outside
hold their table from construction and no law.  Element orders are known
from construction, and a constructed group is safe to share: the identical
factors of an expression are one object (``expr.build_group``), so its
table and what it keeps (below) are computed once for all of them.

Every product read goes through ``_mul``, or ``_products`` for a reader of
many blocks, and one size rule there decides the route: a group whose table
is written, or would hold at most one row block (n^2 <= ``_BLOCK_ENTRIES``),
is read from its table, written on that first read, as a gather costs less
than the law there; a larger one is read from its law and its table is
never written.  So psi and the order spectrum (from the orders alone),
omega, cp2 and compare write no table of more than one block (n >= 1025).
``FiniteGroup.is_abelian`` is read from the law too.  Two readers take a
raw table directly: Light's test, which runs before a group exists, and
``serialize_group``, which writes the GT1 export from ``group.table``.

An atom takes its orders from its own law, ``orders()``, a closed form in
the law's index layout: ``_Metacyclic.orders`` from King's product formula
for C, D, Q and M, and ``_Heisenberg.orders``, p at every element but the
identity, for H.  Only a quotient and a table passed in from outside have
orders computed, by ``_compute_orders``, which the tests also run on each
law's table as the closed forms' second route: by Lagrange, o(x) is the least divisor d
of n with x^d = 1, which ``power_map``'s repeated-squaring kernel
``_power`` decides, one call per divisor at most, reading no product at
d's lowest set bit, where the result is that square itself.  The rest are
read from
groups that already hold them: o(x) does not depend on the group it is
taken in, so ``Subgroup.as_group`` reads its orders from the parent's, and
``direct_product`` folds its sides' orders by o((a, b)) = lcm(o(a), o(b)).

As neither law nor table ever changes, a group also keeps what is derived
from it alone the first time it is asked for: its omega filtration
(``omega.omega_filtration``), its p-th power map (``omega.omega_set``) and
its quotient by each normal subgroup N, kept on ``N.parent`` by
``quotient(N)``.  A kept value must never reference the group itself, or
the group would only be freed by the cycle collector: the filtration holds
sizes and member arrays, the power map is a read-only index array, and a
quotient is a group of its own, not a ``Subgroup``.

Tables are validated once, exactly, where they enter from outside: every
array or nested list passed to ``group_from_table``, each GT1 import's
included, is checked for shape, entry range, identity placement,
associativity (Light's test, exact at every size) and element orders.
Laws and tables this module builds itself are trusted and not re-checked:
the C/D/Q/H/M constructors give group laws by construction, which
``group_from_table`` wraps with their own orders (no other module builds
such a law), and ``direct_product``, ``Subgroup.as_group`` (a group
restricted to a closed set) and ``quotient`` (the cosets of a subgroup
``is_normal`` has accepted) wrap theirs by ``_frozen_group``.  Element
sets are held one way, as read-only ``np.intp`` arrays of ascending indices,
and proved closed in one place: a ``Subgroup`` built from a caller's
members.  Every subgroup this package grows is closed by construction and
not proved again.

Every n x n kernel works in int32 and holds at most its table plus one row
block of about ``_BLOCK_ENTRIES`` entries.  Writers run on the first read of
a table and build it whole in place: C, D, Q and M by their law's
``_Metacyclic.outer`` over one row block of whole rows (``_row_blocks``) at
a time, an add and a conditional subtract with no division; H in one
broadcast (``_heisenberg_table``); and a direct product by joining its two
sides' tables, one row block of the left side at a time (``_product``).  The
readers (the subgroup and quotient tables, the coset minima of
``is_normal`` and ``quotient``, the CP2 pair scan, Light's test) go one row
block at a time too, from the table or the law, and so does the GT1 export, in the GT1 tokeniser's
blocks of about ``_GT1_BLOCK_TOKENS`` entries.  When a group is
constructed, before any table exists, its order is checked against the
table size limit and its bytes, the table plus one row block, against
physical memory, so a build that cannot fit is refused with a
``GroupBuildError`` instead of failing part-way.

A subgroup is grown from generators by one Dimino step, ``_cover``: it
continues from a cover already closed under its generator list, so a chain
of nested subgroups is grown each from the one below (Butler, Fundamental
Algorithms for Permutation Groups, 1991).  Each generator g enters by the
BFS rounds of ``_add_generator`` with its squares, so the powers of one
generator take about log2 of its order in rounds, not its order, and with
those of the last generator times g, so two involutions bring in the
rotation between them the same way.  Each round marks its new elements in a
mask over the group rather than sorting its products.  Light's test grows
its checked elements by the same rounds.  ``closure`` of a ``Subgroup``
continues from the generators that subgroup was grown from, as GAP's
``ClosureGroup``: the omega filtration closes each level from the one below,
and ``cp2`` closes the order sublevel sets in ascending order as one chain.
On a written table ``closure`` instead grows a set of up to 128 elements by
all |S|^2 of its products at once (|S|^2 up to 1/64 of a row block,
``_gathers``) until none leaves it.  A caller's ``Subgroup`` is proved closed
by one ``_cover`` of its members, stopped at the first product outside them.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from typing import Union

    from .omega import OmegaFiltration

    Law = Union["_Metacyclic", "_Heisenberg", "_Product"]
    Products = Union[np.ndarray, Law]  # indexed [x, y] for the products x*y

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
    """A finite group given by its multiplication law, its table or both.

    ``table[a, b]`` is the index of the product a*b; index 0 is the identity.
    Products are read by ``_mul`` and powers by ``power_map``;
    ``element_orders`` is set once at construction: an atom's closed form,
    the least d | n with x^d = 1 for a quotient or an outside table, the
    parent's for a subgroup's group, and its two sides' folded by lcm for a
    direct product.  The order is the length of ``element_orders``.
    Operations on instances are pure and never change a group's law or table.

    An atom or a direct product holds its law in ``_law`` (``_Metacyclic``,
    ``_Heisenberg`` or ``_Product``) and no table until the table is first
    read: ``table`` then writes it from the law once, keeps it, read-only,
    in ``_table`` and drops the law, so a product's sides (and their tables)
    are freed.
    Every other group holds its table from construction and no law.  So the
    order, the orders and what is read from them alone (psi, the spectrum)
    never write a table; nor does any product read of a group whose table
    would hold more than one row block, as ``_products`` reads those from
    the law.  ``is_abelian`` is read from the law while the group holds one,
    and from the table by its transpose after.

    Three more private fields, neither compared nor printed, keep results
    derived from the group alone on their first computation: ``_filtration``,
    the omega filtration, ``_pth_power``, the read-only p-th power map
    ``omega_set`` reads, and ``_quotients``, where ``quotient(N)`` keeps its
    result on ``N.parent`` keyed by the bytes of ``N.members``.  Nothing
    kept may reference the group.
    """

    name: str
    element_orders: np.ndarray
    _table: np.ndarray | None = field(compare=False, repr=False)
    _law: Law | None = field(default=None, compare=False, repr=False)
    _filtration: OmegaFiltration | None = field(
        default=None, init=False, compare=False, repr=False)
    _pth_power: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    _quotients: dict[bytes, FiniteGroup] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            object.__setattr__(self, "_table", _read_only(self._law.write()))  # frozen dataclass
            object.__setattr__(self, "_law", None)
        return self._table

    @property
    def order(self) -> int:
        return int(self.element_orders.size)

    @property
    def is_abelian(self) -> bool:
        if self._law is not None:
            return self._law.is_abelian
        return bool(np.array_equal(self._table, self._table.T))

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name!r} order {self.order}>"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A closed subset of a parent group's indices: ``members``, ascending,
    a read-only ``np.intp`` array, the type every fancy index reads.

    A set is proved closed in one place: here, when it comes from a caller
    (``_gens`` not given).  Its members are copied, so the caller's array
    may change after, and checked as indices; n strictly increasing members
    in [0, n) are every index, and every product is an index, so the whole
    group is accepted with no product read.  Any other set is closed when
    ``_cover`` of it, the subgroup it generates, never leaves it: that
    subgroup holds the set, so it is the set exactly when no product of its
    growth lies outside.

    ``_gens``, private, neither compared nor printed, marks a subgroup the
    library grew, closed by construction and not proved again: ``closure``
    gives the generators it grew the members from, so the next ``closure``
    of the subgroup continues from them, or ``()`` when it keeps none, and
    ``omega_subgroup`` gives ``()`` for a kept filtration level.  A
    ``closure`` of a subgroup with no generators regrows them.

    A normal subgroup N names each coset by its least index, min(Nx), which
    is min(xN) as well: ``quotient`` reads these from N's rows."""

    parent: FiniteGroup
    members: np.ndarray
    _gens: tuple[int, ...] | None = field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        if self._gens is None:
            # a copy, so the caller's array may change after
            mem = _indices(self.members, "subgroup member").copy()
            object.__setattr__(self, "members", mem)  # frozen dataclass
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
            if mem.size < n and not _cover(_products(self.parent), mem, _identity(n), [],
                                           stop_inside=inside):
                raise GroupError("subset is not closed under multiplication")
        self.members.flags.writeable = False

    def __len__(self) -> int:
        return self.members.size

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group via table restriction.

        Member k of the subgroup becomes element k of the new group, so the
        identity stays at index 0: each block of the members' products is
        mapped to positions through ``position[members] = 0..k-1``, which the
        closed set's products never leave.  The orders are read from the
        parent's, not computed: o(x) does not depend on the group it is taken
        in.
        """
        mem = self.members
        position = np.zeros(self.parent.order, dtype=np.int32)
        position[mem] = np.arange(mem.size, dtype=np.int32)
        products = _products(self.parent)
        restricted = np.empty((mem.size, mem.size), dtype=np.int32)
        for rows in _row_blocks(mem.size, mem.size):
            restricted[rows] = position[products[mem[rows, None], mem]]
        return _frozen_group(f"{self.parent.name}[{len(mem)}]", restricted,
                             self.parent.element_orders[mem])

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.name} size {len(self.members)}>"


def _indices(values, what: str) -> np.ndarray:
    """``values`` as ``np.intp`` element indices; an intp array is returned
    as it is, not copied.  A value that is not an integer is refused, not
    truncated; no values at all are accepted."""
    arr = np.asarray(values if isinstance(values, (tuple, list, np.ndarray)) else list(values))
    if arr.size and arr.dtype.kind not in "iu":
        raise GroupError(f"{what} indices must be integers, got {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.flags.writeable = False
    return arr


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
    The generated elements are grown by ``_add_generator``: the squares it
    adds with each checked g are products of checked elements, so they need
    no check of their own, and as x(gg) = (xg)g they reach no element the
    checked ones do not.
    """
    n = table.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    gens: list[int] = []
    checked = 0
    while not covered.all():
        if checked == n.bit_length():
            raise TableFormatError(f"not a latin square: over {checked} generators needed")
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
        checked += 1
        _add_generator(table, covered, gens, g)  # the raw table: no group exists yet


def _gathers(entries: int) -> bool:
    """Whether ``entries`` products are few enough, up to 1/64 of a row
    block's entries, to be read in one pass whose few numpy calls cost less
    than a route of more calls: ``closure`` grows a set of up to 128
    elements of a table by gathering all its products at once rather than
    by ``_cover``, and a metacyclic law reads so small an outer product
    entry by entry rather than by ``_Metacyclic.outer``."""
    return entries <= _BLOCK_ENTRIES >> 6


def _identity(n: int) -> np.ndarray:
    """The mask of the trivial subgroup of an order-n group: the cover
    ``_cover`` grows from when it starts with no generators."""
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    return covered


def _cover(products: Products, seed: np.ndarray, covered: np.ndarray, gens: list[int],
           stop_inside: np.ndarray | None = None) -> bool:
    """One Dimino step: grow the mask ``covered``, the subgroup ``gens``
    spans, in place into the subgroup that also holds ``seed``, in the group
    whose ``products`` are given (see ``_products``).  Each new generator is
    the first seed element not yet covered, added by ``_add_generator``,
    which extends ``gens``; in a group each one at least doubles the cover,
    so a chain of steps from ``_identity`` adds at most log2(n) in all.
    Returns False as soon as a product leaves the mask ``stop_inside``.

    Of the chain each generator brought into ``gens``, only the generator
    itself is kept once its rounds end: the cover is then a subgroup, closed
    under right products by any of its elements, and the kept ones still
    generate it.  So the later rounds of a long chain of steps multiply by
    one element per generator, not by every square of each: at odd p the
    squares never fall into the cover, and ``cp2`` of M2187 read 65610
    products with them kept, 16284 without."""
    while (left := seed[~covered[seed]]).size:
        kept = len(gens)
        if not _add_generator(products, covered, gens, int(left[0]), stop_inside):
            return False
        del gens[kept + 1:]
    return True


def _add_generator(products: Products, covered: np.ndarray, gens: list[int], g: int,
                   stop_inside: np.ndarray | None = None) -> bool:
    """Grow ``covered``, closed under right products with ``gens``, by the
    generator g: the BFS step of Dimino's algorithm (Butler, Fundamental
    Algorithms for Permutation Groups, 1991).  The first round multiplies the
    whole cover by g's chain, every later one the elements new in the round
    before by every generator.  Returns False as soon as a product leaves
    ``stop_inside``, True when a round finds nothing new.

    g enters with its squares g^(2^j), so each power of g is a product of at
    most log2(n) chain members, and the rounds number about log2(o(g)), not
    o(g).  Each chain stops at a square already covered or repeated, or after
    (n - 1).bit_length() members: at odd order the squares never reach 0.
    g also enters with the squares of h = gens[-1] * g, which lies in the
    group the generators already span with g, so the cover is unchanged.
    Where g and gens[-1] are involutions, as in the closure of a dihedral
    group's reflections, h is the rotation between them, whose powers the
    rounds would otherwise reach one per round.  In Light's test h is a
    product of checked elements, so it needs no check of its own either."""
    bound = (covered.size - 1).bit_length()
    chain: list[int] = []
    for h in (g, int(products[gens[-1], g])) if gens else (g,):
        for _ in range(bound):
            if covered[h] or h in chain:
                break
            chain.append(h)
            h = int(products[h, h])
    gens.extend(chain)
    frontier, by = np.flatnonzero(covered), chain
    while frontier.size:
        frontier = _cover_round(products, covered, frontier, by, stop_inside)
        if frontier is None:
            return False
        by = gens
    return True


def _cover_round(products: Products, covered: np.ndarray, frontier: np.ndarray, by: list[int],
                 stop_inside: np.ndarray | None) -> np.ndarray | None:
    """One round of ``_add_generator``: the products x*h, x in ``frontier``
    and h in ``by``, not yet covered, marked covered and returned ascending;
    None when one of the products is outside ``stop_inside``.  The new
    elements are found by a mask over the group, as ``np.unique`` of the
    products costs more than a pass over n booleans."""
    prods = products[frontier[:, None], np.asarray(by)].ravel()
    if stop_inside is not None and not stop_inside[prods].all():
        return None
    new = np.zeros_like(covered)
    new[prods[~covered[prods]]] = True
    covered |= new
    return np.flatnonzero(new)


def _power(products: Products, n: int, e: int) -> np.ndarray:
    """x -> x^e for every element of the order-n group whose ``products``
    are given (see ``_products``) at once, by repeated squaring on indices.
    At e's lowest set bit the result is the identity times that square, so
    it is the square itself, read with no product."""
    result = None
    base = np.arange(n, dtype=np.int32)
    while e:
        if e & 1:
            result = base if result is None else products[result, base]
        e >>= 1
        if e:
            base = products[base, base]
    return np.zeros(n, dtype=np.int32) if result is None else result


def _compute_orders(table: np.ndarray) -> np.ndarray:
    """Order of every element by Lagrange: o(x) divides n, and x^d = 1 exactly
    when o(x) divides d, so the first divisor d of n with x^d = 1 is o(x)."""
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        orders[(orders == 0) & (_power(table, n, d) == 0)] = d
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


def group_from_table(name: str, table) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Every check runs on any array or nested list: shape, dtype, range,
    identity at index 0, exact associativity and orders dividing n.  The last
    three decide group-ness, identity first as Light's test grows its cover
    from index 0: when they pass, each x has x^(o(x)-1) as an inverse.  A
    group is latin, so a non-latin table fails one of them, and the latin
    check then names its first bad line.

    The one input wrapped unchecked is an atom's law, a ``_Metacyclic`` or a
    ``_Heisenberg``, which no module but this one builds: it is a group law
    by construction, wrapped with its own ``orders()``, and its table is
    written on its first read (see ``FiniteGroup``).  An atom passes through
    here only because perfbench's ``build_spans`` expects this function's
    span on every build; once it expects the atom's constructor alone, that
    branch becomes a direct ``_frozen_group`` call.
    """
    if isinstance(table, (_Metacyclic, _Heisenberg)):
        return _frozen_group(name, table, table.orders())
    arr = _in_domain(table)
    try:
        _check_identity(arr)
        _check_assoc_light(arr)
        orders = _compute_orders(arr)
    except TableFormatError:
        _check_latin(arr)
        raise
    return _frozen_group(name, arr, orders)


def _frozen_group(name: str, held: np.ndarray | Law, orders: np.ndarray) -> FiniteGroup:
    """A table, or an atom's or a direct product's law, and its element
    orders as a group, the orders and a table made read-only."""
    if isinstance(held, np.ndarray):
        return FiniteGroup(name=name, element_orders=_read_only(orders), _table=_read_only(held))
    return FiniteGroup(name=name, element_orders=_read_only(orders), _table=None, _law=held)


# ---------------------------------------------------------------------------
# multiplication laws
#
# A law reads the products x*y of two broadcastable index arrays as
# ``law[x, y]``, in int32, as a table does; ``write()`` returns its whole
# table, and ``is_abelian`` is decided from its parameters.


def _products(group: FiniteGroup) -> Products:
    """What the group's products x*y are read from, as ``[x, y]``: its law
    while its table is unwritten and would hold more than one row block
    (n^2 > ``_BLOCK_ENTRIES``, so n >= 1025), else its table, written on this
    read if it was not.  Below one block a gather from the table costs less
    than the law, and a written table is read as it is.  A reader that reads
    many blocks takes this once and indexes it for each."""
    if group._table is None and group.order ** 2 > _BLOCK_ENTRIES:
        return group._law
    return group.table


def _mul(group: FiniteGroup, x, y) -> np.ndarray:
    """The products x*y of two broadcastable index arrays of ``group``."""
    return _products(group)[x, y]


class _Metacyclic:
    """The law of <a, b | a^m = 1, b^s = a^t, b^-1 a b = a^r> (King 1973), of
    order m*s when r^s = 1 and t(r - 1) = 0 mod m, with a^i b^e at e*m + i:
    a^i1 b^e1 * a^i2 b^e2 = a^(i1 + i2 r^-e1 + t[e1 + e2 >= s]) b^((e1 + e2) mod s).
    ``transposed`` is, for r^2 = 1, the layout with b^e a^i at e*m + i:
    b^e1 a^i1 * b^e2 a^i2 = b^((e1 + e2) mod s) a^(i1 r^-e2 + t[e1 + e2 >= s] + i2),
    the same formula with the two factors swapped.  So the factor whose
    b-exponent twists the other's a-exponent, the twisted factor here, is x
    in the first layout and y when transposed.

    An outer product ``law[rows[:, None], cols]`` of more than ``_gathers``
    entries is read by ``outer``; any other pair of index arrays entry by
    entry.  The laws are plain classes: a dataclass costs about 1 ms more of
    every import."""

    def __init__(self, m: int, s: int, t: int, r: int, transposed: bool = False):
        self.m, self.s, self.t, self.r, self.transposed = m, s, t, r, transposed

    @functools.cached_property
    def _twist(self) -> np.ndarray:
        """[e, i]: i r^-e mod m."""
        powers = [pow(self.r, -e, self.m) for e in range(self.s)]
        return (np.outer(powers, np.arange(self.m)) % self.m).astype(np.int32)

    @property
    def is_abelian(self) -> bool:
        """a and b commute exactly when a^r = a."""
        return (self.r - 1) % self.m == 0

    def write(self) -> np.ndarray:
        return _metacyclic_table(self.m, self.s, self.t, self.r, transposed=self.transposed)

    def orders(self) -> np.ndarray:
        """Element orders in closed form, with no table.

        b^e has order q = s / gcd(e, s) modulo <a>, and multiplying out by
        the product formula, (a^i b^e)^q = a^(i (1 + r^-e + ... + r^-(q-1)e)
        + t e q / s), so o(a^i b^e) = q m / gcd(that exponent, m).
        Transposed, b^e a^i is a^(i r^-e) b^e, so that sum runs from r^-e to
        r^-qe."""
        m, s, t, r = self.m, self.s, self.t, self.r
        i = np.arange(m, dtype=np.int64)
        orders = np.empty(m * s, dtype=np.int64)
        for e in range(s):
            q = s // math.gcd(e, s)
            twist = sum(pow(r, -j * e, m) for j in range(self.transposed, q + self.transposed))
            power = (i * (twist % m) + t * (e * q // s)) % m
            orders[e * m:(e + 1) * m] = q * (m // np.gcd(power, m))
        return orders

    def __getitem__(self, key) -> np.ndarray:
        x, y = (np.asarray(k) for k in key)
        if x.ndim == 2 and x.shape[1] == 1 and y.ndim == 1 and not _gathers(x.size * y.size):
            return self.outer(x[:, 0], y)
        if self.transposed:
            x, y = y, x
        m, s = self.m, self.s
        e1, i1 = np.divmod(x, m)
        e2, i2 = np.divmod(y, m)
        e = e1 + e2
        return (e % s * m + (i1 + self._twist[e1, i2] + self.t * (e >= s)) % m).astype(np.int32)

    def outer(self, rows: np.ndarray, cols: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """The products rows[j] * cols[k] at [j, k], for 1-D index arrays in
        any order, written to ``out`` when it is given.

        It runs once per b-exponent v of the twisted factor, over its
        elements a^i b^v against every element a^i' b^e' of the other: the
        product's index is (i + (i' r^-v + t[v + e' >= s]) mod m) mod m
        + ((v + e') mod s) m.  That is one outer add of two terms in [0, m),
        reduced by min(u, u - m) on an unsigned view with no division, and
        one add of the offset.  Those elements are rows (columns when
        transposed) of the block, written in place when they are adjacent, as
        they are in ascending indices."""
        m, s = self.m, self.s
        if out is None:
            out = np.empty((rows.size, cols.size), dtype=np.int32)
        twisted, other = (cols, rows) if self.transposed else (rows, cols)
        e_twisted, i_twisted = np.divmod(twisted, m)
        e_other, i_other = np.divmod(other, m)
        i_twisted = i_twisted.astype(np.int32)
        v = np.arange(s)[:, None]
        terms = ((self._twist[:, i_other] + self.t * (v + e_other >= s)) % m).astype(np.int32)
        offsets = ((v + e_other) % s * m).astype(np.int32)
        for v, term, offset in zip(range(s), terms, offsets):
            at = np.flatnonzero(e_twisted == v)
            if not at.size:
                continue
            adjacent = at[-1] - at[0] + 1 == at.size
            if adjacent:
                at = slice(at[0], at[-1] + 1)
            if self.transposed:
                index, row, col = (slice(None), at), term[:, None], i_twisted[at]
                offset = offset[:, None]
            else:
                index, row, col = at, i_twisted[at, None], term
            block = out[index] if adjacent else np.empty((row.shape[0], col.shape[-1]), np.int32)
            np.add(row, col, out=block)
            u = block.view(np.uint32)
            np.minimum(u, u - m, out=u)  # u - m wraps past u when u < m
            block += offset
            if not adjacent:
                out[index] = block
        return out


class _Heisenberg:
    """The law of the unitriangular 3x3 matrices over Z/p, p an odd prime:
    triples (a, b, c) at index a*p^2 + b*p + c, with
    (a1, b1, c1) * (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1*b2) mod p,
    read on the digits of the indices."""

    def __init__(self, p: int):
        self.p = p

    @property
    def is_abelian(self) -> bool:
        """Never: (1, 0, 0) * (0, 1, 0) = (1, 1, 1), (0, 1, 0) * (1, 0, 0) = (1, 1, 0)."""
        return False

    def write(self) -> np.ndarray:
        return _heisenberg_table(self.p)

    def orders(self) -> np.ndarray:
        """1 at the identity and p everywhere else: (a, b, c)^p =
        (pa, pb, pc + p(p - 1)/2 ab) = 1, as p is odd."""
        return np.where(np.arange(self.p ** 3) > 0, self.p, 1)

    def __getitem__(self, key) -> np.ndarray:
        p = self.p
        x, y = (np.asarray(k, dtype=np.int32) for k in key)
        a1, b1, c1 = x // (p * p), x // p % p, x % p
        a2, b2, c2 = y // (p * p), y // p % p, y % p
        return ((a1 + a2) % p * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p


class _Product:
    """The law of the direct product of ``left`` (A) and ``right`` (B),
    lexicographic: x = x_A |B| + x_B, and x*y = (x_A y_A) |B| + x_B y_B, each
    side read by ``_products``, so no table over one row block is written."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left, self.right = left, right

    @property
    def is_abelian(self) -> bool:
        return self.left.is_abelian and self.right.is_abelian

    def write(self) -> np.ndarray:
        return _product(self)

    def __getitem__(self, key) -> np.ndarray:
        x, y = (np.asarray(k) for k in key)
        outer = x.ndim == 2 and x.shape[1] == 1 and y.ndim == 1
        nb = self.right.order
        block = _side_products(self.left, x // nb, y // nb, outer, nb)
        block += _side_products(self.right, x % nb, y % nb, outer)
        return block


def _side_products(side: FiniteGroup, x: np.ndarray, y: np.ndarray, outer: bool,
                   scale: int = 1) -> np.ndarray:
    """One side's products x*y times ``scale``.  An outer product from a table
    gathers the rows, scales them, then takes their columns: two passes that
    cost less than one gather of both indices at once."""
    products = _products(side)
    if outer and isinstance(products, np.ndarray):
        rows = products[x[:, 0]]
        rows *= scale
        return np.take(rows, y, axis=1)
    block = products[x, y]
    block *= scale
    return block


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
    """The table of ``_Metacyclic(m, s, t, r, transposed)``: its ``outer``,
    written in place one row block of whole rows (``_row_blocks``) at a
    time, so the write holds the table and one block's temporary."""
    law = _Metacyclic(m, s, t, r, transposed)
    index = np.arange(m * s)
    table = np.empty((index.size, index.size), dtype=np.int32)
    for rows in _row_blocks(index.size, index.size):
        law.outer(index[rows], index, out=table[rows])
    return table


def _metacyclic_group(name: str, m: int, s: int, t: int, r: int, *,
                      transposed: bool = False) -> FiniteGroup:
    """The group of the law ``_Metacyclic(m, s, t, r, transposed)``, its
    order m*s checked first, with the law's closed-form orders and its table
    written on first read."""
    _check_order_limit(m * s)
    return group_from_table(name, _Metacyclic(m, s, t, r, transposed))


def cyclic_group(k: int) -> FiniteGroup:
    """Cyclic group of order k: metacyclic with (m, s, t, r) = (k, 1, 0, 1)."""
    _require(k >= 1, f"C{k}: order must be >= 1")
    return _metacyclic_group(f"C{k}", k, 1, 0, 1)


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order k: indices 0..k/2-1 are r^i, k/2..k-1 are s r^i,
    metacyclic with (m, s, t, r) = (k/2, 2, 0, -1) transposed to this b^e a^i
    layout."""
    _require(k >= 4 and k % 2 == 0, f"D{k}: order must be even and >= 4")
    return _metacyclic_group(f"D{k}", k // 2, 2, 0, -1, transposed=True)


def quaternion_group(k: int) -> FiniteGroup:
    """Generalized quaternion group of order k = 2^j, j >= 3.

    Normal form a^i b^e with a of order k/2, b^2 = a^(k/4), b a b^-1 = a^-1;
    index e*(k/2) + i: metacyclic with (m, s, t, r) = (k/2, 2, k/4, -1).
    """
    _require(k >= 8 and k & (k - 1) == 0, f"Q{k}: order must be 2^j with j >= 3")
    return _metacyclic_group(f"Q{k}", k // 2, 2, k // 4, -1)


def heisenberg_group(k: int) -> FiniteGroup:
    """Extraspecial group of order k = p^3 and exponent p, for odd prime p:
    the law ``_Heisenberg(p)``, its table written on first read by
    ``_heisenberg_table(p)``.  Its orders are 1 at the identity and p
    everywhere else (``_Heisenberg.orders``)."""
    p, j = prime_power(k) or (0, 0)
    _require(j == 3 and p > 2, f"H{k}: order must be p^3 for an odd prime p")
    _check_order_limit(k)
    return group_from_table(f"H{k}", _Heisenberg(p))


def _heisenberg_table(p: int) -> np.ndarray:
    """The table of ``_Heisenberg(p)``.  Not metacyclic: one broadcast sum of
    two p^4-entry terms over a (p,)*6 view."""
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p, dtype=np.int32)] * 6)
    table = np.empty((p,) * 6, dtype=np.int32)
    np.add(((a1 + a2) % p * p + (b1 + b2) % p) * p, (c1 + c2 + a1 * b2) % p, out=table)
    return table.reshape(p ** 3, p ** 3)


def modular_group(k: int) -> FiniteGroup:
    """Group <a, b | a^(p^(j-1)) = b^p = 1, b^-1 a b = a^(1+p^(j-2))> of order k = p^j.

    Normal form a^i b^e, index e*p^(j-1) + i: metacyclic with
    (m, s, t, r) = (p^(j-1), p, 0, 1 + p^(j-2)).
    """
    p, j = prime_power(k) or (0, 0)
    _require(j >= 3, f"M{k}: order must be p^j with j >= 3")
    return _metacyclic_group(f"M{k}", p ** (j - 1), p, 0, 1 + p ** (j - 2))


def direct_product(a: FiniteGroup, b: FiniteGroup, *more: FiniteGroup) -> FiniteGroup:
    """Direct product of every factor with lexicographic indexing, left factor
    major, wrapped as one group named by the factors' names joined by '*'.

    The whole order is checked against the table size limit and physical
    memory first, then ``_bracket`` builds the group, whose table ``_product``
    writes on first read: what reads only the orders never builds it.
    """
    factors = (a, b, *more)
    _check_order_limit(math.prod(g.order for g in factors))
    return _bracket(factors)


def _bracket(factors: tuple[FiniteGroup, ...]) -> FiniteGroup:
    """The group of ``_Product`` of two sides, split where the larger side's
    order is least, so near the root of the whole, each bracketed the same
    way: as lexicographic indexing is associative, no index depends on the
    bracket.  The name joins the factors' by '*', and the orders are folded,
    o((a, b)) = lcm(o(a), o(b)) at index a * |B| + b."""
    if len(factors) == 1:
        return factors[0]
    sizes = [g.order for g in factors]
    total = math.prod(sizes)
    split = min(range(1, len(sizes)),
                key=lambda k: max(math.prod(sizes[:k]), total // math.prod(sizes[:k])))
    left, right = _bracket(factors[:split]), _bracket(factors[split:])
    orders = np.lcm.outer(left.element_orders, right.element_orders).ravel()
    return _frozen_group("*".join(g.name for g in factors), _Product(left, right), orders)


def _sides(group: FiniteGroup, inside: bool = False) -> tuple[FiniteGroup, FiniteGroup] | None:
    """(left, right) of a product ``_products`` reads from its ``_Product``
    law, else None: where ``omega`` and ``cp2`` decide to read the sides.  A
    side ``inside`` such a product offers its own sides while it holds its
    law, so its table is not written to be scanned or closed, unless it has
    at most 128 elements (``_gathers``): the table of C2^6 costs less to
    write and read than six atoms' decisions.  A group of up to one row
    block that stands alone keeps its table route."""
    law = group._law if inside and not _gathers(group.order ** 2) else _products(group)
    return (law.left, law.right) if isinstance(law, _Product) else None


def _product(law: _Product) -> np.ndarray:
    """Table of ``law``: viewed as |A| x |B| x |A| x |B|, one broadcast sum of
    the sides' tables (a side's written on it), one row block of A at a time.
    As both sides are near the root, the write holds the output and one
    block, as ``_check_order_limit`` budgets."""
    left, right = law.left.table, law.right.table
    na, nb = left.shape[0], right.shape[0]
    out = np.empty((na, nb, na, nb), dtype=np.int32)
    for rows in _row_blocks(na, na):
        np.add((left[rows] * nb)[:, None, :, None], right[None, :, None, :], out=out[rows])
    return out.reshape(na * nb, na * nb)


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


def order_spectrum(orders: np.ndarray) -> dict[int, int]:
    """Multiset of the element orders ``orders`` (a group's
    ``element_orders``) as {order: count}, keys ascending."""
    values, counts = np.unique(orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def power_map(group: FiniteGroup, e: int) -> np.ndarray:
    """x -> x^e for every element at once, by repeated squaring on indices.
    As x^n = 1 by Lagrange, the kernel takes e mod n."""
    e = _integer(e, "exponent")
    if e < 0:
        raise GroupError("exponent must be nonnegative")
    return _power(_products(group), group.order, e % group.order)


def closure(group: FiniteGroup | Subgroup, seed) -> Subgroup:
    """Smallest subgroup containing ``seed`` and, when ``group`` is a
    ``Subgroup`` H, H itself, as GAP's ``ClosureGroup``: a chain of nested
    subgroups is grown each from the one below, not from the identity.

    On a written table a set S of up to 128 members grows by all of S*S at
    once until none of them leaves S: that exit test is the proof that S is
    closed, and the result keeps no generators (``_gens=()``).  A set of
    every index is the whole group, accepted with no product read.  A larger
    set, or any set of a group read from its law, is grown by one ``_cover``
    step from H's cover and the generators H was grown from (from the
    identity when H is a group or keeps no generators, which then regrow in
    this step), and the result keeps them for the next step.  Either way the
    result is closed by construction and not proved again by ``Subgroup``.
    A finite set closed under products is a subgroup, since
    x^-1 = x^(o(x)-1), so no inverse is taken.
    """
    held = group if isinstance(group, Subgroup) else None
    group = group if held is None else held.parent
    seed = _indices(seed, "seed")
    if seed.size and (seed.min() < 0 or seed.max() >= group.order):
        bad = int(seed.min() if seed.min() < 0 else seed.max())
        raise IndexError(f"seed index {bad} out of range for order {group.order}")
    inside = _identity(group.order)
    inside[seed] = True
    covered, gens = _identity(group.order), []
    if held is not None:
        inside[held.members] = True
        if held._gens:
            covered[held.members] = True
            gens = list(held._gens)
    products = _products(group)
    while ((cur := np.flatnonzero(inside)).size < group.order
           and isinstance(products, np.ndarray) and _gathers(cur.size ** 2)):
        inside[products[cur[:, None], cur]] = True
        if np.count_nonzero(inside) == cur.size:  # no product left S, so S is closed
            return Subgroup(group, cur, _gens=())
    if cur.size == group.order:
        return Subgroup(group, cur, _gens=())
    _cover(products, cur, covered, gens)
    return Subgroup(group, np.flatnonzero(covered), _gens=tuple(gens))


def _coset_minima(sub: Subgroup, left: bool) -> np.ndarray:
    """min(xN) (``left``) or min(Nx) for every x in N.parent, one row block
    at a time: min(xN) over blocks of rows x of the columns N, min(Nx) as a
    running minimum over blocks of N's rows."""
    products = _products(sub.parent)
    mem = sub.members
    index = np.arange(sub.parent.order)
    if left:
        out = np.empty(index.size, dtype=np.int32)
        for rows in _row_blocks(index.size, mem.size):
            out[rows] = products[index[rows, None], mem].min(axis=1)
        return out
    out = np.full(index.size, index.size, dtype=np.int32)
    for rows in _row_blocks(mem.size, index.size):
        np.minimum(out, products[mem[rows, None], index].min(axis=0), out=out)
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
    kept on ``normal.parent``, keyed by the bytes of the subgroup's members,
    so normality is decided once per subgroup.
    """
    group = normal.parent
    key = normal.members.tobytes()
    kept = group._quotients.get(key)
    if kept is not None:
        return kept
    if not is_normal(normal):
        raise NotNormalError(
            f"subgroup of size {len(normal)} is not normal in {group.name}")
    rep = _coset_minima(normal, left=False)
    reps = np.flatnonzero(np.bincount(rep))  # np.unique(rep) would import numpy.ma
    coset_of = np.searchsorted(reps, rep).astype(np.int32)
    products = _products(group)
    qtable = np.empty((reps.size, reps.size), dtype=np.int32)
    for rows in _row_blocks(reps.size, reps.size):
        qtable[rows] = coset_of[products[reps[rows, None], reps]]
    kept = _frozen_group(f"{group.name}/{len(normal)}", qtable, _compute_orders(qtable))
    group._quotients[key] = kept
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
