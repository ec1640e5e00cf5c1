"""Naive pure-Python reference implementations used as test oracles.

Everything here works on plain list-of-list tables by definitional loops,
with no shortcuts shared with the library (which is vectorized), so the two
computation paths are independent.
"""

from __future__ import annotations

from psigroups import GroupBuildError, GroupExpr, TableFormatError


def table_of(group) -> list[list[int]]:
    return [[int(v) for v in row] for row in group.table]


def expr_to_name(expr: GroupExpr) -> str:
    """Normalized expression string: tokens joined by '*', no whitespace."""
    return "*".join(f"{atom.kind}{atom.param}" for atom in expr)


def naive_order(table: list[list[int]], x: int) -> int:
    k, cur = 1, x
    while cur != 0:
        cur = table[cur][x]
        k += 1
        if k > len(table):
            raise AssertionError(f"element {x} never reaches the identity")
    return k


def naive_psi(table: list[list[int]]) -> int:
    return sum(naive_order(table, x) for x in range(len(table)))


def naive_spectrum(table: list[list[int]]) -> dict[int, int]:
    spectrum: dict[int, int] = {}
    for x in range(len(table)):
        o = naive_order(table, x)
        spectrum[o] = spectrum.get(o, 0) + 1
    return dict(sorted(spectrum.items()))


def naive_exponent(table: list[list[int]]) -> int:
    import math

    return math.lcm(*(naive_order(table, x) for x in range(len(table))))


def naive_power(table: list[list[int]], x: int, e: int) -> int:
    cur = 0
    for _ in range(e):
        cur = table[cur][x]
    return cur


def naive_inverse(table: list[list[int]], x: int) -> int:
    return table[x].index(0)


def naive_closure(table: list[list[int]], seed) -> list[int]:
    cur = set(seed) | {0}
    cur |= {naive_inverse(table, x) for x in cur}
    while True:
        new = set(cur)
        for a in cur:
            for b in cur:
                new.add(table[a][b])
        new |= {naive_inverse(table, x) for x in new}
        if new == cur:
            return sorted(cur)
        cur = new


def naive_is_normal(table: list[list[int]], members) -> bool:
    inside = set(members)
    for g in range(len(table)):
        ginv = naive_inverse(table, g)
        for s in members:
            if table[table[g][s]][ginv] not in inside:
                return False
    return True


def naive_omega_set(table: list[list[int]], p: int, i: int) -> list[int]:
    return [x for x in range(len(table)) if naive_power(table, x, p**i) == 0]


def naive_cp2_witness(table: list[list[int]]):
    """First (x, y) with o(xy) > max(o(x), o(y)), or None."""
    orders = [naive_order(table, x) for x in range(len(table))]
    for x in range(len(table)):
        for y in range(len(table)):
            if orders[table[x][y]] > max(orders[x], orders[y]):
                return (x, y, orders[x], orders[y], orders[table[x][y]])
    return None


def naive_is_group(table: list[list[int]]) -> bool:
    n = len(table)
    ids = list(range(n))
    if any(sorted(row) != ids for row in table):
        return False
    if any(sorted(table[i][j] for i in range(n)) != ids for j in range(n)):
        return False
    if table[0] != ids or [table[i][0] for i in range(n)] != ids:
        return False
    return naive_is_associative(table)


def naive_is_associative(table: list[list[int]]) -> bool:
    """(ab)c == a(bc) for every triple, by the definitional triple loop."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def switch_intercalate(table: list[list[int]], u: int, r: int, c: int) -> list[list[int]]:
    """Copy of a group table with one intercalate switched.

    For an involution u, the cells (r, c), (r, uc), (ru, c), (ru, uc) hold
    only the two symbols rc and ruc, in a 2x2 latin subsquare; swapping them
    keeps a latin square.  With r, c, ru, uc all nonzero the identity row and
    column are untouched, so the result is a latin loop with identity 0.
    """
    r2, c2 = table[r][u], table[u][c]
    assert table[u][u] == 0 and 0 not in (r, c, r2, c2)
    out = [list(row) for row in table]
    a, b = out[r][c], out[r][c2]
    out[r][c] = out[r2][c2] = b
    out[r][c2] = out[r2][c] = a
    return out


def naive_parse_gt1(text: str, n_limit: int) -> list[list[int]]:
    """GT1 text to a list-of-list table by splitting it line by line and token
    by token, with every format check and message of ``parse_group_table``
    (group-table checks excluded); ``n_limit`` is the table size limit."""
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
    if n > n_limit:
        raise GroupBuildError(f"group order {n} exceeds table size limit {n_limit}")
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
    return rows


def naive_gt1_text(table: list[list[int]]) -> str:
    """GT1 text by one Python str per entry: the header, then each row's
    entries joined by spaces, every line ended by a newline."""
    rows = (" ".join(map(str, row)) for row in table)
    return "\n".join([f"GT1 {len(table)}", *rows, ""])


def naive_catalog_names(p: int, cap: int) -> set[str]:
    """The catalog's names for one prime, from its definition: every abelian
    p-group of order at most cap as a non-increasing list of cyclic factors
    C(p^e), the dihedral and quaternion 2-groups D and Q of order 8 and up,
    H(p^3) and every M(p^j), j >= 3, for odd p, and the order-256 pair."""
    cyclic = [p**e for e in range(1, cap.bit_length() + 1) if p**e <= cap]

    def factor_lists(largest: int, room: int):
        # every non-increasing list of cyclic orders <= largest, product <= room
        yield []
        for order in cyclic:
            if order <= min(largest, room):
                for rest in factor_lists(order, room // order):
                    yield [order] + rest

    names = {"*".join(f"C{order}" for order in factors)
             for factors in factor_lists(cap, cap) if factors}
    big = [order for order in cyclic if order >= p**3]
    if p == 2:
        names |= {f"{kind}{order}" for order in big for kind in "DQ"}
        if cap >= 256:
            names |= {"D16*C2*C2*C2*C2", "C4*C4*C4*C4"}
    elif big:
        names |= {f"H{p**3}"} | {f"M{order}" for order in big}
    return names


# --- whole-table formulas ------------------------------------------------------
# The library writes its tables in int32, in place or one row block at a time.
# These are the earlier whole-table numpy formulas, each a single expression
# over int64 index matrices, kept as a second route to the same bytes.

def whole_direct_product_table(a_table, b_table):
    """Product table of two groups, left factor major, by gathering each
    factor's table at every pair of factor indices."""
    import numpy as np

    na, nb = len(a_table), len(b_table)
    ia, ib = np.divmod(np.arange(na * nb, dtype=np.int64), nb)
    return (np.asarray(a_table)[np.ix_(ia, ia)].astype(np.int64) * nb
            + np.asarray(b_table)[np.ix_(ib, ib)])


def _by_halves(k: int, law):
    """The k x k table whose entry (x, y) is ``law(e1, i1, e2, i2)``, where
    x = e1*(k/2) + i1 and y = e2*(k/2) + i2."""
    import numpy as np

    m = k // 2
    e, i = np.divmod(np.arange(k, dtype=np.int64), m)
    return law(e[:, None], i[:, None], e[None, :], i[None, :], m)


def whole_cyclic_table(k: int):
    """Table of C_k: addition mod k."""
    import numpy as np

    v = np.arange(k, dtype=np.int64)
    return (v[:, None] + v[None, :]) % k


def whole_dihedral_table(k: int):
    """Table of D_k with r^i at index i and s r^i at k/2 + i:
    s^e1 r^i1 * s^e2 r^i2 = s^(e1 xor e2) r^(i2 + (-1)^e2 i1)."""
    return _by_halves(k, lambda e1, i1, e2, i2, m:
                      (e1 ^ e2) * m + (i2 + (1 - 2 * e2) * i1) % m)


def whole_quaternion_table(k: int):
    """Table of Q_k with a^i b^e at index e*(k/2) + i, b^2 = a^(k/4):
    a^i1 b^e1 * a^i2 b^e2 = a^(i1 + (-1)^e1 i2 + e1 e2 k/4) b^(e1 xor e2)."""
    return _by_halves(k, lambda e1, i1, e2, i2, m:
                      (e1 ^ e2) * m + (i1 + (1 - 2 * e1) * i2 + e1 * e2 * (m // 2)) % m)


def whole_heisenberg_table(k: int, p: int):
    """Table of the unitriangular group of order p^3, (a, b, c) at index
    a*p^2 + b*p + c: (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2)."""
    import numpy as np

    v = np.arange(k, dtype=np.int64)
    x, y = v[:, None], v[None, :]
    a1, b1, c1 = x // (p * p), (x // p) % p, x % p
    a2, b2, c2 = y // (p * p), (y // p) % p, y % p
    return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p


def whole_modular_table(k: int, p: int, j: int):
    """Table of <a, b | a^(p^(j-1)) = b^p = 1, b^-1 a b = a^(1+p^(j-2))> in
    normal form a^i b^e at index e*p^(j-1) + i, by one broadcast."""
    import numpy as np

    mc = p ** (j - 1)
    t = pow(1 + p ** (j - 2), -1, mc)
    v = np.arange(k, dtype=np.int64)
    e, i = v // mc, v % mc
    tpow = np.array([pow(t, x, mc) for x in range(p)], dtype=np.int64)
    e1, i1 = e[:, None], i[:, None]
    e2, i2 = e[None, :], i[None, :]
    return ((e1 + e2) % p) * mc + (i1 + i2 * tpow[e1]) % mc


def stepwise_orders(table):
    """Order of every element by iterated multiplication, x^(k+1) = x^k * x:
    one numpy step per k up to the largest order, the elements that reach
    the identity dropping out as they do: a second route to the library's
    orders, which walk the divisors of n."""
    import numpy as np

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
                raise AssertionError(f"element {int(idx[0])} has no order within {n} steps")
            cur = table[cur, idx]
            k += 1
    return orders


def naive_metacyclic_table(m: int, s: int, t: int, r: int) -> list[list[int]]:
    """Table of <a, b | a^m = 1, b^s = a^t, b^-1 a b = a^r> with a^i b^e at
    index e*m + i, built from right multiplication by the generators alone.

    x*a and x*b are read off the relations: a^i b^e * b steps e up, past s
    into a^t; a^i b^e * a = a^(i + r'^e) b^e with r' the inverse of r mod m,
    as b a = a^r' b.  Column y = x*y of every x is then column y - 1 times a
    (e2 = 0) or column y - m times b, one generator step per column.
    """
    n = m * s
    r_inv = next(u for u in range(m) if u * r % m == 1 % m)
    times_a, times_b = [], []
    for x in range(n):
        e, i = divmod(x, m)
        step = 1
        for _ in range(e):
            step = step * r_inv % m
        times_a.append(e * m + (i + step) % m)
        times_b.append((e + 1) * m + i if e + 1 < s else (i + t) % m)
    columns = [list(range(n))]
    for y in range(1, n):
        e2, i2 = divmod(y, m)
        prev, gen = (columns[y - 1], times_a) if e2 == 0 else (columns[y - m], times_b)
        columns.append([gen[x] for x in prev])
    return [[columns[y][x] for y in range(n)] for x in range(n)]


def naive_max_order_law_pair(table: list[list[int]]):
    """First (x, y) with o(x) != o(y) and o(xy) != max(o(x), o(y)), or None."""
    orders = [naive_order(table, x) for x in range(len(table))]
    for x in range(len(table)):
        for y in range(len(table)):
            if orders[x] != orders[y] and orders[table[x][y]] != max(orders[x], orders[y]):
                return (x, y)
    return None


def naive_latin_fault(table: list[list[int]]):
    """'row r' or 'column c' for the first line, rows before columns, that is
    not a permutation of 0..n-1; None for a latin square."""
    n = len(table)
    ids = list(range(n))
    for r in range(n):
        if sorted(table[r]) != ids:
            return f"row {r}"
    for c in range(n):
        if sorted(table[r][c] for r in range(n)) != ids:
            return f"column {c}"
    return None
