"""Naive pure-Python reference implementations used as test oracles.

Everything here works on plain list-of-list tables by definitional loops,
with no shortcuts shared with the library (which is vectorized), so the two
computation paths are independent.
"""

from __future__ import annotations


def table_of(group) -> list[list[int]]:
    return [[int(v) for v in row] for row in group.table]


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
