"""Hypothesis strategies for small group expressions."""

from __future__ import annotations

import hypothesis.strategies as st

# atom name -> order of the group it denotes
ATOMS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C8": 8, "C9": 9,
    "C12": 12, "C16": 16,
    "D4": 4, "D6": 6, "D8": 8, "D12": 12, "D16": 16,
    "Q8": 8, "Q16": 16,
    "H27": 27, "M16": 16, "M27": 27,
}

# single-prime atoms, for operations that require p-groups
P_ATOMS = {
    2: {"C2": 2, "C4": 4, "C8": 8, "C16": 16, "D8": 8, "D16": 16,
        "Q8": 8, "Q16": 16, "M16": 16},
    3: {"C3": 3, "C9": 9, "C27": 27, "H27": 27, "M27": 27},
}


def _bounded_products(atoms: dict[str, int], max_order: int, max_factors: int):
    @st.composite
    def build(draw) -> str:
        names = list(atoms)
        parts = [draw(st.sampled_from(names))]
        order = atoms[parts[0]]
        for _ in range(draw(st.integers(0, max_factors - 1))):
            nxt = draw(st.sampled_from(names))
            if order * atoms[nxt] > max_order:
                break
            parts.append(nxt)
            order *= atoms[nxt]
        return "*".join(parts)

    return build()


group_names = _bounded_products(ATOMS, max_order=96, max_factors=3)
p2_group_names = _bounded_products(P_ATOMS[2], max_order=64, max_factors=3)
p3_group_names = _bounded_products(P_ATOMS[3], max_order=81, max_factors=2)
p_group_names = st.one_of(p2_group_names, p3_group_names)


def _names_by_order(atoms: dict[str, int], max_order: int, max_factors: int):
    """Every product of 1..max_factors atoms up to max_order, keyed by order."""
    buckets: dict[int, list[str]] = {}
    frontier = [("", 1)]
    for _ in range(max_factors):
        frontier = [(f"{name}*{atom}" if name else atom, order * size)
                    for name, order in frontier for atom, size in atoms.items()
                    if order * size <= max_order]
        for name, order in frontier:
            buckets.setdefault(order, []).append(name)
    return buckets


# two names of groups of the same prime-power order
same_order_p_group_pairs = st.sampled_from([
    names
    for p, max_order, max_factors in ((2, 64, 3), (3, 81, 2))
    for names in _names_by_order(P_ATOMS[p], max_order, max_factors).values()
]).flatmap(lambda names: st.tuples(st.sampled_from(names), st.sampled_from(names)))
