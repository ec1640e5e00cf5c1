"""Hypothesis strategies for small group expressions, and the GT1 bytes of a
group."""

from __future__ import annotations

import io
import re

import hypothesis.strategies as st

from psigroups import group_from_text, serialize_group


def gt1_bytes(group) -> bytes:
    """The GT1 bytes ``serialize_group`` writes for ``group``."""
    sink = io.BytesIO()
    serialize_group(group, sink)
    return sink.getvalue()


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


def names_by_order(atoms: dict[str, int], max_order: int, max_factors: int):
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
    for names in names_by_order(P_ATOMS[p], max_order, max_factors).values()
]).flatmap(lambda names: st.tuples(st.sampled_from(names), st.sampled_from(names)))


# bytes a GT1 mutation may put in: digits, the separators and near misses
GT1_BYTES = "0123456789 \n\t\r-+x"


@st.composite
def _gt1_mutation(draw, text: str) -> str:
    """``text`` with one edit of the kind a hand-made or foreign GT1 file has."""
    kind = draw(st.sampled_from([
        "substitute", "insert", "delete", "zeros", "long", "space", "empty line",
        "crlf", "header"]))
    if kind in ("substitute", "insert", "delete"):
        pos = draw(st.integers(0, len(text) - 1))
        byte = "" if kind == "delete" else draw(st.sampled_from(GT1_BYTES))
        return text[:pos] + byte + text[pos + (kind != "insert"):]
    if kind == "crlf":  # on the rows only: a CRLF header fails before any row
        head, _, body = text.partition("\n")
        return f"{head}\n" + body.replace("\n", "\r\n")
    if kind == "header":
        head, _, body = text.partition("\n")
        n = int(head.split(" ")[1]) if re.fullmatch(r"GT1 \d+", head) else 2
        edited = draw(st.sampled_from([
            f"GT1 {n + 1}", f"GT1 {max(n - 1, 0)}", f"GT1 0{n}", f"GT1 {n}0", f"GT1 {n}00",
            f"GT1  {n}", f"GT1 {n} ", f"GT2 {n}", f"GT1\t{n}", "GT1 0", "GT1", ""]))
        return f"{edited}\n{body}"
    lines = text.split("\n")
    if len(lines) < 2:
        return text
    r = draw(st.integers(1, max(len(lines) - 2, 1)))
    if kind == "empty line":
        lines.insert(r, "")
        return "\n".join(lines)
    tokens = lines[r].split(" ")
    c = draw(st.integers(0, len(tokens) - 1))
    if kind == "zeros":  # valid: leading zeros, up to an over-long entry
        tokens[c] = "0" * draw(st.integers(1, 12)) + tokens[c]
    elif kind == "long":  # a 25-digit entry, out of range for every table
        tokens[c] = str(draw(st.integers(10**24, 10**25 - 1)))
    else:  # a double space, or a trailing one at the end of the row
        tokens.insert(draw(st.sampled_from([c, len(tokens)])), "")
    lines[r] = " ".join(tokens)
    return "\n".join(lines)


@st.composite
def gt1_mutants(draw) -> str:
    """The GT1 text of a small group after zero to three edits."""
    text = gt1_bytes(group_from_text(draw(group_names))).decode("ascii")
    for _ in range(draw(st.integers(0, 3))):
        if text:
            text = draw(_gt1_mutation(text))
    return text
