"""The n x n kernels: byte-identical tables and element orders by a second
route, one product per product expression, the same answers at every
row-block size, memory bounds at n = 4096, the work the lemma-decided
shortcuts skip, and the refusal of builds that cannot fit in memory."""

import dataclasses
import functools
import math
import os
import random
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psigroups import (
    Catalog,
    Cp2Report,
    GroupBuildError,
    Subgroup,
    TableFormatError,
    closure,
    cp2,
    direct_product,
    exponent_log,
    expr,
    group_from_table,
    group_from_text,
    groups,
    is_cp2_pairwise,
    is_normal,
    omega_filtration,
    omega_set,
    omega_subgroup,
    parse_group_expr,
    parse_group_table,
    power_map,
    quotient,
    serialize_group,
)
from psigroups.catalog import DEFAULT_CATALOGS, catalog_names, make_entry
from psigroups.cli import cli_main
from psigroups.verify import _check_max_order_law
from oracle import (
    expr_to_name,
    naive_closure,
    naive_cp2_witness,
    naive_is_normal,
    naive_latin_fault,
    naive_max_order_law_pair,
    naive_metacyclic_table,
    naive_order,
    naive_quotient_table,
    stepwise_orders,
    switch_intercalate,
    table_of,
    whole_cyclic_table,
    whole_dihedral_table,
    whole_direct_product_table,
    whole_heisenberg_table,
    whole_modular_table,
    whole_quaternion_table,
)
from strategies import ATOMS, group_names

MB = 2**20


def _same_bytes(table, expected):
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert table.tobytes() == np.ascontiguousarray(expected, dtype=np.int32).tobytes()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- byte-identical tables by the whole-table formulas --------------------------

@given(group_names, group_names)
@settings(max_examples=40, deadline=None)
def test_direct_product_matches_the_whole_table_formula(left, right):
    a, b = group_from_text(left), group_from_text(right)
    assume(a.order * b.order <= 1024)
    g = direct_product(a, b)
    assert g.name == f"{left}*{right}"
    _same_bytes(g.table, whole_direct_product_table(a.table, b.table))


def test_direct_product_matches_the_whole_table_formula_at_order_4096():
    d16q16 = direct_product(group_from_text("D16"), group_from_text("Q16"))
    c16 = group_from_text("C16")
    g = direct_product(d16q16, c16)  # nested to the left
    _same_bytes(g.table, whole_direct_product_table(d16q16.table, c16.table))
    # the expression builder folds every factor in one call: the same table and name
    built = group_from_text("D16*Q16*C16")
    assert built.name == g.name
    _same_bytes(built.table, g.table)


# --- a product expression is one group ------------------------------------------

@st.composite
def atom_lists(draw, max_order=1024):
    """2 to 4 atom names (C1 among them) whose product has order <= max_order."""
    names, order = [], 1
    for _ in range(draw(st.integers(2, 4))):
        names.append(draw(st.sampled_from([a for a in ATOMS if order * ATOMS[a] <= max_order])))
        order *= ATOMS[names[-1]]
    return names


def _assert_product_of_every_factor(names):
    factors = [group_from_text(name) for name in names]
    g = direct_product(*factors)
    right = functools.reduce(lambda acc, f: direct_product(f, acc), reversed(factors))
    left = functools.reduce(direct_product, factors)
    for nested in (right, left):
        assert g.name == nested.name
        _same_bytes(g.table, nested.table)
    text = "*".join(names)
    built = group_from_text(text)
    assert built.name == g.name == expr_to_name(parse_group_expr(text))
    _same_bytes(built.table, g.table)


@given(atom_lists())
@settings(max_examples=40, deadline=None)
def test_direct_product_of_every_factor_matches_both_nestings(names):
    _assert_product_of_every_factor(names)


@pytest.mark.parametrize("names", [["C2"] * 12, ["D16", "Q16", "C16"]],
                         ids=["C2^12", "D16*Q16*C16"])
def test_direct_product_of_every_factor_matches_both_nestings_at_order_4096(names):
    _assert_product_of_every_factor(names)


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("text", [
    "M27", "C2*C3", "D16*Q16*C16", "H27*C1*M27*C3", "*".join(["C2"] * 12)])
def test_a_product_expression_wraps_one_group(monkeypatch, text):
    # k atoms and one product: no intermediate group is built, and the
    # product is wrapped with its folded orders, not by group_from_table
    counts = {"group_from_table": 0, "direct_product": 0}
    _count_calls(monkeypatch, groups, "group_from_table", counts)
    _count_calls(monkeypatch, expr, "direct_product", counts)
    k = len(parse_group_expr(text))
    assert group_from_text(text).name == text
    products = 1 if k > 1 else 0
    assert counts == {"group_from_table": k, "direct_product": products}


def _assert_orders_by_lagrange(g):
    assert np.array_equal(g.element_orders, groups._compute_orders(g.table)), g.name
    assert not g.element_orders.flags.writeable


def test_product_orders_are_the_computed_orders_over_the_default_catalogs():
    for p, cap in DEFAULT_CATALOGS:
        for name in catalog_names([p], cap):
            _assert_orders_by_lagrange(group_from_text(name))


@given(group_names)
@settings(max_examples=60, deadline=None)
def test_product_orders_are_the_computed_orders(name):
    _assert_orders_by_lagrange(group_from_text(name))


def test_direct_product_computes_no_orders_and_wraps_no_table(monkeypatch):
    factors = [group_from_text(name) for name in ("D8", "C3", "Q8", "C1")]

    def refuse(*args, **kwargs):
        raise AssertionError("direct_product must fold its factors' orders")
    monkeypatch.setattr(groups, "_compute_orders", refuse)
    monkeypatch.setattr(groups, "group_from_table", refuse)
    g = direct_product(*factors)
    assert (g.name, g.order) == ("D8*C3*Q8*C1", 192)
    assert sorted(set(g.element_orders.tolist())) == [1, 2, 3, 4, 6, 12]


def test_direct_product_refuses_the_whole_order_before_any_table():
    # each partial product fits the limit; the whole order is checked first
    factors = [group_from_text(name) for name in ("C2", "C64", "C64")]
    tracemalloc.start()
    try:
        with pytest.raises(GroupBuildError, match="group order 8192 exceeds table size limit"):
            direct_product(*factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MB


@pytest.mark.parametrize("k,p,j", [(p**j, p, j) for p in (2, 3, 5, 7, 11, 13)
                                   for j in range(3, 13) if p**j <= 4096])
def test_modular_group_matches_the_whole_table_formula(k, p, j):
    _same_bytes(group_from_text(f"M{k}").table, whole_modular_table(k, p, j))


def _family_cases():
    """C, D, Q and H at every prime power p^j <= 4096 with p <= 13 that each
    accepts, and C and D at some orders that are not prime powers."""
    for p in (2, 3, 5, 7, 11, 13):
        for j in range(1, 13):
            k = p**j
            if k > 4096:
                break
            yield f"C{k}", lambda k=k: whole_cyclic_table(k)
            if p == 2 and j >= 2:
                yield f"D{k}", lambda k=k: whole_dihedral_table(k)
            if p == 2 and j >= 3:
                yield f"Q{k}", lambda k=k: whole_quaternion_table(k)
            if p > 2 and j == 3:
                yield f"H{k}", lambda k=k, p=p: whole_heisenberg_table(k, p)
    for k in (1, 6, 12, 100, 1000):
        yield f"C{k}", lambda k=k: whole_cyclic_table(k)
    for k in (6, 10, 12, 18, 54, 100, 162, 486, 1000, 1458):
        yield f"D{k}", lambda k=k: whole_dihedral_table(k)


@pytest.mark.parametrize("name,whole_table", [pytest.param(name, fn, id=name)
                                              for name, fn in _family_cases()])
def test_family_table_matches_the_whole_table_formula(name, whole_table):
    _same_bytes(group_from_text(name).table, whole_table())


# --- element orders by the divisors of n, against the step-by-step route --------

# C4095 = 3^2 * 5 * 7 * 13: a divisor walk through an order that is not a prime power
@pytest.mark.parametrize("name", ["C4096", "D4096", "Q4096", "M4096", "C64*C64", "C4095"])
def test_orders_match_the_stepwise_route_at_the_table_limit(name):
    g = group_from_text(name)
    expected = stepwise_orders(g.table)
    assert g.element_orders.dtype == expected.dtype
    assert g.element_orders.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name,divisors", [("C4096", 13), ("M4096", 13), ("C4095", 24)])
def test_orders_take_at_most_one_power_per_divisor(monkeypatch, name, divisors):
    exponents = []
    power = groups._power
    monkeypatch.setattr(groups, "_power", lambda table, e: exponents.append(e) or power(table, e))
    g = group_from_text(name)
    assert len(exponents) <= divisors
    # the divisors of n in ascending order, up to the largest order (here the exponent)
    top = int(g.element_orders.max())
    assert exponents == [d for d in range(1, top + 1) if g.order % d == 0]


def test_an_element_with_no_order_dividing_n_is_refused():
    # 1 * 1 = 1: the powers of element 1 never reach the identity
    with pytest.raises(TableFormatError, match="no order dividing 2"):
        groups._compute_orders(np.array([[0, 1], [1, 1]], dtype=np.int32))


@given(group_names, st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_group_reads_its_orders_from_the_parent(name, data):
    g = group_from_text(name)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub = closure(g, seed)
    exponents = []
    power = groups._power
    with patch.object(groups, "_power", lambda table, e: exponents.append(e) or power(table, e)):
        h = sub.as_group()
    assert exponents == []
    expected = stepwise_orders(h.table)
    assert h.element_orders.dtype == expected.dtype
    assert h.element_orders.tobytes() == expected.tobytes()
    assert not h.table.flags.writeable and not h.element_orders.flags.writeable


# --- the metacyclic kernel on parameters no family uses -------------------------

# every (m, s, t, r mod m) of a family table of order <= 512
FAMILY_PARAMETERS = (
    {(k, 1, 0, 1 % k) for k in range(1, 513)}
    | {(k // 2, 2, 0, (-1) % (k // 2)) for k in range(4, 513, 2)}
    | {(2**j // 2, 2, 2**j // 4, 2**j // 2 - 1) for j in range(3, 10)}
    | {(p**(j - 1), p, 0, 1 + p**(j - 2)) for p in (2, 3, 5, 7) for j in range(3, 10)
       if p**j <= 512}
)


@st.composite
def metacyclic_parameters(draw):
    """(m, s, t, r) with r^s = 1 and t(r - 1) = 0 mod m, and m*s <= 512."""
    s = draw(st.integers(1, 16))
    m = draw(st.integers(1, 512 // s))
    r = draw(st.sampled_from([u for u in range(m) if pow(u, s, m) == 1 % m]))
    t = draw(st.sampled_from(range(0, m, m // math.gcd(r - 1, m))))
    return m, s, t, r


@given(metacyclic_parameters())
@settings(max_examples=40, deadline=None)
def test_metacyclic_kernel_is_the_presented_group(params):
    assume(params not in FAMILY_PARAMETERS)
    m, s, t, r = params
    table = groups._metacyclic_table(m, s, t, r)
    group_from_table("X", table)  # Light's test and the latin check accept it
    assert table.tolist() == naive_metacyclic_table(m, s, t, r)
    if r * r % m == 1 % m:
        # transposed, index e*m + i is b^e a^i, and as r^-1 = r,
        # b^e1 a^i1 * b^e2 a^i2 = b^((e1 + e2) mod s) a^(i1 r^e2 + i2 + t[e1 + e2 >= s])
        flipped = groups._metacyclic_table(m, s, t, r, transposed=True)
        group_from_table("X", flipped)
        e, i = np.divmod(np.arange(m * s, dtype=np.int64), m)
        e1, i1, e2, i2 = e[:, None], i[:, None], e[None, :], i[None, :]
        r_pow = np.array([pow(r, x, m) for x in range(s)], dtype=np.int64)
        _same_bytes(flipped, (e1 + e2) % s * m + (i1 * r_pow[e2] + i2 + t * (e1 + e2 >= s)) % m)


# --- every row-block size gives the same answer ---------------------------------

# one row per block, and blocks of 7 rows of 96 entries, which split the rows
# of every order below unevenly
BLOCK_ENTRIES = [1, 7 * 96]


# D54's 27-row slabs end inside a 12-row block of 7 * 96 entries; M125 has
# s = 5 slabs of 25 rows
@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["C12", "D16", "D54", "Q16", "H27", "M27", "M125", "M16*C2",
                                  "D8*C3*C4"])
def test_tables_do_not_depend_on_the_block_size(monkeypatch, block, name):
    whole = group_from_text(name)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    _same_bytes(group_from_text(name).table, whole.table)


@given(group_names, st.data())
@settings(max_examples=60, deadline=None)
def test_latin_check_names_the_first_bad_line(name, data):
    table = table_of(group_from_text(name))
    n = len(table)
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        r, c, v = data.draw(index), data.draw(index), data.draw(index)
        if data.draw(st.booleans()):
            table[r][c] = v  # breaks row r unless v was there already
        else:
            table[r][c], table[r][v] = table[r][v], table[r][c]  # rows stay permutations
    fault = naive_latin_fault(table)
    with patch.object(groups, "_BLOCK_ENTRIES", data.draw(st.sampled_from(BLOCK_ENTRIES + [1 << 20]))):
        if fault is None:
            groups._check_latin(np.array(table, dtype=np.int32))
        else:
            with pytest.raises(TableFormatError) as err:
                groups._check_latin(np.array(table, dtype=np.int32))
            assert str(err.value) == f"not a latin square: {fault} is not a permutation"


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D8", "C4*C4", "Q8*C2", "M27", "D8*C3*C4", "H27*C3", "Q16*D6"])
def test_blocked_cp2_witness_matches_the_oracle(monkeypatch, block, name):
    g = group_from_text(name)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    report = is_cp2_pairwise(g)
    witness = naive_cp2_witness(table_of(g))
    assert report.is_cp2 == (witness is None)
    assert report.witness == witness


@given(group_names, st.sampled_from(BLOCK_ENTRIES))
@settings(max_examples=60, deadline=None)
def test_restricted_cp2_scan_matches_the_oracle(name, block):
    # the scan reads only the elements below the top order, the oracle every pair
    g = group_from_text(name)
    with patch.object(groups, "_BLOCK_ENTRIES", block):
        report = is_cp2_pairwise(g)
    witness = naive_cp2_witness(table_of(g))
    assert report == Cp2Report(witness=witness)


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name,witness", [
    ("C1", None),  # no element below the top order: nothing to scan
    ("C2", None),
    ("C2*C2*C2*C2*C2", None),
    ("C6", (2, 3, 3, 2, 6)),  # not p-groups
    ("D12", (2, 3, 3, 2, 6)),
    ("C3*D8", (1, 8, 4, 3, 12)),
    ("D8", (4, 5, 2, 2, 4)),  # the cp2_d8 golden
])
def test_cp2_scan_reads_the_elements_below_the_top_order(monkeypatch, block, name, witness):
    g = group_from_text(name)
    table = table_of(g)
    orders = [naive_order(table, x) for x in range(g.order)]
    among = []
    first_pair = cp2._first_pair
    monkeypatch.setattr(cp2, "_first_pair", lambda group, violates, idx: (
        among.append(idx.tolist()) or first_pair(group, violates, idx)))
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    report = is_cp2_pairwise(g)
    assert among == [[x for x in range(g.order) if orders[x] < max(orders)]]
    assert report.witness == witness == naive_cp2_witness(table)
    assert report.is_cp2 == (witness is None)


def test_cp2_golden_through_the_restricted_scan(capsys, monkeypatch):
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 1)
    golden = Path(__file__).parent / "golden" / "cp2_d8.txt"
    for argv, out in ((["cp2", "D8"], golden.read_text()), (["cp2", "C1"], "CP2: yes\n")):
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D8", "C4*C4", "M27", "D16*C2", "Q8*D8", "C9*C3"])
def test_blocked_max_order_law_detail_matches_the_oracle(monkeypatch, block, name):
    # every entry is declared CP2, so the law is checked on groups where it fails
    entry = dataclasses.replace(make_entry(group_from_text(name)),
                                cp2=Cp2Report())
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    report = _check_max_order_law(Catalog(entries=(entry,)))
    table = table_of(entry.group)
    pair = naive_max_order_law_pair(table)
    if pair is None:
        assert report.violations == ()
    else:
        x, y = pair
        orders = entry.group.element_orders
        detail = (f"o(x)={orders[x]}, o(y)={orders[y]}, "
                  f"o(xy)={orders[table[x][y]]} at ({x},{y})")
        assert report.violations == ((name, detail),)


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D16", "Q8*C4", "M27*C3", "D8*C3*C4", "H27*C3"])
def test_blocked_closure_and_subgroup_tables_match(monkeypatch, block, name):
    g = group_from_text(name)
    seeds = [[], [1], [g.order - 1], [2, 3], list(range(0, g.order, 5))]
    whole = [closure(g, seed) for seed in seeds]
    sub_tables = [sub.as_group().table for sub in whole]
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    for seed, sub, sub_table in zip(seeds, whole, sub_tables):
        blocked = closure(g, seed)
        assert list(blocked.members) == naive_closure(table_of(g), seed) == list(sub.members)
        _same_bytes(blocked.as_group().table, sub_table)


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["C8*C4", "Q16*C2", "M27*C3", "D8*C2*C2"])
def test_blocked_quotient_table_matches(monkeypatch, block, name):
    first = group_from_text(name)
    whole = quotient(omega_subgroup(first, 1))
    g = group_from_text(name)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    _same_bytes(quotient(omega_subgroup(g, 1)).table, whole.table)


def _switched_loops(name, count, rng):
    """``count`` copies of ``name``'s table, each with one intercalate switched
    away from row and column 0: latin loops with identity 0."""
    table = table_of(group_from_text(name))
    n = len(table)
    involutions = [u for u in range(1, n) if table[u][u] == 0]
    loops = []
    while len(loops) < count:
        u, r, c = rng.choice(involutions), rng.randrange(1, n), rng.randrange(1, n)
        if table[r][u] and table[u][c]:
            loops.append(np.array(switch_intercalate(table, u, r, c), dtype=np.int32))
    return loops


def _light_outcome(table):
    try:
        groups._check_assoc_light(table)
    except TableFormatError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D16", "Q16*C2", "C8*C4", "M16*C2", "D8*C3*C4", "Q8*C12"])
def test_blocked_light_test_reports_the_same_triple(monkeypatch, block, name):
    # the first failing (x, y) for the first failing generator, at every block size
    loops = _switched_loops(name, 8, random.Random(name))
    whole = [_light_outcome(t) for t in loops]
    assert any(whole)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    assert [_light_outcome(t) for t in loops] == whole


# --- memory at the 4096-element limit -------------------------------------------
# The table is 64 MB; a kernel may hold it plus one row block (4-8 MB).

@pytest.mark.parametrize("name", ["C64*C64", "M4096", "C4096", "D4096", "Q4096"])
def test_build_at_order_4096_holds_the_table_and_one_block(name):
    g, peak = _peak_bytes(lambda: group_from_text(name))
    assert g.order == 4096
    assert peak <= 72 * MB


@pytest.mark.parametrize("params", [(4096, 1, 0, 1, False), (2048, 2, 0, 2047, True),
                                    (2048, 2, 1024, 2047, False), (2048, 2, 0, 1025, False)],
                         ids=["C4096", "D4096", "Q4096", "M4096"])
def test_metacyclic_kernel_holds_what_the_order_check_budgets(params):
    # _check_order_limit budgets the int32 table and one row block of int64
    m, s, t, r, transposed = params
    n = m * s
    table, peak = _peak_bytes(lambda: groups._metacyclic_table(m, s, t, r, transposed=transposed))
    assert table.shape == (n, n)
    assert peak <= 4 * n * n + 8 * max(n, groups._BLOCK_ENTRIES)


def test_heisenberg_build_holds_the_table_and_small_terms():
    # a 19 MB table; the broadcast's two terms hold 13^4 entries each
    g, peak = _peak_bytes(lambda: group_from_text("H2197"))
    assert g.order == 2197
    assert peak <= 24 * MB


@pytest.mark.parametrize("name", ["M4096", "C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2"])
def test_pair_scan_at_order_4096_holds_one_block(name):
    g = group_from_text(name)
    _, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert peak <= 24 * MB


def test_light_test_at_order_4096_holds_one_block():
    # (xg)y and x(gy) over the whole table are four 64 MB temporaries
    table = group_from_text("C64*C64").table
    _, peak = _peak_bytes(lambda: groups._check_assoc_light(table))
    assert peak <= 24 * MB


def test_untrusted_validation_at_order_4096_holds_one_block():
    # the latin check's n x n bool matrix was 16 MB more, and Light's test
    # holding two blocks' (xg)y and x(gy) at once 7 MB more
    g = group_from_text("C64*C64")
    h, peak = _peak_bytes(lambda: group_from_table("untrusted", g.table))
    assert np.array_equal(h.element_orders, g.element_orders)
    assert peak <= 12 * MB


def test_untrusted_validation_at_order_1024_holds_one_block():
    # one block is the whole 4 MB table: Light's test holds one (xg)y and
    # x(gy) pair, where two pairs at once peak at 17 MB
    g = group_from_text("C32*C32")
    h, peak = _peak_bytes(lambda: group_from_table("untrusted", g.table))
    assert np.array_equal(h.element_orders, g.element_orders)
    assert peak <= 12 * MB


class _CountingSink:
    """A binary handle that counts the bytes written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, data) -> int:
        nbytes = memoryview(data).nbytes
        self.size += nbytes
        return nbytes


@pytest.mark.parametrize("name,cap", [("C32*C32", 2 * MB), ("C64*C64", 4 * MB)],
                         ids=["C32*C32", "C64*C64"])
def test_gt1_export_holds_one_row_block(name, cap):
    # one Python str per entry held 7.9 MB at n = 1024 and 152 MB at n = 4096
    g = group_from_text(name)
    sink = _CountingSink()
    _, peak = _peak_bytes(lambda: serialize_group(g, sink))
    # every row is a permutation of 0..n-1, so every line has the same bytes
    n = g.order
    assert sink.size == len(f"GT1 {n}\n") + n * sum(len(str(v)) + 1 for v in range(n))
    assert peak <= cap


# --- work that a lemma decides is skipped ----------------------------------------
# Each bound fails when the skipped n x n gathers run again.

def test_whole_group_subgroup_reads_no_products():
    g = group_from_text("C64*C64")
    sub, peak = _peak_bytes(lambda: Subgroup(g, tuple(range(4096))))
    assert sub.members == tuple(range(4096))
    assert peak <= MB


def test_pair_scan_of_c2_12_reads_no_products():
    # every element but the identity has the top order 2
    g = group_from_text("*".join(["C2"] * 12))
    report, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert report.is_cp2
    assert peak <= MB


def test_pair_scan_of_m4096_holds_half_a_full_scan():
    # half of M4096 has the top order 2048; a scan of every pair peaks at 10 MB
    g = group_from_text("M4096")
    report, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert report.is_cp2
    assert peak <= 5 * MB


def _record_power_exponents(monkeypatch) -> list[int]:
    seen = []
    power = groups._power
    monkeypatch.setattr(groups, "_power", lambda table, e: seen.append(e) or power(table, e))
    return seen


@pytest.mark.parametrize("name", ["C8", "D8", "Q16", "H27", "M27", "C6", "C3*D8", "C1"])
def test_power_map_takes_the_exponent_mod_the_order(monkeypatch, name):
    # x^n = 1 by Lagrange, so the kernel never needs an exponent of n or more
    g = group_from_text(name)
    e = 2**4096 + 3
    unbounded = groups._power(g.table, e)
    seen = _record_power_exponents(monkeypatch)
    _same_bytes(power_map(g, e), unbounded)
    assert seen and all(k < g.order for k in seen)


@pytest.mark.parametrize("name", ["C8", "D8", "Q16", "H27", "M27", "C9*C3"])
def test_omega_set_takes_the_exponent_mod_the_order(monkeypatch, name):
    g = group_from_text(name)
    seen = _record_power_exponents(monkeypatch)
    assert omega_set(g, 5000) == tuple(range(g.order))
    assert seen and all(k < g.order for k in seen)


@given(group_names, st.integers(0, 2**70 + 5))
@settings(max_examples=60, deadline=None)
def test_power_map_depends_on_the_exponent_mod_the_order(name, e):
    g = group_from_text(name)
    result = power_map(g, e)
    _same_bytes(result, power_map(g, e % g.order))
    _same_bytes(result, groups._power(g.table, e))


@pytest.mark.parametrize("name", ["D8", "Q16*C2", "M27*C3", "C3*D8"])
def test_quotient_decides_normality_once_per_subgroup(monkeypatch, name):
    calls = []
    decide = groups.is_normal
    monkeypatch.setattr(groups, "is_normal", lambda sub: (
        calls.append(sub.members) or decide(sub)))
    g = group_from_text(name)
    table = table_of(g)
    cyclic = sorted({closure(g, [x]).members for x in range(g.order)})
    normal = [members for members in cyclic if naive_is_normal(table, members)]
    assert len(normal) > 1
    for members in normal:
        calls.clear()
        q = quotient(Subgroup(g, members))
        assert calls == [members]
        # the kept quotient is returned without deciding normality again
        assert quotient(Subgroup(g, members)) is q
        assert calls == [members]
        assert q.order == g.order // len(members)


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D16", "Q16*C2", "M27*C3", "C3*D8", "H27"])
def test_coset_minima_do_not_depend_on_the_block_size(monkeypatch, block, name):
    g = group_from_text(name)
    table = table_of(g)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    for members in sorted({closure(g, [x]).members for x in range(g.order)}):
        normal = naive_is_normal(table, members)
        assert is_normal(Subgroup(g, members)) == normal, members
        if normal:
            q = quotient(Subgroup(g, members))
            assert q.table.tolist() == naive_quotient_table(table, members), members


def test_coset_minima_at_order_4096_hold_one_block():
    # Omega_(m-1)(D2048*C2) is the whole group: an n x |N| gather held 64 MB
    g = group_from_text("D2048*C2")
    sub = omega_subgroup(g, exponent_log(g)[1] - 1)
    assert len(sub) == g.order
    normal, peak = _peak_bytes(lambda: is_normal(sub))
    assert normal and peak <= 8 * MB
    q, peak = _peak_bytes(lambda: quotient(sub))
    assert q.order == 1 and peak <= 8 * MB


def test_omega_filtration_at_order_4096_holds_one_block():
    g = group_from_text("C64*C64")
    filtration, peak = _peak_bytes(lambda: omega_filtration(g))
    assert filtration.levels[-1].subgroup_size == 4096
    assert peak <= 24 * MB


# --- builds that cannot fit in memory are refused before allocating -------------

@pytest.fixture
def physical_memory(monkeypatch):
    """Set the physical memory the size check reads, in bytes."""
    def set_memory(nbytes):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    return set_memory


@pytest.mark.parametrize("text", ["C4096", "D4096", "Q4096", "M4096", "H2197", "C64*C64"])
def test_build_over_physical_memory_is_refused(physical_memory, text):
    # H2197's table is 19 MB and the others' 64 MB, each plus an 8 MB row block
    physical_memory(16 * MB)
    with pytest.raises(GroupBuildError, match="bytes of physical memory"):
        group_from_text(text)


def test_build_that_fits_in_physical_memory_is_not_refused(physical_memory):
    physical_memory(4 * 4096**2 + 8 * MB)
    assert group_from_text("C64*C64").order == 4096


@pytest.mark.parametrize("text,max_order,memory", [
    ("C4096", None, 64 * MB),
    # each 64 MB factor fits; the product is refused before either is built
    ("C4096*C4096", "16777216", 128 * MB),
], ids=["C4096", "C4096*C4096"])
def test_refusal_allocates_nothing_large(monkeypatch, physical_memory, text, max_order, memory):
    if max_order is not None:
        monkeypatch.setenv("PSIGROUPS_MAX_ORDER", max_order)
    physical_memory(memory)
    tracemalloc.start()
    try:
        with pytest.raises(GroupBuildError):
            group_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MB


def test_gt1_header_over_physical_memory_is_refused(physical_memory):
    physical_memory(64 * MB)
    with pytest.raises(GroupBuildError, match="bytes of physical memory"):
        parse_group_table("GT1 4096\n0\n")


def test_cli_refuses_a_table_over_physical_memory(capsys, monkeypatch, physical_memory):
    # a million elements: a 4 TB table
    monkeypatch.setenv("PSIGROUPS_MAX_ORDER", "1000000")
    physical_memory(8 * 2**30)
    assert cli_main(["psi", "C1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: group order 1000000 needs about")
