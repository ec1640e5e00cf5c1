"""The n x n kernels: byte-identical tables and element orders by a second
route, one product per product expression, the same answers at every
row-block size, memory bounds at n = 4096, the work the lemma-decided
shortcuts skip, and the refusal of builds that cannot fit in memory."""

import dataclasses
import functools
import json
import math
import os
import random
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psigroups import (
    Catalog,
    Cp2Report,
    GroupBuildError,
    GroupError,
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
    order_spectrum,
    parse_group_expr,
    parse_group_table,
    power_map,
    predict_order,
    psi_brute,
    quotient,
    serialize_group,
)
from psigroups.catalog import DEFAULT_CATALOGS, catalog_names, make_entry
from psigroups import cli
from psigroups.cli import cli_main
from psigroups.verify import _check_max_order_law
from oracle import (
    expr_to_name,
    naive_closure,
    naive_cp2_witness,
    naive_is_closed,
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
from strategies import ATOMS, group_names, p_group_names, same_order_p_group_pairs

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


# --- psi and spectrum of an expression, and a product's table read later ---------

@pytest.mark.parametrize("name", ["C64*C64", "*".join(["C2"] * 12), "M4096", "H27*C81"],
                         ids=["C64*C64", "C2^12", "M4096", "H27*C81"])
def test_psi_and_spectrum_of_an_expression_never_write_its_table(capsys, name):
    # the orders come from the atoms' closed forms, folded by lcm; no 64 MB
    # table is written.  The expected lines are read from the written table
    orders = groups._compute_orders(group_from_text(name).table).tolist()
    spectrum = "".join(f"{o}:{orders.count(o)}\n" for o in sorted(set(orders)))
    for argv, out in ((["psi", name], f"psi({name}) = {sum(orders)}\n"),
                      (["spectrum", name], spectrum)):
        code, peak = _peak_bytes(lambda: cli_main(argv))
        assert (code, capsys.readouterr().out) == (0, out)
        assert peak <= MB


@pytest.mark.parametrize("name", ["C64*C64", "D16*Q16*C16", "*".join(["C2"] * 12), "Q2048*C2",
                                  "H27*C81", "C3*D8*Q8*C1", "M27*C3*C9"])
def test_a_product_table_read_later_has_the_eager_bytes(name):
    g = group_from_text(name)
    factors = [group_from_text(term) for term in name.split("*")]
    # the order and the orders come without the table
    assert g.order == math.prod(f.order for f in factors)
    assert psi_brute(g) == int(g.element_orders.sum()) and order_spectrum(g.element_orders)
    law = g._law
    assert g._table is None and isinstance(law, groups._Product)
    assert law.left.order * law.right.order == g.order
    table = g.table
    _same_bytes(table, functools.reduce(whole_direct_product_table, (f.table for f in factors)))
    # written once: read-only, the same object on every read, the law dropped
    assert not table.flags.writeable and g.table is table and g._law is None
    with pytest.raises(ValueError):
        table[0, 0] = 1


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


# --- closed-form atom orders, against the orders computed from the table -------

def _closed_form_cases():
    """Every C_k up to k = 512 and C_{p^j} at the largest p^j <= 4096 for
    p <= 5; D_k at every even k up to 512 and at every 2^j up to 4096; every
    Q up to 4096; every M_{p^j} up to 4096, M8 included; H_{p^3} for
    p <= 13."""
    primes = (2, 3, 5, 7, 11, 13)
    yield "C", [*range(1, 513), 2187, 3125, 4096]
    yield "D", [*range(4, 513, 2), 1024, 2048, 4096]
    yield "Q", [2**j for j in range(3, 13)]
    yield "M", [p**j for p in primes for j in range(3, 13) if p**j <= 4096]
    yield "H", [p**3 for p in primes if p > 2]


@pytest.mark.parametrize("kind,params", [pytest.param(kind, params, id=kind)
                                         for kind, params in _closed_form_cases()])
def test_closed_form_orders_are_the_computed_orders(kind, params):
    for k in params:
        g = expr._BUILDERS[kind](k)
        orders = g.element_orders
        computed = groups._compute_orders(g.table)
        assert orders.dtype == computed.dtype, f"{kind}{k}"
        assert orders.tobytes() == computed.tobytes(), f"{kind}{k}"
        assert not orders.flags.writeable, f"{kind}{k}"


# every family at small orders, and the metacyclic ones at the table limit
@pytest.mark.parametrize("name", ["C1", "C12", "C4095", "D8", "D54", "Q16", "M16", "M27", "M125",
                                  "H27", "H125", "C4096", "D4096", "Q4096", "M4096"])
def test_atoms_take_their_orders_from_the_closed_forms(monkeypatch, name):
    compute = groups._compute_orders

    def refuse(*args, **kwargs):
        raise AssertionError("an atom's orders come from its closed form, not its table")
    monkeypatch.setattr(groups, "_compute_orders", refuse)
    g = group_from_text(name)
    computed = compute(g.table)
    assert g.element_orders.dtype == computed.dtype
    assert g.element_orders.tobytes() == computed.tobytes()
    assert not g.element_orders.flags.writeable


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
    table = group_from_text(name).table
    exponents = []
    power = groups._power
    monkeypatch.setattr(groups, "_power",
                        lambda products, n, e: exponents.append(e) or power(products, n, e))
    orders = groups._compute_orders(table)
    assert len(exponents) <= divisors
    # the divisors of n in ascending order, up to the largest order (here the exponent)
    top = int(orders.max())
    assert exponents == [d for d in range(1, top + 1) if orders.size % d == 0]


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
    with patch.object(groups, "_power",
                      lambda products, n, e: exponents.append(e) or power(products, n, e)):
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


@given(metacyclic_parameters())
@settings(max_examples=60, deadline=None)
def test_metacyclic_closed_form_orders_are_the_computed_orders(params):
    m, s, t, r = params
    for transposed in (False, True) if r * r % m == 1 % m else (False,):
        table = groups._metacyclic_table(m, s, t, r, transposed=transposed)
        orders = groups._metacyclic_orders(m, s, t, r, transposed=transposed)
        assert orders.tobytes() == groups._compute_orders(table).tobytes()


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


# --- a large product's filtration and pair scan, read from its factors ----------
# At _BLOCK_ENTRIES = 1 every product of order 2 or more is over one block, so
# an unwritten one folds its factors' filtrations and reads its pair products
# from their tables.  The reference is the same product after its table is read.

def _read_from_factors(name):
    """``name`` built twice before any table is read: flat, and nested as its
    first factor times the rest; with the table read, the reference."""
    first, _, rest = name.partition("*")
    unwritten = [group_from_text(name)]
    if rest:
        unwritten.append(direct_product(group_from_text(first), group_from_text(rest)))
    reference = group_from_text(name)
    reference.table
    return unwritten, reference


def _levels(g):
    """p, the levels and their members of g's filtration, or the type and
    message of its refusal."""
    try:
        filtration = omega_filtration(g)
    except GroupError as exc:
        return type(exc), str(exc)
    return filtration.p, filtration.levels, [level.members.tolist() for level in filtration.levels]


@given(group_names)
@settings(max_examples=60, deadline=None)
def test_omega_filtration_from_the_factors_is_the_table_route(name):
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        unwritten, reference = _read_from_factors(name)
        want = _levels(reference)
        for g in unwritten:
            assert _levels(g) == want
            assert "*" not in name or g._table is None


@given(group_names)
@settings(max_examples=60, deadline=None)
def test_cp2_witness_from_the_factors_is_the_table_route(name):
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        unwritten, reference = _read_from_factors(name)
        want = is_cp2_pairwise(reference)
        for g in unwritten:
            assert is_cp2_pairwise(g) == want
            assert "*" not in name or g._table is None


# --- CP2 of a group read from its law, by closing its order sublevel sets -------
# S_M = {x : o(x) <= M} is closed for every order M below the top exactly when
# the group is CP2, so a group read from its law is scanned only when it is not.

@given(group_names)
@settings(max_examples=60, deadline=None)
def test_cp2_by_sublevel_sets_is_the_table_route(name):
    # at one-entry blocks every unwritten group of order 2 or more is read
    # from its law, mixed-prime and non-CP2 ones included; a pair scan runs
    # exactly when the group is not CP2
    scans = []
    first_pair = cp2._first_pair

    def scan(group, violates, among):
        scans.append(among.size)
        return first_pair(group, violates, among)
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        g, reference = group_from_text(name), group_from_text(name)
        reference.table
        want = is_cp2_pairwise(reference)
        with patch.object(cp2, "_first_pair", scan):
            assert is_cp2_pairwise(g) == want
    assert any(scans) == (not want.is_cp2)
    assert g.order == 1 or g._table is None


@pytest.mark.parametrize("name,witness", [
    ("C4096", None), ("M4096", None),
    ("D4096", (2048, 2049, 2, 2, 2048)),  # two reflections, whose product is a rotation
    ("Q4096", (2048, 2049, 4, 4, 2048)),
])
def test_cp2_of_an_atom_at_the_limit_scans_only_when_it_is_not_cp2(monkeypatch, name, witness):
    # the reference scans the written table; the law route closes the
    # sublevel sets and scans only D4096 and Q4096, whose S_2 and S_4 are open
    reference = group_from_text(name)
    reference.table
    want = is_cp2_pairwise(reference)
    del reference
    g = group_from_text(name)

    def refuse(*args, **kwargs):
        raise AssertionError("CP2 of an atom at the limit writes no table, nor scans a CP2 one")
    for writer in ("_metacyclic_table", "_heisenberg_table", "_product"):
        monkeypatch.setattr(groups, writer, refuse)
    if witness is None:
        monkeypatch.setattr(cp2, "_first_pair", refuse)
    assert is_cp2_pairwise(g) == want == Cp2Report(witness=witness)
    assert g._table is None


@pytest.mark.parametrize("name,witness", [
    ("D16*Q16*C16", (128, 144, 4, 4, 8)),  # Q16's (8, 9) at place value 16
    ("Q8*D8*C32", (128, 160, 2, 2, 4)),  # D8, the rightmost failing factor, at 32
    ("C1*D2048*C2", (2048, 2050, 2, 2, 1024)),
    ("C32*C33", (1, 33, 33, 32, 1056)),  # mixed primes: lcm is not max, so scanned
])
def test_cp2_of_a_product_at_the_limit_is_the_table_route(name, witness):
    # the default block: each product is over one row block, so a same-prime
    # one is decided from its factors and a mixed-prime one scans its law
    g, reference = group_from_text(name), group_from_text(name)
    report = is_cp2_pairwise(g)
    assert g._table is None
    reference.table
    assert report == is_cp2_pairwise(reference)
    assert report.witness == witness


@pytest.mark.parametrize("name,witness", [("C64*C64", None), ("H27*C81", None),
                                          ("D16*Q16*C16", (128, 144, 4, 4, 8))])
def test_cp2_of_a_same_prime_product_reads_no_product_of_its_own(monkeypatch, name, witness):
    # a pair scan of the product reads about 10^6 pairs through its law; the
    # two sides' tables, 256 x 256 at most, are written before the writers refuse
    g = group_from_text(name)
    for side in (g._law.left, g._law.right):
        side.table

    def refuse(*args, **kwargs):
        raise AssertionError("CP2 of a same-prime product reads only its factors")
    monkeypatch.setattr(groups._Product, "__getitem__", refuse)
    for writer in ("_metacyclic_table", "_heisenberg_table", "_product"):
        monkeypatch.setattr(groups, writer, refuse)
    report, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert report.witness == witness
    assert g._table is None
    assert peak <= MB


@given(same_order_p_group_pairs)
@settings(max_examples=40, deadline=None)
def test_predict_order_from_the_factors_is_the_table_route(pair):
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        (p_group, *_), p_ref = _read_from_factors(pair[0])
        (q_group, *_), q_ref = _read_from_factors(pair[1])
        assert predict_order(p_group, q_group) == predict_order(p_ref, q_ref)
        assert all(g._table is None for g in (p_group, q_group) if "*" in g.name)


# --- products read from the law ---------------------------------------------------
# At _BLOCK_ENTRIES = 1 every group of order 2 or more is over one row block, so
# while its table is unwritten every reader reads its products from its law: an
# atom's from its formula, a product's from its factors, whose digits of
# ascending indices are not ascending themselves.  The reference is the same
# group with its table written first, read by the table route.

UNSORTED_DIGITS = ["Q16*D6", "D8*C3*C4", "H27*C3"]


def _outcome(fn):
    try:
        return fn()
    except GroupError as exc:
        return type(exc), str(exc)


def _every_reader(g, seeds):
    """What each product reader returns for g and subgroups grown from
    ``seeds``: powers, closures, the subgroup check on closed and traded
    sets, subgroup tables, the filtration's members, the CP2 witness,
    normality and quotient tables."""
    n = g.order
    subs = [closure(g, seed) for seed in seeds]
    traded = [(*sub.members[:-1].tolist(), n - 1) for sub in subs
              if 1 < len(sub) and n - 1 not in sub.members]
    return {
        "power": [power_map(g, e).tobytes() for e in (2, 3, n - 1, n + 1)],
        "closure": [sub.members.tolist() for sub in subs],
        "subgroup": [_outcome(lambda m=m: Subgroup(g, m).members.tolist()) for m in traded],
        "as_group": [sub.as_group().table.tobytes() for sub in subs],
        "omega": _levels(g),
        "cp2": is_cp2_pairwise(g),
        "normal": [is_normal(sub) for sub in subs],
        "quotient": [quotient(sub).table.tobytes() for sub in subs if is_normal(sub)],
    }


@given(st.one_of(group_names, st.sampled_from(UNSORTED_DIGITS)),
       st.lists(st.lists(st.integers(0, 95), max_size=3), min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_every_reader_of_the_law_route_matches_the_table_route(name, seeds):
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        g, reference = group_from_text(name), group_from_text(name)
        seeds = [[x % g.order for x in seed] for seed in seeds]
        reference.table
        want = _every_reader(reference, seeds)
        assert _every_reader(g, seeds) == want
        assert g.order == 1 or g._table is None


_LEFT_NESTED = "(D16*Q16)*C16"


def _law_group(name):
    """The group ``name`` names; ``_LEFT_NESTED`` is D16*Q16*C16 built from
    the product D16*Q16 and C16."""
    if name == _LEFT_NESTED:
        inner = direct_product(group_from_text("D16"), group_from_text("Q16"))
        return direct_product(inner, group_from_text("C16"))
    return group_from_text(name)


@pytest.mark.parametrize("name", ["C2048", "D4096", "Q2048", "M4096", "M2187", "H2197", "H1331",
                                  "C2*M2048", "C2*D2048", "*".join(["C2"] * 11), "C16*C16*C8",
                                  "C1*D2048*C2", _LEFT_NESTED])
def test_law_products_are_the_table_products(name):
    # random indices, repeated and in any order, as outer products above and
    # below _gathers, entry by entry and as single elements
    g = _law_group(name)
    n = g.order
    rng = np.random.default_rng(n)
    pairs = [(int(rng.integers(n)), int(rng.integers(n)))]
    for k, l in ((1, 1), (7, 5), (90, 150), (300, 200), (600, 3000)):
        x, y = rng.integers(0, n, k), rng.integers(0, n, l)
        pairs += [(x[:, None], y), (np.sort(x)[:, None], np.sort(y)), (x, rng.integers(0, n, k))]
    products = [groups._mul(g, x, y) for x, y in pairs]
    assert g._table is None
    table = g.table
    for (x, y), got in zip(pairs, products):
        assert np.asarray(got).dtype == np.int32
        np.testing.assert_array_equal(got, table[x, y])


@given(atom_lists(), st.data())
@settings(max_examples=40, deadline=None)
def test_the_two_sided_law_is_the_table(names, data):
    # every side of order 2 or more is over one block, so each is read from
    # its own law; the reference joins the factors' tables whole.  Reads as
    # an outer product, entry by entry and as single elements
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        factors = [group_from_text(name) for name in names]
        g = direct_product(*factors)
        table = functools.reduce(whole_direct_product_table, (f.table for f in factors))
        k = data.draw(st.integers(1, 40))
        x, y, z = (np.array(data.draw(st.lists(st.integers(0, g.order - 1),
                                                min_size=k, max_size=k))) for _ in range(3))
        for pair in ((x[:, None], y), (x, z), (int(x[0]), int(y[0]))):
            got = groups._mul(g, *pair)
            assert np.asarray(got).dtype == np.int32
            np.testing.assert_array_equal(got, table[pair])
        assert g.order == 1 or g._table is None


@pytest.mark.parametrize("name,left,right", [
    ("*".join(["C2"] * 12), "*".join(["C2"] * 6), "*".join(["C2"] * 6)),
    ("D16*Q16*C16", "D16", "Q16*C16"),
    ("Q2048*C2", "Q2048", "C2"),
    ("C2*Q2048", "C2", "Q2048"),
    ("C1*D2048*C2", "C1*D2048", "C2"),
], ids=["C2^12", "D16*Q16*C16", "Q2048*C2", "C2*Q2048", "C1*D2048*C2"])
def test_a_product_is_bracketed_once_near_the_root_of_its_order(name, left, right):
    g = group_from_text(name)
    law = g._law
    assert (law.left.name, law.right.name) == (left, right)
    assert law.left.order * law.right.order == g.order


def test_cp2_of_c2_to_the_12_decides_each_side_once(monkeypatch):
    # 64 | 64: the product and its two sides, each side scanned on its table
    # (the flat twelve factors took 13 calls)
    counts = {"is_cp2_pairwise": 0}
    _count_calls(monkeypatch, cp2, "is_cp2_pairwise", counts)
    assert cp2.is_cp2_pairwise(group_from_text("*".join(["C2"] * 12))).is_cp2
    assert counts == {"is_cp2_pairwise": 3}


def test_a_product_block_read_takes_each_side_once(monkeypatch):
    # C2^11 is 32 | 64: one 512-row block reads two sides' tables, not eleven factors'
    g = group_from_text("*".join(["C2"] * 11))
    law = g._law
    rows, cols = np.arange(512)[:, None], np.arange(g.order)
    want = law[rows, cols]
    counts = {"_products": 0}
    _count_calls(monkeypatch, groups, "_products", counts)
    np.testing.assert_array_equal(law[rows, cols], want)
    assert counts == {"_products": 2}


_ATOMS_AT_THE_LIMIT = ("C4096", "D4096", "Q4096", "M4096", "H2197")


@pytest.mark.parametrize("argv", [(command, name) for name in _ATOMS_AT_THE_LIMIT
                                  for command in ("omega", "cp2")]
                         + [("compare", "C4096", "M4096"), ("compare", "D4096", "Q4096"),
                            ("compare", "H2197", "M2197")],
                         ids=" ".join)
def test_omega_cp2_and_compare_of_an_atom_at_the_limit_write_no_table(capsys, monkeypatch, argv):
    # each product is read from the atom's law, so its 19-64 MB table is never
    # written; the reference is the table route, each table written first
    command, *names = argv
    reference = [group_from_text(name) for name in names]
    for g in reference:
        g.table
    render = cli._render_compare if command == "compare" else cli._RENDERERS[command]
    want = render(*reference)
    del reference

    def refuse(*args, **kwargs):
        raise AssertionError("omega, cp2 and compare of an atom write no table")
    for writer in ("_metacyclic_table", "_heisenberg_table", "_product"):
        monkeypatch.setattr(groups, writer, refuse)
    code, peak = _peak_bytes(lambda: cli_main(list(argv)))
    assert (code, capsys.readouterr().out) == (0, want)
    assert peak <= 16 * MB


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


# --- subgroups from generators: the cover -------------------------------------
# At _BLOCK_ENTRIES = 1 every set of two or more elements is checked and grown
# by the cover, not by a gather of its products.

@given(group_names, st.data())
@settings(max_examples=60, deadline=None)
def test_cover_closure_matches_the_oracle(name, data):
    g = group_from_text(name)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    with patch.object(groups, "_BLOCK_ENTRIES", 1):
        sub = closure(g, seed)
    assert list(sub.members) == naive_closure(table_of(g), seed)


@st.composite
def subsets_holding_0(draw):
    """A group of ``group_names`` and a subset holding 0 whose size divides
    its order: a subgroup, a subgroup with one member traded for an outsider,
    or any such subset."""
    g = group_from_text(draw(group_names))
    n = g.order
    kind = draw(st.sampled_from(["subgroup", "traded", "any"]))
    if kind == "any":
        size = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        rest = draw(st.lists(st.integers(1, n - 1), min_size=size - 1, max_size=size - 1,
                             unique=True)) if n > 1 else []
        return g, sorted({0, *rest})
    members = set(closure(g, draw(st.lists(st.integers(0, n - 1), max_size=3))).members)
    outside = sorted(set(range(n)) - members)
    if kind == "traded" and len(members) > 1 and outside:
        members.remove(draw(st.sampled_from(sorted(members - {0}))))
        members.add(draw(st.sampled_from(outside)))
    return g, sorted(members)


# groups of 512 or 729 elements in which one element generates up to half
# or a third of the group: its closure is a proper subgroup of over 128 members
LARGE_SUBSET_GROUPS = ("C2*C256", "D512", "Q512", "M512", "C3*C243", "M729")


@st.composite
def subsets_of_over_128_holding_0(draw):
    """A group of ``LARGE_SUBSET_GROUPS`` and a proper subset holding 0 of
    over 128 members whose size divides its order: a subgroup, one with a
    member traded for an outsider, or any such subset."""
    g = group_from_text(draw(st.sampled_from(LARGE_SUBSET_GROUPS)))
    n = g.order
    kind = draw(st.sampled_from(["subgroup", "traded", "any"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "any":
        size = draw(st.sampled_from([d for d in range(129, n) if n % d == 0]))
        return g, sorted({0, *rng.sample(range(1, n), size - 1)})
    members = closure(g, draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2))).members
    assume(128 < members.size < n)
    members = set(members.tolist())
    if kind == "traded":
        members.remove(rng.choice(sorted(members - {0})))
        members.add(rng.choice(sorted(set(range(n)) - members)))
    return g, sorted(members)


@given(st.one_of(subsets_holding_0(), subsets_of_over_128_holding_0()),
       st.sampled_from([1, 1 << 12, groups._BLOCK_ENTRIES]))
@settings(max_examples=120, deadline=None)
def test_subgroup_accepts_exactly_the_closed_subsets(drawn, block):
    # one route, a cover stopped at the first product outside the set, proves
    # a set of every size: one of up to 128 members was gathered instead
    g, members = drawn
    with patch.object(groups, "_BLOCK_ENTRIES", block):
        try:
            Subgroup(g, tuple(members))
            message = None
        except GroupError as exc:
            message = str(exc)
    closed = naive_is_closed(table_of(g), members)
    assert message == (None if closed else "subset is not closed under multiplication")


def _light(g):
    groups._check_assoc_light(g.table)


@pytest.mark.parametrize("name,run", [
    ("C4096", _light), ("M4096", _light),
    ("C4096", lambda g: closure(g, [1])), ("M4096", lambda g: closure(g, [1, 2048]))],
    ids=["light-C4096", "light-M4096", "closure-C4096", "closure-M4096"])
def test_cover_rounds_are_logarithmic(monkeypatch, name, run):
    # Light's test added one product per round: 4095 rounds on C4096
    g = group_from_text(name)
    rounds = []
    step = groups._cover_round
    monkeypatch.setattr(groups, "_cover_round", lambda *args: rounds.append(1) or step(*args))
    result = run(g)
    assert result is None or len(result) == g.order
    assert 0 < len(rounds) <= 2 * math.log2(g.order)


@pytest.mark.parametrize("name", ["D4096", "Q4096", "D2048*C2"])
def test_omega_of_involution_generators_takes_logarithmic_rounds(monkeypatch, name):
    # Omega_1(D4096) is generated by involutions: the products of two
    # reflections grew the rotations by one element a round, 2131 rounds
    g = group_from_text(name)
    rounds = []
    step = groups._cover_round
    monkeypatch.setattr(groups, "_cover_round", lambda *args: rounds.append(1) or step(*args))
    assert omega_filtration(g).order == g.order
    assert 0 < len(rounds) <= 12 * math.log2(g.order)


# --- chained covers: each subgroup of a nested chain grown from the one below ---

def _record_rounds(monkeypatch) -> list[int]:
    """The size of the stop mask of each ``_cover_round`` call, 0 for none."""
    stops = []
    step = groups._cover_round

    def counted(products, covered, frontier, by, stop_inside):
        stops.append(0 if stop_inside is None else int(stop_inside.sum()))
        return step(products, covered, frontier, by, stop_inside)
    monkeypatch.setattr(groups, "_cover_round", counted)
    return stops


@st.composite
def _held_and_seed(draw):
    name = draw(group_names)
    seeds = st.lists(st.integers(0, group_from_text(name).order - 1), max_size=3)
    return name, draw(seeds), draw(seeds), draw(st.integers(0, 6))


@given(_held_and_seed(), st.sampled_from([None, 1]))
@example(("D8", [4], [5], 0), 1)  # <s> keeps no generators: <s>·<s r> is no subgroup
@settings(max_examples=100, deadline=None)
def test_closure_of_a_subgroup_and_a_seed_is_the_naive_closure(drawn, block):
    # at one-entry blocks every group is read from its law and every set
    # grown by the chain; at the default block a written table's small sets
    # are grown by their products until none leaves them, and keep no
    # generators, as a kept Omega level does not: both regrow theirs, on a
    # written table by the chain too at one-entry blocks
    name, first, more, level = drawn
    gathered = closure(group_from_text(name), first)
    assert gathered._gens == ()
    with patch.object(groups, "_BLOCK_ENTRIES", block or groups._BLOCK_ENTRIES):
        g = group_from_text(name)
        held = closure(g, first)
        grown = closure(held, more)
        regrown = closure(Subgroup(g, held.members), more)  # no generators kept
        from_gathered = closure(gathered, more)
        kept = None
        if g.order > 1 and groups.prime_power(g.order):
            omega_filtration(g)
            kept = omega_subgroup(g, level)
            assert kept._gens == ()
            from_kept = closure(kept, more)
    table = table_of(g)
    want = naive_closure(table, [*held.members, *more])
    assert list(grown.members) == want == list(regrown.members) == list(from_gathered.members)
    assert grown.parent is g is regrown.parent
    if kept is not None:
        assert list(from_kept.members) == naive_closure(table, [*kept.members, *more])


@given(p_group_names, st.sampled_from([None, 1]))
@settings(max_examples=60, deadline=None)
def test_each_filtration_level_is_the_unchained_closure_of_its_set(name, block):
    with patch.object(groups, "_BLOCK_ENTRIES", block or groups._BLOCK_ENTRIES):
        chained = omega_filtration(group_from_text(name))
        g = group_from_text(name)
        want = [closure(g, omega_set(g, i)).members.tolist() for i in range(chained.m + 1)]
    assert [level.members.tolist() for level in chained.levels] == want


@pytest.mark.parametrize("name", ["C4096", "D4096", "Q4096", "M4096", "M2187", "H2197",
                                  "Q2048*C2"])
def test_each_filtration_level_at_the_limit_is_the_unchained_closure(name):
    chained = omega_filtration(group_from_text(name))
    g = group_from_text(name)
    for i, level in enumerate(chained.levels):
        assert np.array_equal(level.members, closure(g, omega_set(g, i)).members), i
    assert g._table is None


@pytest.mark.parametrize("run", [omega_filtration, is_cp2_pairwise], ids=["omega", "cp2"])
def test_the_nested_subgroups_of_m4096_take_one_chain_of_rounds(monkeypatch, run):
    # each Omega level and each sublevel set was covered from the identity,
    # and the Omega levels proved closed once more: 46 rounds each
    stops = _record_rounds(monkeypatch)
    run(group_from_text("M4096"))
    assert 0 < len(stops) <= 24


def test_a_dimino_step_keeps_one_generator_per_step():
    # the squares of a of order 729 never fall into the cover at p = 3, and
    # kept as generators they multiplied every later round: cp2 of M2187
    # read 65610 products with them, 16284 without
    g = group_from_text("M2187")
    sub = closure(g, [1])
    assert len(sub) == 729 and sub._gens == (1,)
    grown = closure(sub, [729])
    assert len(grown) == g.order and grown._gens == (1, 729)


@pytest.mark.parametrize("name,open_size", [("D4096", 2050), ("Q4096", 2052)])
def test_cp2_refuses_an_open_sublevel_set_by_lagrange_before_covering_it(
        monkeypatch, name, open_size):
    # S_2 of D4096 and S_4 of Q4096 are open, and their sizes divide no 4096:
    # covering them first took 5 and 7 rounds
    g = group_from_text(name)
    orders = g.element_orders
    assert open_size in {int((orders <= m).sum()) for m in np.unique(orders)}
    stops = _record_rounds(monkeypatch)
    assert not is_cp2_pairwise(g).is_cp2
    assert all(g.order % size == 0 for size in stops) and open_size not in stops


@pytest.mark.parametrize("command", ["omega", "cp2", "compare"])
def test_a_product_side_inside_a_large_product_is_read_from_its_own_sides(command):
    # D16*Q16*C16 is D16 | Q16*C16: the side Q16*C16 wrote its 256 KB table
    # to be scanned and closed level by level; Q16 and C16 write their own
    built = []
    build = expr.build_group
    with patch.object(expr, "build_group", lambda e: built.append(build(e)) or built[-1]):
        argv = [command, "D16*Q16*C16"] + (["C64*C64"] if command == "compare" else [])
        assert cli_main(argv) == 0
    side = built[0]._law.right
    assert side.name == "Q16*C16" and side._table is None
    alone = group_from_text("Q16*C16")  # a group of one block standing alone: its table
    is_cp2_pairwise(alone)
    assert alone._table is not None


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
    # a product writes its table on the first read: inside the window
    table, peak = _peak_bytes(lambda: group_from_text(name).table)
    assert table.shape == (4096, 4096)
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


@pytest.mark.parametrize("names", [["C2"] * 12, ["Q2048", "C2"], ["C4"] * 6],
                         ids=["C2^12", "Q2048*C2", "C4^6"])
def test_direct_product_holds_what_the_order_check_budgets(names):
    # folded from the right, C2^12 held its 2048-element partial product
    # beside the output, and Q2048*C2 a scaled copy of Q2048: 80 MB each
    factors = [group_from_text(name) for name in names]
    for f in factors:
        f.table  # an atom writes its table on the first read: before tracing
    # the product's table is written on its first read: inside the window
    table, peak = _peak_bytes(lambda: direct_product(*factors).table)
    n = table.shape[0]
    assert table.shape == (4096, 4096)
    assert peak <= 4 * n * n + 8 * max(n, groups._BLOCK_ENTRIES)


def test_heisenberg_build_holds_the_table_and_small_terms():
    # a 19 MB table; the broadcast's two terms hold 13^4 entries each.  The
    # table is written on its first read: inside the window
    table, peak = _peak_bytes(lambda: group_from_text("H2197").table)
    assert table.shape == (2197, 2197)
    assert peak <= 24 * MB


@pytest.mark.parametrize("name", ["C4096", "D4096", "Q4096", "M4096", "H2197"])
def test_building_an_atom_at_the_limit_writes_no_table(name):
    # the closed-form orders are 32 KB at most; the table waits for its first read
    g, peak = _peak_bytes(lambda: group_from_text(name))
    assert g._table is None
    assert peak <= MB


@pytest.mark.parametrize("name", ["M4096", "C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2"])
def test_pair_scan_at_order_4096_holds_one_block(name):
    g = group_from_text(name)
    g.table  # a product writes its table on the first read: before tracing
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
    g.table  # a product writes its table on the first read: before tracing
    h, peak = _peak_bytes(lambda: group_from_table("untrusted", g.table))
    assert np.array_equal(h.element_orders, g.element_orders)
    assert peak <= 12 * MB


def test_untrusted_validation_at_order_1024_holds_one_block():
    # one block is the whole 4 MB table: Light's test holds one (xg)y and
    # x(gy) pair, where two pairs at once peak at 17 MB
    g = group_from_text("C32*C32")
    g.table  # a product writes its table on the first read: before tracing
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
    g.table  # a product writes its table on the first read: before tracing
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
    assert sub.members.tolist() == list(range(4096))
    assert peak <= MB


def test_pair_scan_of_c2_12_reads_no_products():
    # every element but the identity has the top order 2
    g = group_from_text("*".join(["C2"] * 12))
    g.table  # a product writes its table on the first read: before tracing
    report, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert report.is_cp2
    assert peak <= MB


def test_pair_scan_of_m4096_holds_half_a_full_scan():
    # half of M4096 has the top order 2048; a scan of every pair peaks at 10 MB
    g = group_from_text("M4096")
    g.table  # an atom writes its table on the first read: before tracing
    report, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert report.is_cp2
    assert peak <= 5 * MB


def _record_power_exponents(monkeypatch) -> list[int]:
    seen = []
    power = groups._power
    monkeypatch.setattr(groups, "_power",
                        lambda products, n, e: seen.append(e) or power(products, n, e))
    return seen


@pytest.mark.parametrize("name", ["C8", "D8", "Q16", "H27", "M27", "C6", "C3*D8", "C1"])
def test_power_map_takes_the_exponent_mod_the_order(monkeypatch, name):
    # x^n = 1 by Lagrange, so the kernel never needs an exponent of n or more
    g = group_from_text(name)
    e = 2**4096 + 3
    unbounded = groups._power(g.table, g.order, e)
    seen = _record_power_exponents(monkeypatch)
    _same_bytes(power_map(g, e), unbounded)
    assert seen and all(k < g.order for k in seen)


@pytest.mark.parametrize("name", ["C8", "D8", "Q16", "H27", "M27", "C9*C3"])
def test_omega_set_takes_the_exponent_mod_the_order(monkeypatch, name):
    g = group_from_text(name)
    seen = _record_power_exponents(monkeypatch)
    assert omega_set(g, 5000).tolist() == list(range(g.order))
    assert seen and all(k < g.order for k in seen)


def test_omega_filtration_reads_one_pth_power_map(monkeypatch):
    # x^(2^i) was a power map of its own at each level, 78 law reads for
    # M4096, then one p-th power map per level, 12: the group keeps its map
    g = group_from_text("M4096")
    seen = _record_power_exponents(monkeypatch)
    assert omega_filtration(g).m == 11
    assert seen == [2]
    assert not g._pth_power.flags.writeable
    assert np.array_equal(omega_set(g, 3), omega_set(group_from_text("M4096"), 3))
    assert seen == [2, 2]


@given(group_names, st.integers(0, 2**70 + 5))
@settings(max_examples=60, deadline=None)
def test_power_map_depends_on_the_exponent_mod_the_order(name, e):
    g = group_from_text(name)
    result = power_map(g, e)
    _same_bytes(result, power_map(g, e % g.order))
    _same_bytes(result, groups._power(g.table, g.order, e))


@pytest.mark.parametrize("name", ["D8", "Q16*C2", "M27*C3", "C3*D8"])
def test_quotient_decides_normality_once_per_subgroup(monkeypatch, name):
    calls = []
    decide = groups.is_normal
    monkeypatch.setattr(groups, "is_normal", lambda sub: (
        calls.append(tuple(sub.members.tolist())) or decide(sub)))
    g = group_from_text(name)
    table = table_of(g)
    cyclic = sorted({tuple(closure(g, [x]).members.tolist()) for x in range(g.order)})
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
    for members in sorted({tuple(closure(g, [x]).members.tolist()) for x in range(g.order)}):
        normal = naive_is_normal(table, members)
        assert is_normal(Subgroup(g, members)) == normal, members
        if normal:
            q = quotient(Subgroup(g, members))
            assert q.table.tolist() == naive_quotient_table(table, members), members


def test_coset_minima_at_order_4096_hold_one_block():
    # Omega_(m-1)(D2048*C2) is the whole group: an n x |N| gather held 64 MB.
    # The minima are gathered from the table, written before tracing
    g = group_from_text("D2048*C2")
    g.table
    sub = omega_subgroup(g, exponent_log(g)[1] - 1)
    assert len(sub) == g.order
    normal, peak = _peak_bytes(lambda: is_normal(sub))
    assert normal and peak <= 8 * MB
    q, peak = _peak_bytes(lambda: quotient(sub))
    assert q.order == 1 and peak <= 8 * MB


def test_omega_filtration_at_order_4096_holds_one_block():
    g = group_from_text("C64*C64")
    g.table  # a product writes its table on the first read: before tracing
    filtration, peak = _peak_bytes(lambda: omega_filtration(g))
    assert filtration.levels[-1].subgroup_size == 4096
    assert peak <= 24 * MB


_LARGE_EXPECTED = json.loads((Path(__file__).parent.parent / "perfbench" / "expected.json")
                             .read_text())["large-table"]


@pytest.mark.parametrize("argv", [
    (command, name) for name in ("C64*C64", "D16*Q16*C16", "*".join(["C2"] * 12), "H27*C81")
    for command in ("omega", "cp2")] + [("compare", "C64*C64", "D16*Q16*C16")],
    ids=lambda argv: " ".join(argv).replace("*".join(["C2"] * 12), "C2^12"))
def test_omega_cp2_and_compare_of_a_product_at_order_4096_hold_two_blocks(
        capsys, monkeypatch, argv):
    # the product's 64 MB table is never written: the filtration is folded
    # from its sides' and the pair scan reads their tables one block at a
    # time; a side of at most one row block writes its own table
    write = groups._product

    def refuse_large(law):
        if (law.left.order * law.right.order) ** 2 > groups._BLOCK_ENTRIES:
            raise AssertionError("omega, cp2 and compare of a large product write no table")
        return write(law)
    built = []

    def build(text):
        built.append(group_from_text(text))
        return built[-1]
    monkeypatch.setattr(groups, "_product", refuse_large)
    monkeypatch.setattr(cli, "group_from_text", build)
    code, peak = _peak_bytes(lambda: cli_main(list(argv)))
    assert (code, capsys.readouterr().out) == (0, _LARGE_EXPECTED[" ".join(argv)])
    assert peak <= 16 * MB
    assert built and all(g._table is None for g in built)


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
