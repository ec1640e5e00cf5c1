"""The n x n kernels: byte-identical tables by a second route, the same
answers at every row-block size, memory bounds at n = 4096 and the refusal
of builds that cannot fit in memory."""

import dataclasses
import os
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psigroups import (
    Catalog,
    Cp2Report,
    GroupBuildError,
    TableFormatError,
    closure,
    direct_product,
    group_from_text,
    groups,
    is_cp2_pairwise,
    omega_filtration,
    omega_subgroup,
    parse_group_table,
    quotient,
)
from psigroups.catalog import make_entry
from psigroups.cli import cli_main
from psigroups.verify import _check_max_order_law
from oracle import (
    naive_closure,
    naive_cp2_witness,
    naive_latin_fault,
    naive_max_order_law_pair,
    table_of,
    whole_direct_product_table,
    whole_modular_table,
)
from strategies import group_names

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
    # the expression builder nests to the right: the same table and name
    built = group_from_text("D16*Q16*C16")
    assert built.name == g.name
    _same_bytes(built.table, g.table)


@pytest.mark.parametrize("k,p,j", [(p**j, p, j) for p in (2, 3, 5, 7)
                                   for j in range(3, 13) if p**j <= 4096])
def test_modular_group_matches_the_whole_table_formula(k, p, j):
    _same_bytes(group_from_text(f"M{k}").table, whole_modular_table(k, p, j))


# --- every row-block size gives the same answer ---------------------------------

# one row per block, and blocks of 7 rows of 96 entries, which split the rows
# of every order below unevenly
BLOCK_ENTRIES = [1, 7 * 96]


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["C12", "D16", "Q16", "H27", "M27", "M16*C2", "D8*C3*C4"])
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


@pytest.mark.parametrize("block", BLOCK_ENTRIES)
@pytest.mark.parametrize("name", ["D8", "C4*C4", "M27", "D16*C2", "Q8*D8", "C9*C3"])
def test_blocked_max_order_law_detail_matches_the_oracle(monkeypatch, block, name):
    # every entry is declared CP2, so the law is checked on groups where it fails
    entry = dataclasses.replace(make_entry(group_from_text(name)),
                                cp2=Cp2Report(is_cp2=True, method="pairwise"))
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    report = _check_max_order_law(Catalog(primes=(2,), max_order=96, entries=(entry,)))
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
    whole = quotient(first, omega_subgroup(first, 1))
    g = group_from_text(name)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    _same_bytes(quotient(g, omega_subgroup(g, 1)).table, whole.table)


# --- memory at the 4096-element limit -------------------------------------------
# The table is 64 MB; a kernel may hold it plus one row block (4-8 MB).

@pytest.mark.parametrize("name", ["C64*C64", "M4096"])
def test_build_at_order_4096_holds_the_table_and_one_block(name):
    g, peak = _peak_bytes(lambda: group_from_text(name))
    assert g.order == 4096
    assert peak <= 72 * MB


@pytest.mark.parametrize("name", ["M4096", "C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2*C2"])
def test_pair_scan_at_order_4096_holds_one_block(name):
    g = group_from_text(name)
    _, peak = _peak_bytes(lambda: is_cp2_pairwise(g))
    assert peak <= 24 * MB


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


def test_refusal_allocates_nothing_large(physical_memory):
    physical_memory(64 * MB)
    tracemalloc.start()
    try:
        with pytest.raises(GroupBuildError):
            group_from_text("C4096")
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
