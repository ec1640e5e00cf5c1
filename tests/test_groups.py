import gc
import random
import tracemalloc
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigroups import (
    GroupBuildError,
    GroupError,
    Subgroup,
    TableFormatError,
    build_catalog,
    closure,
    direct_product,
    group_from_table,
    group_from_text,
    is_normal,
    max_table_order,
    omega_filtration,
    omega_set,
    omega_subgroup,
    order_spectrum,
    parse_group_table,
    power_map,
    psi_bottom_recursion,
    psi_brute,
    quotient,
)
from psigroups import groups
from psigroups.catalog import DEFAULT_CATALOGS
from psigroups.groups import prime_power
from oracle import (
    naive_closure,
    naive_gt1_text,
    naive_is_associative,
    naive_is_group,
    naive_is_normal,
    naive_latin_fault,
    naive_order,
    naive_parse_gt1,
    naive_power,
    naive_quotient_table,
    naive_spectrum,
    switch_intercalate,
    table_of,
)
from strategies import ATOMS, group_names, gt1_bytes, gt1_mutants, names_by_order


# --- constructors -----------------------------------------------------------

def test_cyclic_four_orders():
    g = group_from_text("C4")
    assert g.order == 4
    assert sorted(int(o) for o in g.element_orders) == [1, 2, 4, 4]


def test_h27_is_nonabelian_of_exponent_three():
    g = group_from_text("H27")
    assert g.order == 27
    assert not g.is_abelian
    assert max(int(o) for o in g.element_orders) == 3


def test_counterexample_group_has_exponent_eight():
    g = group_from_text("D16*C2*C2*C2*C2")
    assert g.order == 256
    # exponent via brute-force max element order over the product table
    table = table_of(g)
    assert max(naive_order(table, x) for x in range(g.order)) == 8


@pytest.mark.parametrize("text", ["Q12", "H8", "H16", "D5", "D2", "M4", "M12", "Q4", "M1", "H1"])
def test_constructor_domain_errors(text):
    with pytest.raises(GroupBuildError):
        group_from_text(text)


def test_order_limit_enforced(monkeypatch):
    monkeypatch.setenv("PSIGROUPS_MAX_ORDER", "32")
    assert max_table_order() == 32
    group_from_text("C32")
    with pytest.raises(GroupBuildError):
        group_from_text("C33")
    with pytest.raises(GroupBuildError):
        group_from_text("C16*C4")


@given(group_names)
@settings(max_examples=40)
def test_built_groups_are_groups(name):
    g = group_from_text(name)
    assert g.name == name
    t = table_of(g)
    if g.order <= 24:
        assert naive_is_group(t)
    assert t[0] == list(range(g.order))
    assert [t[i][0] for i in range(g.order)] == list(range(g.order))
    for x in range(g.order):
        assert int(g.element_orders[x]) == naive_order(t, x)
    for e in (0, 1, 2, 3, g.order):
        assert power_map(g, e).tolist() == [naive_power(t, x, e) for x in range(g.order)]


@given(group_names)
@settings(max_examples=60, deadline=None)
def test_is_abelian_from_the_law_is_the_transpose_compare(name):
    # an atom or product decides it from its law, with no table written; the
    # same table wrapped from outside has no law and compares its transpose
    g = group_from_text(name)
    abelian = g.is_abelian
    assert g._table is None
    table = g.table
    assert abelian == np.array_equal(table, table.T)
    assert group_from_table(name, table).is_abelian == abelian


@pytest.mark.parametrize("left, right", [("D8", "Q8"), ("C3", "H27"), ("M16", "C2"), ("C1", "D8")])
def test_direct_product_multiplies_componentwise(left, right):
    a, b = group_from_text(left), group_from_text(right)
    g = direct_product(a, b)
    x = np.arange(g.order)[:, None]
    y = np.arange(g.order)[None, :]
    nb = b.order
    expected = a.table[x // nb, y // nb] * nb + b.table[x % nb, y % nb]
    assert g.table.dtype == np.int32
    assert np.array_equal(g.table, expected)


@pytest.mark.parametrize("k", [8, 16, 27, 32, 81, 125, 256])
def test_modular_group_follows_its_normal_form(k):
    # a^i b^e at index e * p^(j-1) + i, with b^-1 a b = a^s, so b^e a^i = a^(i t^e) b^e, t = 1/s
    p, j = prime_power(k)
    mc = p ** (j - 1)
    t = pow(1 + p ** (j - 2), -1, mc)
    table = group_from_text(f"M{k}").table
    for x in range(k):
        e1, i1 = divmod(x, mc)
        for y in range(k):
            e2, i2 = divmod(y, mc)
            assert table[x, y] == (e1 + e2) % p * mc + (i1 + i2 * pow(t, e1, mc)) % mc


def test_immutable_table():
    g = group_from_text("C4")
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


# --- element orders and spectra ---------------------------------------------

def test_identity_has_order_one():
    for name in ["C4", "D8", "Q8", "H27"]:
        assert group_from_text(name).element_orders[0] == 1


def test_cyclic_generator_order():
    assert group_from_text("C4").element_orders[1] == 4


def test_d16_reflections_have_order_two():
    g = group_from_text("D16")
    for x in range(8, 16):
        assert g.element_orders[x] == 2


@pytest.mark.parametrize("fn, arg, kept, message", [
    pytest.param(power_map, 2.5, False, "exponent must be an integer, got 2.5", id="power-float"),
    pytest.param(power_map, -1, False, "exponent must be nonnegative", id="power-negative"),
    pytest.param(omega_set, 1.5, False, "omega level must be an integer", id="set-float"),
    pytest.param(omega_set, -1, False, "omega level must be nonnegative", id="set-negative"),
    pytest.param(omega_subgroup, 1.0, False, "omega level must be an integer", id="sub-float"),
    pytest.param(omega_subgroup, 1.0, True, "omega level must be an integer", id="kept-sub-float"),
    pytest.param(omega_subgroup, -1, False, "omega level must be nonnegative", id="sub-negative"),
    pytest.param(omega_subgroup, -1, True, "omega level must be nonnegative",
                 id="kept-sub-negative"),
])
def test_an_exponent_level_or_index_that_is_no_natural_number_is_a_group_error(
        fn, arg, kept, message):
    g = group_from_text("C8")
    if kept:
        omega_filtration(g)
    with pytest.raises(GroupError, match=message):
        fn(g, arg)


@pytest.mark.parametrize("name,expected", [
    ("C4", {1: 1, 2: 1, 4: 2}),
    ("H27", {1: 1, 3: 26}),
    ("D16", {1: 1, 2: 9, 4: 2, 8: 4}),
])
def test_order_spectrum_examples(name, expected):
    g = group_from_text(name)
    assert order_spectrum(g.element_orders) == expected
    assert naive_spectrum(table_of(g)) == expected


@given(group_names)
@settings(max_examples=30)
def test_spectrum_counts_sum_to_order(name):
    g = group_from_text(name)
    spectrum = order_spectrum(g.element_orders)
    assert sum(spectrum.values()) == g.order
    assert spectrum[1] == 1


# --- closure ----------------------------------------------------------------

def test_closure_of_empty_seed_is_trivial():
    sub = closure(group_from_text("C4"), [])
    assert sub.members.tolist() == [0]


def test_closure_of_d8_involutions_is_whole_group():
    g = group_from_text("D8")
    seed = [x for x in range(8) if g.element_orders[x] <= 2]
    assert len(seed) == 6
    assert len(closure(g, seed)) == 8


def test_closure_of_q8_involutions_is_tiny():
    g = group_from_text("Q8")
    seed = [x for x in range(8) if power_map(g, 2)[x] == 0]
    assert len(closure(g, seed)) == 2


@given(group_names, st.data())
@settings(max_examples=40)
def test_closure_of_random_seeds_matches_oracle(name, data):
    g = group_from_text(name)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    sub = closure(g, seed)
    assert list(sub.members) == naive_closure(table_of(g), seed)
    # an already closed seed comes back unchanged
    assert np.array_equal(closure(g, sub.members).members, sub.members)


def test_closure_and_subgroup_check_at_order_4096():
    # C2^12 with lexicographic indexing multiplies by xor: table[x, y] = x ^ y
    g = group_from_text("*".join(["C2"] * 12))
    assert closure(g, [2**b for b in range(1, 12)]).members.tolist() == list(range(0, 4096, 2))
    assert closure(g, range(2049)).members.tolist() == list(range(4096))
    with pytest.raises(GroupError, match="not closed under multiplication"):
        Subgroup(g, tuple(range(0, 4094, 2)) + (4095,))


def test_closure_index_out_of_range():
    with pytest.raises(IndexError):
        closure(group_from_text("C4"), [5])


def test_closure_rejects_a_seed_that_is_not_an_integer():
    # truncated, 2.7 would have seeded <2>
    with pytest.raises(GroupError, match="seed indices must be integers, got float64"):
        closure(group_from_text("C8"), [2.7])


@given(group_names)
@settings(max_examples=25)
def test_closure_matches_oracle_and_is_idempotent(name):
    g = group_from_text(name)
    seed = [x for x in range(0, g.order, 3)]
    sub = closure(g, seed)
    assert list(sub.members) == naive_closure(table_of(g), seed)
    again = closure(g, sub.members)
    assert np.array_equal(again.members, sub.members)
    assert g.order % len(sub) == 0  # Lagrange


# --- subgroups and normality -------------------------------------------------

def test_subgroup_validation_rejects_non_closed():
    g = group_from_text("C4")
    with pytest.raises(ValueError):
        Subgroup(g, (0, 1))  # 1+1=2 missing


def test_subgroup_rejects_members_that_are_not_integers():
    # truncated, (0, 4.5) would have passed as (0, 4) and had a quotient of order 4
    with pytest.raises(GroupError, match="subgroup member indices must be integers"):
        Subgroup(group_from_text("C8"), (0, 4.5))


def test_trivial_subgroup_is_normal():
    g = group_from_text("D8")
    assert is_normal(closure(g, []))


def test_d8_center_is_normal():
    g = group_from_text("D8")
    center = Subgroup(g, (0, 2))  # {1, r^2}
    assert is_normal(center)
    assert naive_is_normal(table_of(g), [0, 2])


def test_d8_reflection_subgroup_is_not_normal():
    g = group_from_text("D8")
    sub = closure(g, [4])  # <s>, a reflection
    assert sub.members.tolist() == [0, 4]
    assert not is_normal(sub)
    assert not naive_is_normal(table_of(g), [0, 4])


@given(group_names, st.data())
@settings(max_examples=40)
def test_is_normal_matches_oracle(name, data):
    g = group_from_text(name)
    sub = closure(g, data.draw(st.lists(st.integers(0, g.order - 1), max_size=3)))
    assert is_normal(sub) == naive_is_normal(table_of(g), sub.members)


@pytest.mark.parametrize("name", ["D16", "Q16", "M16", "M27", "H27", "D8*C2"])
def test_is_normal_matches_oracle_on_every_cyclic_subgroup(name):
    g = group_from_text(name)
    t = table_of(g)
    verdicts = set()
    for x in range(g.order):
        sub = closure(g, [x])
        verdict = naive_is_normal(t, sub.members)
        assert is_normal(sub) == verdict, x
        verdicts.add(verdict)
    assert verdicts == {True, False}  # both sides of the coset criterion


@given(group_names)
@settings(max_examples=40, deadline=None)
def test_is_normal_and_quotient_match_the_oracle_on_every_cyclic_subgroup(name):
    g = group_from_text(name)
    t = table_of(g)
    for members in sorted({tuple(closure(g, [x]).members.tolist()) for x in range(g.order)}):
        sub = Subgroup(g, members)
        normal = naive_is_normal(t, members)
        assert is_normal(sub) == normal, members
        if normal:
            assert quotient(sub).table.tolist() == naive_quotient_table(t, members), members


def test_subgroup_as_group_restricts_table():
    g = group_from_text("C8")
    sub = closure(g, [2])
    h = sub.as_group()
    assert h.order == 4
    assert sorted(int(o) for o in h.element_orders) == [1, 2, 4, 4]


# --- quotients ----------------------------------------------------------------

def test_quotient_c4_by_c2():
    g = group_from_text("C4")
    q = quotient(Subgroup(g, (0, 2)))
    assert q.order == 2
    assert int(q.element_orders.sum()) == 3


def test_quotient_c8_by_omega1_is_cyclic():
    g = group_from_text("C8")
    q = quotient(closure(g, [4]))
    assert q.order == 4
    assert max(int(o) for o in q.element_orders) == 4


def test_quotient_q8_by_center_has_exponent_two():
    g = group_from_text("Q8")
    q = quotient(Subgroup(g, (0, 2)))
    assert q.order == 4
    assert max(int(o) for o in q.element_orders) == 2


def test_quotient_rejects_non_normal():
    from psigroups import NotNormalError

    g = group_from_text("D8")
    with pytest.raises(NotNormalError):
        quotient(closure(g, [4]))


def test_kept_quotients_by_different_subgroups_differ():
    g = group_from_text("D8")  # indices 0..3 are r^i, 4..7 are s r^i
    by_centre = quotient(closure(g, [2]))
    by_rotations = quotient(closure(g, [1]))
    assert by_centre.order == 4 and by_centre.is_abelian
    assert sorted(by_centre.element_orders.tolist()) == [1, 2, 2, 2]  # C2 x C2
    assert by_rotations.table.tolist() == [[0, 1], [1, 0]]
    # a later call, with an equal subgroup object or the same one, gets the kept group
    assert quotient(closure(g, [2])) is by_centre
    assert quotient(Subgroup(g, (0, 1, 2, 3))) is by_rotations
    fresh = group_from_text("D8")
    assert np.array_equal(quotient(closure(fresh, [2])).table, by_centre.table)


def test_subgroup_members_as_a_list_or_an_array_key_the_kept_quotient():
    g = group_from_text("C8")
    by_tuple = quotient(Subgroup(g, (0, 2, 4, 6)))
    for members in ([0, 2, 4, 6], np.array([0, 2, 4, 6])):
        sub = Subgroup(g, members)
        members[1] = 3  # the caller's list or array changes after: the members are a copy
        assert sub.members.tolist() == [0, 2, 4, 6]
        assert sub.members.dtype == np.intp and not sub.members.flags.writeable
        assert quotient(sub) is by_tuple


def test_kept_quotients_keep_every_check():
    from psigroups import NotNormalError

    g = group_from_text("D8")
    quotient(closure(g, [2]))
    quotient(closure(g, [1]))
    for _ in range(2):  # a refusal is not kept either
        with pytest.raises(NotNormalError):
            quotient(closure(g, [4]))
    other = group_from_text("D8")
    # the members of a kept key of g, but a subgroup of other: kept on other
    by_centre = quotient(closure(other, [2]))
    assert by_centre is not quotient(closure(g, [2]))
    assert other._quotients == {np.array([0, 2], dtype=np.intp).tobytes(): by_centre}


def test_kept_results_hold_no_reference_to_the_group():
    # a kept value that pointed back at the group (a Subgroup, say) would make
    # a cycle, and the group would outlive its last reference
    g = group_from_text("Q8*C4")  # CP2, so the bottom route runs
    ref = weakref.ref(g)
    gc.disable()
    try:
        omega_filtration(g)
        omega_subgroup(g, 1)
        omega_filtration(quotient(omega_subgroup(g, 1)))
        assert psi_bottom_recursion(g) == psi_brute(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


@given(group_names)
@settings(max_examples=20)
def test_quotient_by_whole_group_is_trivial(name):
    g = group_from_text(name)
    q = quotient(closure(g, range(g.order)))
    assert q.order == 1


# --- GT1 serialization ---------------------------------------------------------

def test_serialize_c2_exact_bytes():
    assert gt1_bytes(group_from_text("C2")) == b"GT1 2\n0 1\n1 0\n"


def test_round_trip_d8():
    g = group_from_text("D8")
    h = parse_group_table(gt1_bytes(g))
    assert np.array_equal(g.table, h.table)


@given(group_names)
@settings(max_examples=25)
def test_round_trip_is_identity_on_tables(name):
    g = group_from_text(name)
    data = gt1_bytes(g)
    for text in (data, data.decode("ascii")):
        h = parse_group_table(text, name=name)
        assert np.array_equal(g.table, h.table)
        assert np.array_equal(g.element_orders, h.element_orders)


def _naive_gt1_bytes(group) -> bytes:
    return naive_gt1_text(table_of(group)).encode("ascii")


@given(group_names)
@settings(max_examples=40, deadline=None)
def test_export_matches_the_naive_writer(name):
    g = group_from_text(name)
    assert gt1_bytes(g) == _naive_gt1_bytes(g)


@pytest.mark.parametrize("k", [1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_export_matches_the_naive_writer_across_digit_widths(k):
    # entries of 1 to len(str(k - 1)) digits behind the lookup's pad bytes
    g = group_from_text(f"C{k}")
    assert gt1_bytes(g) == _naive_gt1_bytes(g)


@given(group_names, st.sampled_from(["1", "7n"]))
@settings(max_examples=40, deadline=None)
def test_export_matches_the_naive_writer_at_every_block_size(name, block):
    # one row per block, or seven rows with a shorter last block
    g = group_from_text(name)
    with patch.object(groups, "_GT1_BLOCK_TOKENS", 1 if block == "1" else 7 * g.order):
        data = gt1_bytes(g)
    assert data == _naive_gt1_bytes(g)


@pytest.mark.parametrize("text,fragment", [
    ("GT 2\n0 1\n1 0\n", "malformed header"),
    ("GT1 two\n0 1\n1 0\n", "malformed header"),
    ("GT1 2\n0 1\n1 0", "end with a newline"),
    ("GT1 2\n0 1 0\n1 0\n", "expected 2 entries"),
    ("GT1 2\n0 1\n", "expected 2 rows"),
    ("GT1 2\n0 0\n1 0\n", "not a latin square"),
    ("GT1 2\n0 1\n1 2\n", "out of range"),
    ("GT1 2\n1 0\n0 1\n", "identity is not at index 0"),
    ("GT1 2\n0 1\n1 -0\n", "nonnegative decimal"),
    ("GT1 2\n0 1\n1 \u00b2\n", "non-ASCII character at offset 12"),
    ("GT1 \u0662\n0 1\n1 0\n", "non-ASCII character at offset 4"),
    # a lone surrogate is a non-ASCII character, not an encoding error
    ("GT1 1\n\udc80\n", "non-ASCII character at offset 6"),
    # two bad rows: the lower one is reported
    ("GT1 3\n0 1 2\n1 2 x\n2 0\n", "row 1: entries must be nonnegative decimal integers"),
    # a count error and a bad digit in one row: the count is reported
    ("GT1 2\n0 1\n1 x 0\n", "row 1: expected 2 entries, got 3"),
    ("GT1 2\n0 1\n1 1234567890123456789012345\n",
     "row 1: entry 1234567890123456789012345 out of range [0, 2)"),
    ("GT1 2\n0 1\n1 0001234567890123456789012345\n",
     "row 1: entry 1234567890123456789012345 out of range [0, 2)"),
    # more digits than int() converts: still a format error, not a crash
    pytest.param("GT1 2\n0 1\n1 " + "9" * 5000 + "\n",
                 "row 1: entry " + "9" * 5000 + " out of range", id="5000-digit-entry"),
    ("GT1 2\r\n0 1\r\n1 0\r\n", "malformed header: 'GT1 2\\r'"),
    ("GT1 2\n0 1\r\n1 0\r\n", "row 0: entries must be nonnegative decimal integers"),
    ("GT1 2\n0\t1\n1 0\n", "row 0: expected 2 entries, got 1"),
    ("GT1 2\n0 1 \n1 0\n", "row 0: expected 2 entries, got 3"),
    ("GT1 2\n0  1\n1 0\n", "row 0: expected 2 entries, got 3"),
    ("GT1 1\n\n", "row 0: entries must be nonnegative decimal integers"),
    ("GT1 0\n", "group order must be at least 1"),
    # a header order of more digits than int() converts: still a format error
    pytest.param("GT1 " + "0" * 5000 + "\n0 1\n1 0\n", "group order must be at least 1",
                 id="5000-zero-header"),
])
def test_parse_group_table_errors(text, fragment):
    with pytest.raises(TableFormatError) as err:
        parse_group_table(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("order", [
    "5000", "0004097", pytest.param("1" * 5000, id="5000-digit-order")])
def test_parse_group_table_header_over_the_limit(order):
    with pytest.raises(GroupBuildError) as err:
        parse_group_table(f"GT1 {order}\n0\n")
    assert str(err.value) == (
        f"group order {order.lstrip('0')} exceeds table size limit {max_table_order()}")


@pytest.mark.parametrize("text,table", [
    ("GT1 1\n0\n", [[0]]),
    ("GT1 2\n00 001\n1 0\n", [[0, 1], [1, 0]]),
    ("GT1 2\n0 0000000000001\n1 0\n", [[0, 1], [1, 0]]),
    pytest.param("GT1 2\n0 1\n" + "0" * 5000 + "1 0\n", [[0, 1], [1, 0]],
                 id="5000-digit-entry"),
    pytest.param("GT1 " + "0" * 5000 + "2\n0 1\n1 0\n", [[0, 1], [1, 0]],
                 id="5000-digit-header"),
])
def test_parse_group_table_accepts_leading_zeros(text, table):
    assert parse_group_table(text).table.tolist() == table


@pytest.fixture(scope="module")
def c1024_lines():
    return gt1_bytes(group_from_text("C32*C32")).decode("ascii").split("\n")


@pytest.mark.parametrize("edits,message", [
    ({"last": "digit"}, "row {last}: entries must be nonnegative decimal integers"),
    ({"first": "count"}, "row {first}: expected 1024 entries, got 1023"),
    ({"last": "digit", "first": "count"},
     "row {last}: entries must be nonnegative decimal integers"),
])
def test_parse_reports_the_first_bad_row_across_a_block_boundary(c1024_lines, edits, message):
    # n = 1024: row `last` ends one tokeniser block and row `first` starts the next
    first = groups._GT1_BLOCK_TOKENS // 1024
    rows = {"last": first - 1, "first": first}
    lines = list(c1024_lines)
    for at, kind in edits.items():
        tokens = lines[rows[at] + 1].split(" ")
        if kind == "digit":
            tokens[-1] = "x"
        else:
            del tokens[0]
        lines[rows[at] + 1] = " ".join(tokens)
    with pytest.raises(TableFormatError) as err:
        parse_group_table("\n".join(lines))
    assert str(err.value) == message.format(**rows)


def _outcome(parse):
    try:
        return parse()
    except GroupError as exc:
        return type(exc), str(exc)


@given(gt1_mutants(), st.sampled_from([1, 5, 64, groups._GT1_BLOCK_TOKENS]))
@settings(max_examples=300, deadline=None)
def test_parse_group_table_matches_the_naive_parser(text, block):
    with patch.object(groups, "_GT1_BLOCK_TOKENS", block):
        fast = _outcome(lambda: parse_group_table(text))
        as_bytes = _outcome(lambda: parse_group_table(text.encode()))
    if isinstance(fast, tuple) or isinstance(as_bytes, tuple):
        assert as_bytes == fast
    else:
        assert as_bytes.table.tobytes() == fast.table.tobytes()
    naive = _outcome(lambda: naive_parse_gt1(text, max_table_order()))
    if isinstance(naive, list):
        naive_table = naive
        naive = _outcome(lambda: group_from_table("GT1", np.array(naive_table)))
    if isinstance(fast, tuple) or isinstance(naive, tuple):
        assert fast == naive
    else:
        assert fast.table.tolist() == naive_table
        assert fast.element_orders.tolist() == [
            naive_order(naive_table, x) for x in range(fast.order)]


@pytest.mark.parametrize("last", [b"\xff", "\u00e9"], ids=["byte", "character"])
def test_non_ascii_last_byte_of_an_order_1024_export_is_reported_at_its_byte_offset(
        c1024_lines, last):
    text = "\n".join(c1024_lines)
    data = text[:-1] + last if isinstance(last, str) else text.encode()[:-1] + last
    with pytest.raises(TableFormatError) as err:
        parse_group_table(data)
    assert str(err.value) == (f"non-ASCII character at offset {len(text) - 1}: "
                              "GT1 is ASCII text with decimal entries")


def test_parse_group_table_peak_memory_at_order_1024():
    # the table is 4 MB and the text 4 MB; validation alone peaks near 10 MB,
    # in Light's test, which holds one block's (xg)y and x(gy) at a time
    text = gt1_bytes(group_from_text("C32*C32")).decode("ascii")
    tracemalloc.start()
    try:
        parse_group_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_parse_rejects_non_associative_latin_square():
    # a unital latin square of order 5 that is not a group (no associativity);
    # built from a loop: rows 1..4 permuted so that (1*1)*2 != 1*(1*2)
    text = "GT1 5\n0 1 2 3 4\n1 2 0 4 3\n2 3 4 0 1\n3 4 1 2 0\n4 0 3 1 2\n"
    with pytest.raises(TableFormatError) as err:
        parse_group_table(text)
    assert "associativity" in str(err.value)


def test_group_from_table_rejects_non_associative_loop_of_order_1024():
    # C32*C32 with one intercalate switched away from row and column 0: a
    # latin loop with identity 0, so only the associativity check can fail
    table = np.array(switch_intercalate(group_from_text("C32*C32").table, 16, 1, 2))
    with pytest.raises(TableFormatError) as err:
        group_from_table("loop", table)
    assert "associativity" in str(err.value)


# --- the exact validator on every table the library trusts ---------------------

@given(group_names)
@settings(max_examples=40)
def test_constructor_tables_pass_the_exact_validator(name):
    g = group_from_text(name)
    h = group_from_table(name, g.table)
    assert np.array_equal(h.element_orders, g.element_orders)


@pytest.mark.parametrize("p,max_order", DEFAULT_CATALOGS)
def test_catalog_tables_pass_the_exact_validator(p, max_order):
    for entry in build_catalog([p], max_order).entries:
        g = entry.group
        derived = [g, quotient(omega_subgroup(g, 1))]
        derived += [omega_subgroup(g, i).as_group() for i in range(entry.filtration.m + 1)]
        for h in derived:
            assert np.array_equal(group_from_table(h.name, h.table).element_orders,
                                  h.element_orders), h.name


def _small_tables():
    """Every distinct table the expression language builds up to order 16."""
    tables = {}
    for names in names_by_order(ATOMS, 16, 4).values():
        for name in names:
            g = group_from_text(name)
            tables.setdefault(g.table.tobytes(), table_of(g))
    return list(tables.values())


def _switched_copies(table, count, rng):
    """Up to ``count`` tables with one intercalate switched off row/column 0."""
    n = len(table)
    sites = [(u, r, c) for u in range(1, n) if table[u][u] == 0
             for r in range(1, n) for c in range(1, n)
             if table[r][u] != 0 and table[u][c] != 0]
    return [switch_intercalate(table, *site)
            for site in rng.sample(sites, min(count, len(sites)))]


def _light_accepts(table) -> bool:
    try:
        group_from_table("t", table)
    except TableFormatError as exc:
        assert "associativity" in str(exc)
        a, b, c = map(int, str(exc).split("(")[1].rstrip(")").split(","))
        assert table[table[a][b]][c] != table[a][table[b][c]]  # a true witness
        return False
    return True


def test_light_agrees_with_the_triple_loop_on_small_tables_and_switched_copies():
    rng = random.Random(0x5170)
    verdicts = set()
    for table in _small_tables():
        for t in [table, *_switched_copies(table, 6, rng)]:
            verdict = naive_is_associative(t)
            assert _light_accepts(t) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def edited_group_tables(draw):
    """The table of a small group after zero to three edits: set an entry,
    swap two entries of a row, switch an intercalate, or swap element 0 with
    another element (which moves the identity and keeps the table latin)."""
    table = table_of(group_from_text(draw(group_names)))
    n = len(table)
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["set", "swap", "intercalate", "intercalate", "relabel"]))
        if kind == "set":
            table[draw(index)][draw(index)] = draw(index)
        elif kind == "swap":
            row, a, b = table[draw(index)], draw(index), draw(index)
            row[a], row[b] = row[b], row[a]
        elif kind == "intercalate":
            involutions = [u for u in range(1, n) if table[u][u] == 0]
            if involutions:
                u, r, c = draw(st.sampled_from(involutions)), draw(index), draw(index)
                if 0 not in (r, c, table[r][u], table[u][c]):
                    table = switch_intercalate(table, u, r, c)
        elif n > 1:
            k = draw(st.integers(1, n - 1))
            swap = {0: k, k: 0}
            pi = [swap.get(x, x) for x in range(n)]
            table = [[pi[table[pi[a]][pi[b]]] for b in range(n)] for a in range(n)]
    return table


@given(edited_group_tables())
@settings(max_examples=80, deadline=None)
def test_validation_reports_the_first_failing_check(table):
    # the checks' order: latin lines, then the identity row and column, then
    # associativity; a table that passes them all is a group
    n, ids = len(table), list(range(len(table)))
    try:
        g = group_from_table("t", np.array(table))
        message = None
    except TableFormatError as exc:
        message = str(exc)
    fault = naive_latin_fault(table)
    if fault is not None:
        assert message == f"not a latin square: {fault} is not a permutation"
    elif table[0] != ids or [row[0] for row in table] != ids:
        assert message == "identity is not at index 0"
    elif message is not None:
        assert message.startswith("associativity failure at (")
        a, b, c = map(int, message.split("(")[1].rstrip(")").split(","))
        assert table[table[a][b]][c] != table[a][table[b][c]]  # a true witness
    else:
        assert naive_is_group(table)
        assert g.element_orders.tolist() == [naive_order(table, x) for x in range(n)]


def test_light_test_refuses_a_table_needing_over_log2_n_generators():
    # x*y = max(x, y) is associative with identity 0 but not latin: Light's
    # test would take each element as a generator, O(n^3), without the bound
    values = np.arange(512, dtype=np.int32)
    table = np.maximum.outer(values, values)
    with pytest.raises(TableFormatError) as err:
        groups._check_assoc_light(table)
    assert str(err.value) == "not a latin square: over 10 generators needed"
    with pytest.raises(TableFormatError) as err:
        group_from_table("max", table)
    assert str(err.value) == "not a latin square: row 1 is not a permutation"


@pytest.mark.parametrize("name", ["C32*C32", "D16*Q16*C4"])
def test_an_accepted_table_skips_the_latin_check(monkeypatch, name):
    # identity, associativity and orders decide group-ness on their own
    def refuse(table):
        raise AssertionError("the latin check ran on a group table")

    g = group_from_text(name)
    text = gt1_bytes(g)
    monkeypatch.setattr(groups, "_check_latin", refuse)
    assert parse_group_table(text).table.tobytes() == g.table.tobytes()


def test_group_from_table_validates_shape():
    with pytest.raises(TableFormatError):
        group_from_table("bad", [[0, 1], [1, 0], [0, 1]])


@pytest.mark.parametrize("table,message", [
    (np.zeros((0, 0), dtype=np.int32), "table must have at least one element"),
    ([[0.0, 1.0], [1.0, 0.0]], "table entries must be integers, got float64"),
    ([[0, 1], [1, -1]], "table entry out of range [0, n)"),
    ([[0, 1], [1, 2]], "table entry out of range [0, n)"),
], ids=["empty", "float", "negative", "entry-n"])
def test_group_from_table_refuses_a_table_outside_its_domain(table, message):
    with pytest.raises(TableFormatError) as err:
        group_from_table("bad", table)
    assert type(err.value) is TableFormatError and str(err.value) == message


@pytest.mark.parametrize("members,error,message", [
    ((), GroupError, "subgroup must contain the identity"),
    ((1, 2), GroupError, "subgroup must contain index 0 as its first member"),
    ((0, 2, 2), GroupError, "subgroup members must be strictly increasing"),
    ((0, 8), IndexError, "subgroup member 8 out of range for order 8"),
], ids=["empty", "no-identity", "repeated", "out-of-range"])
def test_subgroup_refuses_members_outside_its_domain(members, error, message):
    with pytest.raises(error) as err:
        Subgroup(group_from_text("C8"), members)
    assert type(err.value) is error and str(err.value) == message
