import numpy as np
import pytest
from hypothesis import given, settings

from psigroups import (
    GroupError,
    NotPGroupError,
    OmegaFiltration,
    OmegaLevel,
    closure,
    exponent,
    exponent_log,
    group_from_text,
    omega_filtration,
    omega_set,
    omega_subgroup,
    prime_of,
    psi_brute,
    psi_subset,
)
from oracle import naive_exponent, naive_omega_set, naive_psi, table_of
from psigroups.catalog import DEFAULT_CATALOGS, catalog_names
from psigroups.groups import prime_power
from strategies import group_names, p_group_names


# --- prime_of ----------------------------------------------------------------

@pytest.mark.parametrize("name,p", [("C27", 3), ("C16*C16", 2), ("H27", 3), ("C125", 5)])
def test_prime_of(name, p):
    assert prime_of(group_from_text(name)) == p


def test_prime_of_rejects_mixed_order():
    with pytest.raises(NotPGroupError):
        prime_of(group_from_text("C12"))


def test_prime_of_rejects_trivial_group():
    with pytest.raises(NotPGroupError):
        prime_of(group_from_text("C1"))


# --- exponent ------------------------------------------------------------------

@pytest.mark.parametrize("name,value", [
    ("C4*C4*C4*C4", 4),
    ("D16*C2*C2*C2*C2", 8),
    ("H27", 3),
    ("C6*C4", 12),  # lcm over a non-p-group
])
def test_exponent_examples(name, value):
    assert exponent(group_from_text(name)) == value


@given(p_group_names)
@settings(max_examples=25)
def test_exponent_matches_oracle(name):
    g = group_from_text(name)
    assert exponent(g) == naive_exponent(table_of(g))


# --- omega sets and subgroups -----------------------------------------------

def test_omega_zero_is_identity_only():
    for name in ["C8", "D8", "H27"]:
        members = omega_set(group_from_text(name), 0)
        assert members.tolist() == [0]
        assert members.dtype == np.intp and not members.flags.writeable


def test_omega_set_d8_level_one():
    assert len(omega_set(group_from_text("D8"), 1)) == 6


def test_omega_set_c4_fourth_power_level_one():
    assert len(omega_set(group_from_text("C4*C4*C4*C4"), 1)) == 16


def test_omega_set_rejects_non_p_group():
    with pytest.raises(NotPGroupError):
        omega_set(group_from_text("C6"), 1)


@pytest.mark.parametrize("name,level,size", [
    ("Q8", 1, 2),
    ("D8", 1, 8),
    ("C8", 2, 4),
])
def test_omega_subgroup_examples(name, level, size):
    assert len(omega_subgroup(group_from_text(name), level)) == size


@given(p_group_names)
@settings(max_examples=20)
def test_omega_sets_match_oracle_and_nest(name):
    g = group_from_text(name)
    p = prime_of(g)
    t = table_of(g)
    previous: tuple[int, ...] = ()
    prev_sub: tuple[int, ...] = ()
    for i in range(4):
        members = omega_set(g, i)
        assert list(members) == naive_omega_set(t, p, i)
        sub = omega_subgroup(g, i)
        assert set(previous) <= set(members)
        assert set(prev_sub) <= set(sub.members)
        assert set(members) <= set(sub.members)
        previous, prev_sub = members, sub.members


def test_omega_of_omega_collapses():
    # Omega_i(Omega_j(G)) = Omega_i(G) for i <= j
    for name in ["C16", "C8*C4", "D16", "Q16", "M16", "C27", "C9*C3", "M27"]:
        g = group_from_text(name)
        filtration = omega_filtration(g)
        for j in range(1, filtration.m + 1):
            sub_j = omega_subgroup(g, j)
            inner = sub_j.as_group()
            for i in range(j + 1):
                inner_members = omega_subgroup(inner, i).members
                lifted = sub_j.members[inner_members]
                assert np.array_equal(lifted, omega_subgroup(g, i).members), (name, i, j)


# --- filtration ----------------------------------------------------------------

@pytest.mark.parametrize("name,sizes", [
    ("C8", (1, 2, 4, 8)),
    ("C9*C9", (1, 9, 81)),
])
def test_filtration_subgroup_sizes(name, sizes):
    assert omega_filtration(group_from_text(name)).subgroup_sizes == sizes


def test_filtration_d16_sets_versus_subgroups():
    filtration = omega_filtration(group_from_text("D16"))
    assert filtration.subgroup_sizes == (1, 16, 16, 16)
    assert tuple(level.set_size for level in filtration.levels) == (1, 10, 12, 16)
    assert [level.set_is_subgroup for level in filtration.levels] == [
        True, False, False, True]


def test_filtration_reads_m_and_order_from_its_levels():
    filtration = OmegaFiltration(2, (OmegaLevel(1, 1), OmegaLevel(2, 2), OmegaLevel(4, 4)))
    assert (filtration.m, filtration.order) == (2, 4)
    assert filtration == omega_filtration(group_from_text("C4"))


@pytest.mark.parametrize("sizes,message", [
    ((), "needs at least level 0"),
    (((2, 2), (2, 2)), "level 0 must be the trivial subgroup"),
    (((1, 1), (3, 4), (2, 4)), "non-decreasing"),
    (((1, 1), (4, 2), (4, 4)), "cannot exceed its generated subgroup"),
    (((1, 1), (2, 2), (2, 2), (4, 4)), "omega chain stalls at level 2"),
], ids=["empty", "level-0", "decreasing", "set-above-subgroup", "stalled-chain"])
def test_filtration_refuses_inconsistent_levels(sizes, message):
    with pytest.raises(GroupError, match=message):
        OmegaFiltration(2, tuple(OmegaLevel(*pair) for pair in sizes))


@given(p_group_names)
@settings(max_examples=20)
def test_filtration_invariants(name):
    g = group_from_text(name)
    filtration = omega_filtration(g)
    assert filtration.levels[0].set_size == filtration.levels[0].subgroup_size == 1
    assert filtration.levels[-1].subgroup_size == g.order
    assert filtration.p ** filtration.m == exponent(g)
    sizes = filtration.subgroup_sizes
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    if filtration.all_levels_closed:
        grown = [s for s in sizes if s < g.order] + [g.order]
        assert all(a < b for a, b in zip(grown, grown[1:]))


# --- psi ------------------------------------------------------------------------

@pytest.mark.parametrize("name,value", [
    ("C3*C3*C3", 79),
    ("H27", 79),
    ("C2", 3),
    ("D16*C2*C2*C2*C2", 959),
    ("C4*C4*C4*C4", 991),
])
def test_psi_brute_examples(name, value):
    assert psi_brute(group_from_text(name)) == value


def test_counterexample_direction():
    # larger exponent yet smaller psi
    assert psi_brute(group_from_text("D16*C2*C2*C2*C2")) < psi_brute(
        group_from_text("C4*C4*C4*C4"))


@given(p_group_names)
@settings(max_examples=25)
def test_psi_matches_oracle(name):
    g = group_from_text(name)
    assert psi_brute(g) == naive_psi(table_of(g))
    assert psi_subset(g, range(g.order)) == psi_brute(g)
    assert psi_brute(g) % prime_of(g) == 1


def test_psi_subset_of_subgroup():
    g = group_from_text("C9*C9")
    sub = omega_subgroup(g, 1)
    assert psi_subset(g, sub.members) == 25  # elementary abelian of order 9


def test_psi_elementary_abelian_formula():
    for p, r in [(2, 1), (2, 3), (3, 2), (5, 2), (2, 5)]:
        g = group_from_text("*".join([f"C{p}"] * r))
        assert psi_brute(g) == p ** (r + 1) - p + 1


def test_psi_subset_rejects_bad_index():
    with pytest.raises(IndexError):
        psi_subset(group_from_text("C4"), [7])


def test_psi_subset_rejects_an_index_that_is_not_an_integer():
    g = group_from_text("C8")
    assert psi_subset(g, []) == 0
    # truncated, 1.9 would have counted o(1) = 8
    with pytest.raises(GroupError, match="subset indices must be integers, got float64"):
        psi_subset(g, [1.9])


def test_psi_lower_bound():
    for name in ["C1", "C2", "D8", "H27"]:
        g = group_from_text(name)
        if g.order == 1:
            assert psi_brute(g) == 1
        else:
            assert psi_brute(g) > g.order


def _assert_omega_sets_read_the_orders(g):
    # the power map's route to Omega_i against the element orders': x^(p^i) = 1
    # iff o(x) divides p^i, at every level and one above the top
    p, m = exponent_log(g)
    for i in range(m + 2):
        expected = np.flatnonzero(p**i % g.element_orders == 0)
        assert np.array_equal(omega_set(g, i), expected), (g.name, i)


def test_omega_sets_are_the_elements_of_order_dividing_p_to_the_i_over_the_default_catalogs():
    for p, cap in DEFAULT_CATALOGS:
        for name in catalog_names([p], cap):
            _assert_omega_sets_read_the_orders(group_from_text(name))


@given(group_names)
@settings(max_examples=60, deadline=None)
def test_omega_sets_are_the_elements_of_order_dividing_p_to_the_i(name):
    g = group_from_text(name)
    if g.order > 1 and prime_power(g.order) is not None:
        _assert_omega_sets_read_the_orders(g)


def test_closure_of_omega_set_is_omega_subgroup():
    for name in ["D16", "Q16", "C8*C2"]:
        g = group_from_text(name)
        for i in range(3):
            assert np.array_equal(omega_subgroup(g, i).members,
                                  closure(g, omega_set(g, i)).members)


# --- results kept on the group --------------------------------------------------

@given(group_names)
@settings(max_examples=40)
def test_kept_filtration_matches_a_fresh_computation(name):
    g = group_from_text(name)
    if prime_power(g.order) is None:
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(NotPGroupError):
                omega_filtration(g)
        return
    filtration = omega_filtration(g)
    assert omega_filtration(g) is filtration
    fresh = group_from_text(name)
    for i, level in enumerate(filtration.levels):
        assert np.array_equal(level.members, closure(fresh, omega_set(fresh, i)).members), (name, i)
        assert len(level.members) == level.subgroup_size


@given(p_group_names)
@settings(max_examples=25)
def test_omega_subgroup_is_the_same_before_and_after_the_filtration(name):
    g = group_from_text(name)
    levels = range(exponent_log(g)[1] + 2)  # one level above the top
    before = [omega_subgroup(g, i) for i in levels]
    omega_filtration(g)
    after = [omega_subgroup(g, i) for i in levels]
    assert [s.members.tolist() for s in before] == [s.members.tolist() for s in after]
    assert all(s.parent is g for s in after)
    with pytest.raises(ValueError):
        omega_subgroup(g, -1)
