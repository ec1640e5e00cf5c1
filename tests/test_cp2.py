import pytest
from hypothesis import given, settings

from psigroups import (
    NotPGroupError,
    group_from_text,
    is_cp2_omega,
    is_cp2_pairwise,
    omega_filtration,
    omega_subgroup,
    quotient,
)
from oracle import naive_cp2_witness, table_of
from strategies import group_names, p_group_names


def test_q8_is_cp2():
    report = is_cp2_pairwise(group_from_text("Q8"))
    assert report.is_cp2 and report.witness is None


def test_d8_witness_is_two_reflections():
    report = is_cp2_pairwise(group_from_text("D8"))
    assert not report.is_cp2
    x, y, ox, oy, oxy = report.witness
    assert (ox, oy) == (2, 2)
    assert oxy > 2
    assert (x, y) == (4, 5)  # lexicographically first pair


def test_c2_is_cp2():
    assert is_cp2_pairwise(group_from_text("C2")).is_cp2


@pytest.mark.parametrize("name", ["C8", "C4*C2", "C2*C2*C2", "C9*C3", "C27", "C25*C5"])
def test_abelian_groups_are_cp2(name):
    assert is_cp2_pairwise(group_from_text(name)).is_cp2


def test_witness_satisfies_inequality():
    for name in ["D8", "D16", "Q16", "D8*C2"]:
        report = is_cp2_pairwise(group_from_text(name))
        assert not report.is_cp2
        _, _, ox, oy, oxy = report.witness
        assert oxy > max(ox, oy)


@given(group_names)
@settings(max_examples=20)
def test_pairwise_matches_oracle(name):
    g = group_from_text(name)
    report = is_cp2_pairwise(g)
    witness = naive_cp2_witness(table_of(g))
    if witness is None:
        assert report.is_cp2
    else:
        assert not report.is_cp2
        assert report.witness == witness


def test_omega_criterion_q8():
    report = is_cp2_omega(group_from_text("Q8"))
    assert report.is_cp2
    assert report.method == "omega-criterion"


def test_omega_criterion_d16_failing_level():
    report = is_cp2_omega(group_from_text("D16"))
    assert not report.is_cp2
    assert report.failing_level == 1
    filtration = omega_filtration(group_from_text("D16"))
    level = filtration.levels[report.failing_level]
    assert level.set_size < level.subgroup_size


def test_omega_criterion_abelian():
    assert is_cp2_omega(group_from_text("C9*C3")).is_cp2


def test_omega_criterion_rejects_non_p_group():
    with pytest.raises(NotPGroupError):
        is_cp2_omega(group_from_text("C6"))


@given(p_group_names)
@settings(max_examples=20)
def test_criteria_agree_on_p_groups(name):
    g = group_from_text(name)
    assert is_cp2_pairwise(g).is_cp2 == is_cp2_omega(g).is_cp2


@given(p_group_names)
@settings(max_examples=15)
def test_max_order_law(name):
    g = group_from_text(name)
    if not is_cp2_pairwise(g).is_cp2:
        return
    orders = [int(o) for o in g.element_orders]
    for x in range(g.order):
        for y in range(g.order):
            if orders[x] != orders[y]:
                assert orders[g.table[x, y]] == max(orders[x], orders[y])


@given(p_group_names)
@settings(max_examples=15)
def test_quotient_by_omega1_stays_cp2(name):
    g = group_from_text(name)
    if not is_cp2_pairwise(g).is_cp2:
        return
    q = quotient(g, omega_subgroup(g, 1))
    assert is_cp2_pairwise(q).is_cp2


@given(p_group_names)
@settings(max_examples=15)
def test_quotient_omega_sizes(name):
    # |Omega_i(G/Omega_1)| = |Omega_(i+1)(G)| / |Omega_1(G)| for CP2 groups
    g = group_from_text(name)
    filtration = omega_filtration(g)
    if not all(level.set_is_subgroup for level in filtration.levels):
        return
    omega1 = omega_subgroup(g, 1)
    q = quotient(g, omega1)
    if q.order == 1:
        return
    q_filtration = omega_filtration(q)
    for i in range(q_filtration.m + 1):
        assert (q_filtration.subgroup_size_at(i)
                == filtration.subgroup_size_at(i + 1) // len(omega1))


def test_omega_levels_of_cp2_group_are_cp2():
    # each omega subgroup of a CP2 group, restricted to its own table, is CP2
    for name in ["Q8", "C16", "C8*C4", "M16", "C27", "C9*C3", "M27", "H27"]:
        g = group_from_text(name)
        if not is_cp2_pairwise(g).is_cp2:
            continue
        filtration = omega_filtration(g)
        for i in range(1, filtration.m + 1):
            level_group = omega_subgroup(g, i).as_group()
            assert is_cp2_pairwise(level_group).is_cp2, (name, i)
