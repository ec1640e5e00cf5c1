import pytest
from hypothesis import given, settings

from psigroups import (
    GroupError,
    NotCp2Error,
    OmegaChainError,
    OrderBijection,
    compare_filtrations,
    group_from_text,
    is_cp2_pairwise,
    omega_filtration,
    order_bijection,
    predict_order,
    psi_bottom_recursion,
    psi_brute,
    psi_filtration,
    psi_top_recursion,
)
from oracle import naive_psi, table_of
from strategies import p_group_names, same_order_p_group_pairs


# --- top recursion -------------------------------------------------------------

def test_top_recursion_c8():
    assert psi_top_recursion(group_from_text("C8")) == 43
    # inner step: psi(C4) = 11, then 11 + 4*8*(2-1)
    assert psi_top_recursion(group_from_text("C4")) == 11
    assert 11 + 4 * 8 * (8 // 4 - 1) == 43


def test_top_recursion_trivial_group():
    assert psi_top_recursion(group_from_text("C1")) == 1


def test_top_recursion_inapplicable_for_d16():
    with pytest.raises(OmegaChainError):
        psi_top_recursion(group_from_text("D16"))


# --- bottom recursion -----------------------------------------------------------

def test_bottom_recursion_c4():
    assert psi_bottom_recursion(group_from_text("C4")) == 1 - 2 + 4 * 3


def test_bottom_recursion_elementary_abelian_27():
    assert psi_bottom_recursion(group_from_text("C3*C3*C3")) == 79


def test_bottom_recursion_c9c3():
    assert psi_bottom_recursion(group_from_text("C9*C3")) == 1 - 3 + 27 * 7


def test_bottom_recursion_rejects_non_cp2():
    with pytest.raises(NotCp2Error) as err:
        psi_bottom_recursion(group_from_text("D8"))
    assert str(err.value) == (
        "D8 is not CP2 (omega set not closed at level 1); quotient reduction needs CP2")


# --- filtration formula -----------------------------------------------------------

def test_filtration_formula_c8():
    assert psi_filtration(group_from_text("C8")) == 1 + 1 * 2 + 2 * 4 + 4 * 8


@pytest.mark.parametrize("name,value", [
    ("C9*C9", 673),
    ("C9*C3*C3", 565),
])
def test_filtration_formula_examples(name, value):
    assert psi_filtration(group_from_text(name)) == value


def test_filtration_formula_rejects_non_cp2():
    with pytest.raises(NotCp2Error) as err:
        psi_filtration(group_from_text("D16"))
    assert str(err.value) == (
        "D16 is not CP2 (omega set not closed at level 1); the filtration formula needs CP2")


@given(p_group_names)
@settings(max_examples=25, deadline=None)
def test_formulas_agree_with_brute_force(name):
    g = group_from_text(name)
    expected = naive_psi(table_of(g))
    assert psi_brute(g) == expected
    try:
        assert psi_top_recursion(g) == expected
    except OmegaChainError:
        pass
    if is_cp2_pairwise(g).is_cp2:
        assert psi_bottom_recursion(g) == expected
        assert psi_filtration(g) == expected


# --- psi equality via filtrations (T1.1) ----------------------------------------

def _t11(p_group, q_group) -> bool:
    """True iff compare_filtrations names T1.1: both CP2, equal filtrations."""
    decision = compare_filtrations(omega_filtration(p_group), omega_filtration(q_group))
    return decision.theorem == "T1.1"


def test_equal_via_omega_examples():
    assert _t11(group_from_text("C9*C3"), group_from_text("M27"))
    assert not _t11(group_from_text("C9*C3"), group_from_text("C27"))


def test_equal_via_omega_reflexive():
    g = group_from_text("C8*C2")
    assert _t11(g, g)


def test_equal_via_omega_rejects_mismatches():
    with pytest.raises(GroupError, match="different order"):
        _t11(group_from_text("C8"), group_from_text("C4"))
    with pytest.raises(GroupError, match="different order"):
        _t11(group_from_text("C9"), group_from_text("C8"))


@given(p_group_names, p_group_names)
@settings(max_examples=25, deadline=None)
def test_equal_via_omega_tracks_psi(name_p, name_q):
    p_group = group_from_text(name_p)
    q_group = group_from_text(name_q)
    if p_group.order != q_group.order:
        return
    if not (is_cp2_pairwise(p_group).is_cp2 and is_cp2_pairwise(q_group).is_cp2):
        return
    assert _t11(p_group, q_group) == (psi_brute(p_group) == psi_brute(q_group))


# --- predict_order -----------------------------------------------------------------

def test_predict_c27_versus_c9c3():
    comparison = predict_order(group_from_text("C27"), group_from_text("C9*C3"))
    assert (comparison.psi_p, comparison.psi_q) == (547, 187)
    assert comparison.relation == ">"
    assert comparison.theorem == "T1.2"
    assert comparison.predicted_relation == ">"


def test_predict_counterexample_has_no_prediction():
    comparison = predict_order(
        group_from_text("D16*C2*C2*C2*C2"), group_from_text("C4*C4*C4*C4"))
    assert comparison.relation == "<"
    assert comparison.predicted_relation is None
    assert comparison.theorem is None
    assert comparison.summary == "T1.2 inapplicable: Omega_{m-1}(P)=P"
    failed = [check for check in comparison.hypothesis_log if not check.passed]
    assert len(failed) == 1
    assert "Omega" in failed[0].name


def test_predict_t13_pair():
    comparison = predict_order(group_from_text("C9*C9"), group_from_text("C9*C3*C3"))
    assert comparison.relation == ">"
    assert comparison.theorem == "T1.3"
    assert comparison.predicted_relation == ">"
    assert (comparison.psi_p, comparison.psi_q) == (673, 565)


def test_predict_t11_equal_pair():
    comparison = predict_order(group_from_text("C9*C3"), group_from_text("M27"))
    assert comparison.relation == "="
    assert comparison.theorem == "T1.1"
    assert comparison.predicted_relation == "="


def test_predict_requires_matching_order_and_prime():
    with pytest.raises(GroupError):
        predict_order(group_from_text("C8"), group_from_text("C16"))
    with pytest.raises(GroupError):
        predict_order(group_from_text("C8"), group_from_text("C9"))


@given(p_group_names, p_group_names)
@settings(max_examples=30, deadline=None)
def test_prediction_matches_reality(name_p, name_q):
    p_group = group_from_text(name_p)
    q_group = group_from_text(name_q)
    if p_group.order != q_group.order:
        return
    comparison = predict_order(p_group, q_group)
    relation = {True: "<", False: ">"}
    expected = ("=" if comparison.psi_p == comparison.psi_q
                else relation[comparison.psi_p < comparison.psi_q])
    assert comparison.relation == expected
    if comparison.predicted_relation is not None:
        assert all(check.passed for check in comparison.hypothesis_log)
        assert comparison.predicted_relation == comparison.relation


# --- compare_filtrations -------------------------------------------------------

@given(same_order_p_group_pairs)
@settings(max_examples=40, deadline=None)
def test_decider_t11_iff_both_cp2_and_equal_filtrations(names):
    p_group = group_from_text(names[0])
    q_group = group_from_text(names[1])
    fp, fq = omega_filtration(p_group), omega_filtration(q_group)
    both_cp2 = is_cp2_pairwise(p_group).is_cp2 and is_cp2_pairwise(q_group).is_cp2
    assert (compare_filtrations(fp, fq).theorem == "T1.1") == (
        both_cp2 and fp.subgroup_sizes == fq.subgroup_sizes)


def _filtration(name):
    return omega_filtration(group_from_text(name))


def test_decider_orients_the_larger_side():
    assert compare_filtrations(_filtration("C27"), _filtration("C9*C3")).larger == "P"
    assert compare_filtrations(_filtration("C9*C3"), _filtration("C27")).larger == "Q"
    decision = compare_filtrations(_filtration("C9*C3*C3"), _filtration("C9*C9"))
    assert (decision.theorem, decision.predicted_relation) == ("T1.3", "<")
    assert (decision.larger, decision.diff_level) == ("Q", 1)


def test_decider_rejects_different_orders():
    with pytest.raises(GroupError):
        compare_filtrations(_filtration("C8"), _filtration("C4"))


# --- order bijections ----------------------------------------------------------

def test_bijection_between_psi79_groups():
    result = order_bijection(group_from_text("C3*C3*C3"), group_from_text("H27"))
    assert isinstance(result, OrderBijection)
    assert len(result.pairs) == 27


def test_bijection_identity_pairing():
    g = group_from_text("D8")
    result = order_bijection(g, g)
    assert isinstance(result, OrderBijection)
    assert all(a == b for a, b in result.pairs)


def test_bijection_mismatch_returns_none():
    assert order_bijection(group_from_text("C4"), group_from_text("C2*C2")) is None


def test_bijection_rejects_size_mismatch():
    with pytest.raises(GroupError):
        order_bijection(group_from_text("C4"), group_from_text("C8"))


@given(p_group_names, p_group_names)
@settings(max_examples=30, deadline=None)
def test_bijection_preserves_orders_and_covers(name_p, name_q):
    p_group = group_from_text(name_p)
    q_group = group_from_text(name_q)
    if p_group.order != q_group.order:
        return
    result = order_bijection(p_group, q_group)
    if result is None:
        from psigroups import order_spectrum

        assert order_spectrum(p_group) != order_spectrum(q_group)
        return
    assert sorted(a for a, _ in result.pairs) == list(range(p_group.order))
    assert sorted(b for _, b in result.pairs) == list(range(q_group.order))
    for a, b in result.pairs:
        assert p_group.element_orders[a] == q_group.element_orders[b]
