import pytest
from hypothesis import given

from psigroups import (
    Atom,
    GroupExprError,
    expr_order,
    expr_to_name,
    parse_group_expr,
)
from strategies import group_names


def test_single_atom():
    assert parse_group_expr("C8") == (Atom("C", 8),)


def test_counterexample_expressions_are_flat_factor_tuples():
    expr = parse_group_expr("D16*C2*C2*C2*C2")
    assert expr == (Atom("D", 16),) + (Atom("C", 2),) * 4
    assert expr_to_name(expr) == "D16*C2*C2*C2*C2"
    assert expr_order(expr) == 256

    assert parse_group_expr("C4*C4*C4*C4") == (Atom("C", 4),) * 4


def test_whitespace_ignored():
    expr = parse_group_expr("  C4 * D8\t* Q16 ")
    assert expr_to_name(expr) == "C4*D8*Q16"
    assert expr_order(expr) == 4 * 8 * 16


def test_unknown_constructor():
    with pytest.raises(GroupExprError) as err:
        parse_group_expr("X9")
    assert "unknown constructor" in str(err.value)
    assert err.value.offset == 0


def test_unknown_constructor_offset_inside_product():
    with pytest.raises(GroupExprError) as err:
        parse_group_expr("C4*Z9")
    assert err.value.offset == 3


@pytest.mark.parametrize("text,fragment", [
    ("", "empty expression"),
    ("   ", "empty expression"),
    ("C", "expected an integer"),
    ("C4*", "expected a constructor term"),
    ("C4 C4", "unexpected character"),
    ("*C4", "expected a constructor letter"),
    ("C0", "must be >= 1"),
    ("C99999999999999999999", "too large"),
    # more digits than int() converts: still a parse error, not a crash
    pytest.param("C" + "1" * 5000, "integer constant too large (at offset 1)",
                 id="5000-digit-constant"),
    pytest.param("C4*C" + "0" * 5000, "must be >= 1 (at offset 4)", id="5000-zero-constant"),
    ("4C", "expected a constructor letter"),
    ("C\u00b2", "expected an integer"),
    ("C\u0662", "expected an integer"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GroupExprError) as err:
        parse_group_expr(text)
    assert fragment in str(err.value)


def test_zero_padded_constant_beyond_the_digit_limit():
    assert parse_group_expr("C" + "0" * 5000 + "8") == (Atom("C", 8),)


def test_error_carries_offset():
    with pytest.raises(GroupExprError) as err:
        parse_group_expr("C4 ! C2")
    assert err.value.offset == 3


@given(group_names)
def test_name_normalization_round_trips(name):
    expr = parse_group_expr(name)
    assert expr_to_name(expr) == name
    assert parse_group_expr(expr_to_name(expr)) == expr


@given(group_names)
def test_whitespace_insensitive(name):
    spaced = name.replace("*", " * ")
    assert parse_group_expr(f"  {spaced} ") == parse_group_expr(name)
