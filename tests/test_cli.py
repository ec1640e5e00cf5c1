import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigroups import GroupError, cli, group_from_text, groups, parse_group_table, serialize_group
from psigroups.cli import cli_main
from oracle import switch_intercalate
from strategies import group_names, gt1_mutants

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- golden files ---------------------------------------------------------------

@pytest.mark.parametrize("golden,argv", [
    ("psi_c3c3c3.txt", ["psi", "C3*C3*C3"]),
    ("compare_counterexample.txt", ["compare", "D16*C2*C2*C2*C2", "C4*C4*C4*C4"]),
    ("cp2_d8.txt", ["cp2", "D8"]),
    ("compare_c27_c9c3.txt", ["compare", "C27", "C9*C3"]),
    ("compare_c9c9_c9c3c3.txt", ["compare", "C9*C9", "C9*C3*C3"]),
    ("compare_c9c3_m27.txt", ["compare", "C9*C3", "M27"]),
    ("compare_d8_q8.txt", ["compare", "D8", "Q8"]),
])
def test_golden_outputs(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / golden).read_text()


# --- single-group subcommands ----------------------------------------------------

def test_psi_output(capsys):
    code, out, _ = run_cli(capsys, "psi", "C8")
    assert code == 0
    assert out == "psi(C8) = 43\n"


def test_omega_output(capsys):
    code, out, _ = run_cli(capsys, "omega", "C8")
    assert code == 0
    assert out == "i=0 set=1 gen=1\ni=1 set=2 gen=2\ni=2 set=4 gen=4\ni=3 set=8 gen=8\n"


def test_omega_output_d16(capsys):
    code, out, _ = run_cli(capsys, "omega", "D16")
    assert code == 0
    assert out == ("i=0 set=1 gen=1\ni=1 set=10 gen=16\n"
                   "i=2 set=12 gen=16\ni=3 set=16 gen=16\n")


def test_cp2_yes(capsys):
    code, out, _ = run_cli(capsys, "cp2", "Q8")
    assert code == 0
    assert out == "CP2: yes\n"


def test_spectrum_output(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "H27")
    assert code == 0
    assert out == "1:1\n3:26\n"


def test_compare_applicable_theorem(capsys):
    code, out, _ = run_cli(capsys, "compare", "C27", "C9*C3")
    assert code == 0
    assert "psi(C27) = 547" in out
    assert "relation: >" in out
    assert "T1.2 predicts >" in out
    assert "bijection: no" in out


def test_compare_equal_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "C9*C3", "M27")
    assert code == 0
    assert "relation: =" in out
    assert "T1.1 predicts =" in out
    assert "bijection: yes" in out


# --- errors -----------------------------------------------------------------------

def test_unknown_constructor_exits_2(capsys):
    code, out, err = run_cli(capsys, "psi", "X9")
    assert code == 2
    assert out == ""
    assert "unknown constructor" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "psi")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", "C4")
    assert code == 2


def test_mismatched_compare_exits_2(capsys):
    code, _, err = run_cli(capsys, "compare", "C4", "C8")
    assert code == 2
    assert "order mismatch" in err


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "psi", "Q12")
    assert code == 2
    assert "Q12" in err


@pytest.mark.parametrize("expr", ["D7", "D2", "Q12", "Q4", "H9", "H8", "M4", "M12", "C4096*C2",
                                  "D7*C4096*C4096"])
def test_psi_and_spectrum_refuse_an_expression_as_omega_does(capsys, expr):
    # the order limit first, then each atom's check, left to right
    code, out, err = run_cli(capsys, "omega", expr)
    assert (code, out) == (2, "") and re.fullmatch(r"error: [^\n]*\n", err)
    for command in ("psi", "spectrum"):
        assert run_cli(capsys, command, expr) == (2, "", err)


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "import", "/nonexistent.gt1", "psi")
    assert code == 2
    assert "error:" in err


# --- verify ------------------------------------------------------------------------

def test_verify_small_catalog(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--max-order", "27")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("T1.1") and "[verified]" in line for line in lines)
    assert any(line.startswith("T1.3") and "[vacuous]" in line for line in lines)
    assert not any("[violated]" in line for line in lines)


def test_verify_output_is_stable(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--p", "2", "--max-order", "16")
    code2, out2, _ = run_cli(capsys, "verify", "--p", "2", "--max-order", "16")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_violation_exits_1(capsys, monkeypatch):
    # no real catalog violates the theorems, so fabricate a report
    import psigroups.cli as cli_mod
    from psigroups import TheoremReport

    def fake_verify(cat):
        return [TheoremReport("T1.1", 1, 1, (("(A, B)", "details here"),))]

    monkeypatch.setattr(cli_mod, "verify_theorems", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--max-order", "4")
    assert code == 1
    assert "[violated]" in out
    assert "violation (A, B): details here" in out


# --- export / import ------------------------------------------------------------------

def test_export_then_import_psi(capsys, tmp_path):
    out_path = tmp_path / "group.gt1"
    code, out, _ = run_cli(capsys, "export", "C9*C3", "--out", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("GT1 27\n")
    assert text.endswith("\n")
    assert "\r" not in text

    code, out, _ = run_cli(capsys, "import", str(out_path), "psi")
    assert code == 0
    assert out == f"psi({out_path}) = 187\n"


def test_export_refused_at_build_time_leaves_the_out_file_as_it_was(capsys, tmp_path):
    # 8192 elements: over the table size limit, refused before --out is opened
    path = tmp_path / "kept.gt1"
    path.write_bytes(b"GT1 1\n0\n")
    code, out, err = run_cli(capsys, "export", "C2*C64*C64", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds table size limit" in err
    assert path.read_bytes() == b"GT1 1\n0\n"


def test_export_to_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "export", "C4", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["psi", "spectrum"])
def test_export_then_import_across_digit_widths(capsys, tmp_path, command):
    # C10*C11 has 110 elements: entries of 1, 2 and 3 digits
    path = tmp_path / "c110.gt1"
    assert run_cli(capsys, "export", "C10*C11", "--out", str(path)) == (0, "", "")
    code, imported, err = run_cli(capsys, "import", str(path), command)
    assert (code, err) == (0, "")
    _, direct, _ = run_cli(capsys, command, "C10*C11")
    assert imported == direct.replace("C10*C11", str(path))


def test_import_non_associative_table_of_order_1024_exits_2(capsys, tmp_path):
    # a latin loop with identity 0: only the associativity check can reject it
    table = switch_intercalate(group_from_text("C32*C32").table, 16, 1, 2)
    path = tmp_path / "loop.gt1"
    path.write_text(f"GT1 {len(table)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in table))
    code, out, err = run_cli(capsys, "import", str(path), "psi")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "associativity" in err


def test_import_check_assoc_flag_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "c4.gt1"
    run_cli(capsys, "export", "C4", "--out", str(out_path))
    code, out, err = run_cli(capsys, "import", str(out_path), "spectrum", "--check-assoc")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --check-assoc" in err


def test_import_bad_table_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.gt1"
    bad.write_text("GT1 2\n0 0\n1 0\n")
    code, _, err = run_cli(capsys, "import", str(bad), "psi")
    assert code == 2
    assert "latin" in err


@pytest.mark.parametrize("data", [
    "GT1 2\n0 1\n1 \u00b2\n".encode(),        # superscript two passes str.isdigit
    "GT1 \u0662\n0 1\n1 0\n".encode(),        # Arabic-Indic two in the header
    b"GT1 2\n0 1\n1 \xff\n",                  # not UTF-8 at all
], ids=["superscript-entry", "arabic-indic-header", "undecodable-byte"])
def test_import_non_ascii_exits_2(capsys, tmp_path, data):
    path = tmp_path / "bad.gt1"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "import", str(path), "psi")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "non-ASCII" in err


@pytest.mark.parametrize("data,message", [
    (b"GT1 2\r\n0 1\r\n1 0\r\n", "malformed header: 'GT1 2\\r'"),
    (b"GT1 2\r0 1\r1 0\r", "GT1 text must end with a newline"),
], ids=["crlf", "lone-cr"])
def test_import_refuses_crlf_and_lone_cr_newlines(capsys, tmp_path, data, message):
    # GT1 rows end in LF alone: the file is read as bytes, with no newline translation
    path = tmp_path / "table.gt1"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "import", str(path), "psi")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(GroupError) as library:
        parse_group_table(data.decode())
    assert str(library.value) == message


@pytest.mark.parametrize("argv,fragment", [
    (("psi", "C" + "1" * 5000), "integer constant too large"),
    (("compare", "C4", "C" + "0" * 5000), "must be >= 1"),
    (("import", "LONG_GT1", "psi"), "exceeds table size limit"),
], ids=["expression", "expression-zeros", "gt1-header"])
def test_over_long_decimal_exits_2(capsys, tmp_path, argv, fragment):
    path = tmp_path / "long.gt1"
    path.write_text("GT1 " + "1" * 5000 + "\n0\n")
    code, out, err = run_cli(capsys, *(str(path) if a == "LONG_GT1" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("value,fragment", [
    ("abc", "PSIGROUPS_MAX_ORDER is not an integer: 'abc'"),
    ("0", "PSIGROUPS_MAX_ORDER must be positive, got 0"),
    pytest.param("1" * 5000, "PSIGROUPS_MAX_ORDER has too many digits (5000)",
                 id="5000-digit-limit"),
    pytest.param(" -" + "1" * 5000, "PSIGROUPS_MAX_ORDER has too many digits (5000)",
                 id="5000-digit-negative-limit"),
])
def test_malformed_limit_exits_2(capsys, monkeypatch, value, fragment):
    monkeypatch.setenv("PSIGROUPS_MAX_ORDER", value)
    code, out, err = run_cli(capsys, "psi", "C4")
    assert code == 2
    assert out == ""
    assert err == f"error: {fragment}\n"


def test_env_var_overrides_limit(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PSIGROUPS_MAX_ORDER", "16")
    code, _, err = run_cli(capsys, "psi", "C32")
    assert code == 2
    assert "exceeds table size limit 16" in err


# --- the documented entry point ----------------------------------------------------

def _run_module(*argv, timeout=120, text=True, cwd=None, **env):
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **env, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    return subprocess.run([sys.executable, "-m", "psigroups", *argv], cwd=cwd,
                          capture_output=True, text=text, env=env, timeout=timeout)


@pytest.mark.parametrize("argv", [("omega", "D8"), ("compare", "C4*C2", "D8"),
                                  ("verify", "--p", "5", "--max-order", "125")],
                         ids=["omega", "compare", "verify"])
def test_a_command_leaves_numpy_ma_unimported(argv):
    # a bare np.unique imports numpy.ma on its first call in a process: 8.8 ms
    # and about 1 MB of every fresh omega, compare or verify call
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    code = ("import contextlib, io, sys\n"
            "from psigroups.cli import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli_main({list(argv)!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert (result.stdout, result.stderr) == ("0 False\n", "")


def test_python_m_psigroups_prints_psi():
    result = _run_module("psi", "C4")
    assert result.returncode == 0
    assert result.stdout == "psi(C4) = 11\n"
    assert result.stderr == ""


def test_python_m_psigroups_refuses_a_malformed_expression():
    result = _run_module("psi", "C4*")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: expected a constructor term (at offset 3)\n"


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8"}, {"LC_ALL": "C"}],
                         ids=["strict-utf-8", "posix-locale"])
def test_import_names_a_path_with_undecodable_bytes_by_their_escapes(tmp_path, env):
    # argv holds the byte 0xff as a surrogate, which strict UTF-8 cannot print
    with open(os.fsencode(tmp_path) + b"/a\xff.gt1", "wb") as handle:
        serialize_group(group_from_text("C4"), handle)
    result = _run_module(b"import", b"a\xff.gt1", b"psi", text=False, cwd=tmp_path, **env)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"psi(a\\xff.gt1) = 11\n"


@pytest.mark.parametrize("argv", [("import", "\ud800", "psi"), ("export", "C4", "--out", "\ud800")],
                         ids=["import", "export"])
def test_a_path_with_a_lone_surrogate_exits_2(capsys, argv):
    # a lone surrogate outside U+DC80-U+DCFF, which only a library caller can pass
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "\\ud800" in err


def test_verify_refuses_a_prime_above_the_table_limit_at_once():
    # trial division of this prime runs for minutes, so the limit is checked first
    result = _run_module("verify", "--p", "1000000000000000003", "--max-order", "16", timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: 1000000000000000003 exceeds table size limit 4096\n")


def test_verify_refuses_a_prime_whose_cyclic_group_cannot_fit_in_memory(monkeypatch):
    # a raised limit lets the prime past the limit check; memory still bounds it
    monkeypatch.setenv("PSIGROUPS_MAX_ORDER", "1000000000000000000000")
    result = _run_module("verify", "--p", "1000000000000000003", "--max-order", "16", timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    assert re.fullmatch(r"error: group order 1000000000000000003 needs about \d+ bytes, "
                        r"more than the \d+ bytes of physical memory\n", result.stderr)


# --- psi and spectrum of an expression, without writing its table -----------------

# M8 (D8 in the a^i b^e layout) is not among the drawn atoms; the spaced,
# zero-padded expression is named by its normal form.  The reference is the
# written table, validated with its orders computed, as an import reads it
@given(st.one_of(group_names, st.sampled_from(["M8", " C004 * M8 "])),
       st.sampled_from(["psi", "spectrum"]))
@settings(max_examples=60, deadline=None)
def test_psi_and_spectrum_of_an_expression_match_the_group_route(name, command):
    g = group_from_text(name)
    want = cli._RENDERERS[command](groups.group_from_table(g.name, g.table))

    def refuse(*args, **kwargs):
        raise AssertionError("psi and spectrum of an expression write no table")
    with patch.object(groups, "_metacyclic_table", refuse), \
            patch.object(groups, "_heisenberg_table", refuse), \
            patch.object(groups, "_product", refuse), \
            patch.object(groups, "_compute_orders", refuse):
        assert _captured_cli([command, name]) == (0, want, "")


# --- fuzzed argv, in process ----------------------------------------------------------

_COMMANDS = ("psi", "omega", "cp2", "spectrum", "compare", "verify", "export", "import")
# expression characters, near misses that str.isdigit or a parser may accept, and
# separators; "--out" cannot be spelled from them, so no draw writes outside a temp dir
_TEXTS = st.text("CDQHM0123456789* \u3000\u0663\u00b2x-", max_size=8)
_EXPRS = st.one_of(group_names, _TEXTS, st.sampled_from(["C" + "1" * 5000, "C1"]))
_VERIFY_INTS = st.one_of(st.integers(-1, 40).map(str), _TEXTS)
_JUNK = st.lists(st.one_of(_TEXTS, st.sampled_from(
    _COMMANDS + ("--p", "--max-order", "-h", "--help", "--bogus", "-", ""))), max_size=5)


def _captured_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.sampled_from(_COMMANDS + ("junk",)), st.data())
@settings(max_examples=300, deadline=5000)
def test_fuzzed_argv_exits_0_or_2_with_one_error_line(command, data):
    draw = data.draw
    limit = {"PSIGROUPS_MAX_ORDER": "256"}
    with tempfile.TemporaryDirectory() as tmp, patch.dict(os.environ, limit):
        path = os.path.join(tmp, "table.gt1")
        if command in ("psi", "omega", "cp2", "spectrum"):
            argv = [command, draw(_EXPRS)]
        elif command == "compare":
            argv = [command, draw(_EXPRS), draw(_EXPRS)]
        elif command == "verify":
            argv = [command, "--p", draw(_VERIFY_INTS), "--max-order", draw(_VERIFY_INTS)]
        elif command == "export":
            argv = [command, draw(_EXPRS), "--out", path]
        elif command == "import":
            Path(path).write_bytes(draw(gt1_mutants()).encode())
            argv = [command, path, draw(st.sampled_from(["psi", "omega", "cp2", "spectrum"]))]
        else:
            argv = draw(_JUNK)
        code, out, err = _captured_cli(argv)
        assert code in ((0, 1, 2) if argv[:1] == ["verify"] else (0, 2)), (argv, code)
        if code == 2:
            assert re.fullmatch(r"error: [^\n]*\n", err) or err.startswith("usage:"), err
        if code == 0 and command != "export":
            assert _captured_cli(argv)[1] == out


# --- the parser, built once per process -------------------------------------------------

# a usage error, a GroupError, then a valid call; --help and a subcommand's
# usage error print the parser's own text
_SEQUENCES = [
    (["psi"], ["psi", "Q12"], ["psi", "C3*C3*C3"]),
    (["frobnicate", "C4"], ["compare", "C4", "C8"], ["compare", "D8", "Q8"]),
    (["verify", "--p", "x", "--max-order", "8"], ["omega", "C6"], ["omega", "D16"]),
    (["import", "t.gt1", "junk"], ["cp2", "X9"], ["cp2", "D8"]),
    (["--help"], ["omega", "--help"], ["spectrum", "C4*C2"]),
]


@pytest.mark.parametrize("sequence", _SEQUENCES, ids=[s[0][0] for s in _SEQUENCES])
def test_calls_after_an_error_print_what_fresh_calls_print(sequence):
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_captured_cli(argv))
    assert fresh[-1][0] == 0
    cli._build_parser.cache_clear()
    assert [_captured_cli(argv) for argv in sequence] == fresh
    assert cli._build_parser.cache_info().misses == 1


# --- omega, cp2 and compare of a large product, read from its factors -----------------
# Each product's table is over one row block, so these never write it; the
# expected lines are what the written table's route prints.

_FACTOR_READS = [
    (("omega", "C1*C2048*C2"), (
        "i=0 set=1 gen=1\n"
        "i=1 set=4 gen=4\n"
        "i=2 set=8 gen=8\n"
        "i=3 set=16 gen=16\n"
        "i=4 set=32 gen=32\n"
        "i=5 set=64 gen=64\n"
        "i=6 set=128 gen=128\n"
        "i=7 set=256 gen=256\n"
        "i=8 set=512 gen=512\n"
        "i=9 set=1024 gen=1024\n"
        "i=10 set=2048 gen=2048\n"
        "i=11 set=4096 gen=4096\n")),
    (("cp2", "C1*C2048*C2"), "CP2: yes\n"),
    (("omega", "D8*D8*D8*C8"), (
        "i=0 set=1 gen=1\n"
        "i=1 set=432 gen=1024\n"
        "i=2 set=2048 gen=2048\n"
        "i=3 set=4096 gen=4096\n")),
    (("cp2", "D8*D8*D8*C8"), (
        "CP2: no\n"
        "witness: x=32 y=40 o(x)=2 o(y)=2 o(xy)=4\n")),
    (("omega", "Q16*D16*C16"), (
        "i=0 set=1 gen=1\n"
        "i=1 set=40 gen=64\n"
        "i=2 set=576 gen=1024\n"
        "i=3 set=2048 gen=2048\n"
        "i=4 set=4096 gen=4096\n")),
    (("cp2", "Q16*D16*C16"), (
        "CP2: no\n"
        "witness: x=128 y=144 o(x)=2 o(y)=2 o(xy)=8\n")),
    (("omega", "M27*H27*C3"), (
        "i=0 set=1 gen=1\n"
        "i=1 set=729 gen=729\n"
        "i=2 set=2187 gen=2187\n")),
    (("cp2", "M27*H27*C3"), "CP2: yes\n"),
    (("cp2", "C1024*C3"), (
        "CP2: no\n"
        "witness: x=1 y=3 o(x)=3 o(y)=1024 o(xy)=3072\n")),
    (("cp2", "D2048*C2"), (
        "CP2: no\n"
        "witness: x=2048 y=2050 o(x)=2 o(y)=2 o(xy)=1024\n")),
    (("compare", "C64*C64", "C64*C32*C2"), (
        "psi(C64*C64) = 224695\n"
        "psi(C64*C32*C2) = 187247\n"
        "relation: >\n"
        "T1.3 predicts >\n"
        "hypotheses:\n"
        "  [pass] same order: |P| = |Q| = 4096\n"
        "  [pass] same prime: p = 2\n"
        "  [pass] T1.1/T1.3: exponents equal: exp(P) = exp(Q) = 64\n"
        "  [pass] T1.1/T1.3: both groups CP2: P CP2: yes, Q CP2: yes\n"
        "  [pass] T1.3: filtrations first differ at level 5: "
        "|Omega_5(P)| = 1024, |Omega_5(Q)| = 2048\n"
        "bijection: no\n")),
]


_write_product = groups._product


def _refuse_large_table(law):
    # a side of at most one row block writes its own table on its first read
    if (law.left.order * law.right.order) ** 2 > groups._BLOCK_ENTRIES:
        raise AssertionError("a large product's table must stay unwritten")
    return _write_product(law)


def _run_unwritten(capsys, *argv):
    """``run_cli`` with every product table over one row block refused; each
    group the command built still holds no table afterwards."""
    built = []

    def build(text):
        built.append(group_from_text(text))
        return built[-1]
    with patch.object(groups, "_product", _refuse_large_table), \
            patch.object(cli, "group_from_text", build):
        result = run_cli(capsys, *argv)
    assert built and all(g._table is None for g in built)
    return result


@pytest.mark.parametrize("argv,out", _FACTOR_READS, ids=[" ".join(a) for a, _ in _FACTOR_READS])
def test_a_large_product_prints_what_its_written_table_prints(capsys, argv, out):
    assert _run_unwritten(capsys, *argv) == (0, out, "")


def test_omega_of_a_large_mixed_prime_product_is_refused_as_before(capsys):
    assert _run_unwritten(capsys, "omega", "C1024*C3") == (
        2, "", "error: group order 3072 is not a prime power\n")
