import dataclasses
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from psigroups import Catalog, TheoremReport, build_catalog, groups, verify_theorems
from psigroups.cli import cli_main
from psigroups.cp2 import Cp2Report
from psigroups.verify import format_reports

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_verification.py"
GOLDEN = Path(__file__).parent / "golden"
EXPECTED = Path(__file__).parent.parent / "perfbench" / "expected.json"

sys.path.insert(0, str(EXPECTED.parent))

import tracer  # noqa: E402  (read only: its THEOREMS lists the twelve properties in report order)


def _entry(cat, name):
    return next(entry for entry in cat.entries if entry.name == name)


@pytest.fixture(scope="module")
def reports_p3_27():
    return {r.theorem: r for r in verify_theorems(build_catalog([3], 27))}


@pytest.fixture(scope="module")
def reports_p2_8():
    return {r.theorem: r for r in verify_theorems(build_catalog([2], 8))}


def test_one_report_per_property(reports_p3_27):
    assert tuple(reports_p3_27) == tracer.THEOREMS


def test_p3_catalog_fully_verified(reports_p3_27):
    for report in reports_p3_27.values():
        assert report.status != "violated", (report.theorem, report.violations)
    # T1.3 has no applicable pair below order 81
    assert reports_p3_27["T1.3"].status == "vacuous"
    for name in ("T1.1", "T1.2", "T1.4", "cp2-agreement", "psi-mod-p"):
        assert reports_p3_27[name].status == "verified"


def test_t11_covers_the_equal_pair(reports_p3_27):
    report = reports_p3_27["T1.1"]
    cat = build_catalog([3], 27)
    assert _entry(cat, "C9*C3").psi == 187
    assert _entry(cat, "M27").psi == 187
    # 5 CP2 entries at order 27, 3 below: C(5,2) + C(2,2 choose...) pairs all applicable
    assert report.hypothesis_applicable == report.pairs_checked == 11


def test_p2_catalog_t12_pair(reports_p2_8):
    report = reports_p2_8["T1.2"]
    assert report.status == "verified"
    cat = build_catalog([2], 8)
    assert _entry(cat, "C8").psi == 43
    assert _entry(cat, "D8").psi == 19
    assert _entry(cat, "C8").exponent > _entry(cat, "D8").exponent


# sha256 of `psigroups verify` stdout on catalogs past the default caps,
# T1.4 over 1078 pairs at 2/512
VERIFY_DIGESTS = {
    (2, 512): "330ee60bee9e1dae6a13cdf09e26f559cf0cb47c1772c159c020e93534976f4c",
    (3, 729): "3a1e07abed4c2a7ea3d8c52d69b706eb598eb5b37ddf7737a88012ec64250b7b",
    (5, 625): "125183c8528179bab2ea0093419b910019b4011c85216afff4a9d6bd4a96b4ba",
}


@pytest.mark.parametrize("p,cap", sorted(VERIFY_DIGESTS))
def test_verify_stdout_is_pinned(capsys, p, cap):
    assert cli_main(["verify", "--p", str(p), "--max-order", str(cap)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[(p, cap)]


def test_status_flags():
    report = TheoremReport("x", pairs_checked=3, hypothesis_applicable=2, violations=())
    assert report.status == "verified"
    report = TheoremReport("x", pairs_checked=3, hypothesis_applicable=0, violations=())
    assert report.status == "vacuous"
    report = TheoremReport(
        "x", pairs_checked=3, hypothesis_applicable=2, violations=(("pair", "detail"),))
    assert report.status == "violated"


def test_empty_catalog_is_vacuous():
    empty = Catalog(entries=())
    for report in verify_theorems(empty):
        assert report.status == "vacuous"
        assert report.pairs_checked == 0


def test_default_battery_p5():
    reports = verify_theorems(build_catalog([5], 125))
    assert not any(r.status == "violated" for r in reports)


def test_closure_calls_on_the_p5_catalog(monkeypatch):
    """Work guard: a group's filtration and quotients are computed once and
    kept, so building and verifying the 5/125 catalog makes 37 closures (146
    when every caller recomputed them)."""
    calls = 0
    closure = groups.closure

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return closure(*args, **kwargs)

    # rebind every module's copy of the name, as ``from .groups import closure`` makes one
    for name, module in list(sys.modules.items()):
        if name == "psigroups" or name.startswith("psigroups."):
            for key, value in list(vars(module).items()):
                if value is closure:
                    monkeypatch.setattr(module, key, counting)
    reports = verify_theorems(build_catalog([5], 125))
    assert not any(r.violations for r in reports)
    assert 0 < calls <= 37


def test_format_reports_lists_violations_and_notes():
    reports = [TheoremReport("T1.1", 2, 1, (("(A, B)", "bad"),), (("(C, D)", "fyi"),)),
               TheoremReport("T1.2", 1, 0, ())]
    assert format_reports(reports) == (
        "T1.1                     checked=2 applicable=1 violations=1 [violated]\n"
        "  violation (A, B): bad\n"
        "  note (C, D): fyi\n"
        "T1.2                     checked=1 applicable=0 violations=0 [vacuous]\n")


def _tampered_catalog() -> Catalog:
    """Catalogs 2/32 and 3/81 with entries edited so that most properties
    report a violation or a note: psi moved by 1 or by p (C2; C4 and C2*C2 to
    one shared value; D8 and C2*C2*C2 likewise; M81), a CP2 entry given a
    pairwise witness (C9), a level psi value (C9*C3) and a filtration (C4*C2
    given D8's)."""
    entries = {entry.name: entry for p, cap in ((2, 32), (3, 81))
               for entry in build_catalog([p], cap).entries}

    def edit(name, **changes):
        entries[name] = dataclasses.replace(entries[name], **changes)

    for name, step in (("C2", 1), ("C4", -2), ("C2*C2", 2), ("D8", -2), ("C2*C2*C2", 2),
                       ("M81", 3)):
        edit(name, psi=entries[name].psi + step)
    edit("C4*C2", filtration=entries["D8"].filtration)
    edit("C9", cp2=Cp2Report(witness=(1, 2, 9, 9, 3)))
    level_psi = entries["C9*C3"].level_psi
    edit("C9*C3", level_psi=(level_psi[0], level_psi[1] + 3, *level_psi[2:]))
    return Catalog(entries=tuple(entries.values()))


def test_a_false_cp2_claim_is_reported_not_raised():
    # Q16 is not CP2, and its entry claims it is: each psi formula decides its
    # own hypothesis, so the battery runs on, and the properties gated on the
    # claim report the group
    entries = tuple(dataclasses.replace(entry, cp2=Cp2Report()) if entry.name == "Q16" else entry
                    for entry in build_catalog([2], 16).entries)
    reports = verify_theorems(Catalog(entries=entries))
    assert {r.theorem: r.violations for r in reports if r.violations} == {
        "cp2-agreement": (("Q16", "pairwise says True, omega criterion says False"),),
        "max-order-law": (("Q16", "o(x)=8, o(y)=4, o(xy)=4 at (1,8)"),),
        "cp2-quotient-closure": (("Q16", "quotient by Omega_1 not CP2, witness (4, 5, 2, 2, 4)"),),
    }


def test_tampered_catalog_reports_are_pinned():
    """Violation and note lines byte for byte, which no catalog golden holds."""
    reports = verify_theorems(_tampered_catalog())
    assert format_reports(reports) == (GOLDEN / "verify_tampered.txt").read_text()
    flagged = {r.theorem for r in reports if r.violations or r.notes}
    assert flagged >= {"cp2-agreement", "omega-quotient-sizes", "psi-oracle-equivalence",
                       "psi-mod-p", "T1.1", "T1.2", "T1.4", "exp-gap-bound",
                       "abelian-psi-injective"}


@pytest.mark.parametrize("spec,fragment", [
    ("2", "expected P:MAX"),
    ("2:x", "expected P:MAX"),
    ("4:16", "4 is not a prime"),
    ("2:0", "max order must be positive"),
    ("1000000000000000003:16", "1000000000000000003 exceeds table size limit"),
])
def test_script_rejects_malformed_catalog_spec(capsys, monkeypatch, spec, fragment):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--catalogs", spec])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --catalogs" in captured.err and fragment in captured.err


def _script_env(**extra) -> dict[str, str]:
    """The environment for running the script in a subprocess on this ``src``."""
    src = str(SCRIPT.parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src, **extra}


def test_script_refuses_a_prime_above_the_table_limit_at_once():
    # trial division of this prime runs for minutes, so the limit is checked first
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--catalogs", "1000000000000000003:16"],
        capture_output=True, text=True, env=_script_env(), timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert errors == ["run_verification.py: error: argument --catalogs: 1000000000000000003:16: "
                      "1000000000000000003 exceeds table size limit 4096"]


def test_script_refuses_a_prime_whose_cyclic_group_cannot_fit_in_memory():
    # a raised limit lets the prime past the limit check; memory still bounds it
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--catalogs", "1000000000000000003:16"],
        capture_output=True, text=True,
        env=_script_env(PSIGROUPS_MAX_ORDER="1000000000000000000000"), timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert re.fullmatch(r"run_verification.py: error: argument --catalogs: 1000000000000000003:16: "
                        r"group order 1000000000000000003 needs about \d+ bytes, "
                        r"more than the \d+ bytes of physical memory", errors[0])


def test_script_runs_a_small_catalog(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--catalogs", "3:27"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("== catalog p=3 max_order=27: ")
    assert lines[1:] == [
        "  " + line for line in format_reports(verify_theorems(build_catalog([3], 27))).splitlines()]


def test_script_on_a_closed_pipe_runs_the_battery_to_its_exit_code():
    # `run_verification.py | head -1`: the reader is gone before the first
    # report, which ended in a BrokenPipeError traceback and exit code 1
    proc = subprocess.Popen([sys.executable, str(SCRIPT), "--catalogs", "2:16", "3:27"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_script_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("prime,cap", [(2, 256), (3, 243), (5, 125)])
def test_default_catalog_reports_match_the_frozen_lines(prime, cap):
    """The benchmark's frozen report lines, checked in tier-1 too, so a
    change to a default catalog's contents fails here first."""
    expected = json.loads(EXPECTED.read_text())["catalog-verify"][str(prime)]
    assert format_reports(verify_theorems(build_catalog([prime], cap))).splitlines() == expected
