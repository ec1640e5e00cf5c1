"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
all expected values are exact integers frozen after independent brute-force
verification.
"""

import time
from pathlib import Path

import pytest

from psigroups import (
    build_catalog,
    group_from_text,
    order_bijection,
    predict_order,
    psi_brute,
    psi_filtration,
    verify_theorems,
)
from psigroups.catalog import DEFAULT_CATALOGS, abelian_names
from psigroups.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"


def _entry(cat, name):
    return next(entry for entry in cat.entries if entry.name == name)


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_catalogs():
    return {p: build_catalog([p], max_order) for p, max_order in DEFAULT_CATALOGS}


def test_criterion_1_psi79_pair():
    start = time.perf_counter()
    elementary = group_from_text("C3*C3*C3")
    extraspecial = group_from_text("H27")
    psi_e = psi_brute(elementary)
    psi_h = psi_brute(extraspecial)
    found = order_bijection(elementary, extraspecial)
    elapsed = time.perf_counter() - start
    ok = psi_e == 79 and psi_h == 79 and found is True and elapsed < 1.0
    report(1, ok, f"psi(C3*C3*C3) = {psi_e}, psi(H27) = {psi_h}, "
                  f"bijection: {'yes' if found else 'no'}, {elapsed:.3f}s")


def test_criterion_2_counterexample():
    start = time.perf_counter()
    big_exp = group_from_text("D16*C2*C2*C2*C2")
    small_exp = group_from_text("C4*C4*C4*C4")
    comparison = predict_order(big_exp, small_exp)
    elapsed = time.perf_counter() - start
    failed = [c for c in comparison.hypothesis_log if not c.passed]
    ok = (comparison.psi_p == 959 and comparison.psi_q == 991
          and comparison.relation == "<"
          and comparison.predicted_relation is None
          and comparison.summary == "T1.2 inapplicable: Omega_{m-1}(P)=P"
          and len(failed) == 1 and "Omega_{m-1}(P) proper" in failed[0].name
          and elapsed < 5.0)
    report(2, ok, f"psi 959 < 991 with exponents 8 > 4, hypothesis failure "
                  f"{failed[0].name!r}, {elapsed:.3f}s")


def test_criterion_3_oracle_equivalence():
    from psigroups import OmegaChainError, psi_bottom_recursion, psi_top_recursion

    start = time.perf_counter()
    checked = mismatches = 0
    for p, max_order in DEFAULT_CATALOGS:
        for entry in build_catalog([p], max_order).entries:
            values = {}
            try:
                values["top"] = psi_top_recursion(entry.group)
            except OmegaChainError:
                pass
            if entry.cp2.is_cp2:
                values["bottom"] = psi_bottom_recursion(entry.group)
                values["filtration"] = psi_filtration(entry.group)
            checked += len(values)
            mismatches += sum(1 for v in values.values() if v != entry.psi)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked > 0 and elapsed < 60.0
    report(3, ok, f"{checked} formula evaluations across default catalogs, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_t11_suite(default_catalogs):
    violations = sum(
        len(r.violations)
        for cat in default_catalogs.values()
        for r in verify_theorems(cat) if r.theorem == "T1.1")
    cat3 = default_catalogs[3]
    pair = (_entry(cat3, "C9*C3"), _entry(cat3, "M27"))
    nontrivial = (pair[0].psi == pair[1].psi == 187
                  and pair[0].name != pair[1].name)
    ok = violations == 0 and nontrivial
    report(4, ok, f"T1.1 zero violations; equal pair (C9*C3, M27) with psi = "
                  f"{pair[0].psi}")


def test_criterion_5_t13_suite(default_catalogs):
    t13 = {p: next(r for r in verify_theorems(cat) if r.theorem == "T1.3")
           for p, cat in default_catalogs.items()}
    violations = sum(len(r.violations) for r in t13.values())
    applicable = t13[3].hypothesis_applicable
    big = _entry(default_catalogs[3], "C9*C9")
    small = _entry(default_catalogs[3], "C9*C3*C3")
    pair_ok = (big.psi == 673 and small.psi == 565
               and big.exponent == small.exponent == 9
               and big.filtration.subgroup_size_at(1) < small.filtration.subgroup_size_at(1)
               and big.level_psi_at(1) > 0 and small.level_psi_at(1) > 0)
    ok = violations == 0 and applicable >= 1 and pair_ok
    report(5, ok, f"T1.3 zero violations, {applicable} applicable 3-group pairs "
                  f"including (C9*C9, C9*C3*C3) with psi 673 > 565")


def test_criterion_6_cp2_agreement(default_catalogs):
    disagreements = sum(
        len(r.violations)
        for cat in default_catalogs.values()
        for r in verify_theorems(cat) if r.theorem == "cp2-agreement")
    cat2, cat3 = default_catalogs[2], default_catalogs[3]
    negatives = [_entry(cat2, "D8"), _entry(cat2, "D16")]
    positives = [_entry(cat2, "Q8"), _entry(cat3, "H27"), _entry(cat3, "M27")]
    positives += [e for cat in default_catalogs.values()
                  for e in cat.entries if e.is_abelian]
    ok = (disagreements == 0
          and not any(e.cp2.is_cp2 for e in negatives)
          and all(e.cp2.is_cp2 for e in positives))
    report(6, ok, f"criteria agree on every entry; {len(negatives)} expected "
                  f"negatives and {len(positives)} expected positives check out")


def test_criterion_7_abelian_injectivity():
    start = time.perf_counter()
    collisions = []
    for p in (2, 3):
        for k in range(1, 8):
            values: dict[int, str] = {}
            for name in abelian_names(p, k):
                value = psi_filtration(group_from_text(name))
                if value in values:
                    collisions.append((p, k, values[value], name, value))
                values[value] = name
    elapsed = time.perf_counter() - start
    ok = not collisions and elapsed < 120.0
    report(7, ok, f"psi injective over abelian groups of order p^k, p in (2,3), "
                  f"k <= 7 (15 partitions at k=7), {elapsed:.1f}s; "
                  f"collisions: {collisions}")


def test_criterion_8_psi_mod_p(default_catalogs):
    violations = [
        (entry.name, entry.psi)
        for cat in default_catalogs.values()
        for entry in cat.entries
        if entry.psi % entry.prime != 1]
    total = sum(len(cat.entries) for cat in default_catalogs.values())
    report(8, not violations,
           f"psi = 1 mod p for all {total} catalog entries; violations: {violations}")


def test_criterion_9_cli_golden(capsys):
    cases = [
        ("psi_c3c3c3.txt", ["psi", "C3*C3*C3"]),
        ("compare_counterexample.txt",
         ["compare", "D16*C2*C2*C2*C2", "C4*C4*C4*C4"]),
        ("cp2_d8.txt", ["cp2", "D8"]),
    ]
    failures = []
    for golden, argv in cases:
        code = cli_main(argv)
        out = capsys.readouterr().out
        expected = (GOLDEN / golden).read_text()
        if code != 0 or out != expected:
            failures.append(golden)
    with capsys.disabled():
        report(9, not failures,
               f"3 CLI outputs byte-identical to golden files; failures: {failures}")
