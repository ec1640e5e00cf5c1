"""Every layer the benchmark traces is still called.

The traced benchmark run (``perfbench/run.py --trace``) fails when a span in
the union of its cycle's operations' ``expects`` records no call; no single
operation is held to its own.  This runs that rule on catalog-verify's work
and on one large-table cycle at a small size, and holds each large-table
and gt1-import operation to its own spans too, so a deleted or renamed
public function, or a call routed around it by one operation while another
still makes it, shows in tier-1.  Over the same kind of work it also pins
that no library path proves closed a set it grew itself.
"""

import hashlib
import os
import sys

import pytest

import psigroups
import psigroups.cli  # noqa: F401  (the package does not import it; the tracer wraps cli_main)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import naive_gt1_text, table_of  # noqa: E402


@pytest.fixture(scope="module")
def catalog_verify_trace():
    """The tracer and its one cycle over catalogs 2/16 and 3/27, which build
    every atom family (C, D, Q at p = 2; H, M at p = 3)."""
    spans = tracer.Tracer()
    spans.install()
    try:
        for p, cap in ((2, 16), (3, 27)):
            psigroups.verify_theorems(psigroups.build_catalog([p], cap))
    finally:
        spans.uninstall()
    return spans, spans.take_cycle()["rows"]


def test_every_catalog_verify_layer_records_a_call(catalog_verify_trace):
    spans, rows = catalog_verify_trace
    assert sorted(name for name in workloads._CATALOG_SPANS if name not in rows) == []
    assert sorted(set(tracer.THEOREMS) - set(spans.theorem_of.values())) == []


def test_each_theorem_is_keyed_to_its_own_span(catalog_verify_trace):
    # a module-level helper that returns every TheoremReport would be keyed
    # to the last theorem it built and take the other theorems' time with it
    spans, _ = catalog_verify_trace
    assert len(spans.theorem_of) == len(tracer.THEOREMS) == 12
    assert sorted(spans.theorem_of.values()) == sorted(tracer.THEOREMS)


# Calls per traced span over catalogs 2/16 and 3/27.  A change that does more
# or less work, or routes a call around a traced function, changes a count;
# a refactor that does the same work call for call changes none.
CATALOG_VERIFY_CALLS = {
    "groups.group_from_table": 27, "groups.direct_product": 10, "groups.cyclic_group": 21,
    "groups.dihedral_group": 2, "groups.quaternion_group": 2, "groups.heisenberg_group": 1,
    "groups.modular_group": 1, "groups.power_map": 57, "groups.closure": 125,
    "groups.is_normal": 37, "groups.quotient": 77, "groups.Subgroup.as_group": 37,
    "groups.parse_group_table": 0, "groups.serialize_group": 0,
    "expr.parse_group_expr": 23, "expr.build_group": 23,
    "omega.omega_set": 125, "omega.omega_subgroup": 117, "omega.omega_filtration": 98,
    "cp2.is_cp2_pairwise": 43, "cp2.is_cp2_omega": 40,
    "psi.psi_top_recursion": 23, "psi.psi_bottom_recursion": 23, "psi.psi_filtration": 23,
    "psi.predict_order": 0, "psi.order_bijection": 43,
    "catalog.make_entry": 23, "catalog.build_catalog": 2,
    "verify.verify_theorems": 2, "cli.cli_main": 0,
}


def test_catalog_verify_makes_the_pinned_calls(catalog_verify_trace):
    _, rows = catalog_verify_trace
    calls = {name: int(rows[name]["calls"]) if name in rows else 0 for name in tracer.SPAN_NAMES}
    assert calls == CATALOG_VERIFY_CALLS


def test_every_gt1_import_op_records_its_spans(monkeypatch, tmp_path):
    # one 16-element group: its export, its four imports and the three
    # negative inputs, each judged by the workload's own check
    expr = "C4*C4"
    monkeypatch.setattr(workloads, "GT1_EXPRS", (expr,))
    digest = hashlib.sha256(
        naive_gt1_text(table_of(psigroups.group_from_text(expr))).encode()).hexdigest()
    imports = {f"{expr} {cmd}": workloads.run_cli(psigroups, [cmd, expr])[1].replace(
        expr, "{path}") for cmd in workloads.LARGE_COMMANDS}
    expected = {"gt1-import": {"export": {expr: digest}, "import": imports}}
    ops = workloads.Gt1Import(psigroups, 1, str(tmp_path), expected).cycle()
    assert sorted(op.label.split(" ")[0] for op in ops) == ["export"] + ["import"] * 4 + [
        "reject"] * 3
    spans = tracer.Tracer()
    spans.install()
    try:
        for op in ops:
            result = op.action()
            rows = spans.take_cycle()["rows"]
            assert op.check(result), op.label
            want = op.expects | ({"groups.serialize_group"} if op.label.startswith("export")
                                 else set())
            assert sorted(want - set(rows)) == [], op.label
    finally:
        spans.uninstall()


def _silent_per_op(monkeypatch, block=None):
    """The spans each operation of one traced large-table cycle expects but
    did not record itself, keyed by the operation's label; empty when every
    operation records its own, which holds the cycle's union too.

    Small stand-ins for the five expressions, with every atom family, and a
    same-order compare; the expected outputs are taken at the default block.
    At ``block`` every stand-in product is over one row block, so omega, cp2
    and compare read its factors and write no product table (``_product``
    raises), as they do at n = 4096."""
    monkeypatch.setattr(workloads, "LARGE_EXPRS", ("C4*C4", "D8*Q8*C4", "C2*C2*C2*C2", "M16",
                                                   "H27*C3"))
    monkeypatch.setattr(workloads, "LARGE_COMPARE", ("C4*C4", "D8*C2"))
    expected = {" ".join(argv): workloads.run_cli(psigroups, argv)[1]
                for argv in workloads.large_argvs()}
    if block is not None:
        monkeypatch.setattr(psigroups.groups, "_BLOCK_ENTRIES", block)
        monkeypatch.setattr(psigroups.groups, "_product", _refuse_table)
    ops = workloads.LargeTable(psigroups, 1, "", {"large-table": expected}).cycle()
    assert len(ops) == 21
    spans = tracer.Tracer()
    spans.install()
    silent = {}
    try:
        for op in ops:
            assert op.check(op.action()), op.label
            rows = spans.take_cycle()["rows"]
            missing = sorted(name for name in op.expects
                             if name not in rows or not rows[name]["calls"])
            if missing:
                silent[op.label] = missing
    finally:
        spans.uninstall()
    return silent


def _refuse_table(factors):
    raise AssertionError("a product over one row block must leave its table unwritten")


def test_each_large_table_op_records_its_own_spans(monkeypatch):
    # psi and spectrum build their group as every other command does, so
    # each records its build spans itself, not through omega or cp2
    assert _silent_per_op(monkeypatch) == {}


def test_a_large_table_cycle_read_from_factors_records_every_expected_span(monkeypatch):
    assert _silent_per_op(monkeypatch, block=1) == {}


def test_no_library_path_proves_a_set_it_grew(monkeypatch):
    # every subgroup the library grows (a closure, a kept Omega level) is
    # closed by construction; only a caller's members, given without
    # _gens, are proved closed, and the paper's work makes no such call
    runs = []
    check = psigroups.groups.Subgroup.__post_init__
    monkeypatch.setattr(psigroups.groups.Subgroup, "__post_init__",
                        lambda sub: runs.append(sub._gens is None) or check(sub))
    for p, cap in ((2, 64), (3, 81), (5, 125)):
        psigroups.verify_theorems(psigroups.build_catalog([p], cap))
    expected = workloads.load_expected()["large-table"]
    for argv in workloads.large_argvs():
        assert workloads.run_cli(psigroups, argv)[1] == expected[" ".join(argv)], argv
    assert runs and runs.count(True) == 0
