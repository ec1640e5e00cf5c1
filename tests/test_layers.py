"""Every layer the benchmark traces is still called.

The traced benchmark run (``perfbench/run.py --trace``) fails on a layer
that records no call, or on an operation whose expected spans are missing;
this runs the same checks on catalog-verify's work and on each kind of
gt1-import operation at a small size, so a deleted or renamed public
function, or a call routed around it, shows in tier-1.
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


# Calls per traced span over catalogs 2/16 and 3/27.  A change that does more
# or less work, or routes a call around a traced function, changes a count;
# a refactor that does the same work call for call changes none.
CATALOG_VERIFY_CALLS = {
    "groups.group_from_table": 75, "groups.direct_product": 10, "groups.cyclic_group": 32,
    "groups.dihedral_group": 2, "groups.quaternion_group": 2, "groups.heisenberg_group": 1,
    "groups.modular_group": 1, "groups.power_map": 125, "groups.closure": 125,
    "groups.is_normal": 37, "groups.quotient": 77, "groups.Subgroup.as_group": 37,
    "groups.parse_group_table": 0, "groups.serialize_group": 0,
    "expr.parse_group_expr": 23, "expr.build_group": 23,
    "omega.omega_set": 125, "omega.omega_subgroup": 117, "omega.omega_filtration": 92,
    "cp2.is_cp2_pairwise": 43, "cp2.is_cp2_omega": 37,
    "psi.psi_top_recursion": 23, "psi.psi_bottom_recursion": 20, "psi.psi_filtration": 20,
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
