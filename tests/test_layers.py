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

import psigroups
import psigroups.cli  # noqa: F401  (the package does not import it; the tracer wraps cli_main)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import naive_gt1_text, table_of  # noqa: E402


def test_every_catalog_verify_layer_records_a_call():
    # 2/16 and 3/27 build every atom family (C, D, Q at p = 2; H, M at p = 3)
    spans = tracer.Tracer()
    spans.install()
    try:
        for p, cap in ((2, 16), (3, 27)):
            psigroups.verify_theorems(psigroups.build_catalog([p], cap))
    finally:
        spans.uninstall()
    rows = spans.take_cycle()["rows"]
    assert sorted(name for name in workloads._CATALOG_SPANS if name not in rows) == []
    assert sorted(set(tracer.THEOREMS) - set(spans.theorem_of.values())) == []


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
