"""Every layer the benchmark traces is still called.

The traced benchmark run (``perfbench/run.py --trace``) fails on a layer
that records no call; this runs the same check on catalog-verify's work at a
small size, so a deleted or renamed public function shows in tier-1.
"""

import os
import sys

import psigroups
import psigroups.cli  # noqa: F401  (the package does not import it; the tracer wraps cli_main)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


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
