#!/usr/bin/env python3
"""Write ``expected.json``: the frozen outputs every benchmark operation is
checked against.

    python3 perfbench/freeze.py

Run it only when a workload's operations change, on a commit whose outputs
are known to be right; the file is then reviewed like any other data.
"""

import json
import os
import sys

from run import import_library
from workloads import (CATALOGS, EXPECTED_PATH, GT1_EXPRS, LARGE_COMMANDS, large_argvs,
                       report_lines, run_cli, sha256_file)


def main() -> int:
    lib = import_library()
    expected = {"catalog-verify": {}, "large-table": {},
                "gt1-import": {"export": {}, "import": {}}}
    for p, cap in CATALOGS:
        lines = report_lines(lib.verify_theorems(lib.build_catalog([p], cap)))
        expected["catalog-verify"][str(p)] = lines
    for argv in large_argvs():
        code, out, err = run_cli(lib, argv)
        if code != 0 or err:
            raise SystemExit(f"{argv} failed: exit {code} {err}")
        expected["large-table"][" ".join(argv)] = out
    path = os.path.join(os.path.dirname(EXPECTED_PATH), "freeze.gt1")
    try:
        for expr in GT1_EXPRS:
            if run_cli(lib, ["export", expr, "--out", path])[0] != 0:
                raise SystemExit(f"export {expr} failed")
            expected["gt1-import"]["export"][expr] = sha256_file(path)
            for cmd in LARGE_COMMANDS:
                code, out, err = run_cli(lib, ["import", path, cmd])
                if code != 0 or err:
                    raise SystemExit(f"import {expr} {cmd} failed: exit {code} {err}")
                expected["gt1-import"]["import"][f"{expr} {cmd}"] = out.replace(
                    path, "{path}")
    finally:
        if os.path.exists(path):
            os.remove(path)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
