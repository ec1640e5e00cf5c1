#!/usr/bin/env python3
"""Run the theorem battery over the default catalogs (p = 2, 3, 5) and print
every report; exits nonzero if any property is violated.  When stdout is
closed early (``| head``), the battery still runs to its end and sets the
exit code."""

import argparse
import os
import re
import sys
import textwrap
import time

from psigroups import GroupError, build_catalog, verify_theorems
from psigroups.catalog import DEFAULT_CATALOGS, check_catalog_spec
from psigroups.verify import format_reports


def catalog_spec(text: str) -> tuple[int, int]:
    """A ``P:MAX`` argument as (prime, max order), validated like build_catalog."""
    match = re.fullmatch(r"(\d+):(\d+)", text, re.ASCII)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected P:MAX, got {text!r}")
    prime, max_order = int(match[1]), int(match[2])
    try:
        check_catalog_spec([prime], max_order)
    except GroupError as exc:
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None
    return prime, max_order


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--catalogs", nargs="*", metavar="P:MAX", type=catalog_spec,
        help="override the default catalogs, e.g. --catalogs 2:128 3:81")
    args = parser.parse_args()

    violated = False
    for prime, max_order in args.catalogs or DEFAULT_CATALOGS:
        t0 = time.perf_counter()
        cat = build_catalog([prime], max_order)
        reports = verify_theorems(cat)
        elapsed = time.perf_counter() - t0
        violated = violated or any(r.violations for r in reports)
        try:
            print(f"== catalog p={prime} max_order={max_order}: "
                  f"{len(cat.entries)} groups, {elapsed:.2f}s")
            sys.stdout.write(textwrap.indent(format_reports(reports), "  "))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: write the rest, and the exit flush, to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
