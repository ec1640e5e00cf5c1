"""Command-line interface.

Subcommands operate on groups given in the construction expression language
(`psi`, `omega`, `cp2`, `spectrum`, `compare`, `export`) or on GT1 table
files (`import`), and `verify` runs the theorem battery over a built catalog.
Every command on an expression builds its group, which writes its table only
when the table is first read (see ``groups``): `psi` and `spectrum` read only
the element orders, so they never write it, and of a group over one row
block `omega`, `cp2` and `compare` read its products from its law and never
write it either; `cp2` of such a direct product of one prime reads none of
its own products, only the CP2 decisions of the two sides it was bracketed
into when built.  An expression and an
imported file are rendered by the same renderers.
Output is plain ASCII with LF newlines and is byte-stable for fixed inputs.

Exit codes: 0 success, 1 theorem violation from `verify`, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .catalog import build_catalog
from .cp2 import is_cp2_pairwise
from .expr import group_from_text
from .groups import FiniteGroup, GroupError, parse_group_table, serialize_group
from .groups import order_spectrum
from .omega import omega_filtration
from .psi import order_bijection, predict_order
from .verify import format_reports, verify_theorems


def _render_psi(group: FiniteGroup) -> str:
    return f"psi({group.name}) = {int(group.element_orders.sum())}\n"


def _render_omega(group: FiniteGroup) -> str:
    filtration = omega_filtration(group)
    return "".join(
        f"i={i} set={level.set_size} gen={level.subgroup_size}\n"
        for i, level in enumerate(filtration.levels))


def _render_cp2(group: FiniteGroup) -> str:
    report = is_cp2_pairwise(group)
    if report.is_cp2:
        return "CP2: yes\n"
    x, y, ox, oy, oxy = report.witness
    return f"CP2: no\nwitness: x={x} y={y} o(x)={ox} o(y)={oy} o(xy)={oxy}\n"


def _render_spectrum(group: FiniteGroup) -> str:
    return "".join(f"{order}:{count}\n"
                   for order, count in order_spectrum(group.element_orders).items())


def _render_compare(p_group: FiniteGroup, q_group: FiniteGroup) -> str:
    comparison = predict_order(p_group, q_group)
    lines = [
        f"psi({p_group.name}) = {comparison.psi_p}",
        f"psi({q_group.name}) = {comparison.psi_q}",
        f"relation: {comparison.relation}",
        comparison.summary,
        "hypotheses:",
    ]
    for check in comparison.hypothesis_log:
        mark = "pass" if check.passed else "fail"
        lines.append(f"  [{mark}] {check.name}: {check.detail}")
    lines.append("bijection: yes" if order_bijection(p_group, q_group) else "bijection: no")
    return "\n".join(lines) + "\n"


# the commands on one group, given by an expression or by `import`
_RENDERERS = {"psi": _render_psi, "omega": _render_omega, "cp2": _render_cp2,
              "spectrum": _render_spectrum}


def _render_verify(prime: int, max_order: int) -> tuple[str, int]:
    reports = verify_theorems(build_catalog([prime], max_order))
    return format_reports(reports), 1 if any(r.violations for r in reports) else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, so every ``cli_main`` call reads the same one."""
    parser = argparse.ArgumentParser(
        prog="psigroups",
        description="Element-order sums, omega filtrations and CP2 membership "
                    "for finite groups given by construction expressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("psi", "print the sum of element orders"),
        ("omega", "print set and subgroup sizes of every omega level"),
        ("cp2", "decide CP2 membership by the pairwise test"),
        ("spectrum", "print the order spectrum"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("expr", help="group expression, e.g. C4*C4 or D16")

    cmd = sub.add_parser("compare", help="compare psi of two same-order groups")
    cmd.add_argument("expr1")
    cmd.add_argument("expr2")

    cmd = sub.add_parser("verify", help="run the theorem battery over a catalog")
    cmd.add_argument("--p", type=int, required=True, help="catalog prime")
    cmd.add_argument("--max-order", type=int, required=True, help="largest group order")

    cmd = sub.add_parser("export", help="write a group table in GT1 format")
    cmd.add_argument("expr")
    cmd.add_argument("--out", required=True, help="output path")

    cmd = sub.add_parser("import", help="run a subcommand on a GT1 table file")
    cmd.add_argument("path")
    cmd.add_argument("subcommand", choices=sorted(_RENDERERS))
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command in _RENDERERS:
            sys.stdout.write(_RENDERERS[args.command](group_from_text(args.expr)))
            return 0
        if args.command == "compare":
            sys.stdout.write(
                _render_compare(group_from_text(args.expr1), group_from_text(args.expr2)))
            return 0
        if args.command == "verify":
            text, code = _render_verify(args.p, args.max_order)
            sys.stdout.write(text)
            return code
        if args.command == "export":
            group = group_from_text(args.expr)
            with open(args.out, "wb") as handle:
                serialize_group(group, handle)
            return 0
        if args.command == "import":
            with open(args.path, "rb") as handle:
                data = handle.read()
            # argv holds undecodable path bytes as surrogates, which stdout cannot encode
            name = args.path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            sys.stdout.write(_RENDERERS[args.subcommand](parse_group_table(data, name=name)))
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    # UnicodeEncodeError: open() of a path holding a lone surrogate
    except (GroupError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
