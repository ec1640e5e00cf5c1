"""The three benchmark workloads and the correctness check of every operation.

Each workload is a closed loop with one client.  Its operations come in
cycles with a fixed multiset; the seed only shuffles the order inside each
cycle and, for ``gt1-import``, picks the perturbation sites of the negative
inputs.  The library receives only the generated inputs.  Expected outputs
are frozen in ``expected.json`` (see ``freeze.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CATALOGS = ((2, 256), (3, 243), (5, 125))

LARGE_EXPRS = ("C64*C64", "D16*Q16*C16", "*".join(["C2"] * 12), "M4096", "H27*C81")
LARGE_COMMANDS = ("psi", "omega", "cp2", "spectrum")
LARGE_COMPARE = ("C64*C64", "D16*Q16*C16")

GT1_EXPRS = ("C32*C32", "D16*Q16*C4")
GT1_NEGATIVES = ("nonassoc", "malformed", "range")

_ATOM_SPANS = {"C": "groups.cyclic_group", "D": "groups.dihedral_group",
               "Q": "groups.quaternion_group", "H": "groups.heisenberg_group",
               "M": "groups.modular_group"}
_OMEGA_SPANS = {"omega.omega_filtration", "omega.omega_set", "groups.power_map",
                "groups.closure"}
_COMMAND_SPANS = {"psi": set(), "spectrum": set(), "omega": _OMEGA_SPANS,
                  "cp2": {"cp2.is_cp2_pairwise"}}
_CATALOG_SPANS = frozenset({
    "catalog.build_catalog", "catalog.make_entry", "verify.verify_theorems",
    "expr.parse_group_expr", "expr.build_group", "groups.group_from_table",
    "groups.direct_product", *_ATOM_SPANS.values(), "groups.power_map",
    "groups.closure", "groups.is_normal", "groups.quotient", "groups.Subgroup.as_group",
    "omega.omega_set", "omega.omega_subgroup", "omega.omega_filtration",
    "cp2.is_cp2_pairwise", "cp2.is_cp2_omega", "psi.psi_top_recursion",
    "psi.psi_bottom_recursion", "psi.psi_filtration", "psi.order_bijection",
})


@dataclass(frozen=True)
class Op:
    """One operation: ``action`` is timed, ``check`` judges its result
    afterwards, ``expects`` names the spans a traced run must record."""

    label: str
    action: Callable[[], object]
    check: Callable[[object], bool]
    expects: frozenset


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def run_cli(lib, argv) -> tuple[int, str, str]:
    """Call ``cli_main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report_lines(reports) -> list[str]:
    """The battery report in the format of ``psigroups verify``."""
    lines = []
    for r in reports:
        lines.append(f"{r.theorem:<24} checked={r.pairs_checked} "
                     f"applicable={r.hypothesis_applicable} "
                     f"violations={len(r.violations)} [{r.status}]")
        lines.extend(f"  violation {s}: {d}" for s, d in r.violations)
        lines.extend(f"  note {s}: {d}" for s, d in r.notes)
    return lines


def large_argvs() -> list[tuple[str, ...]]:
    """The 21 calls of one large-table cycle."""
    return ([(cmd, expr) for expr in LARGE_EXPRS for cmd in LARGE_COMMANDS]
            + [("compare", *LARGE_COMPARE)])


def build_spans(expr: str) -> set[str]:
    spans = {"cli.cli_main", "expr.parse_group_expr", "expr.build_group",
             "groups.group_from_table"}
    spans.update(_ATOM_SPANS[term.strip()[0]] for term in expr.split("*"))
    if "*" in expr:
        spans.add("groups.direct_product")
    return spans


def gt1_text(table: np.ndarray) -> str:
    """GT1 serialization written by the benchmark itself (for negative inputs)."""
    rows = [" ".join(map(str, row)) for row in table.tolist()]
    return f"GT1 {table.shape[0]}\n" + "\n".join(rows) + "\n"


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    name = ""
    # How strongly operation times follow the machine's drift as the
    # reference loop in run.py reads it: 1 for interpreter-bound work that
    # slows in step with the loop, 0 for work the drift does not touch.
    # Operation times are reported times the relative speed to this power.
    # Each workload sets the slope it showed over 30 runs (README.md).
    drift_exponent = 1.0

    def __init__(self, lib, seed: int, workdir: str, expected: dict):
        self.lib = lib
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.expected = expected[self.name]

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Checks run once after the measured loop; returns problems found."""
        return []


class CatalogVerify(Workload):
    """One op: build_catalog + verify_theorems over the three default catalogs."""

    name = "catalog-verify"
    # Many small tables: mostly interpreter-bound, some numpy.
    drift_exponent = 0.75

    def cycle(self) -> list[Op]:
        order = list(CATALOGS)
        self.rng.shuffle(order)

        def action():
            return [(p, self.lib.verify_theorems(self.lib.build_catalog([p], cap)))
                    for p, cap in order]

        return [Op("catalogs " + ",".join(f"{p}/{c}" for p, c in order),
                   action, self._check, _CATALOG_SPANS)]

    def _check(self, result) -> bool:
        for p, reports in result:
            if report_lines(reports) != self.expected[str(p)]:
                return False
            for r in reports:
                want = "vacuous" if (p, r.theorem) == (5, "T1.3") else "verified"
                if r.status != want:
                    return False
        return len(result) == len(CATALOGS)


class LargeTable(Workload):
    """One op: one cli_main call on a table of up to 4096 elements."""

    name = "large-table"
    # The 4096-element numpy kernels follow the drift less than Python does.
    drift_exponent = 0.5

    def cycle(self) -> list[Op]:
        argvs = large_argvs()
        self.rng.shuffle(argvs)
        return [self._op(argv) for argv in argvs]

    def _op(self, argv) -> Op:
        want = self.expected[" ".join(argv)]
        if argv[0] == "compare":
            expects = (build_spans(argv[1]) | build_spans(argv[2]) | _OMEGA_SPANS
                       | {"psi.predict_order", "psi.order_bijection"})
        else:
            expects = build_spans(argv[1]) | _COMMAND_SPANS[argv[0]]
        return Op(" ".join(argv), lambda: run_cli(self.lib, argv),
                  lambda res: res == (0, want, ""), frozenset(expects))


class Gt1Import(Workload):
    """Ops: export of an n=1024 group, import + {psi,omega,cp2,spectrum} of the
    exported file, and three negative inputs that must exit 2."""

    name = "gt1-import"
    # Parsing a million decimal tokens in Python dominates: it slows in step
    # with the reference loop.
    drift_exponent = 1.0

    def __init__(self, *args):
        super().__init__(*args)
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = {expr: os.path.join(self.workdir, expr.replace("*", "x") + ".gt1")
                      for expr in GT1_EXPRS}
        base = self.rng.choice(GT1_EXPRS)
        table = np.array(self.lib.group_from_text(base).table, dtype=np.int64)
        self.negatives = {}
        for kind, text in (("nonassoc", gt1_text(self._switch_intercalate(table))),
                           ("malformed", self._malformed_row(table)),
                           ("range", self._out_of_range(table))):
            path = os.path.join(self.workdir, f"neg-{kind}.gt1")
            with open(path, "w", newline="\n") as handle:
                handle.write(text)
            self.negatives[kind] = path

    def _switch_intercalate(self, table: np.ndarray) -> np.ndarray:
        """Swap the two symbols of one 2x2 latin subsquare away from row and
        column 0: still a latin loop with identity 0, but not associative.

        Rows r, r*u and columns c, u*c form an intercalate when u*u = 1.
        A triple (r, c, z) that breaks associativity is found before the
        table is used, so the input is non-associative by construction.
        """
        n = table.shape[0]
        involutions = [u for u in range(1, n) if table[u, u] == 0]
        while True:
            u = self.rng.choice(involutions)
            r1, c1 = self.rng.randrange(1, n), self.rng.randrange(1, n)
            r2, c2 = int(table[r1, u]), int(table[u, c1])
            if 0 in (r2, c2):
                continue
            bad = table.copy()
            a, b = bad[r1, c1], bad[r1, c2]
            bad[r1, c1] = bad[r2, c2] = b
            bad[r1, c2] = bad[r2, c1] = a
            z = np.arange(n)
            if not np.array_equal(bad[bad[r1, c1], z], bad[r1, bad[c1, z]]):
                return bad

    def _malformed_row(self, table: np.ndarray) -> str:
        n = table.shape[0]
        r, c = self.rng.randrange(n), self.rng.randrange(n)
        tokens = [str(v) for v in table[r].tolist()]
        kind = self.rng.choice(("missing", "sign", "letter"))
        if kind == "missing":
            del tokens[c]
        elif kind == "sign":
            tokens[c] = "-" + tokens[c]
        else:
            tokens[c] = "x"
        lines = gt1_text(table).split("\n")
        lines[r + 1] = " ".join(tokens)
        return "\n".join(lines)

    def _out_of_range(self, table: np.ndarray) -> str:
        n = table.shape[0]
        bad = table.copy()
        bad[self.rng.randrange(n), self.rng.randrange(n)] = n + self.rng.randrange(n)
        return gt1_text(bad)

    def cycle(self) -> list[Op]:
        exprs = list(GT1_EXPRS)
        self.rng.shuffle(exprs)
        ops = []
        for expr in exprs:
            ops.append(self._export(expr))
            commands = list(LARGE_COMMANDS)
            self.rng.shuffle(commands)
            ops.extend(self._import(expr, cmd) for cmd in commands)
        for kind in GT1_NEGATIVES:
            ops.insert(self.rng.randrange(len(ops) + 1), self._negative(kind))
        return ops

    def _export(self, expr: str) -> Op:
        path, digest = self.paths[expr], self.expected["export"][expr]
        return Op(f"export {expr}",
                  lambda: run_cli(self.lib, ["export", expr, "--out", path]),
                  lambda res: res == (0, "", "") and sha256_file(path) == digest,
                  frozenset(build_spans(expr) | {"groups.serialize_group"}))

    def _import(self, expr: str, cmd: str) -> Op:
        path = self.paths[expr]
        want = self.expected["import"][f"{expr} {cmd}"].replace("{path}", path)
        return Op(f"import {expr} {cmd}",
                  lambda: run_cli(self.lib, ["import", path, cmd]),
                  lambda res: res == (0, want, ""),
                  frozenset({"cli.cli_main", "groups.parse_group_table",
                             "groups.group_from_table"} | _COMMAND_SPANS[cmd]))

    def _negative(self, kind: str) -> Op:
        path = self.negatives[kind]
        expects = {"cli.cli_main", "groups.parse_group_table"}
        if kind == "nonassoc":
            expects.add("groups.group_from_table")
        return Op(f"reject {kind}", lambda: run_cli(self.lib, ["import", path, "psi"]),
                  negative_rejected, frozenset(expects))

    def final_check(self) -> list[str]:
        """The library's parse of each exported file equals the file's table."""
        problems = []
        for expr, path in self.paths.items():
            with open(path) as handle:
                text = handle.read()
            n = int(text.split("\n", 1)[0].split()[1])
            table = np.array(text.split()[2:], dtype=np.int64).reshape(n, n)
            try:
                imported = self.lib.parse_group_table(text, name=path).table
            except Exception as exc:  # a library failure is a finding, not a crash
                problems.append(f"import of {expr} raised {exc!r}")
                continue
            if not np.array_equal(imported, table):
                problems.append(f"imported table of {expr} differs from the export")
        return problems


def negative_rejected(result) -> bool:
    """A negative input passes when the CLI rejects it: exit code 2, nothing on
    stdout, and a GroupError message (the file exists, so not an OSError)."""
    code, out, err = result
    return code == 2 and out == "" and err.startswith("error: ")


WORKLOADS = {cls.name: cls for cls in (CatalogVerify, LargeTable, Gt1Import)}
