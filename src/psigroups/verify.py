"""Theorem verification battery over a catalog.

Each property becomes one TheoremReport.  A report is ``verified`` when its
hypotheses applied somewhere and no violation was found, ``vacuous`` when the
hypotheses never applied, and ``violated`` otherwise.  Violations are data,
not exceptions: the battery always runs to completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, CatalogEntry
from .cp2 import _first_pair, cp2_from_filtration, is_cp2_pairwise
from .groups import OmegaChainError, quotient
from .omega import omega_filtration, omega_subgroup
from .psi import (
    OrderDecision,
    compare_filtrations,
    order_bijection,
    psi_bottom_recursion,
    psi_filtration,
    psi_top_recursion,
)

@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking one property over the catalog."""

    theorem: str
    pairs_checked: int
    hypothesis_applicable: int
    violations: tuple[tuple[str, str], ...]
    notes: tuple[tuple[str, str], ...] = field(default=())

    @property
    def status(self) -> str:
        if self.violations:
            return "violated"
        if self.hypothesis_applicable == 0:
            return "vacuous"
        return "verified"


class _Tally:
    def __init__(self, theorem: str):
        self.theorem = theorem
        self.checked = 0
        self.applicable = 0
        self.violations: list[tuple[str, str]] = []
        self.notes: list[tuple[str, str]] = []

    def record(self, subject: str, applicable: bool, ok: bool = True, detail: str = ""):
        self.checked += 1
        if applicable:
            self.applicable += 1
            if not ok:
                self.violations.append((subject, detail))

    def note(self, subject: str, detail: str):
        self.notes.append((subject, detail))

    def report(self) -> TheoremReport:
        return TheoremReport(
            theorem=self.theorem,
            pairs_checked=self.checked,
            hypothesis_applicable=self.applicable,
            violations=tuple(self.violations),
            notes=tuple(self.notes),
        )


Pairs = list[tuple[CatalogEntry, CatalogEntry, OrderDecision]]


def _same_order_pairs(cat: Catalog) -> Pairs:
    """Unordered entry pairs sharing prime and order, in catalog order, each with
    its one ``compare_filtrations`` decision, which every pair property reads."""
    buckets: dict[tuple[int, int], list[CatalogEntry]] = {}
    for entry in cat.entries:
        buckets.setdefault((entry.prime, entry.order), []).append(entry)
    return [(a, b, compare_filtrations(a.filtration, b.filtration))
            for key in sorted(buckets) for a, b in itertools.combinations(buckets[key], 2)]


def _pair_name(a: CatalogEntry, b: CatalogEntry) -> str:
    return f"({a.name}, {b.name})"


def _oriented(a: CatalogEntry, b: CatalogEntry, decision: OrderDecision):
    """(larger-psi entry, smaller-psi entry) as the decision names them."""
    return (a, b) if decision.larger == "P" else (b, a)


def _check_cp2_agreement(cat: Catalog) -> TheoremReport:
    tally = _Tally("cp2-agreement")
    for entry in cat.entries:
        omega_verdict = cp2_from_filtration(entry.filtration).is_cp2
        pairwise_verdict = entry.cp2.is_cp2
        tally.record(
            entry.name, applicable=True, ok=omega_verdict == pairwise_verdict,
            detail=f"pairwise says {pairwise_verdict}, omega criterion says {omega_verdict}")
    return tally.report()


def _check_max_order_law(cat: Catalog) -> TheoremReport:
    tally = _Tally("max-order-law")
    for entry in cat.entries:
        if not entry.cp2.is_cp2:
            tally.record(entry.name, applicable=False)
            continue
        pair = _first_pair(
            entry.group, lambda oxy, ox, oy: (ox != oy) & (oxy != np.maximum(ox, oy)),
            np.arange(entry.group.order))
        detail = ""
        if pair is not None:
            x, y = pair
            orders = entry.group.element_orders
            detail = (f"o(x)={int(orders[x])}, o(y)={int(orders[y])}, "
                      f"o(xy)={int(orders[entry.group.table[x, y]])} at ({x},{y})")
        tally.record(entry.name, applicable=True, ok=pair is None, detail=detail)
    return tally.report()


def _check_cp2_quotient_closure(cat: Catalog) -> TheoremReport:
    tally = _Tally("cp2-quotient-closure")
    for entry in cat.entries:
        if not entry.cp2.is_cp2:
            tally.record(entry.name, applicable=False)
            continue
        quo = quotient(omega_subgroup(entry.group, 1))
        verdict = is_cp2_pairwise(quo)
        tally.record(
            entry.name, applicable=True, ok=verdict.is_cp2,
            detail=f"quotient by Omega_1 not CP2, witness {verdict.witness}")
    return tally.report()


def _check_omega_quotient_sizes(cat: Catalog) -> TheoremReport:
    tally = _Tally("omega-quotient-sizes")
    for entry in cat.entries:
        if not entry.cp2.is_cp2:
            tally.record(entry.name, applicable=False)
            continue
        omega1 = entry.filtration.subgroup_size_at(1)
        quo = quotient(omega_subgroup(entry.group, 1))
        if quo.order == 1:
            tally.record(entry.name, applicable=True, ok=True)
            continue
        quo_filtration = omega_filtration(quo)
        ok = True
        detail = ""
        for i in range(quo_filtration.m + 1):
            expected = entry.filtration.subgroup_size_at(i + 1) // omega1
            actual = quo_filtration.subgroup_size_at(i)
            if expected != actual:
                ok = False
                detail = (f"|Omega_{i}(G/Omega_1)| = {actual}, "
                          f"|Omega_{i + 1}(G)|/|Omega_1(G)| = {expected}")
                break
        tally.record(entry.name, applicable=True, ok=ok, detail=detail)
    return tally.report()


def _check_psi_oracles(cat: Catalog) -> TheoremReport:
    tally = _Tally("psi-oracle-equivalence")
    for entry in cat.entries:
        results: dict[str, int] = {}
        try:
            results["top"] = psi_top_recursion(entry.group)
        except OmegaChainError:
            pass
        if entry.cp2.is_cp2:
            results["bottom"] = psi_bottom_recursion(entry.group)
            results["filtration"] = psi_filtration(entry.group)
        if not results:
            tally.record(entry.name, applicable=False)
            continue
        mismatches = {k: v for k, v in results.items() if v != entry.psi}
        tally.record(
            entry.name, applicable=True, ok=not mismatches,
            detail=f"psi_brute = {entry.psi}, formulas gave {mismatches}")
    return tally.report()


def _check_t11(pairs: Pairs) -> TheoremReport:
    tally = _Tally("T1.1")
    for a, b, decision in pairs:
        if not (a.cp2.is_cp2 and b.cp2.is_cp2):
            tally.record(_pair_name(a, b), applicable=False)
            continue
        psi_eq = a.psi == b.psi
        filt_eq = decision.theorem == "T1.1"
        top = max(a.filtration.m, b.filtration.m)
        level_eq = all(a.level_psi_at(i) == b.level_psi_at(i) for i in range(top + 1))
        ok = psi_eq == filt_eq == level_eq
        tally.record(
            _pair_name(a, b), applicable=True, ok=ok,
            detail=(f"psi equal: {psi_eq} ({a.psi} vs {b.psi}), "
                    f"filtrations equal: {filt_eq}, level psi equal: {level_eq}"))
    return tally.report()


def _check_t12(pairs: Pairs) -> TheoremReport:
    tally = _Tally("T1.2")
    for a, b, decision in pairs:
        big, small = _oriented(a, b, decision)
        if decision.theorem != "T1.2":
            tally.record(_pair_name(a, b), applicable=False)
            # a larger side but no theorem: exponents differ, Omega_(m-1)(big) = big
            if decision.theorem is None and decision.larger is not None and big.cp2.is_cp2:
                tally.note(_pair_name(a, b),
                           f"CP2 group {big.name} with Omega_{big.filtration.m - 1} improper")
            continue
        tally.record(
            _pair_name(a, b), applicable=True, ok=big.psi > small.psi,
            detail=(f"exp {big.exponent} > {small.exponent} but "
                    f"psi {big.psi} <= {small.psi}"))
    return tally.report()


def _check_t13(pairs: Pairs) -> TheoremReport:
    tally = _Tally("T1.3")
    for a, b, decision in pairs:
        if decision.theorem != "T1.3":
            tally.record(_pair_name(a, b), applicable=False)
            continue
        big, small = _oriented(a, b, decision)
        diff_level = decision.diff_level
        conclusion = big.psi > small.psi
        intermediate = big.level_psi_at(diff_level + 1) > small.level_psi_at(diff_level + 1)
        tally.record(
            _pair_name(a, b), applicable=True, ok=conclusion and intermediate,
            detail=(f"first difference at level {diff_level}; "
                    f"psi {big.psi} vs {small.psi} (want >), "
                    f"psi(Omega_{diff_level + 1}) {big.level_psi_at(diff_level + 1)} vs "
                    f"{small.level_psi_at(diff_level + 1)} (want >)"))
    return tally.report()


def _check_t14(pairs: Pairs) -> TheoremReport:
    tally = _Tally("T1.4")
    for a, b, _ in pairs:
        found = order_bijection(a.group, b.group) is not None
        psi_eq = a.psi == b.psi
        if not (a.cp2.is_cp2 and b.cp2.is_cp2):
            tally.record(_pair_name(a, b), applicable=False)
            if psi_eq != found:
                tally.note(
                    _pair_name(a, b),
                    f"outside CP2: psi equal is {psi_eq} but bijection exists is {found}")
            continue
        tally.record(
            _pair_name(a, b), applicable=True, ok=psi_eq == found,
            detail=f"psi equal: {psi_eq} ({a.psi} vs {b.psi}), bijection exists: {found}")
    return tally.report()


def _check_psi_mod_p(cat: Catalog) -> TheoremReport:
    tally = _Tally("psi-mod-p")
    for entry in cat.entries:
        tally.record(
            entry.name, applicable=True, ok=entry.psi % entry.prime == 1,
            detail=f"psi = {entry.psi}, p = {entry.prime}")
    return tally.report()


def _check_exp_gap_bound(pairs: Pairs) -> TheoremReport:
    tally = _Tally("exp-gap-bound")
    for a, b, decision in pairs:
        if decision.theorem != "T1.2":
            tally.record(_pair_name(a, b), applicable=False)
            continue
        big, small = _oriented(a, b, decision)
        pivot = big.order * big.prime ** (big.filtration.m - 1)
        tally.record(
            _pair_name(a, b), applicable=True,
            ok=small.psi < pivot < big.psi,
            detail=f"want psi({small.name}) = {small.psi} < {pivot} < "
                   f"psi({big.name}) = {big.psi}")
    return tally.report()


def _check_abelian_injectivity(pairs: Pairs) -> TheoremReport:
    tally = _Tally("abelian-psi-injective")
    for a, b, _ in pairs:
        if a.is_abelian and b.is_abelian:
            tally.record(
                _pair_name(a, b), applicable=True, ok=a.psi != b.psi,
                detail=f"distinct abelian groups share psi = {a.psi}")
    return tally.report()


def format_reports(reports) -> str:
    """One status line per report, then its violations and notes: the text
    of ``psigroups verify``."""
    lines = []
    for report in reports:
        lines.append(
            f"{report.theorem:<24} checked={report.pairs_checked} "
            f"applicable={report.hypothesis_applicable} "
            f"violations={len(report.violations)} [{report.status}]")
        lines.extend(f"  violation {subject}: {detail}" for subject, detail in report.violations)
        lines.extend(f"  note {subject}: {detail}" for subject, detail in report.notes)
    return "\n".join(lines) + "\n"


def verify_theorems(cat: Catalog) -> list[TheoremReport]:
    """Run every property over the catalog; one report per property."""
    pairs = _same_order_pairs(cat)
    return [
        _check_cp2_agreement(cat),
        _check_max_order_law(cat),
        _check_cp2_quotient_closure(cat),
        _check_omega_quotient_sizes(cat),
        _check_psi_oracles(cat),
        _check_t11(pairs),
        _check_t12(pairs),
        _check_t13(pairs),
        _check_t14(pairs),
        _check_psi_mod_p(cat),
        _check_exp_gap_bound(pairs),
        _check_abelian_injectivity(pairs),
    ]
