"""Theorem verification battery over a catalog.

Each property maps its subjects, the catalog entries or the same-order entry
pairs with their ``compare_filtrations`` decision, to outcomes
``(subject, ok, detail)``.  ``ok`` is None where the property's hypotheses do
not apply to the subject, and a non-empty detail is then a note; otherwise
``ok`` says whether the conclusion held, and the detail of a subject where it
did not is a violation.  ``TheoremReport._of`` folds one property's outcomes
into its report.  A report is ``verified`` when its hypotheses applied
somewhere and no violation was found, ``vacuous`` when the hypotheses never
applied, and ``violated`` otherwise.  Violations are data, not exceptions:
the battery always runs to completion.  A psi formula decides its own
hypothesis: one that refuses the group (``OmegaChainError``,
``NotCp2Error``) does not apply to it, whatever the entry's CP2 verdict
says, so a false verdict is reported, not raised.

The fold is a classmethod rather than a module-level function because
``perfbench/tracer.py`` wraps every plain function of this module and keys
its span to the ``theorem`` of the ``TheoremReport`` it returns: a
module-level fold would be keyed to the last theorem it built and charge
that theorem with every other property's time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .catalog import Catalog, CatalogEntry
from .cp2 import _first_pair, cp2_from_filtration, is_cp2_pairwise
from .groups import NotCp2Error, OmegaChainError, _mul, quotient
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

    @classmethod
    def _of(cls, theorem: str, outcomes: Iterable[tuple[str, bool | None, str]]) -> TheoremReport:
        """The report of one property's ``(subject, ok, detail)`` outcomes,
        its violations and notes in subject order.  ``ok`` may be a numpy
        bool, so a failure is ``not ok`` rather than ``ok is False``."""
        outcomes = list(outcomes)
        return cls(
            theorem=theorem,
            pairs_checked=len(outcomes),
            hypothesis_applicable=sum(ok is not None for _, ok, _ in outcomes),
            violations=tuple((subject, detail) for subject, ok, detail in outcomes
                             if ok is not None and not ok),
            notes=tuple((subject, detail) for subject, ok, detail in outcomes
                        if ok is None and detail))


Pairs = list[tuple[CatalogEntry, CatalogEntry, OrderDecision]]


def _same_order_pairs(cat: Catalog) -> Pairs:
    """Unordered entry pairs sharing prime and order, in catalog order, each with
    its one ``compare_filtrations`` decision, which every pair property reads."""
    buckets: dict[tuple[int, int], list[CatalogEntry]] = {}
    for entry in cat.entries:
        buckets.setdefault((entry.prime, entry.order), []).append(entry)
    return [(a, b, compare_filtrations(a.filtration, b.filtration))
            for key in sorted(buckets) for a, b in itertools.combinations(buckets[key], 2)]


def _on_cp2_entries(cat: Catalog, check):
    """Each entry's outcome, ``check(entry)`` on a CP2 entry: the hypothesis of
    the properties that read a group's order law or its quotient by Omega_1.
    The other entries do not apply."""
    for entry in cat.entries:
        yield check(entry) if entry.cp2.is_cp2 else (entry.name, None, "")


def _on_pairs(pairs: Pairs, check):
    """Each pair's outcome, ``check(a, b, decision)`` giving its (ok, detail)."""
    return ((f"({a.name}, {b.name})", *check(a, b, decision)) for a, b, decision in pairs)


def _oriented(a: CatalogEntry, b: CatalogEntry, decision: OrderDecision):
    """(larger-psi entry, smaller-psi entry) as the decision names them."""
    return (a, b) if decision.larger == "P" else (b, a)


def _check_cp2_agreement(cat: Catalog) -> TheoremReport:
    def check(entry):
        omega_verdict = cp2_from_filtration(entry.filtration).is_cp2
        pairwise_verdict = entry.cp2.is_cp2
        return (entry.name, omega_verdict == pairwise_verdict,
                f"pairwise says {pairwise_verdict}, omega criterion says {omega_verdict}")
    return TheoremReport._of("cp2-agreement", map(check, cat.entries))


def _check_max_order_law(cat: Catalog) -> TheoremReport:
    """In a CP2 group, o(xy) = max(o(x), o(y)) whenever o(x) != o(y).

    If o(x) < o(y), then o(y) = o(x^-1 * xy) <= max(o(x), o(xy)), so
    o(xy) >= o(y), and CP2 gives o(xy) <= max(o(x), o(y)) = o(y).  The case
    o(x) > o(y) is symmetric, with x = (xy) * y^-1.  So the law is the CP2
    verdict read once more, and a violation names the first pair it fails on.
    """
    def check(entry):
        pair = _first_pair(
            entry.group, lambda oxy, ox, oy: (ox != oy) & (oxy != np.maximum(ox, oy)),
            np.arange(entry.group.order))
        if pair is None:
            return entry.name, True, ""
        x, y = pair
        orders = entry.group.element_orders
        return (entry.name, False, f"o(x)={int(orders[x])}, o(y)={int(orders[y])}, "
                f"o(xy)={int(orders[_mul(entry.group, x, y)])} at ({x},{y})")
    return TheoremReport._of("max-order-law", _on_cp2_entries(cat, check))


def _check_cp2_quotient_closure(cat: Catalog) -> TheoremReport:
    def check(entry):
        verdict = is_cp2_pairwise(quotient(omega_subgroup(entry.group, 1)))
        return (entry.name, verdict.is_cp2,
                f"quotient by Omega_1 not CP2, witness {verdict.witness}")
    return TheoremReport._of("cp2-quotient-closure", _on_cp2_entries(cat, check))


def _check_omega_quotient_sizes(cat: Catalog) -> TheoremReport:
    def check(entry):
        omega1 = entry.filtration.subgroup_size_at(1)
        quo = quotient(omega_subgroup(entry.group, 1))
        if quo.order == 1:
            return entry.name, True, ""
        quo_filtration = omega_filtration(quo)
        for i in range(quo_filtration.m + 1):
            expected = entry.filtration.subgroup_size_at(i + 1) // omega1
            actual = quo_filtration.subgroup_size_at(i)
            if expected != actual:
                return (entry.name, False, f"|Omega_{i}(G/Omega_1)| = {actual}, "
                        f"|Omega_{i + 1}(G)|/|Omega_1(G)| = {expected}")
        return entry.name, True, ""
    return TheoremReport._of("omega-quotient-sizes", _on_cp2_entries(cat, check))


def _check_psi_oracles(cat: Catalog) -> TheoremReport:
    def check(entry):
        results: dict[str, int] = {}
        for key, formula in (("top", psi_top_recursion), ("bottom", psi_bottom_recursion),
                             ("filtration", psi_filtration)):
            try:
                results[key] = formula(entry.group)
            except (OmegaChainError, NotCp2Error):  # the formula's own hypothesis failed
                pass
        if not results:
            return entry.name, None, ""
        mismatches = {k: v for k, v in results.items() if v != entry.psi}
        return entry.name, not mismatches, f"psi_brute = {entry.psi}, formulas gave {mismatches}"
    return TheoremReport._of("psi-oracle-equivalence", map(check, cat.entries))


def _check_t11(pairs: Pairs) -> TheoremReport:
    def check(a, b, decision):
        if not (a.cp2.is_cp2 and b.cp2.is_cp2):
            return None, ""
        psi_eq = a.psi == b.psi
        filt_eq = decision.theorem == "T1.1"
        top = max(a.filtration.m, b.filtration.m)
        level_eq = all(a.level_psi_at(i) == b.level_psi_at(i) for i in range(top + 1))
        return (psi_eq == filt_eq == level_eq,
                f"psi equal: {psi_eq} ({a.psi} vs {b.psi}), "
                f"filtrations equal: {filt_eq}, level psi equal: {level_eq}")
    return TheoremReport._of("T1.1", _on_pairs(pairs, check))


def _check_t12(pairs: Pairs) -> TheoremReport:
    def check(a, b, decision):
        big, small = _oriented(a, b, decision)
        if decision.theorem == "T1.2":
            return (big.psi > small.psi,
                    f"exp {big.exponent} > {small.exponent} but psi {big.psi} <= {small.psi}")
        # a larger side but no theorem: exponents differ, Omega_(m-1)(big) = big
        if decision.theorem is None and decision.larger is not None and big.cp2.is_cp2:
            return None, f"CP2 group {big.name} with Omega_{big.filtration.m - 1} improper"
        return None, ""
    return TheoremReport._of("T1.2", _on_pairs(pairs, check))


def _check_t13(pairs: Pairs) -> TheoremReport:
    def check(a, b, decision):
        if decision.theorem != "T1.3":
            return None, ""
        big, small = _oriented(a, b, decision)
        level = decision.diff_level + 1
        big_level, small_level = big.level_psi_at(level), small.level_psi_at(level)
        return (big.psi > small.psi and big_level > small_level,
                f"first difference at level {decision.diff_level}; "
                f"psi {big.psi} vs {small.psi} (want >), "
                f"psi(Omega_{level}) {big_level} vs {small_level} (want >)")
    return TheoremReport._of("T1.3", _on_pairs(pairs, check))


def _check_t14(pairs: Pairs) -> TheoremReport:
    def check(a, b, _):
        found = order_bijection(a.group, b.group)
        psi_eq = a.psi == b.psi
        if a.cp2.is_cp2 and b.cp2.is_cp2:
            return (psi_eq == found,
                    f"psi equal: {psi_eq} ({a.psi} vs {b.psi}), bijection exists: {found}")
        return None, ("" if psi_eq == found else
                      f"outside CP2: psi equal is {psi_eq} but bijection exists is {found}")
    return TheoremReport._of("T1.4", _on_pairs(pairs, check))


def _check_psi_mod_p(cat: Catalog) -> TheoremReport:
    return TheoremReport._of("psi-mod-p", (
        (e.name, e.psi % e.prime == 1, f"psi = {e.psi}, p = {e.prime}") for e in cat.entries))


def _check_exp_gap_bound(pairs: Pairs) -> TheoremReport:
    def check(a, b, decision):
        if decision.theorem != "T1.2":
            return None, ""
        big, small = _oriented(a, b, decision)
        pivot = big.order * big.prime ** (big.filtration.m - 1)
        return (small.psi < pivot < big.psi,
                f"want psi({small.name}) = {small.psi} < {pivot} < psi({big.name}) = {big.psi}")
    return TheoremReport._of("exp-gap-bound", _on_pairs(pairs, check))


def _check_abelian_injectivity(pairs: Pairs) -> TheoremReport:
    # a pair with a non-abelian side is not a subject
    abelian = [pair for pair in pairs if pair[0].is_abelian and pair[1].is_abelian]
    return TheoremReport._of("abelian-psi-injective", _on_pairs(abelian, lambda a, b, _: (
        a.psi != b.psi, f"distinct abelian groups share psi = {a.psi}")))


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
