"""Fast psi formulas, psi-equality and psi-ordering decision procedures, and
the order-preserving bijection between groups with equal sorted element orders.

All formulas return exact integers and are expected to agree with the
brute-force sum ``psi_brute``; the verification harness asserts that
agreement over the whole catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp2 import Cp2Report, cp2_from_filtration, is_cp2_omega
from .groups import (
    FiniteGroup,
    GroupError,
    NotCp2Error,
    OmegaChainError,
    prime_power,
    quotient,
)
from .omega import (OmegaFiltration, exponent_log, omega_filtration, omega_subgroup, prime_of,
                    psi_brute)


@dataclass(frozen=True)
class HypothesisCheck:
    """One checked hypothesis in a comparison, with its outcome."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OrderDecision:
    """Which ordering/equality theorem two omega filtrations meet.

    ``theorem`` is "T1.1", "T1.2", "T1.3" or None and ``predicted_relation``
    its prediction for psi(P) versus psi(Q).  ``larger`` names the side ("P"
    or "Q") the hypotheses single out as having the larger psi: the
    larger-exponent side whenever exponents differ, even if T1.2 then fails
    on Omega_(m-1), and the side with the smaller omega subgroup at
    ``diff_level`` under T1.3.
    """

    theorem: str | None
    predicted_relation: str | None
    summary: str
    hypothesis_log: tuple[HypothesisCheck, ...]
    larger: str | None = None
    diff_level: int | None = None


@dataclass(frozen=True)
class PsiComparison:
    """Result of comparing psi over two same-order groups.

    ``relation`` is the actual comparison of psi values.  When one of the
    ordering/equality theorems applies, ``theorem`` and ``predicted_relation``
    carry its prediction; ``summary`` is a stable one-line description and
    ``hypothesis_log`` records every hypothesis that was checked.
    """

    psi_p: int
    psi_q: int
    relation: str
    predicted_relation: str | None
    theorem: str | None
    summary: str
    hypothesis_log: tuple[HypothesisCheck, ...]


@dataclass(frozen=True, eq=False)
class OrderBijection:
    """An order-preserving pairing of two groups' element indices: row k of
    the n x 2 array ``pairs`` is (x, y) with x in P and y in Q paired."""

    pairs: np.ndarray


def psi_top_recursion(group: FiniteGroup) -> int:
    """psi via the top reduction psi(G) = psi(M) + |M| p^m (|G|/|M| - 1) with
    M the level-(m-1) omega subgroup, recursing on M down to the trivial
    group.

    Raises OmegaChainError when some step has M equal to the whole group,
    which makes the reduction inapplicable; callers wanting a total function
    should fall back to psi_brute.
    """
    n = group.order
    if n == 1:
        return 1
    p, m = exponent_log(group)
    sub = omega_subgroup(group, m - 1)
    if len(sub) == n:
        raise OmegaChainError(
            f"Omega_{m - 1}({group.name}) is the whole group; reduction inapplicable")
    return psi_top_recursion(sub.as_group()) + len(sub) * p**m * (n // len(sub) - 1)


def _require_cp2(group: FiniteGroup, report: Cp2Report, formula: str) -> None:
    if not report.is_cp2:
        raise NotCp2Error(f"{group.name} is not CP2 (omega set not closed at level "
                          f"{report.failing_level}); {formula} needs CP2")


def psi_bottom_recursion(group: FiniteGroup) -> int:
    """psi via the quotient reduction psi(G) = 1 - p + p^(r+1) psi(G/N) with
    N the level-1 omega subgroup of size p^r, for CP2 p-groups."""
    if group.order == 1:
        return 1
    _require_cp2(group, is_cp2_omega(group), "quotient reduction")
    sub = omega_subgroup(group, 1)
    p, r = prime_power(len(sub))
    return 1 - p + p ** (r + 1) * psi_bottom_recursion(quotient(sub))


def psi_filtration(group: FiniteGroup) -> int:
    """psi from subgroup sizes alone:
    1 + sum_j (|Omega_j| - |Omega_(j-1)|) p^j, for CP2 p-groups."""
    if group.order == 1:
        return 1
    filtration = omega_filtration(group)
    _require_cp2(group, cp2_from_filtration(filtration), "the filtration formula")
    sizes = filtration.subgroup_sizes
    return 1 + sum(
        (sizes[j] - sizes[j - 1]) * filtration.p**j for j in range(1, filtration.m + 1))


def _require_same_order(p_group: FiniteGroup, q_group: FiniteGroup) -> None:
    """Equal orders; for p-groups that is equal primes too, as the prime is
    read from the order."""
    if p_group.order != q_group.order:
        raise GroupError(
            f"order mismatch: |{p_group.name}| = {p_group.order}, "
            f"|{q_group.name}| = {q_group.order}")


def compare_filtrations(filt_p: OmegaFiltration, filt_q: OmegaFiltration) -> OrderDecision:
    """Decide from two same-order filtrations which theorem orders psi.

    Hypotheses tried in order: exponent gap with a proper top omega subgroup
    on the larger-exponent side (T1.2, that side has the larger psi); for
    equal exponents and both groups CP2, the first filtration difference
    scanning down from the top (T1.3, the side with the smaller omega
    subgroup there has the larger psi) or full filtration agreement (T1.1,
    equal psi).
    """
    if (filt_p.p, filt_p.order) != (filt_q.p, filt_q.order):
        raise GroupError(
            f"filtrations of groups of different order: {filt_p.p}-group of order "
            f"{filt_p.order} vs {filt_q.p}-group of order {filt_q.order}")
    exp_p = filt_p.p**filt_p.m
    exp_q = filt_q.p**filt_q.m
    if exp_p != exp_q:
        side, filt = ("P", filt_p) if exp_p > exp_q else ("Q", filt_q)
        top_sub = filt.subgroup_size_at(filt.m - 1)
        proper = top_sub < filt.order
        log = (
            HypothesisCheck(
                "T1.2: exponents differ", True, f"exp(P) = {exp_p}, exp(Q) = {exp_q}"),
            HypothesisCheck(
                f"T1.2: Omega_{{m-1}}({side}) proper", proper,
                f"|Omega_{filt.m - 1}({side})| = {top_sub}, |{side}| = {filt.order}"),
        )
        if not proper:
            return OrderDecision(
                None, None, f"T1.2 inapplicable: Omega_{{m-1}}({side})={side}", log,
                larger=side)
        predicted = ">" if side == "P" else "<"
        return OrderDecision("T1.2", predicted, f"T1.2 predicts {predicted}", log, larger=side)

    cp2_p = cp2_from_filtration(filt_p).is_cp2
    cp2_q = cp2_from_filtration(filt_q).is_cp2
    log = (
        HypothesisCheck(
            "T1.1/T1.3: exponents equal", True, f"exp(P) = exp(Q) = {exp_p}"),
        HypothesisCheck(
            "T1.1/T1.3: both groups CP2", cp2_p and cp2_q,
            f"P CP2: {'yes' if cp2_p else 'no'}, Q CP2: {'yes' if cp2_q else 'no'}"),
    )
    if not (cp2_p and cp2_q):
        return OrderDecision(None, None, "no theorem applicable: not both CP2", log)
    m = filt_p.m
    diff_level = next(
        (i for i in range(m - 1, -1, -1)
         if filt_p.subgroup_size_at(i) != filt_q.subgroup_size_at(i)), None)
    if diff_level is None:
        log += (HypothesisCheck(
            "T1.1: filtrations agree", True, f"|Omega_i(P)| = |Omega_i(Q)| for i = 0..{m}"),)
        return OrderDecision("T1.1", "=", "T1.1 predicts =", log)
    size_p = filt_p.subgroup_size_at(diff_level)
    size_q = filt_q.subgroup_size_at(diff_level)
    log += (HypothesisCheck(
        f"T1.3: filtrations first differ at level {diff_level}", True,
        f"|Omega_{diff_level}(P)| = {size_p}, |Omega_{diff_level}(Q)| = {size_q}"),)
    side = "P" if size_p < size_q else "Q"
    predicted = ">" if side == "P" else "<"
    return OrderDecision(
        "T1.3", predicted, f"T1.3 predicts {predicted}", log,
        larger=side, diff_level=diff_level)


def predict_order(p_group: FiniteGroup, q_group: FiniteGroup) -> PsiComparison:
    """Compare psi over two same-order p-groups and, where an ordering or
    equality theorem applies, record its prediction (see
    ``compare_filtrations``)."""
    _require_same_order(p_group, q_group)
    prime = prime_of(p_group)
    psi_p = psi_brute(p_group)
    psi_q = psi_brute(q_group)
    decision = compare_filtrations(omega_filtration(p_group), omega_filtration(q_group))
    return PsiComparison(
        psi_p=psi_p,
        psi_q=psi_q,
        relation="<" if psi_p < psi_q else (">" if psi_p > psi_q else "="),
        predicted_relation=decision.predicted_relation,
        theorem=decision.theorem,
        summary=decision.summary,
        hypothesis_log=(
            HypothesisCheck("same order", True, f"|P| = |Q| = {p_group.order}"),
            HypothesisCheck("same prime", True, f"p = {prime}"),
        ) + decision.hypothesis_log,
    )


def order_bijection(p_group: FiniteGroup, q_group: FiniteGroup) -> OrderBijection | None:
    """Pair up elements of equal order, or None when no such pairing exists.

    Each side is sorted by order once, stably, so equal orders keep ascending
    index; a pairing exists exactly when the sorted orders are equal, and
    then the k-th elements of the two sorts are paired.
    """
    _require_same_order(p_group, q_group)
    by_order_p = np.argsort(p_group.element_orders, kind="stable")
    by_order_q = np.argsort(q_group.element_orders, kind="stable")
    if not np.array_equal(p_group.element_orders[by_order_p],
                          q_group.element_orders[by_order_q]):
        return None
    return OrderBijection(pairs=np.column_stack((by_order_p, by_order_q)))
