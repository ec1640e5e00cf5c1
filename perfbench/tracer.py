"""Span tracing of psigroups' public functions from outside the library.

The tracer wraps each named function and rebinds the wrapper everywhere the
library holds a reference to the original: every ``psigroups`` module
namespace (``from .groups import closure`` copies the binding), the
module-level dicts such as the constructor table in ``expr``, and the class
for methods.  Spans are kept in memory and aggregated after each traced cycle.

A function already on the active stack is not traced again, so a recursive
function (``psi_top_recursion``) counts once, at its outermost call, and its
recursion is part of that span's self time.
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# Public functions per module, named as <module>.<qualname>.
LAYERS = {
    "groups": (
        "group_from_table", "direct_product", "cyclic_group", "dihedral_group",
        "quaternion_group", "heisenberg_group", "modular_group", "power_map",
        "closure", "is_normal", "quotient", "Subgroup.as_group",
        "parse_group_table", "serialize_group",
    ),
    "expr": ("parse_group_expr", "build_group"),
    "omega": ("omega_set", "omega_subgroup", "omega_filtration"),
    "cp2": ("is_cp2_pairwise", "is_cp2_omega"),
    "psi": ("psi_top_recursion", "psi_bottom_recursion", "psi_filtration",
            "predict_order", "order_bijection"),
    "catalog": ("make_entry", "build_catalog"),
    "verify": ("verify_theorems",),
    "cli": ("cli_main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# The twelve battery properties, keyed by TheoremReport.theorem.
THEOREMS = (
    "cp2-agreement", "max-order-law", "cp2-quotient-closure", "omega-quotient-sizes",
    "psi-oracle-equivalence", "T1.1", "T1.2", "T1.3", "T1.4", "psi-mod-p",
    "exp-gap-bound", "abelian-psi-injective",
)
# verify_theorems runs one private function per property.  Every plain
# function of the verify module is wrapped, and a span is keyed to a theorem
# by the TheoremReport it returns, so a rename inside verify changes nothing.

# Spans whose tracemalloc peak is recorded (bytes above the level at entry).
MEMORY_SPANS = ("groups.direct_product", "groups.group_from_table",
                "cp2.is_cp2_pairwise", "omega.omega_filtration")

UNTRUSTED_PARENT = "groups.parse_group_table"
PACKAGE = "psigroups"


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer expected to run recorded no call."""


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, self time and inclusive time from recorded spans.

    ``spans`` is a list of (parent_index, name, start, end) with parent_index
    -1 for a root.  Self time is a span's duration minus the part of it that
    its child spans cover.
    """
    children = defaultdict(list)
    for parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (_, name, start, end) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - union_length(children[index], start, end)
    return out


class Tracer:
    """Installs span wrappers on psigroups and aggregates one cycle at a time."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list = []
        self._mem_frames: list[list[int]] = []
        self.peak_bytes: dict[str, int] = {}
        self.theorem_of: dict[str, str] = {}
        self.closure_calls = 0
        self.closure_noops = 0
        self.pairs_checked = 0

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _resolve(self, module: str, qualname: str):
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        if owner is None:
            raise TraceError(f"module {PACKAGE}.{module} is not imported")
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TraceError(f"{module}.{qualname}: {part!r} is missing")
        fn = getattr(owner, parts[-1], None)
        if not callable(fn):
            raise TraceError(f"{module}.{qualname} is missing")
        return owner, parts[-1], fn

    def _targets(self):
        for module, names in LAYERS.items():
            for qualname in names:
                yield module, qualname
        verify = sys.modules[f"{PACKAGE}.verify"]
        for name, value in sorted(vars(verify).items()):
            if (inspect.isfunction(value) and value.__module__ == verify.__name__
                    and name not in LAYERS["verify"]):
                yield "verify", name

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        try:
            self._install()
        except TraceError:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = self._modules()
        for module, qualname in self._targets():
            owner, attr, fn = self._resolve(module, qualname)
            wrapper = self._wrap(f"{module}.{qualname}", fn)
            if "." in qualname:  # a method: rebind on its class
                self._patch(owner, attr, fn, wrapper)
                continue
            rebound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper)
                        rebound += 1
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                self._patch(value, dkey, fn, wrapper)
                                rebound += 1
            if rebound == 0:
                raise TraceError(f"{module}.{qualname}: no binding found to rebind")

    def _patch(self, container, key, original, wrapper) -> None:
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack, active = self.spans, self._stack, self._active
        track_memory = name in MEMORY_SPANS
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if track_memory:
                tracer._memory_enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if track_memory:
                    tracer._memory_exit(name)
                stack.pop()
                active[name] -= 1
                spans[index] = (parent, name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observer(self, name: str):
        if name == "groups.closure":
            return self._observe_closure
        if name == "verify.verify_theorems":
            return self._observe_verify
        if name.startswith("verify.") and name.split(".", 1)[1] not in LAYERS["verify"]:
            report_type = sys.modules[f"{PACKAGE}.verify"].TheoremReport

            def record_theorem(args, kwargs, result):
                if isinstance(result, report_type):
                    self.theorem_of[name] = result.theorem
            return record_theorem
        return None

    def _observe_closure(self, args, kwargs, subgroup) -> None:
        seed = args[1] if len(args) > 1 else kwargs["seed"]
        self.closure_calls += 1
        if len(set(int(x) for x in seed) | {0}) == len(subgroup.members):
            self.closure_noops += 1

    def _observe_verify(self, args, kwargs, reports) -> None:
        self.pairs_checked += sum(r.pairs_checked for r in reports)

    # tracemalloc has one peak counter, so a nested tracked span hands the
    # peak seen so far to its parent frame before resetting the counter.
    def _memory_enter(self) -> None:
        if not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_frames:
            frame = self._mem_frames[-1]
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem_frames.append([current, current])

    def _memory_exit(self, name: str) -> None:
        if not tracemalloc.is_tracing() or not self._mem_frames:
            return
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem_frames.pop()
        seen = max(seen, peak)
        tracemalloc.reset_peak()
        if self._mem_frames:
            parent = self._mem_frames[-1]
            parent[1] = max(parent[1], seen)
        self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), seen - base)

    # -- results --------------------------------------------------------

    def take_cycle(self) -> dict:
        """Aggregate and clear the spans recorded since the last call."""
        if self._stack:
            raise TraceError("take_cycle called inside an open span")
        spans, self.spans[:] = list(self.spans), []
        rows = aggregate(spans)
        untrusted = sum(1 for parent, name, _, _ in spans
                        if name == "groups.group_from_table" and parent >= 0
                        and spans[parent][1] == UNTRUSTED_PARENT)
        theorem_s: dict[str, float] = {}
        for span_name, theorem in self.theorem_of.items():
            if span_name in rows:
                theorem_s[theorem] = theorem_s.get(theorem, 0.0) + rows[span_name]["total_s"]
        cycle = {
            "rows": rows,
            "untrusted": untrusted,
            "theorem_s": theorem_s,
            "closure_calls": self.closure_calls,
            "closure_noops": self.closure_noops,
            "pairs_checked": self.pairs_checked,
        }
        self.closure_calls = self.closure_noops = self.pairs_checked = 0
        return cycle
