"""Spans around quditkd's public functions, for the traced in-process run.

`Tracer.install()` swaps every public function named in TARGETS for a
timing wrapper, in every quditkd module namespace that binds it: modules
that did `from .qudit_algebra import bell_matrix` hold their own reference,
so patching only the defining module would miss their calls.
`Tracer.uninstall()` puts the original functions back.

Spans stay in memory as one flat int64 array, FIELDS per span, and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

PACKAGE = "quditkd"
FIELDS = ("name", "parent", "request", "start_ns", "end_ns")
_NF = len(FIELDS)

CHECKS = (
    "unitarity", "commutation", "bell_orthonormality",
    "bell_eigenstates", "mub_overlaps", "roundtrip",
)
TARGETS = {
    "cli": ("main",),
    "rates_finite": ("optimize_r_finite", "r_finite", "worst_case_vector", "xi"),
    "info_theory": ("as_prob_vector", "shannon_entropy"),
    "channels": ("lambda_entries_from_q", "q_from_lambda"),
    "rates_asymptotic": ("critical_q", "r_infinity"),
    "simulator": ("run_simulation", "joint_outcome_distribution"),
    "verification": ("run_suite",) + tuple(f"check_{c}" for c in CHECKS),
    "qudit_algebra": ("weyl_operator", "bell_matrix", "basis_for"),
}
ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.request = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # facts that need a call's arguments or result, kept by hooks
        self.zero_rates = 0
        self.optimize_ns: dict[str, list[int]] = defaultdict(list)
        self.simulations: list[tuple[bool, int, int]] = []  # fast, rounds, ns
        self.peak_alloc = 0
        self._hooks = {
            "rates_finite.r_finite": self._note_rate,
            "rates_finite.optimize_r_finite": self._note_optimize,
            "simulator.run_simulation": self._note_simulation,
        }

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    # a function a later version removed has no spans; its metrics read 0
                    self.missing.append(f"{mod_name}.{func}")
                    continue
                wrapper = self._wrap(original, f"{mod_name}.{func}")
                if func == "run_simulation":
                    wrapper = self._track_allocations(wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = len(spans)
            spans.extend((name_id, stack[-1], self.request, 0, 0))
            stack.append(base // _NF)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[base + 3] = start
                spans[base + 4] = end
            if hook is not None:
                hook(args, kwargs, result, end - start)
            return result

        return traced

    def _track_allocations(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    # -- hooks --------------------------------------------------------------

    def _note_rate(self, args, kwargs, result, ns) -> None:
        if result.r_n == 0.0:
            self.zero_rates += 1

    def _note_optimize(self, args, kwargs, result, ns) -> None:
        spec = args[0] if args else kwargs["spec"]
        self.optimize_ns[spec.family.value].append(ns)

    def _note_simulation(self, args, kwargs, result, ns) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        self.simulations.append((bool(result.fast), cfg.rounds, ns))

    # -- analysis -----------------------------------------------------------

    def span_columns(self) -> dict[str, array]:
        return {f: self.spans[i::_NF] for i, f in enumerate(FIELDS)}

    def summary(self) -> dict:
        """Per function: calls, busy (inclusive) and self time; per request:
        the root span's time and the sum of all its spans' self times."""
        cols = self.span_columns()
        dur = [e - s for s, e in zip(cols["start_ns"], cols["end_ns"])]
        covered = [0] * len(dur)
        for parent, d in zip(cols["parent"], dur):
            if parent >= 0:
                covered[parent] += d
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        req_self: dict[int, int] = defaultdict(int)
        req_root: dict[int, int] = {}
        root_id = self.names.index(ROOT) if ROOT in self.names else -1
        for name_id, req, d, c, parent in zip(cols["name"], cols["request"], dur, covered, cols["parent"]):
            name = self.names[name_id]
            calls[name] += 1
            busy[name] += d
            own[name] += d - c
            req_self[req] += d - c
            if name_id == root_id and parent < 0:
                req_root[req] = d
        return {"calls": calls, "busy_ns": busy, "self_ns": own, "request_self_ns": req_self,
                "request_root_ns": req_root}


def self_time_error(summary: dict) -> float:
    """Largest relative gap, over requests, between the sum of self times
    and the root span; 1.0 for a request with spans but no root."""
    worst = 0.0
    for req, total in summary["request_self_ns"].items():
        root = summary["request_root_ns"].get(req)
        if not root:
            return 1.0
        worst = max(worst, abs(total - root) / root)
    return worst


def layer_metrics(tracer: Tracer, summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named module.function.what."""
    calls, busy, own = summary["calls"], summary["busy_ns"], summary["self_ns"]

    def s(ns: float) -> float:
        return ns / 1e9

    def p50(values) -> float:
        return s(statistics.median(values)) if values else 0.0

    optimize_calls = calls["rates_finite.optimize_r_finite"]
    rate_calls = calls["rates_finite.r_finite"]
    exact = [ns for fast, _, ns in tracer.simulations if not fast]
    fast = [ns for fast, _, ns in tracer.simulations if fast]
    sim_ns = sum(ns for _, _, ns in tracer.simulations)
    rounds = sum(r for _, r, _ in tracer.simulations)
    out = {
        "cli.main_s": p50(list(summary["request_root_ns"].values())),
        "rates_finite.optimize_r_finite.calls": optimize_calls,
        "rates_finite.optimize_r_finite.p50_s.two-basis": p50(tracer.optimize_ns["two-basis"]),
        "rates_finite.optimize_r_finite.p50_s.dplus1": p50(tracer.optimize_ns["dplus1"]),
        # r_finite evaluations per optimize_r_finite call
        "rates_finite.r_finite.calls": rate_calls / optimize_calls if optimize_calls else rate_calls,
        "rates_finite.r_finite.busy_s": s(busy["rates_finite.r_finite"]),
        "rates_finite.r_finite.self_s": s(own["rates_finite.r_finite"]),
        "rates_finite.r_finite.zero_ratio": tracer.zero_rates / rate_calls if rate_calls else 0.0,
        "rates_finite.worst_case_vector.calls": calls["rates_finite.worst_case_vector"],
        "rates_finite.worst_case_vector.busy_s": s(busy["rates_finite.worst_case_vector"]),
        "rates_finite.xi.calls": calls["rates_finite.xi"],
        "info_theory.as_prob_vector.calls": calls["info_theory.as_prob_vector"],
        "info_theory.as_prob_vector.busy_s": s(busy["info_theory.as_prob_vector"]),
        "info_theory.shannon_entropy.calls": calls["info_theory.shannon_entropy"],
        "channels.lambda_entries_from_q.calls": calls["channels.lambda_entries_from_q"],
        "channels.lambda_entries_from_q.busy_s": s(busy["channels.lambda_entries_from_q"]),
        "channels.q_from_lambda.calls": calls["channels.q_from_lambda"],
        "rates_asymptotic.critical_q.busy_s": s(busy["rates_asymptotic.critical_q"]),
        "rates_asymptotic.r_infinity.calls": calls["rates_asymptotic.r_infinity"],
        "simulator.run_simulation.busy_s.exact": s(sum(exact)),
        "simulator.run_simulation.busy_s.fast": s(sum(fast)),
        "simulator.rounds_per_s": rounds / s(sim_ns) if sim_ns else 0.0,
        "simulator.joint_outcome_distribution.calls": calls["simulator.joint_outcome_distribution"],
        "simulator.joint_outcome_distribution.busy_s": s(busy["simulator.joint_outcome_distribution"]),
        "simulator.peak_alloc_mb": tracer.peak_alloc / 2**20,
        "verification.run_suite.busy_s": s(busy["verification.run_suite"]),
        "verification.checks": sum(calls[f"verification.check_{c}"] for c in CHECKS),
        "qudit_algebra.weyl_operator.calls": calls["qudit_algebra.weyl_operator"],
        "qudit_algebra.bell_matrix.calls": calls["qudit_algebra.bell_matrix"],
        "qudit_algebra.basis_for.calls": calls["qudit_algebra.basis_for"],
    }
    for c in CHECKS:
        out[f"verification.check.busy_s.{c}"] = s(busy[f"verification.check_{c}"])
    return out
