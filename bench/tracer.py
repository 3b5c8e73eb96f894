"""Layer tracing for the benchmark, installed from outside the library.

``Tracer.installed(lib)`` wraps chosen public functions and methods of each
ramibound module and restores them on exit; no library file changes.  A
wrapper replaces the function in its defining module, in every ramibound
module and class that imported it by name (``solver`` imports ``witt_mul``,
``height_witness`` and others that way), and on the class for methods.
``solver._residual`` is the one private boundary wrapped: it is where a
candidate is attempted.

Each wrapped call is a span with a name, start, end and parent.  Spans are
aggregated as they close: calls, inclusive time of the outermost span of a
group (so recursion and nesting within one layer count once), and self time
(span time minus the time its child spans cover).  Spans outside the hot
arithmetic groups are also kept, to be written out when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, qualified attribute, group).  Groups name the per-layer metrics.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("solver", "jset_enumerate", "solver.enumerate"),
    ("solver", "_residual", "solver.residual"),
    ("solver", "lift_solution", "solver.lift"),
    ("solver", "build_jset_problem", "solver.build"),
    ("solver", "rho_reduce", "solver.rho"),
    ("padic", "LocalElement.__mul__", "padic.elem_mul"),
    ("padic", "LocalElement.div", "padic.div"),
    ("padic", "LocalElement.unit_inverse", "padic.div"),
    ("padic", "QuotRing.mul", "padic.quot_mul"),
    ("witt", "witt_add", "witt.arith"),
    ("witt", "witt_mul", "witt.arith"),
    ("witt", "witt_sub", "witt.arith"),
    ("witt", "witt_neg", "witt.arith"),
    ("witt", "power_frobenius", "witt.frobenius"),
    ("witt", "teichmuller_scale", "witt.teich"),
    ("witt", "ideal_membership_gt", "witt.ideal"),
    ("witt", "universal_polys", "witt.symbolic"),
    ("witt", "ghost_identity_holds_symbolically", "witt.symbolic"),
    ("witt", "witt_arith_symbolic", "witt.symbolic"),
    ("bounds", "exact_nilpotency_index", "bounds.nilpotency"),
    ("bounds", "closed_form_N_bounds", "bounds.closed_form"),
    ("herbrand", "phi_from_filtration", "herbrand"),
    ("herbrand", "last_breaks", "herbrand"),
    ("kisin", "height_witness", "kisin.witness"),
    ("kisin", "u_power_witness", "kisin.witness"),
    ("kisin", "tame_lift_build", "kisin.tame"),
    ("kisin", "tame_character_oracle", "kisin.tame"),
)

# Called up to ~10^5 times per pass; aggregated only, never kept as spans.
HOT_GROUPS = frozenset({"padic.elem_mul", "padic.div", "padic.quot_mul", "witt.arith"})

# Per-layer metrics, in report order.  Times are seconds of inclusive time of
# the group's outermost spans unless the definition says self time.
METRICS = (
    ("solver.enumerate_s", "s"),
    ("solver.enumerations", "count"),
    ("solver.repeat_enumerations", "count"),
    ("solver.candidates", "count"),
    ("solver.members", "count"),
    ("solver.member_ratio", "ratio"),
    ("solver.lift_s", "s"),
    ("solver.lifts", "count"),
    ("solver.lift_iterations", "count"),
    ("solver.lift_residuals", "count"),
    ("solver.builds", "count"),
    ("solver.build_s", "s"),
    ("solver.rho_s", "s"),
    ("padic.elem_mul_calls", "count"),
    ("padic.elem_mul_s", "s"),
    ("padic.div_calls", "count"),
    ("padic.div_s", "s"),
    ("padic.quot_mul_calls", "count"),
    ("padic.quot_mul_s", "s"),
    ("witt.add_calls", "count"),
    ("witt.mul_calls", "count"),
    ("witt.arith_s", "s"),
    ("witt.frobenius_s", "s"),
    ("witt.teich_s", "s"),
    ("witt.ideal_checks", "count"),
    ("witt.symbolic_s", "s"),
    ("bounds.nilpotency_calls", "count"),
    ("bounds.nilpotency_s", "s"),
    ("bounds.closed_form_s", "s"),
    ("herbrand.s", "s"),
    ("kisin.witness_calls", "count"),
    ("kisin.witness_s", "s"),
    ("kisin.tame_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Span aggregation for one traced pass.  Not thread-safe: the benchmark
    is one thread."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.calls: Counter = Counter()  # by span name
        self.self_ns: Counter = Counter()  # by span name
        self.incl_ns: Counter = Counter()  # by group, outermost spans only
        self.counts: Counter = Counter()  # counters read off arguments/results
        self.spans: list = []  # kept: (id, parent id, name, start ns, end ns)
        self._depth: Counter = Counter()  # open spans per group
        self._stack: list = []  # open spans: [child ns, id of nearest kept span]
        self._ids = itertools.count(1)
        self._enumerated: dict = {}  # (id(problem), level) -> problem, per call

    def begin_call(self) -> None:
        """Start of one workload call: enumerations repeat only within one."""
        self._enumerated.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, group, fn, before=None, after=None):
        now = time.perf_counter_ns
        stack, depth, ids = self._stack, self._depth, self._ids
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        keep = self.keep_spans and group not in HOT_GROUPS
        spans = self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            # a span that is not kept passes its parent's id to its children
            parent = stack[-1][1] if stack else 0
            frame = [0, next(ids) if keep else parent]
            stack.append(frame)
            depth[group] += 1
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = now() - start
                stack.pop()
                depth[group] -= 1
                calls[name] += 1
                self_ns[name] += dur - frame[0]
                if not depth[group]:
                    incl_ns[group] += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((frame[1], parent, name, start, start + dur))
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _hooks(self, lib):
        resolve_level = lib["solver"].resolve_level

        def enumerate_before(args, kwargs):
            prob = args[0]
            level = args[1] if len(args) > 1 else kwargs.get("level", "a")
            key = (id(prob), resolve_level(prob, level))
            if key in self._enumerated:
                self.counts["repeat_enumerations"] += 1
            self._enumerated[key] = prob  # holds prob so its id stays unique

        def enumerate_after(sol):
            self.counts["members"] += len(sol)

        def residual_before(args, kwargs):
            if self._depth["solver.enumerate"]:
                self.counts["candidates"] += 1
            elif self._depth["solver.lift"]:
                self.counts["lift_residuals"] += 1

        def lift_after(lr):
            self.counts["lift_iterations"] += lr.iterations

        return {
            "solver.jset_enumerate": (enumerate_before, enumerate_after),
            "solver._residual": (residual_before, None),
            "solver.lift_solution": (None, lift_after),
        }

    @contextmanager
    def installed(self, lib):
        """Wrap every target for the duration of the block."""
        patches = []  # (owner, attribute, original)
        hooks = self._hooks(lib)
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "ramibound" or k.startswith("ramibound."))
        ]
        classes = {
            id(v): v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("ramibound")
        }
        owners = modules + list(classes.values())
        try:
            for mod_name, attr, group in TARGETS:
                owner = lib[mod_name]
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = vars(owner)[fn_name]
                name = f"{mod_name}.{attr}"
                w = self._wrap(name, group, fn, *hooks.get(name, (None, None)))
                # the defining module or class, and every module that
                # imported the name
                for holder in owners:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, w)
                            patches.append((holder, key, fn))
            yield self
        finally:
            for holder, key, fn in reversed(patches):
                setattr(holder, key, fn)

    # -- results ------------------------------------------------------------

    def _incl(self, group: str) -> float:
        return self.incl_ns[group] / 1e9

    def _self(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def metrics(self) -> dict:
        c, n = self.counts, self.calls
        candidates = c["candidates"]
        out = {
            "solver.enumerate_s": self._incl("solver.enumerate"),
            "solver.enumerations": n["solver.jset_enumerate"],
            "solver.repeat_enumerations": c["repeat_enumerations"],
            "solver.candidates": candidates,
            "solver.members": c["members"],
            "solver.member_ratio": c["members"] / candidates if candidates else 0.0,
            "solver.lift_s": self._incl("solver.lift"),
            "solver.lifts": n["solver.lift_solution"],
            "solver.lift_iterations": c["lift_iterations"],
            "solver.lift_residuals": c["lift_residuals"],
            "solver.builds": n["solver.build_jset_problem"],
            "solver.build_s": self._incl("solver.build"),
            "solver.rho_s": self._incl("solver.rho"),
            "padic.elem_mul_calls": n["padic.LocalElement.__mul__"],
            "padic.elem_mul_s": self._incl("padic.elem_mul"),
            "padic.div_calls": n["padic.LocalElement.div"],
            "padic.div_s": self._incl("padic.div"),
            "padic.quot_mul_calls": n["padic.QuotRing.mul"],
            "padic.quot_mul_s": self._incl("padic.quot_mul"),
            "witt.add_calls": n["witt.witt_add"],
            "witt.mul_calls": n["witt.witt_mul"],
            "witt.arith_s": self._self(
                "witt.witt_add", "witt.witt_mul", "witt.witt_sub", "witt.witt_neg"
            ),
            "witt.frobenius_s": self._incl("witt.frobenius"),
            "witt.teich_s": self._incl("witt.teich"),
            "witt.ideal_checks": n["witt.ideal_membership_gt"],
            "witt.symbolic_s": self._incl("witt.symbolic"),
            "bounds.nilpotency_calls": n["bounds.exact_nilpotency_index"],
            "bounds.nilpotency_s": self._incl("bounds.nilpotency"),
            "bounds.closed_form_s": self._incl("bounds.closed_form"),
            "herbrand.s": self._incl("herbrand"),
            "kisin.witness_calls": n["kisin.height_witness"] + n["kisin.u_power_witness"],
            "kisin.witness_s": self._incl("kisin.witness"),
            "kisin.tame_s": self._incl("kisin.tame"),
            "cli.calls": n["cli.main"],
            "cli.self_s": self._self("cli.main"),
        }
        return {m: out[m] for m, _ in METRICS}

    def counts_only(self) -> dict:
        """The deterministic part of :meth:`metrics`: every count."""
        units = dict(METRICS)
        return {k: v for k, v in self.metrics().items() if units[k] != "s"}
