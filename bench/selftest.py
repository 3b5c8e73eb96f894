"""Self-test of the benchmark's tracing: counts repeat exactly.

    python3 bench/selftest.py [workload ...]

For each workload (default: all), runs the traced pass twice with seed 0 and
requires identical per-layer counts.  It also pins counts known from the
worked instances: level-a enumeration tries 81 candidates and keeps 27 on the
README ``jset`` example (phi(e) = u e over x^6 + 3), and tries 6561 and keeps
9 on the rank-2 swap module.  Exit code 1 on any mismatch.
"""

from __future__ import annotations

import sys

import run
import tracer as tracing
import workloads as wl

PINNED = (
    ("README jset, level a", [[(0, 1)]], 81, 27),
    ("rank-2 swap, level a", [[(), (0, 1)], [(1,), ()]], 6561, 9),
)


def level_a_counts(lib, matrix) -> tuple[int, int]:
    padic, kisin, solver = lib["padic"], lib["kisin"], lib["solver"]
    E = padic.eisenstein_validate((3, 1), 3)
    module = kisin.kisin_new(3, 1, E, matrix, r_hint=1)
    g = padic.eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3)
    prob = solver.build_jset_problem(module, padic.LocalFieldModel(g, 24, 1), 1, 1)
    tr = tracing.Tracer(keep_spans=False)
    with tr.installed(lib):
        tr.begin_call()
        solver.jset_enumerate(prob, "a")
    m = tr.metrics()
    return m["solver.candidates"], m["solver.members"]


def traced_counts(work: wl.Workload) -> dict:
    tr = tracing.Tracer(keep_spans=False)
    with tr.installed(work.lib):
        _, results = run.run_pass(work, tr)
    problems = [p for call, o, _ in results for p in work.verify(call, o)]
    if problems:
        raise SystemExit(f"{work.name}: traced pass failed its checks: {problems[:3]}")
    return tr.counts_only()


def main(names: list[str]) -> int:
    failures = 0
    lib = wl.import_library()
    for label, matrix, cand, members in PINNED:
        got = level_a_counts(lib, matrix)
        ok = got == (cand, members)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: {got[0]} candidates -> "
              f"{got[1]} members (pinned {cand} -> {members})")
    for name in names or wl.WORKLOADS:
        work = wl.setup(name, 0)
        first, second = traced_counts(work), traced_counts(work)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        failures += bool(diff)
        print(f"{'FAIL' if diff else 'PASS'} {name}: two traced passes give "
              f"{'different' if diff else 'identical'} counts {diff or ''}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
