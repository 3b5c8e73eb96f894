"""Record the expected output of every call a workload can make.

    python3 bench/record.py [workload ...]

Runs each call once (for desk-sweep, the whole pool every seed draws from),
refuses to record a call that raises or fails its independent checks, and
writes ``bench/expected/<workload>.jsonl``.  Re-record only when a change to
the CLI output is intended; the benchmark compares against these bytes.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads as wl


def pool_calls(lib, name: str) -> list:
    if name == "desk-sweep":
        return [c for calls in wl.sweep_pool(lib).values() for c in calls]
    return wl.build_calls(lib, name, seed=0)


def record(lib, name: str) -> int:
    calls = pool_calls(lib, name)
    keys = [c.key for c in calls]
    if len(set(keys)) != len(keys):
        raise SystemExit(f"{name}: duplicate call keys")
    failures = 0
    lines = []
    slowest = (0.0, "")
    for call in sorted(calls, key=lambda c: c.key):
        t0 = time.perf_counter()
        o = call.run()
        dt = time.perf_counter() - t0
        slowest = max(slowest, (dt, call.key))
        problems = ["raised:\n" + o.error] if o.exit is None else call.checks(o)
        if o.exit != 0:
            problems.append(f"exit {o.exit}: {o.error.strip()}")
        if problems:
            failures += 1
            print(f"FAIL {call.key}: {problems}", file=sys.stderr)
            continue
        lines.append(json.dumps({"key": call.key, "exit": o.exit, "stdout": o.text}))
    if failures:
        print(f"{name}: {failures} calls failed, nothing recorded", file=sys.stderr)
        return 1
    os.makedirs(wl.EXPECTED_DIR, exist_ok=True)
    with open(wl.expected_path(name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{name}: recorded {len(lines)} calls; slowest {slowest[0]:.3f} s {slowest[1][:80]}")
    return 0


def main(argv: list[str]) -> int:
    lib = wl.import_library()
    names = argv or list(wl.WORKLOADS)
    return max(record(lib, name) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
