"""ramibound benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.  The
load is a closed loop in one process and one thread: each call starts after
the previous one returns.  A pass runs every call of the workload once;
passes repeat until the next one would end after ``--seconds``.  Every call
is checked (see workloads.py) and any failure makes the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of tracer.py
plus the tracing overhead; it also writes the kept spans to
``bench/out/trace-<workload>-seed<seed>.json``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads as wl

SETUP_REPEATS = 7
OUT_DIR = os.path.join(wl.BENCH_DIR, "out")

# Fresh interpreter through import and input generation, then one line.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); import workloads; "
    "workloads.setup({name!r}, {seed!r}); print('ready', flush=True)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:  # not Linux: the architecture is all we record
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load": "closed loop, 1 process, 1 thread",
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to make
    the first timed call, once per repeat."""
    code = SETUP_PROBE.format(bench=wl.BENCH_DIR, name=name, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=wl.ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise wl.SetupError(f"set-up probe failed: {err.strip()}")
        samples.append(t1 - t0)
    return samples


def run_pass(work: wl.Workload, tracer: tracing.Tracer | None = None):
    """One pass over every call: (pass seconds, [(call, outcome, seconds)])."""
    gc.collect()
    results = []
    for call in work.calls:
        if tracer is not None:
            tracer.begin_call()
        t0 = time.perf_counter()
        outcome = call.run()
        results.append((call, outcome, time.perf_counter() - t0))
    return sum(dt for _, _, dt in results), results


def checked(timed_pass, verdicts) -> tuple[float, list]:
    """Check a pass's outcomes and keep only (call key, seconds), so that
    results of earlier passes do not stay alive and raise peak memory."""
    wall, results = timed_pass
    verdicts.add(results)
    return wall, [(call.key, dt) for call, _, dt in results]


def repeat_until(seconds: float, step) -> list:
    """Run ``step`` (returning its duration first) while the next one is
    expected to end within ``seconds``; at least once."""
    start = time.perf_counter()
    out = []
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[0] for r in out)
        if elapsed + typical > seconds:
            return out


class Verdicts:
    """Every execution's checks, and the first few failure messages."""

    def __init__(self, work: wl.Workload):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, results) -> None:
        for call, outcome, _ in results:
            self.attempted += 1
            problems = self.work.verify(call, outcome)
            if problems:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{call.key[:100]}: {'; '.join(problems)}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2 ** 20 if sys.platform == "darwin" else rss / 2 ** 10


def fastest_per_call(passes) -> list[float]:
    """Each call's fastest time over the checked passes, in seconds: the
    minimum of k repeats, which keeps the host's contention bursts out."""
    best: dict = {}
    for _, timings in passes:
        for key, dt in timings:
            best[key] = min(dt, best.get(key, dt))
    return list(best.values())


def end_to_end(work, args, verdicts) -> tuple[dict, list[str]]:
    setup = measure_setup(work.name, work.seed)
    passes = repeat_until(args.seconds, lambda: checked(run_pass(work), verdicts))
    best = fastest_per_call(passes)
    call_ms = [dt * 1e3 for dt in best]
    metrics = {
        "wall_s": (sum(best), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_ms": (statistics.median(call_ms), "ms"),
        "call_p90_ms": (percentile(call_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"per-call time: fastest of {len(passes)} passes; wall_s is their sum "
        f"over the {len(best)} calls",
        f"call_p50_ms, call_p90_ms: over those {len(best)} per-call times"
        + ("" if len(best) >= 100 else " (fewer than 100: p90 is nearly the maximum)"),
        f"setup_s: median of {len(setup)} fresh interpreters",
    ]
    return metrics, notes


def per_layer(work, args, verdicts) -> tuple[dict, list[str]]:
    tracers = []

    def pair():
        untraced = checked(run_pass(work), verdicts)
        tr = tracing.Tracer(keep_spans=not tracers)
        with tr.installed(work.lib):
            traced = run_pass(work, tr)
        tracers.append(tr)
        traced = checked(traced, verdicts)
        return untraced[0] + traced[0], untraced, traced

    pairs = repeat_until(args.seconds, pair)
    first = tracers[0].counts_only()
    agree = all(tr.counts_only() == first for tr in tracers[1:])
    if not agree:
        verdicts.fail("per-layer counts differ between traced passes")
    units = dict(tracing.METRICS)
    runs = [tr.metrics() for tr in tracers]
    metrics = {
        name: (statistics.median(r[name] for r in runs) if units[name] == "s"
               else first[name], units[name])
        for name in units
    }
    untraced = sum(fastest_per_call([p[1] for p in pairs]))
    traced = sum(fastest_per_call([p[2] for p in pairs]))
    metrics["trace_overhead_ratio"] = (traced / untraced, "ratio")
    write_trace(work, tracers[0], metrics)
    notes = [f"{len(pairs)} untraced/traced pass pairs; counts of the traced "
             f"passes agree: {agree}"]
    return metrics, notes


def write_trace(work, tr: tracing.Tracer, metrics: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{work.name}-seed{work.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": work.name,
                "seed": work.seed,
                "environment": environment(),
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "span_names": {
                    name: {"calls": tr.calls[name], "self_s": tr.self_ns[name] / 1e9}
                    for name in sorted(tr.calls)
                },
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
                "spans": tr.spans,
            },
            fh,
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        work = wl.setup(args.workload, args.seed)
        print(f"# ramibound benchmark: workload={work.name} seed={work.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# " + ", ".join(f"{k}: {v}" for k, v in environment().items()))
        verdicts = Verdicts(work)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(work, args, verdicts)
    except wl.SetupError as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print("# " + note)
    print(f"# calls attempted {verdicts.attempted}, failed {verdicts.failed}, "
          f"failed_ratio {verdicts.failed / verdicts.attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    for message in verdicts.messages:
        print("FAILED " + message, file=sys.stderr)
    correct = verdicts.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
