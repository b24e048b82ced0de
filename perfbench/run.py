"""tandem benchmark: time `tandem solve` / `tandem pvcurve` ops in-process.

    python3 perfbench/run.py --workload direct-k24 --seed 1 --seconds 35 --trace 0

Each op is one call of ``tandem.cli.main([...])`` in a closed loop with a
single caller; the program's stdout, stderr and logging go to a discarding
sink so terminal output is not timed.  After WARMUP_S of untimed ops the
loop runs until ``--seconds`` have passed (and at least MIN_OPS ops ran),
checking every op outside the timed region.  Set-ups (input files to a
validated Network plus IndexMap, called directly) run between ops.

``--trace 0`` prints the end-to-end metrics (see perfbench/README.md for
why the gated op time is the fastest op).  ``--trace 1`` first runs one
traced op and fails unless it recorded a span for every layer the workload
uses, then times untraced ops for half the run and traced ops for the other
half, and prints the per-layer metrics (medians over traced ops) plus the
tracing overhead.  The last stdout line is the result JSON; the line before
it holds the run's details: environment, the median, tail and throughput
figures, sample counts, failure ratio and the worst check error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict

from tracer import PER_LAYER, Tracer, layer_metrics, span_names
from workloads import PINNED_THREADS, WORK, WORKLOADS, Capture, CheckFailed, load_program, setup

MIN_OPS = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED_OPS = 3
MAX_LOOP_S = 120.0
WARMUP_S = 1.0  # the first ops of a process can run slower
SETUP_ROUNDS = 7  # setup_s is the median over this many equal slices of the loop
SETUP_SHARE = 0.1  # share of each op's time spent on set-ups after it (at least one)

E2E = (
    ("op_s_min", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACE_EXTRA = (
    ("trace.op_s_p50", "s"),
    ("trace.untraced_op_s_p50", "s"),
    ("trace.overhead_s", "s"),
)


class _Discard(io.TextIOBase):
    """Text sink that drops everything written to it."""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        return len(s)


def quantile(times: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share q of samples at or below it."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Runner:
    def __init__(self, workload, seed: int):
        self.wl = workload
        t0 = time.perf_counter()
        self.prog = load_program()
        self.import_s = time.perf_counter() - t0
        self.sink = _Discard()
        logging.basicConfig(level=logging.WARNING, stream=self.sink)  # main()'s basicConfig is then a no-op
        self.capture = Capture(self.prog.cli)
        work = WORK / workload.name
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.case, self.coupling = workload.make_inputs(self.prog, seed, work)
        self.argv = workload.argv(self.case, self.coupling, self.out)
        self.errors: list[str] = []
        self.worst: dict[str, float] = {}

    def setups(self, budget: float) -> float:
        """Fastest of consecutive set-ups run for ``budget`` seconds (at least one)."""
        best, start = float("inf"), time.perf_counter()
        while best == float("inf") or time.perf_counter() - start < budget:
            t0 = time.perf_counter()
            setup(self.prog, self.case, self.coupling)
            best = min(best, time.perf_counter() - t0)
        gc.collect()
        return best

    def op(self, tracer: Tracer | None = None) -> tuple[float, bool]:
        """Run and check one op; returns (wall seconds, passed)."""
        for f in self.out.iterdir():
            f.unlink()
        self.capture.last = None
        rc = None
        if tracer:
            tracer.install()
            tracer.begin_op()
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                t0 = time.perf_counter()
                try:
                    rc = self.prog.cli.main(self.argv)
                finally:
                    dt = time.perf_counter() - t0
        except Exception as exc:  # an op that escapes main() counts as failed
            self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.uninstall()
        ok = rc is not None
        if ok:
            try:
                for key, val in self.wl.check(self.prog, rc, self.out, self.capture.last).items():
                    self.worst[key] = max(self.worst.get(key, 0.0), val)
            except CheckFailed as exc:
                self.errors.append(str(exc))
                ok = False
        self.capture.last = None
        gc.collect()
        return dt, ok

    def warm_up(self) -> tuple[int, int]:
        """Untimed ops for WARMUP_S (at least one); returns (attempted, failed)."""
        times, failed = self.loop(WARMUP_S, 1)
        return len(times) + failed, failed

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None, setup_rounds: list | None = None):
        """Closed loop for ``seconds``; returns (times of passing ops, failed count).

        With ``setup_rounds`` (SETUP_ROUNDS slots), set-ups run after each op
        and each slot keeps the fastest set-up of its slice of the loop.
        """
        times, failed = [], 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(times) + failed >= min_ops):
                break
            dt, ok = self.op(tracer)
            if ok:
                times.append(dt)
            else:
                failed += 1
            if setup_rounds is not None:
                i = min(SETUP_ROUNDS - 1, int(SETUP_ROUNDS * elapsed / seconds))
                setup_rounds[i] = min(setup_rounds[i], self.setups(SETUP_SHARE * dt))
        if setup_rounds is not None:
            for i, best in enumerate(setup_rounds):
                if best == float("inf"):
                    setup_rounds[i] = self.setups(0.0)
        return times, failed


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in PINNED_THREADS},
    }


def run_e2e(r: Runner, seconds: float) -> tuple[dict, int, int, dict]:
    warm_attempted, warm_failed = r.warm_up()
    rounds = [float("inf")] * SETUP_ROUNDS
    times, failed = r.loop(seconds, MIN_OPS, setup_rounds=rounds)
    if not times:
        raise SystemExit(f"perfbench: every op failed: {r.errors[:3]}")
    attempted = len(times) + failed
    metrics = {
        "op_s_min": (min(times), "s"),
        "setup_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_s, tail_pct = tail(times)
    detail = {
        # printed, not gated: too unsteady between runs on a shared host (see perfbench/README.md)
        "reported": {
            "op_s_p10": {"value": quantile(times, 0.10), "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s", "percentile": round(tail_pct, 2), "samples": len(times)},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "ops_failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        },
        "samples": len(times),
        "warmup_ops": warm_attempted,
        "op_s": [round(t, 6) for t in times],
        "setup_rounds_s": [round(t, 6) for t in rounds],
    }
    return metrics, attempted + warm_attempted, failed + warm_failed, detail


def run_traced(r: Runner, seconds: float) -> tuple[dict, int, int, dict]:
    tracer = Tracer()
    warm_attempted, warm_failed = r.warm_up()
    # self-test: a traced op must touch every layer this workload uses
    _, self_ok = r.op(tracer)
    missing = r.wl.expected_spans - span_names(tracer.spans)
    if missing:
        raise SystemExit(
            f"perfbench: traced op of {r.wl.name} recorded no span for {sorted(missing)}; "
            "a wrapped function moved or is no longer called where perfbench/tracer.py wraps it"
        )
    untraced, failed_u = r.loop(seconds / 2, MIN_TRACED_OPS)

    tracer.spans.clear()
    traced, failed_t = r.loop(seconds / 2, MIN_TRACED_OPS, tracer)
    if not traced or not untraced:
        raise SystemExit(f"perfbench: every op failed: {r.errors[:3]}")
    by_op: dict[int, list] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    per_op = [layer_metrics(spans) for spans in by_op.values()]

    metrics = {name: (statistics.median(m[name] for m in per_op), unit) for name, unit in PER_LAYER}
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    metrics["trace.op_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_op_s_p50"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    spans_path = WORK / r.wl.name / "spans.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
    attempted = warm_attempted + 1 + len(untraced) + len(traced) + failed_u + failed_t
    failed = warm_failed + (not self_ok) + failed_u + failed_t
    detail = {"samples": len(traced), "untraced_samples": len(untraced), "spans_file": str(spans_path)}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    r = Runner(WORKLOADS[args.workload], args.seed)
    run = run_traced if args.trace else run_e2e
    metrics, attempted, failed, detail = run(r, args.seconds)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        import_s=r.import_s,
        worst_check_error=r.worst,
        errors=r.errors[:5],
        env={**environment(), **r.prog.versions},
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
