"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, and the spans are written to ``.perfbench_out/``. The lines
before it give the same figures under the names each workload uses (step,
frame, gradient-suite time), the failure ratio and the software versions.
"""

from __future__ import annotations

import os

# The paper's model runs on one core; an unpinned BLAS would let step time
# depend on whatever else runs on the other cores. Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, nospan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MAX_TRACEBACKS = 3
# A run measures for --seconds, and for at least this many iterations (or
# traced/untraced pairs), so that a median never rests on two or three
# samples: one pass of the gradient suite alone takes 5 to 8.5 s.
MIN_ITERATIONS = 5
# Set-ups repeat back to back for this long, and at least MIN_ITERATIONS
# times: a 2 ms set-up gets many samples and a 0.9 s one gets five.
SETUP_SECONDS = 3.0

# names each workload's figures go by, beside the end-to-end metric names
ALIASES = {
    "train": {"items_per_s": ("train_samples_per_s", "samples/s"),
              "iter_ms_p50": ("step_ms_p50", "ms"), "iter_ms_p90": ("step_ms_p90", "ms")},
    "eval-disk": {"items_per_s": ("eval_frames_per_s", "frames/s"),
                  "iter_ms_p50": ("frame_ms_p50", "ms"), "iter_ms_p90": ("frame_ms_p90", "ms")},
    "gradcheck-quick": {"items_per_s": ("gradient_checks_per_s", "checks/s"),
                        "iter_ms_p50": ("gradcheck_ms_p50", "ms"),
                        "iter_ms_p90": ("gradcheck_ms_p90", "ms")},
}
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "iter_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Loop:
    """Closed-loop measurement: iteration times and operation counts."""

    def __init__(self):
        self.iter_s: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0

    def once(self, w, group, span):
        a = time.perf_counter()
        try:
            with group(w.root):
                bad = w.iteration(span)
        except Exception:
            bad = w.ops_per_iteration
            if self.tracebacks < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
                self.tracebacks += 1
        else:
            self.items += w.items_per_iteration
        self.iter_s.append(time.perf_counter() - a)
        self.attempted += w.ops_per_iteration
        self.failed += bad

    def median_ms(self) -> float:
        return statistics.median(self.iter_s) * 1e3


def timed_setup(w, group=nospan) -> float:
    with group("setup"):
        t = time.perf_counter()
        w.setup()
        return time.perf_counter() - t


def timed_setups(w, workloads, group=nospan) -> list[float]:
    """Set up back to back, as ``SETUP_SECONDS`` asks; the last set-up builds ``w``.

    The earlier set-ups build and drop throwaway instances, so only one
    instance is alive at a time and peak memory is that of one set-up.
    """
    times = []
    while len(times) < MIN_ITERATIONS - 1 or sum(times) < SETUP_SECONDS:
        other = workloads.make(w.name, w.seed, OUT)
        try:
            times.append(timed_setup(other, group))
        finally:
            other.teardown()
    times.append(timed_setup(w, group))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lightavseg" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lightavseg
    if Path(lightavseg.__file__).resolve().parent != SRC / "lightavseg":
        print(f"perfbench: imported lightavseg from {lightavseg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, args.seed, OUT)
    try:
        if args.trace:
            report = traced_run(w, args.seconds, workloads)
        else:
            report = untraced_run(w, args.seconds, workloads)
    finally:
        w.teardown()

    print("# env " + json.dumps(environment(), sort_keys=True))
    for line in report.pop("lines"):
        print(line)
    print(json.dumps(report, sort_keys=True))
    return 0


def _check(w, loop: Loop) -> bool:
    try:
        bad = w.check()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        bad = loop.attempted
    loop.failed = min(loop.attempted, loop.failed + bad)
    return bad == 0 and loop.failed == 0


def untraced_run(w, seconds: float, workloads) -> dict:
    setup = timed_setups(w, workloads)
    loop = Loop()
    t0 = time.perf_counter()
    while len(loop.iter_s) < MIN_ITERATIONS or time.perf_counter() - t0 < seconds:
        loop.once(w, nospan, nospan)
    correct = _check(w, loop)

    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": loop.items / sum(loop.iter_s),
        "iter_ms_p50": loop.median_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    aliases = ALIASES["train" if w.name.startswith("train") else w.name]
    n = len(loop.iter_s)
    p90 = 1e3 * (statistics.quantiles(loop.iter_s, n=10, method="inclusive")[-1]
                 if n > 1 else loop.iter_s[0])
    lines = [f"# workload {w.name} seed {w.seed}: {n} iterations in "
             f"{sum(loop.iter_s):.2f} s; {len(setup)} set-ups, min/median/max "
             f"{min(setup):.4f}/{statistics.median(setup):.4f}/{max(setup):.4f} s"]
    for key, value in metrics.items():
        name, unit = aliases.get(key, (key, END_TO_END_UNITS[key]))
        lines.append(f"# metric {name} = {value:.6g} {unit}")
    name, unit = aliases["iter_ms_p90"]
    lines.append(f"# metric {name} = {p90:.6g} {unit} "
                 f"({sum(t * 1e3 > p90 for t in loop.iter_s)} of {n} beyond it)")
    lines.append(f"# metric failed_ratio = {loop.failed}/{loop.attempted} "
                 f"= {loop.failed / loop.attempted:.6g} failed/attempted")
    return {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()},
            "lines": lines}


def traced_run(w, seconds: float, workloads) -> dict:
    """Traced and untraced iterations alternate; the median pair difference is the overhead.

    On a noisy machine that difference can sink below its own noise, so the
    run also reports what the spans themselves cost: the spans a traced
    iteration records times the measured cost of one wrapped call.
    """
    tracer = Tracer()
    targets = workloads.patch_targets(tracer)
    with tracer.patched(targets):
        timed_setups(w, workloads, tracer.group)
    plain, traced = Loop(), Loop()
    first = len(tracer.spans)
    t0 = time.perf_counter()
    while len(traced.iter_s) < MIN_ITERATIONS or time.perf_counter() - t0 < seconds:
        plain.once(w, nospan, nospan)
        with tracer.patched(targets):
            traced.once(w, tracer.group, tracer.span)
    spans_per_iteration = (len(tracer.spans) - first) / len(traced.iter_s)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    correct = _check(w, plain)

    metrics = workloads.layer_metrics(tracer, w)
    # iterations run in adjacent pairs, so each pair shares the machine's state
    overhead = 1e3 * statistics.median(t - p for t, p in zip(traced.iter_s, plain.iter_s))
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / plain.median_ms()
    metrics["trace.span_cost_ms"] = 1e3 * tracer.cost_per_span_s() * spans_per_iteration

    path = OUT / f"trace-{w.name}-seed{w.seed}.jsonl"
    tracer.write(path)
    lines = [f"# trace {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
             f"{len(traced.iter_s)} traced/untraced pairs, "
             f"{spans_per_iteration:.1f} spans per traced iteration",
             "# span calls total_ms self_ms"]
    for name, row in sorted(tracer.summary().items()):
        lines.append(f"# span {name} {row['calls']} {row['total_ms']:.3f} "
                     f"{row['self_ms']:.3f}")
    lines += [f"# metric {k} = {v:.6g} {workloads.LAYER_UNITS[k]}"
              for k, v in sorted(metrics.items())]
    return {"correct": correct, "attempted": plain.attempted, "failed": plain.failed,
            "metrics": {k: {"value": v, "unit": workloads.LAYER_UNITS[k]}
                        for k, v in sorted(metrics.items())},
            "lines": lines}


if __name__ == "__main__":
    sys.exit(main())
