"""Admission-path benchmark: one command, three closed-loop workloads.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload service-churn --seed 1 \\
        [--seconds 25] --trace 0 [--out result.json]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a traced run (and
writes its spans as JSONL under ``.perfbench_out/``).

Steadiness mode (each workload N times, medians and quartile spreads)::

    python3 perfbench/run.py steady --runs 5 [--seconds 25] \\
        [--workload router-durable ...] [--out steady.json]

Compare two result files (single runs or steadiness files)::

    python3 perfbench/run.py compare base.json new.json

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
STATE_ROOT = ROOT / ".perfbench_state"
SPEC = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def import_program() -> None:
    """Put ``src/`` first on the path and make sure ``repro`` is from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_fingerprint() -> dict:
    """CPU count, interpreter and numpy versions, and the time of a fixed
    pure-Python calibration loop (for reading results across machines)."""
    import numpy

    def calibrate() -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i % 7
        return perf_counter() - t0

    loops = sorted(calibrate() for _ in range(3))
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "machine": _platform.machine(),
        "calibration_ms": loops[1] * 1e3,
    }


def peak_rss_mb(pids) -> float:
    """Peak resident memory of this process plus the given live workers."""
    import resource

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def pct(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def one_round(wl, st, m) -> float:
    """Run one round; returns its wall time, less the benchmark's own
    checks, and notes its request rate."""
    before, aside = m.requests, m.aside_s
    t0 = perf_counter()
    wl.round(st, m)
    wall = perf_counter() - t0 - (m.aside_s - aside)
    m.round_rates.append((m.requests - before) / wall)
    return wall


def timed_loop(wl, st, m, seconds: float) -> None:
    """Whole rounds until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    while True:
        one_round(wl, st, m)
        if perf_counter() >= deadline:
            return


def e2e_metrics(m, setup_s: float, rss_mb: float) -> dict:
    """End-to-end figures.  The request rate is the median over rounds,
    so a few seconds of a busy host move it less than a total would."""
    return {
        "setup_s": setup_s,
        "requests_per_s": statistics.median(m.round_rates),
        "request_p50_ms": pct(m.request_s, 50) * 1e3,
        "request_p99_ms": pct(m.request_s, 99) * 1e3,
        "release_p50_ms": pct(m.release_s, 50) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def setup_backend(wl):
    """One set-up; a failure or oracle problem in it fails the run."""
    from workloads import Measure

    sm = Measure()
    st = wl.setup(sm)
    if sm.failed:
        sm.problems.append(f"set-up: {sm.failed} operations failed")
    return st, sm.problems


def specific_metrics(m) -> dict:
    """The workload-specific end-to-end figures (0 where not exercised)."""
    return {
        "cross_request_p50_ms": pct(m.cross_s, 50) * 1e3,
        "recovery_s": pct(m.recovery_s, 50),
        "batch_p50_ms": pct(m.batch_s, 50) * 1e3,
    }


def run_untraced(wl, seconds: float) -> tuple:
    import gc

    from workloads import Measure

    setups = []
    st = None
    for _ in range(SETUPS):
        if st is not None:
            wl.teardown(st)
            st = None
        gc.collect()
        t0 = perf_counter()
        st, problems = setup_backend(wl)
        setups.append(perf_counter() - t0)
    m = Measure(problems=problems)
    timed_loop(wl, st, m, seconds)
    rss = peak_rss_mb(wl.worker_pids(st))
    metrics = e2e_metrics(m, statistics.median(setups), rss)
    extra = specific_metrics(m)
    extra["requests"] = m.requests
    extra["setups_s"] = setups
    wl.finish(st, m)
    return m, metrics, extra


def run_traced(wl, seconds: float, trace_path: Path) -> tuple:
    """Set up traced, then alternate untraced and traced rounds.

    Alternating round by round keeps both arms on the same stretch of
    the workload, so their ratio is the tracing overhead and not drift.
    Program counters are read around each traced round only.
    """
    import gc

    from tracing import SpanRecorder, summarize
    from workloads import Measure, add_counters

    rec = SpanRecorder()
    rec.install()
    try:
        st, problems = setup_backend(wl)
    finally:
        rec.uninstall()
    setup_sum = summarize(rec.spans)
    rec.write_jsonl(str(trace_path), "setup", mode="w")
    rec.reset()
    gc.collect()

    def counters() -> dict:
        return add_counters(wl.counters(st), getattr(st, "retired", {}))

    plain, traced = Measure(), Measure()
    traced_wall = 0.0
    delta: dict = {}
    deadline = perf_counter() + seconds
    while True:
        one_round(wl, st, plain)
        before = counters()
        wl.keep_counters = True
        rec.install()
        try:
            traced_wall += one_round(wl, st, traced)
        finally:
            rec.uninstall()
            wl.keep_counters = False
        after = counters()
        delta = add_counters(
            delta, {k: after.get(k, 0) - before.get(k, 0) for k in after})
        if perf_counter() >= deadline:
            break
    loop_sum = summarize(rec.spans)
    rec.write_jsonl(str(trace_path), "loop")

    m = Measure(attempted=plain.attempted + traced.attempted,
                failed=plain.failed + traced.failed,
                problems=problems + plain.problems + traced.problems)
    metrics = layer_metrics(
        loop_sum, setup_sum, rec, delta, traced_wall,
        untraced_rps=statistics.median(plain.round_rates),
        traced_rps=statistics.median(traced.round_rates),
    )
    metrics.update(specific_metrics(plain))
    # The oracles replay the whole record, traced rounds included.
    wl.finish(st, m)
    return m, metrics


def layer_metrics(loop, setup, rec, delta: dict, wall: float, *,
                  untraced_rps: float, traced_rps: float) -> dict:
    calls, total, durs = loop["calls"], loop["total_s"], loop["durations"]
    self_s = loop["self_s"]

    def p50_us(name: str) -> float:
        return pct(durs.get(name, []), 50) * 1e6

    ms = 1e3
    probes = calls.get("service.probe", 0)
    cross = delta.get("routed_cross", 0)
    attempts = delta.get("select_attempts", 0)
    rpc_s = total.get("workers.call", 0.0) + total.get("workers.call_many", 0.0)
    worker_stage_s = delta.get("stage_s", 0.0) if rec.rpc_commands else 0.0
    return {
        "core.select_calls": calls.get("core.select", 0),
        "core.select_self_ms": self_s["core"] * ms,
        "core.select_p50_us": p50_us("core.select"),
        "topology.path_calls": calls.get("topology.path", 0),
        "topology.path_ms": total.get("topology.path", 0.0) * ms,
        "cache.select_memo_hits": delta.get("memo_hits", 0),
        "cache.select_memo_hit_ratio": (
            delta.get("memo_hits", 0) / attempts if attempts else 0.0),
        "cache.snapshot_sweeps": delta.get("sweeps", 0),
        "cache.route_misses": delta.get("route_misses", 0),
        "cache.schedule_builds": delta.get("schedule_builds", 0),
        "residual_view.rebuilds": calls.get("residual_view.rebuild", 0),
        "residual_view.rebuild_ms": total.get("residual_view.rebuild", 0.0) * ms,
        "residual_view.delta_ms": total.get("residual_view.delta", 0.0) * ms,
        "ledger.reserve_p50_us": p50_us("ledger.reserve"),
        "ledger.reserve_ms": total.get("ledger.reserve", 0.0) * ms,
        "ledger.release_p50_us": p50_us("ledger.release"),
        "ledger.expired": rec.expired,
        "wal.appends": calls.get("wal.append", 0),
        "wal.bytes": rec.wal_bytes,
        "wal.append_ms": total.get("wal.append", 0.0) * ms,
        "wal.snapshot_ms": total.get("wal.snapshot", 0.0) * ms,
        "wal.replay_ms": total.get("wal.replay", 0.0) * ms,
        "service.request_self_ms": self_s["service"] * ms,
        "router.probes": probes,
        "router.probes_per_cross": probes / cross if cross else 0.0,
        "router.cross_commits": cross,
        "router.self_ms": self_s["router"] * ms,
        "trunk.reserve_calls": calls.get("trunk.reserve", 0),
        "trunk.reserve_ms": total.get("trunk.reserve", 0.0) * ms,
        "partition.ms": setup["total_s"].get("partition", 0.0) * ms,
        "workers.rpc_calls": rec.rpc_commands,
        "workers.rpc_ms": rpc_s * ms,
        "workers.service_ms": worker_stage_s * ms,
        "workers.overhead_ms": (rpc_s - worker_stage_s) * ms,
        "workers.spawn_ms": setup["total_s"].get("workers.spawn", 0.0) * ms,
        "trace.coverage": sum(self_s.values()) / wall,
        "trace.overhead_ratio": traced_rps / untraced_rps,
        "trace.traced_requests_per_s": traced_rps,
        "trace.untraced_requests_per_s": untraced_rps,
    }


def run_one(args) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    STATE_ROOT.mkdir(exist_ok=True)
    state_root = STATE_ROOT / f"run-{os.getpid()}"
    state_root.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, str(state_root))
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            m, metrics = run_traced(wl, args.seconds, trace_path)
            names = spec["per_layer"]
            extra = {}
        else:
            m, metrics, extra = run_untraced(wl, args.seconds)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass
    units = {d["name"]: d["unit"] for d in names}
    result = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    for problem in m.problems[:20]:
        print(f"ORACLE: {problem}")
    for name, d in result["metrics"].items():
        print(f"{args.workload:>15} {name:<32} {d['value']:>14.6g} {d['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"{args.workload:>15} {name:<32} {value:>14.6g} (not gated)")
    if args.out:
        detail = dict(result)
        detail.update({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "extra": extra, "problems": m.problems[:100],
            "machine": machine_fingerprint(),
        })
        Path(args.out).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("steady", "compare"):
        sys.path.insert(0, str(HERE))
        import report

        return report.main(argv)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write a detailed result file here")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
