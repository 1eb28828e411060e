"""``steady`` and ``compare`` subcommands of ``perfbench/run.py``.

``steady`` runs every (or the named) workload N times with seeds
1..N, one run at a time, and prints each metric's median and its
quartile spread ``(q3 - q1) / median`` next to the metric's bound.

``compare`` reads two result files (a single ``--out`` run or a
``steady`` file) and prints, per workload, each end-to-end metric as
better, worse or within its bound, then the per-layer metrics side by
side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE.parent / ".perfbench_out"


def spread(values: list) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med) if med else 0.0


def steady(args) -> int:
    spec = json.loads(SPEC.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {"runs": {}, "summary": {}, "seconds": seconds}
    OUT_DIR.mkdir(exist_ok=True)
    for name in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            detail = OUT_DIR / f"steady-{name}-seed{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0", "--out", str(detail)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["extra"] = json.loads(detail.read_text())["extra"]
            detail.unlink()
            results.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"(share {share:.6f})", flush=True)
        out["runs"][name] = results
        out["summary"][name] = summarize(results)
    print_summary(out["summary"], spec)
    if args.out:
        from run import machine_fingerprint

        out["machine"] = machine_fingerprint()
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def summarize(results: list) -> dict:
    names = results[0]["metrics"]
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, sp = spread(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def print_summary(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<15} {'metric':<32} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  steady")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "yes" if s["spread"] < bound / 3 else (
                    "within bound" if s["spread"] <= bound else "NO")
            print(f"{workload:<15} {name:<32} {s['median']:>12.6g} "
                  f"{s['spread']:>8.4f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")


def load_medians(path: str) -> dict:
    """``{workload: {metric: value}}`` from a steady or single-run file."""
    data = json.loads(Path(path).read_text())
    if "summary" in data:
        return {w: {m: s["median"] for m, s in ms.items()}
                for w, ms in data["summary"].items()}
    metrics = {m: d["value"] for m, d in data["metrics"].items()}
    metrics.update(data.get("extra", {}))
    return {data["workload"]: metrics}


def compare(args) -> int:
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_medians(args.base), load_medians(args.new)
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        print(f"== {workload}")
        for name, m in e2e.items():
            if name not in b or name not in n:
                continue
            ratio = n[name] / b[name] if b[name] else float("inf")
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > m["bound"]:
                verdict = "WORSE"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:<32} {b[name]:>12.6g} -> {n[name]:>12.6g} "
                  f"({ratio:6.3f}x, bound {m['bound']:.2f})  {verdict}")
        layer = sorted((set(b) & set(n)) - set(e2e))
        if layer:
            print("  per layer:")
        for name in layer:
            print(f"  {name:<32} {b[name]:>12.6g}    {n[name]:>12.6g}")
    return 0


def main(argv: list) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady", help="run each workload N times")
    s.add_argument("--runs", type=int, default=5)
    s.add_argument("--seconds", type=float)
    s.add_argument("--workload", action="append")
    s.add_argument("--out")
    c = sub.add_parser("compare", help="diff two result files")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return steady(args) if args.cmd == "steady" else compare(args)
