#!/usr/bin/env python3
"""Check the benchmark's steadiness the way the PR driver does.

Runs the manifest's command on every workload under ten different seeds
(`--trace 0`), and for each end-to-end metric prints the distance between
the first and third quartile of its ten values as a share of their median
(`statistics.quantiles(values, n=4)`). The driver accepts the benchmark
only if every spread except `setup_s` stays within the metric's bound;
the target when (re)defining a bound is a third of it.

    python3 benchmark/spread.py [first_seed] [out.json]

Takes about 17 minutes on the reference box. Exits non-zero if a result
line is malformed or incorrect, or a spread exceeds its bound.
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
out_path = sys.argv[2] if len(sys.argv) > 2 else None

values = {}
over_bound = 0
started = time.time()
for workload in (w["name"] for w in spec["workloads"]):
    per_metric = values.setdefault(workload, {})
    for seed in range(first_seed, first_seed + 10):
        t0 = time.time()
        proc = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, last line {last!r}\n{proc.stderr[-2000:]}")
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, {last}")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            sys.exit(f"{workload} seed {seed}: result keys {sorted(result)}")
        if set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            sys.exit(f"{workload} seed {seed}: metrics {sorted(result['metrics'])}")
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        per_metric.setdefault("_invocation_s", []).append(time.time() - t0)
    for m in spec["end_to_end"]:
        v = per_metric[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median
        note = ""
        if m["name"] != "setup_s":
            if spread > m["bound"]:
                note, over_bound = "  OVER ITS BOUND", over_bound + 1
            elif spread > m["bound"] / 3:
                note = "  over a third of its bound"
        if len(set(v)) == 1:
            note += "  reads the same on every run"
        print(f"{workload:16} {m['name']:26} median {median:12.6f} {m['unit']:6}"
              f" spread {100 * spread:6.2f}%  bound {100 * m['bound']:5.1f}%{note}", flush=True)
    wall = per_metric["_invocation_s"]
    print(f"{workload:16} invocation: median {statistics.median(wall):.1f} s, max {max(wall):.1f} s", flush=True)

runs = 4 + 22 * len(spec["workloads"])
mean = sum(sum(v["_invocation_s"]) for v in values.values()) / sum(len(v["_invocation_s"]) for v in values.values())
print(f"total {time.time() - started:.0f} s; the driver's {runs} runs would take about {runs * mean:.0f} s of its 3420 s")
if out_path:
    pathlib.Path(out_path).write_text(json.dumps(values))
sys.exit(1 if over_bound else 0)
