#!/usr/bin/env python3
"""Measures how steady the benchmark is and writes the steadiness report.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--sets 2] [--first-seed 1000]
                                [--workloads a,b] [--out perfbench/steadiness.json]

Runs every workload of BENCHMARK.json (or those --workloads names) ten
times per set, for BENCHMARK.json's run_seconds each, each run with its
own seed, workloads interleaved run by run so host phases hit
them alike. For every end-to-end metric it reports the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median of each set, and whether the second set's median is
within the metric's bound of the first's. The 4 MB probe timings each run
recorded at its start and end are kept beside its values, so outlier runs
can be matched to host phases. Writes JSON to --out and a Markdown table
next to it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-diag "):
            diag = json.loads(line[len("perfbench-diag "):])
    return {"seed": seed, "wall_s": wall, "result": result, "diag": diag}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="perfbench/steadiness.json")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for i in range(RUNS_PER_SET):
            for w in workloads:
                r = run_once(w, seed, seconds)
                seed += 1
                runs[w][s].append(r)
                vals = {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}
                probe = "/".join(f"{r['diag'].get(k) or 0:.0f}"
                                 for k in ("probe_start_ms", "probe_end_ms"))
                print(f"set {s} run {i} {w} seed {r['seed']} failed {r['result']['failed']}"
                      f" {vals} probe {probe} ms", flush=True)

    report = {"run_seconds": seconds, "runs_per_set": RUNS_PER_SET, "sets": args.sets,
              "workloads": {}}
    for w in workloads:
        entry = {"metrics": {}, "runs": runs[w]}
        entry["failed"] = sum(r["result"]["failed"] for rs in runs[w] for r in rs)
        entry["attempted"] = sum(r["result"]["attempted"] for rs in runs[w] for r in rs)
        for name, spec in metrics.items():
            sets = [spread([r["result"]["metrics"][name]["value"] for r in rs])
                    for rs in runs[w]]
            m = {"unit": spec["unit"], "bound": spec["bound"], "sets": sets}
            if len(sets) >= 2:
                a, b = sets[0]["median"], sets[1]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                m["second_median_worse_by"] = worse
                m["agree"] = worse <= spec["bound"]
            entry["metrics"][name] = m
        report["workloads"][w] = entry

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1) + "\n")
    lines = [f"# Steadiness report\n",
             f"{args.sets} set(s) of {RUNS_PER_SET} runs per workload, {seconds} s per run, "
             f"one seed per run. Spread = (Q3 - Q1) / median.\n",
             "| workload | metric | bound | " + " | ".join(
                 f"set {s + 1} median | set {s + 1} Q1..Q3 | set {s + 1} spread"
                 for s in range(args.sets)) + (" | 2nd median worse by |" if args.sets >= 2 else ""),
             "|---|---|---|" + "---|---|---|" * args.sets + ("---|" if args.sets >= 2 else "")]
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            cells = []
            for st in m["sets"]:
                cells += [f"{st['median']:.6g}", f"{st['q1']:.6g}..{st['q3']:.6g}",
                          f"{st['iqr_over_median']:.4f}"]
            tail = f" {m['second_median_worse_by']:+.4f} |" if args.sets >= 2 else ""
            lines.append(f"| {w} | {name} ({m['unit']}) | {m['bound']} | "
                         + " | ".join(cells) + " |" + tail)
        lines.append(f"| {w} | failed / attempted | | {entry['failed']} / {entry['attempted']} |")
    out.with_suffix(".md").write_text("\n".join(lines) + "\n")
    print(out.with_suffix(".md").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
