#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

For every end-to-end metric it prints the median and the interquartile
range as a share of the median, over runs with seeds start..start+runs-1,
the way BENCHMARK.json's bounds are judged. Beside each host-adjusted
timing it prints the spread of its raw twin, so the host adjustment can be
seen to earn its place. Run from the repository root:

    python3 perfbench/spread.py --workload serve-cold --runs 10 --seconds 20
"""
import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--start", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    rows, raws = {}, {}
    for seed in range(args.start, args.start + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        meta, res = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"ref_ms_p50={meta['ref_ms_p50']:.3f} rounds={meta['rounds']}", flush=True)
        for name, m in res["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
        for name, v in meta["raw"].items():
            raws.setdefault(name, []).append(v)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'raw spread':>11} {'bound':>6}")
    for name in sorted(rows):
        med, sp = spread(rows[name])
        raw = f"{spread(raws[name])[1]:11.4f}" if name in raws else " " * 11
        b = bounds.get(name)
        print(f"{name:32} {med:14.6g} {sp:8.4f} {raw} {'' if b is None else b:>6}")


if __name__ == "__main__":
    main()
