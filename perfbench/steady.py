#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how steady each metric is.

    python3 perfbench/steady.py --workload emulate --seeds 1-10 --seconds 20

For every metric of the runs' last output line it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread: the interquartile distance as a share of the median. Beside it,
the spread of the same metric as measured, before the baseline steal was
taken out and the host speed factor applied (the "raw metrics" line a
run prints). With --bounds it flags each end-to-end metric whose spread
exceeds a third of its bound in BENCHMARK.json. --json writes every
run's reported and raw values, its corrections and its host line too.
Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def logged(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def spread(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bounds", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    values, raw, corrections, hosts = {}, {}, [], []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, m in json.loads(logged(lines, "perfbench: raw metrics: ") or "{}").items():
            raw.setdefault(name, []).append(m["value"])
        corrections.append(json.loads(logged(lines, "perfbench: corrections: ") or "{}"))
        hosts.append(f"seed {seed}: " + (logged(lines, "perfbench: host: ") or ""))
        print(f"seed {seed}: {res['attempted']} requests, 0 failed", file=sys.stderr)

    bounds = {}
    if args.bounds:
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    print(f"{args.workload}: {len(seeds(args.seeds))} seeds ({args.seeds}), --seconds {args.seconds}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'raw':>8}")
    for name in sorted(values):
        med, q1, q3, sp = spread(values[name])
        rsp = f"{spread(raw[name])[3]:8.3f}" if len(raw.get(name, [])) == len(values[name]) else f"{'':8}"
        flag = ""
        if name in bounds and sp > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:8.3f} {rsp}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "values": values, "raw": raw, "corrections": corrections, "host": hosts}, f, indent=1)


if __name__ == "__main__":
    main()
