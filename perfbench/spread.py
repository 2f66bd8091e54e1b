#!/usr/bin/env python3
"""Runs one benchmark workload under several seeds and reports, for each
metric, the median and the spread (interquartile distance over median, the
way statistics.quantiles(values, n=4) cuts quartiles), plus the failed share.

    python3 perfbench/spread.py --workload corun-mix --seeds 1-10 --seconds 20

Run it from the repository root; it invokes perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values, failed, attempted = {}, [], []
    for s in seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(s),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {s}: correct=false\n{out}")
        attempted.append(res["attempted"])
        failed.append(res["failed"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
    print(f"failed share: {[f / a for f, a in zip(failed, attempted)]}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            print(f"{name:40s} median {med:.6g}  spread {(q[2] - q[0]) / med:.4f}")
        else:
            print(f"{name:40s} median {med:.6g}")


if __name__ == "__main__":
    main()
