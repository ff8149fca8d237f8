"""Runs the benchmark several times per workload, each with another seed,
and prints each end-to-end metric's median and quartile spread (the
distance between the first and third quartile as a share of the
median), the way its bounds in BENCHMARK.json are judged.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20] [--trace 0|1]

Run from the repository root; it builds the benchmark with cargo first.
"""

import argparse
import json
import statistics
import subprocess
import sys

CMD = ["cargo", "run", "--release", "--quiet", "--offline",
       "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["verify_dlx_small", "sta_toy", "sim_dlx", "serve_mix"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    for w in a.workloads.split(","):
        values, failed = {}, set()
        for s in seeds(a.seeds):
            args = ["--workload", w, "--seed", str(s), "--seconds", a.seconds, "--trace", a.trace]
            p = subprocess.run(CMD + args, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            failed.add(r["failed"] / r["attempted"])
            print(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: failed share {sorted(failed)}")
        for k, xs in values.items():
            med = statistics.median(xs)
            if len(xs) >= 2 and med:
                q = statistics.quantiles(xs, n=4)
                print(f"  {k:28} median {med:.6g}  spread {(q[2] - q[0]) / med:.4f}  "
                      f"min {min(xs):.6g}  max {max(xs):.6g}")


if __name__ == "__main__":
    main()
