#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py spread --workload optimal-4096 --seeds 1-10
      Runs the benchmark once per seed and prints, for each end-to-end
      metric, the median and the interquartile range as a share of the
      median next to the metric's bound in BENCHMARK.json.

  python3 perfbench/check.py exact --workload optimal-4096 --seeds 1,2
      Runs the first seed twice and the second once, traced and untraced,
      and requires the exact counts to repeat on the first seed and to
      differ on the second.

Both run the command from BENCHMARK.json unless --bin names a built
benchmark executable.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, args, workload, seed, trace):
    command = [args.bin] if args.bin else list(bench["command"])
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds or bench["run_seconds"]),
                "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(bench, args):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        result, _ = run(bench, args, args.workload, seed, 0)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
    ok = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < bounds[name] / 3 else (
            "within bound" if share <= bounds[name] else "TOO WIDE")
        if name != "setup_s" and share > bounds[name]:
            ok = False
        print(f"{name:22} median {med:12.6g}  iqr/median {share:7.4f}  "
              f"bound {bounds[name]:.2f}  {verdict}")
    return ok


def exact(bench, args):
    first, second = args.seeds[:2]

    def counts(seed):
        out = {}
        for trace in (0, 1):
            _, detail = run(bench, args, args.workload, seed, trace)
            out.update({f"t{trace}.{k}": v for k, v in detail["exact"].items()})
        return out

    a, again, b = counts(first), counts(first), counts(second)
    print(f"seed {first}: {a}\nseed {second}: {b}")
    if a != again:
        print(f"NOT REPEATED on seed {first}: {again}")
        return False
    if a == b:
        print(f"seed {second} gave the same counts as seed {first}")
        return False
    print("exact counts repeat on one seed and differ across seeds")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["spread", "exact"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--bin", help="a built benchmark executable")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = spread(bench, args) if args.mode == "spread" else exact(bench, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
