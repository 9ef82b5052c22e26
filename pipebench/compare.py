#!/usr/bin/env python3
"""Run sets of the pipeline benchmark and compare them against the
bounds in BENCHMARK.json. Run from the repository root.

    # ten untraced runs per workload, seeds 1..10, into runs/a
    python3 pipebench/compare.py run --out runs/a --seeds 1-10
    # second set against the first: per-set medians and spreads
    # (inter-quartile distance / median), median drift, against bounds
    python3 pipebench/compare.py compare runs/a runs/b
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(directory):
    """workload -> list of metric dicts, from <workload>-<seed>.json."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name.rsplit("-", 1)[0]
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        if not result["correct"]:
            print(f"{name}: incorrect run", file=sys.stderr)
        runs.setdefault(workload, []).append(result["metrics"])
    return runs


def cmd_run(args, bench):
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            last = proc.stdout.strip().splitlines()[-1]
            with open(os.path.join(args.out, f"{workload}-{seed}.json"), "w") as f:
                f.write(last + "\n")
            print(f"{workload} seed {seed}: done", flush=True)
    return 0


def cmd_compare(args, bench):
    first, second = load_set(args.first), load_set(args.second)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload, name, sa, sb, worse, good in stats.compare(bench, first, second):
        ok = ok and good
        medians = [statistics.median(r[name]["value"] for r in runs[workload])
                   for runs in (first, second)]
        print(f"{workload:<11} {name:<20} median {medians[0]:<11.5g} / "
              f"{medians[1]:<11.5g} spread {sa:.4f} / {sb:.4f} "
              f"worse {worse:+.4f} bound {bounds[name]} "
              f"{'ok' if good else 'OUT OF BOUND'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    comp = sub.add_parser("compare")
    comp.add_argument("first")
    comp.add_argument("second")
    args = ap.parse_args()
    bench = load_bench()
    return {"run": cmd_run, "compare": cmd_compare}[args.cmd](
        args, bench)


if __name__ == "__main__":
    sys.exit(main())
