"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 401-410 501-510 --out spread.json

Each argument of ``--seeds`` is one set of seeds.  Runs go round robin:
the i-th seed of every set, and within it every workload, before the
(i+1)-th, so a slow spell of the machine is shared by all sets and
workloads instead of landing on one of them.  Runs are sequential, one
process at a time, at BENCHMARK.json's run length.

For every set, workload and end-to-end metric it prints the median and
the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  With two or more sets it also prints how much worse each set's
median is than the first set's, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} {time.perf_counter() - t0:.0f}s "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
          flush=True)
    return result


def worse_by(metric, base, other):
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    return (other - base) / base if metric["better"] == "lower" else (base - other) / base


def main():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", nargs="+", default=["1-10"], help="one or more seed sets")
    parser.add_argument("--out", help="write every value and the summary as JSON")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workload_names = args.workloads.split(",")
    sets = {spec: parse_seeds(spec) for spec in args.seeds}
    values = {spec: {w: {} for w in workload_names} for spec in sets}
    for i in range(max(len(seeds) for seeds in sets.values())):
        for spec, seeds in sets.items():
            if i >= len(seeds):
                continue
            for workload in workload_names:
                result = run_once(workload, seeds[i])
                for name, entry in result["metrics"].items():
                    values[spec][workload].setdefault(name, []).append(entry["value"])

    summary = {}
    for spec in sets:
        summary[spec] = {}
        for workload in workload_names:
            summary[spec][workload] = {}
            for name, vals in sorted(values[spec][workload].items()):
                q1, _, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                spread = (q3 - q1) / median
                summary[spec][workload][name] = {
                    "median": median, "q1": q1, "q3": q3, "spread": spread,
                    "bound": metrics[name]["bound"], "values": vals,
                }
                print(f"  seeds {spec:<10} {workload:<10} {name:<16} median {median:<12.5g} "
                      f"spread {spread:.4f} bound {metrics[name]['bound']}")
    first = args.seeds[0]
    for spec in args.seeds[1:]:
        for workload in workload_names:
            for name, entry in summary[spec][workload].items():
                base = summary[first][workload][name]["median"]
                print(f"  {workload:<10} {name:<16} seeds {spec} worse than seeds {first} by "
                      f"{worse_by(metrics[name], base, entry['median']):+.4f}, "
                      f"and {first} than {spec} by "
                      f"{worse_by(metrics[name], entry['median'], base):+.4f}; "
                      f"bound {metrics[name]['bound']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
