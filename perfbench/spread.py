#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

Runs perfbench/run.py once per (workload, seed), each for BENCHMARK.json's
run_seconds, and reports per metric the median and the interquartile
range as a share of the median (statistics.quantiles, n=4). A metric
passes when that spread is within its bound; the benchmark aims for a
third of the bound. setup_s is reported but not judged on spread.

    python3 perfbench/spread.py --seeds 1-10 --out set1.json
    python3 perfbench/spread.py --seeds 1-10 --out set2.json --compare set1.json

--compare also checks that no metric's median in this set is worse than
in the earlier set by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import metrics as m  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write every measured value here")
    ap.add_argument("--compare", help="a file an earlier --out wrote")
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    specs = {e["name"]: e for e in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text()) \
        if args.compare else {}

    values, ok = {}, True
    for w in workloads:
        runs = [run_once(w, s, bench["run_seconds"]) for s in seeds]
        values[w] = {k: [r[k] for r in runs] for k in specs}
        print(f"{w} (seeds {args.seeds})")
        for name, spec in specs.items():
            vals = values[w][name]
            med = statistics.median(vals)
            s, within = m.spread_check(vals, spec["bound"])
            line = (f"  {name:16s} median {med:12.6g} {spec['unit']:7s}"
                    f" spread {s:6.3f}  bound {spec['bound']:.3f}")
            if name != "setup_s":
                line += "  ok" if within else "  OVER BOUND"
                line += "" if s <= spec["bound"] / 3 else "  (above bound/3)"
                ok = ok and within
            if w in earlier:
                before = statistics.median(earlier[w][name])
                worse = m.worse_by(before, med, spec["better"])
                line += f"  vs earlier {worse:+.3f}"
                if worse > spec["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
