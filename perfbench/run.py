#!/usr/bin/env python3
"""End-to-end benchmark of the DR-STRaNGe simulator.

Run from the repository root:

    python3 perfbench/run.py --workload dual-heavy --seed 1 --seconds 30 --trace 0

It builds perfbench/ (the simulator library from src/ plus the
measurement program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs one workload, checks
the simulator's outputs and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, and the spans of the run are
written next to the build. README.md describes the workloads, the
metrics and which end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import metrics as m  # noqa: E402

WORKLOADS = ("dual-heavy", "dual-idle", "svc-fault")
# The measurement processes must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 160
# A timed run (--trace 0) splits --seconds over several processes, one
# after another. On a shared VM the simulator's speed moves by up to 20%
# from one process to the next in a way the host-speed probe does not
# see; the per-cell median over the passes of all processes follows the
# typical process. Each process makes at least one pass, so svc-fault,
# whose passes are longest, gets fewer. Only the first process verifies.
PROCESSES = {"dual-heavy": 10, "dual-idle": 10, "svc-fault": 5}
# Set-ups per run, spread evenly over its processes.
SETUPS = 10
# The traced run (--trace 1) is one process: every other pass is traced.
TRACE_SETUPS = 3


def build(build_dir):
    """Configure once, then build incrementally. Exits 1 on failure."""
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write(f"\nperfbench: build failed: {step}\n")
                sys.exit(1)
    return build_dir / "drs_perfbench"


def measure(binary, args, work_dir):
    """Run the C++ measurement program (PROCESSES[workload] times one
    after another for a timed run, once for a traced run) and return its
    raw JSON documents, the verifying process's first."""
    # DS_* variables change how the simulator runs (fast-forward, batch
    # mode, lockstep, result caching); the benchmark fixes all of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DS_")}
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--trace", str(args.trace), "--out-dir",
           str(work_dir)]
    if args.trace:
        runs = [["--seconds", str(args.seconds), "--setups",
                 str(TRACE_SETUPS)]]
    else:
        procs = PROCESSES[args.workload]
        share = str(args.seconds / procs)
        runs = [["--seconds", share, "--setups", str(SETUPS // procs),
                 "--min-passes", "1", "--verify", str(int(k == 0))]
                for k in range(procs)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    raws = []
    for extra in runs:
        try:
            proc = subprocess.run(
                cmd + extra, stdout=subprocess.PIPE, env=env, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"perfbench: timed out after {RUN_TIMEOUT_S} s\n")
            sys.exit(1)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(
                f"perfbench: drs_perfbench exited {proc.returncode}\n")
            sys.exit(1)
        raws.append(json.loads(lines[-1]))
    return raws


def setup_times(raw):
    """One process's set-up times at the reference host speed."""
    setups, probes = raw["setup_s"], raw["setup_probe_ms"]
    return m.setup_at_reference_speed(setups, probes,
                                      len(probes) // (len(setups) + 1))


def merge(raws):
    """One raw document for the run: the verifying process's cells,
    counters and host timings, with every process's timed samples,
    set-ups and checks. Samples are scaled to the reference host speed
    per process, so that no probe window spans two processes."""
    raw = dict(raws[0])
    for key, probe_key in (("cell_ms", "probe_ms"),
                           ("cell_ms_traced", "probe_ms_traced")):
        if key in raw:
            raw[key] = [t for r in raws
                        for t in m.at_reference_speed(r[key], r[probe_key])]
    raw["setup_s"] = [s for r in raws for s in setup_times(r)]
    raw["wall_cell_ms"] = [t for r in raws for t in r["cell_ms"]]
    raw["wall_setup_s"] = [s for r in raws for s in r["setup_s"]]
    raw["probe_ms"] = [p for r in raws for p in r["probe_ms"]]
    raw["passes"] = sum(r["passes"] for r in raws)
    raw["processes"] = len(raws)
    raw["peak_rss_kb"] = statistics.median(r["peak_rss_kb"] for r in raws)
    raw["attempted"] = sum(r["attempted"] for r in raws)
    raw["failed"] = sum(r["failed"] for r in raws)
    raw["failures"] = [f for r in raws for f in r["failures"]]
    for k, r in enumerate(raws[1:], start=1):
        # Every process runs the same cells: their results must agree.
        raw["attempted"] += 1
        if r["cells"] != raws[0]["cells"]:
            raw["failed"] += 1
            raw["failures"].append(
                f"process {k}'s results differ from process 0's")
    return raw


def cell_times(raw, key="cell_ms"):
    """Each cell's median, over the passes of a merged run, of its time
    at the reference host speed."""
    return m.median_per_cell(raw[key], raw["cells_per_pass"])


def end_to_end(raw):
    cell_ms = cell_times(raw)
    cycles = sum(c["bus_cycles"] for c in raw["cells"])
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "sim_mcyc_per_s": (cycles / 1e6 / (sum(cell_ms) / 1000.0),
                           "Mcyc/s"),
        "cell_ms_p50": (m.nearest_rank(cell_ms, 0.5), "ms"),
        "cell_ms_p90": (m.tail_percentile(cell_ms, 0.9), "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def outcomes(raw):
    """Simulated outcomes of the workload (deterministic for a seed),
    the paper-sign check, and the notes explaining each value."""
    w, c = raw["workload"], raw["counters"]
    out, notes, sign_failures = {}, {}, []
    for key in ("nonrng", "rng", "unfair"):
        out[f"err_{key}_pp"] = (0.0, "pp")
    out["buffer_serve_pct"] = (0.0, "%")
    out["svc_p99_cycles"] = (0, "cycles")
    out["svc_slo_miss_pct"] = (0.0, "%")
    if w == "dual-heavy":
        gains = m.dual_gains(raw["cells"])
        for key, paper in m.PAPER_GAIN_PCT.items():
            out[f"err_{key}_pp"] = (m.err_pp(gains[key], paper), "pp")
            notes[f"err_{key}_pp"] = (
                f"DR-STRaNGe {gains[key]:.2f}% lower than RNG-oblivious, "
                f"paper {paper}%")
            if not gains[key] > 0:
                sign_failures.append(
                    f"DR-STRaNGe does not beat RNG-oblivious on {key} "
                    f"({gains[key]:.2f}%)")
    if w == "dual-idle":
        drs = [x for x in raw["cells"] if x["design"] == "drstrange"]
        served = sum(x["rng_from_buffer"] for x in drs)
        asked = sum(x["rng_requests"] for x in drs)
        out["buffer_serve_pct"] = (pct(served, asked), "%")
        notes["buffer_serve_pct"] = f"{served} of {asked} requests"
    if w == "svc-fault":
        missed = c["svc_over_slo"] + c["svc_offered"] - c["svc_completed"]
        out["svc_p99_cycles"] = (c["svc_p99"], "cycles")
        out["svc_slo_miss_pct"] = (pct(missed, c["svc_offered"]), "%")
        notes["svc_slo_miss_pct"] = (
            f"{missed} of {c['svc_offered']} offered, shed and "
            f"uncompleted counted as misses")
    return out, notes, sign_failures


def fault_self_ms(raw):
    """Host ms the fault plane adds to a cell, and the faulted cells'
    mean: the DR-STRaNGe cells with faults minus the fault-free ones
    under the same load (svc-fault's reference cells), each cell timed
    as in cell_ms_p50. 0 when a workload has no such pair."""
    cell_ms = cell_times(raw)
    cells = raw["cells"]
    refs = [cell_ms[i] for i, x in enumerate(cells)
            if not x["faults"] and x["design"] == "drstrange"]
    faulted = [cell_ms[i] for i, x in enumerate(cells)
               if x["faults"] and x["design"] == "drstrange"]
    if not refs or not faulted:
        return 0.0, 0.0
    mean_faulted = statistics.fmean(faulted)
    return mean_faulted - statistics.fmean(refs), mean_faulted


def per_layer(raw, outcome):
    c, h = raw["counters"], raw["host"]
    live, replay = h["ff_ms"], h["replay_ms"]
    layer_self = m.self_ms(live, replay)
    rounds = c["rounds_audited"] + c["rounds_discarded"]
    accesses = c["rd"] + c["wr"]
    dram_cycles = (c["cycles_active"] + c["cycles_precharged"] +
                   c["cycles_powered_down"])
    traced = sum(cell_times(raw, "cell_ms_traced"))
    untraced = sum(cell_times(raw))
    count = "count"
    layer = {
        "sim.stepped_cycles": (c["stepped_cycles"], "cycles"),
        "sim.skipped_cycles": (c["skipped_cycles"], "cycles"),
        "sim.skips": (c["skips"], count),
        "sim.drain_ticks": (c["drain_ticks"], "cycles"),
        "sim.skip_pct": (pct(c["skipped_cycles"], c["bus_cycles"]), "%"),
        "sim.ff_speedup": (h["step1_ms"] / live, "x"),
        "sim.alone_ms": (statistics.median(raw["alone_ms"]), "ms"),
        "mem.reads": (c["reads"], count),
        "mem.writes": (c["writes"], count),
        "mem.rng_requests": (c["rng_requests"], count),
        "mem.rng_from_buffer": (c["rng_from_buffer"], count),
        "mem.rng_from_staging": (c["rng_from_staging"], count),
        "mem.read_lat_cycles": (c["sum_read_latency"] / c["reads_completed"]
                                if c["reads_completed"] else 0.0, "cycles"),
        "mem.rng_lat_cycles": (c["sum_rng_latency"] / c["rng_requests"]
                               if c["rng_requests"] else 0.0, "cycles"),
        "mem.replay_ms": (replay, "ms"),
        "mem.replay_share": (replay / live, "ratio"),
        "cpu.instr": (c["instr"], count),
        "cpu.rng_stall_pct": (pct(c["rng_stall_cycles"], c["core_cycles"]),
                              "%"),
        "cpu.self_ms": (layer_self if c["instr"] else 0.0, "ms"),
        "dram.act": (c["act"], count),
        "dram.rd": (c["rd"], count),
        "dram.wr": (c["wr"], count),
        "dram.ref": (c["ref"], count),
        "dram.rng_rounds": (c["rng_rounds"], count),
        "dram.row_hit_pct": (pct(max(accesses - c["act"], 0), accesses),
                             "%"),
        "dram.powered_down_pct": (pct(c["cycles_powered_down"],
                                      dram_cycles), "%"),
        "strange.predictions": (c["predictions"], count),
        "strange.pred_accuracy_pct": (pct(c["pred_correct"],
                                          c["predictions"]), "%"),
        "strange.false_pos": (c["false_pos"], count),
        "strange.false_neg": (c["false_neg"], count),
        "strange.buffer_overflow_bits": (c["buffer_overflow_bits"], "bits"),
        "trng.audit_ns": (h["audit_ns"], "ns"),
        "trng.audit_ms_est": (h["audit_ns"] * rounds / 1e6, "ms"),
        "fault.rounds_audited": (c["rounds_audited"], count),
        "fault.rounds_discarded": (c["rounds_discarded"], count),
        "fault.discard_pct": (pct(c["rounds_discarded"], rounds), "%"),
        "fault.blacklisted": (c["blacklisted"], count),
        "fault.remapped": (c["remapped"], count),
        "fault.corrupted_bits": (c["corrupted_bits"], "bits"),
        "fault.self_ms": (fault_self_ms(raw)[0], "ms"),
        "service.offered": (c["svc_offered"], count),
        "service.completed": (c["svc_completed"], count),
        "service.shed": (c["svc_shed"], count),
        "service.max_backlog": (c["svc_max_backlog"], count),
        "service.p50_cycles": (c["svc_p50"], "cycles"),
        "service.p999_cycles": (c["svc_p999"], "cycles"),
        "service.self_ms": (layer_self if c["svc_offered"] else 0.0, "ms"),
        "workloads.next_ns": (h["next_ns"], "ns"),
        "trace.records": (c["trace_records"], count),
        "bench.trace_overhead_pct": ((traced / untraced - 1.0) * 100.0, "%"),
    }
    layer.update(outcome)
    return layer


def dominant_layer(raw, layer):
    """Host-time shares of a live run, measured from outside, and the
    dominant per-layer metric: of the top-level layers (the controller
    tape replay, which holds mem, dram, strange, trng and fault; the
    cores or the service, which replay removes) the larger, or a layer
    inside the replay when that alone holds over half of a live cell."""
    live = raw["host"]["ff_ms"]
    fault_ms, faulted_cell_ms = fault_self_ms(raw)
    top = {
        "mem.replay_share": layer["mem.replay_share"][0],
        "cpu.self_ms": layer["cpu.self_ms"][0] / live,
        "service.self_ms": layer["service.self_ms"][0] / live,
    }
    inner = {
        "fault.self_ms": fault_ms / faulted_cell_ms if faulted_cell_ms
        else 0.0,
        "trng.audit_ms_est": layer["trng.audit_ms_est"][0] / live,
    }
    name = max(top, key=top.get)
    if name == "mem.replay_share" and max(inner.values()) > 0.5:
        name = max(inner, key=inner.get)
    shares = {**top, **inner}
    return name, shares[name], shares


def show(title, values, notes=None):
    print(title)
    for name, (value, unit) in values.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:30s} {value:>16.6g} {unit}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(exist_ok=True)
    raw = merge(measure(binary, args, work_dir))

    outcome, notes, sign_failures = outcomes(raw)
    failed = raw["failed"]
    if sign_failures:
        # The sign check judges the DR-STRaNGe cells of every mix.
        failed += sum(1 for x in raw["cells"] if x["design"] == "drstrange")
    failures = raw["failures"] + sign_failures

    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"trace {args.trace}  (n={raw['cells_per_pass']} cells, each "
          f"timed by its median over {raw['passes']} untraced passes of "
          f"{raw['processes']} processes)")
    if args.trace:
        metrics = per_layer(raw, outcome)
        metrics["cells_failed_pct"] = (pct(failed, raw["attempted"]), "%")
        show("per-layer metrics:", metrics, notes)
        name, share, shares = dominant_layer(raw, metrics)
        print("host-time share of a live run by layer: " +
              ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
        print(f"dominant per-layer metric: {name} ({share:.2f} of the "
              f"live run); {metrics['sim.skip_pct'][0]:.1f}% of simulated "
              f"cycles fast-forwarded")
        print(f"spans: {raw['spans_file']}")
    else:
        metrics = end_to_end(raw)
        show("end-to-end metrics (host times at the reference speed):",
             metrics)
        wall = m.median_per_cell(raw["wall_cell_ms"], raw["cells_per_pass"])
        print(f"unscaled wall clock: cell p50 "
              f"{m.nearest_rank(wall, 0.5):.4g} ms, set-up "
              f"{statistics.median(raw['wall_setup_s']):.4g} s; probe median "
              f"{statistics.median(raw['probe_ms']):.4g} ms (reference "
              f"{m.PROBE_REFERENCE_MS} ms)")
        outcome["cells_failed_pct"] = (pct(failed, raw["attempted"]), "%")
        show("simulated outcomes (exact for a seed):", outcome, notes)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(f"checks: {raw['attempted']} attempted, {failed} failed")

    result = {
        "correct": failed == 0 and not failures,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
