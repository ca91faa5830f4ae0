/**
 * @file
 * run_all: harness that executes a selection of the figure/section
 * reproduction benchmarks as subprocesses, times each one, runs an
 * in-process design x workload sweep through sim::SweepRunner (per-cell
 * and aggregate wall-clock plus the measured parallel speedup), and
 * writes a machine-readable BENCH_run_all.json perf record. This seeds
 * the perf-trajectory tracking: diffing wall_ms across commits shows
 * which PRs made the simulator faster or slower, and the sweep record's
 * "speedup" is the serial-vs-parallel datapoint.
 *
 * The sweep's metric values are bit-identical for any DS_JOBS value:
 * each cell is a pure function of its configuration and workload spec,
 * so only the wall-clock fields change between serial and parallel runs.
 *
 * Usage:
 *   run_all                 # run the quick default selection
 *   run_all --all           # run every bench executable
 *   run_all --only fig1     # run benches whose name contains "fig1"
 *   run_all --list          # print the known bench names and exit
 *   run_all --out DIR       # write BENCH_run_all.json into DIR
 *                           # (created, with parents, before any run)
 *   run_all --config TEXT   # key=value config text forwarded to every
 *                           # bench via DS_CONFIG (see sim/config_text.h)
 *   run_all --jobs N        # sweep worker threads (overrides DS_JOBS)
 *   run_all --sweep-mixes N # dual-core mixes in the sweep (0 disables;
 *                           # default 8)
 *   run_all --shard I/N     # run only sweep cells owned by shard I of
 *                           # N (cross-process sharding; writes a
 *                           # BENCH_run_all.shard-I.json fragment);
 *                           # I/N:balanced splits by recorded per-cell
 *                           # wall-clock costs instead of by hash
 *                           # (needs --cache-dir)
 *   run_all --merge-shards DIR  # join the shard fragments in DIR into
 *                           # the canonical BENCH_run_all.json
 *   run_all --cache-dir DIR # persistent alone-run cache (sets
 *                           # DS_CACHE_DIR for this process and every
 *                           # child bench)
 *
 * Environment:
 *   DS_INSTR_BUDGET  per-core instruction budget forwarded to benches
 *   DS_CONFIG        base-config key=value overrides forwarded to benches
 *   DS_BENCH_OUT     default output directory for BENCH_*.json
 *   DS_JOBS          sweep worker threads (default hardware_concurrency)
 *   DS_SHARD         default for --shard ("I/N")
 *   DS_CACHE_DIR     default for --cache-dir (unset = no persistence)
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

namespace fs = std::filesystem;

#ifndef DRSTRANGE_BENCH_LIST
#error "DRSTRANGE_BENCH_LIST must be defined by bench/CMakeLists.txt"
#endif

/**
 * Every bench executable built by bench/CMakeLists.txt, injected at
 * configure time so the inventory has a single source of truth (the
 * optional micro_components is present only when it was built).
 */
std::vector<std::string>
allBenches()
{
    std::vector<std::string> names;
    const std::string list = DRSTRANGE_BENCH_LIST;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size()
                                                           : comma;
        if (end > pos)
            names.push_back(list.substr(pos, end - pos));
        pos = end + 1;
    }
    return names;
}

/**
 * Quick default selection: one bench per major subsystem (TRNG
 * throughput, dual-core system comparison, component microbenchmarks)
 * so a default run finishes in well under a minute. Restricted to
 * benches that were actually built.
 */
std::vector<std::string>
quickBenches(const std::vector<std::string> &all)
{
    const std::vector<std::string> wanted = {
        "fig02_trng_throughput",
        "fig06_dualcore_perf",
        "micro_components",
    };
    std::vector<std::string> names;
    for (const std::string &name : wanted)
        for (const std::string &built : all)
            if (built == name) {
                names.push_back(name);
                break;
            }
    return names;
}

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog
        << " [--all] [--only SUBSTR] [--list] [--out DIR]\n"
           "               [--config TEXT] [--jobs N] [--sweep-mixes N]\n"
           "               [--shard I/N] [--merge-shards DIR]"
           " [--cache-dir DIR]\n"
           "\n"
           "  --all            run every bench executable\n"
           "  --only SUBSTR    run benches whose name contains SUBSTR\n"
           "  --list           print the known bench names and exit\n"
           "  --out DIR        write BENCH_run_all.json into DIR\n"
           "                   (created, with parents, before any run)\n"
           "  --config TEXT    key=value config text forwarded to every\n"
           "                   bench via DS_CONFIG\n"
           "  --jobs N         sweep worker threads (overrides DS_JOBS)\n"
           "  --sweep-mixes N  dual-core mixes in the sweep (0 disables)\n"
           "  --shard I/N      run only the sweep cells owned by shard I\n"
           "                   of N (default: DS_SHARD); writes a\n"
           "                   BENCH_run_all.shard-I.json fragment;\n"
           "                   I/N:balanced balances shards by recorded\n"
           "                   per-cell costs (needs --cache-dir)\n"
           "  --merge-shards DIR  join shard fragments in DIR into the\n"
           "                   canonical BENCH_run_all.json and exit\n"
           "  --cache-dir DIR  persistent alone-run cache directory\n"
           "                   (default: DS_CACHE_DIR; unset = off)\n";
}

/** The headline metric values of one sweep cell, in record order. */
std::vector<std::pair<std::string, double>>
cellMetrics(const dstrange::sim::Runner::WorkloadResult &res)
{
    std::vector<std::pair<std::string, double>> metrics = {
        {"non_rng_slowdown", res.avgNonRngSlowdown()},
        {"rng_slowdown", res.rngSlowdown()},
        {"unfairness", res.unfairnessIndex},
        {"weighted_speedup", res.weightedSpeedupNonRng},
        {"energy_nj", res.energyNj},
        {"bus_cycles", static_cast<double>(res.busCycles)},
    };
    // Service cells add their tail-latency metrics; all integer-valued
    // (cycle counts, request counts, a flag), so they take part in the
    // bit-identity comparison like everything else.
    if (res.service) {
        const dstrange::service::SloReport &s = *res.service;
        metrics.emplace_back("svc_completed",
                             static_cast<double>(s.completed));
        metrics.emplace_back("svc_shed", static_cast<double>(s.shed));
        metrics.emplace_back("svc_p50", static_cast<double>(s.p50));
        metrics.emplace_back("svc_p99", static_cast<double>(s.p99));
        metrics.emplace_back("svc_p999", static_cast<double>(s.p999));
        metrics.emplace_back("svc_goodput_rps", s.goodputRps);
        metrics.emplace_back("svc_saturated", s.saturated ? 1.0 : 0.0);
    }
    // Fault cells add their injection/mitigation counters — exact
    // integers, so they join the bit-identity comparison too.
    if (res.fault) {
        const dstrange::fault::FaultReport &f = *res.fault;
        metrics.emplace_back("fault_audited",
                             static_cast<double>(f.roundsAudited));
        metrics.emplace_back("fault_discarded",
                             static_cast<double>(f.roundsDiscarded));
        metrics.emplace_back("fault_corrupted_bits",
                             static_cast<double>(f.corruptedBits));
        metrics.emplace_back("fault_blacklisted",
                             static_cast<double>(f.blacklisted));
        metrics.emplace_back("fault_remapped",
                             static_cast<double>(f.remapped));
    }
    return metrics;
}

/** Set (or clear the override of) DS_FAST_FORWARD for child systems. */
void
setFastForwardEnv(const char *value)
{
#ifdef _WIN32
    _putenv_s("DS_FAST_FORWARD", value);
#else
    setenv("DS_FAST_FORWARD", value, /*overwrite=*/1);
#endif
}

/** Same for DS_BATCH (batched command retirement). */
void
setBatchEnv(const char *value)
{
#ifdef _WIN32
    _putenv_s("DS_BATCH", value);
#else
    setenv("DS_BATCH", value, /*overwrite=*/1);
#endif
}

/**
 * The sweep grid, stratified into workload tiers mirroring the bench
 * suite: the Figure-6 heavy dual-core mixes at 5 Gb/s, the Section-8.8
 * low-intensity duals at 640 Mb/s, and a Figure-2-style TRNG
 * throughput tier (rng-alone cells over both mechanisms), an open-loop
 * service tier sweeping offered RNG load over the designs (tail-latency
 * metrics), plus a multi-rank topology tier sweeping the address
 * interleaving on a two-rank channel. Each cell carries its tier label
 * for the fast-forward accounting.
 */
struct TieredGrid
{
    std::vector<dstrange::sim::SweepRunner::Cell> cells;
    std::vector<std::string> tiers; ///< Tier label per cell.
    std::vector<std::string> names; ///< Display name per cell.
};

TieredGrid
buildSweepGrid(unsigned n_mixes)
{
    using dstrange::sim::SweepRunner;
    TieredGrid grid;
    const std::vector<std::string> designs = {"oblivious", "greedy",
                                              "drstrange"};

    auto addDualTier = [&](const std::string &tier, double mbps) {
        auto mixes = dstrange::workloads::dualCorePlottedMixes(mbps);
        if (mixes.size() > n_mixes)
            mixes.resize(n_mixes);
        for (const auto &mix : mixes) {
            for (const std::string &d : designs) {
                SweepRunner::Cell cell;
                cell.design = d;
                cell.spec = mix;
                grid.cells.push_back(std::move(cell));
                grid.tiers.push_back(tier);
                grid.names.push_back(tier + "/" + d + "/" + mix.name);
            }
        }
    };
    addDualTier("dual-5gbps", 5120.0);
    addDualTier("dual-lowint", 640.0);

    // TRNG-throughput tier: rng-alone cells across both mechanisms and
    // the Figure-2 intensity ladder (explicit configs, since the
    // mechanism is not a design-registry knob).
    for (const char *mech : {"drange", "quac"}) {
        for (double mbps :
             {80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0}) {
            for (const char *d : {"oblivious", "greedy", "drstrange"}) {
                SweepRunner::Cell cell;
                dstrange::sim::SimConfig cfg = bench::baseConfig();
                cfg.mechanism =
                    *dstrange::trng::TrngMechanism::byName(mech);
                dstrange::sim::DesignRegistry::instance().apply(d, cfg);
                cell.config = std::move(cfg);
                cell.spec.name = std::string(mech) + "-rng" +
                                 std::to_string(static_cast<int>(mbps));
                cell.spec.rngThroughputMbps = mbps;
                grid.names.push_back("trng-sweep/" + std::string(d) +
                                     "/" + cell.spec.name);
                grid.cells.push_back(std::move(cell));
                grid.tiers.push_back("trng-sweep");
            }
        }
    }
    // Service tier: open-loop RNG-as-a-service cells (no traced cores)
    // sweeping offered load over the paper's designs, so run_all tracks
    // where each design's tail latency collapses. Explicit configs,
    // since service.* knobs are orthogonal to the design presets.
    for (double mbps : {2560.0, 5120.0, 10240.0}) {
        for (const char *d : {"oblivious", "greedy", "drstrange"}) {
            SweepRunner::Cell cell;
            dstrange::sim::SimConfig cfg = bench::baseConfig();
            dstrange::sim::DesignRegistry::instance().apply(d, cfg);
            cfg.service.enabled = true;
            cfg.service.offeredMbps = mbps;
            cfg.service.durationCycles = 20000;
            cfg.service.sloTargetCycles = 500;
            cell.config = std::move(cfg);
            cell.spec.name =
                "svc-poisson-" + std::to_string(static_cast<int>(mbps));
            grid.names.push_back("service/" + std::string(d) + "/" +
                                 cell.spec.name);
            grid.cells.push_back(std::move(cell));
            grid.tiers.push_back("service");
        }
    }
    // Fault tier: open-loop service cells under deterministic fault
    // injection (fault/<design>/<intensity>-<mit|nomit>), pairing each
    // fault intensity with the health monitor on and off. writeBenchJson
    // derives the goodput-retention comparison table from these names,
    // and bench/fault_resilience studies the same axis in depth.
    {
        struct Intensity {
            const char *label;
            unsigned weak;
            unsigned stuck;
        };
        for (const char *d : {"oblivious", "drstrange"}) {
            for (const Intensity &in :
                 {Intensity{"w8s2", 8, 2}, Intensity{"w16s4", 16, 4}}) {
                for (const bool mit : {true, false}) {
                    SweepRunner::Cell cell;
                    dstrange::sim::SimConfig cfg = bench::baseConfig();
                    dstrange::sim::DesignRegistry::instance().apply(d,
                                                                    cfg);
                    cfg.service.enabled = true;
                    cfg.service.offeredMbps = 5120.0;
                    cfg.service.durationCycles = 20000;
                    cfg.service.sloTargetCycles = 500;
                    cfg.fault.models = "bitflip,weak-cell,stuck-row";
                    cfg.fault.weakCells = in.weak;
                    cfg.fault.stuckRows = in.stuck;
                    cfg.fault.monitor = mit;
                    cell.config = std::move(cfg);
                    cell.spec.name = std::string(in.label) +
                                     (mit ? "-mit" : "-nomit");
                    grid.names.push_back("fault/" + std::string(d) +
                                         "/" + cell.spec.name);
                    grid.cells.push_back(std::move(cell));
                    grid.tiers.push_back("fault");
                }
            }
        }
    }
    // Multi-rank tier: a two-rank channel under each registered-default
    // interleaving, so the sweep (and its ResultStore cache keys, which
    // embed the mapping through the canonical config text) covers the
    // rank topology knobs.
    for (const char *mapping : {"row-bank-col-ch", "row-bank-col-rank-ch"}) {
        SweepRunner::Cell cell;
        dstrange::sim::SimConfig cfg = bench::baseConfig();
        dstrange::sim::DesignRegistry::instance().apply("drstrange", cfg);
        cfg.geometry.ranksPerChannel = 2;
        cfg.addressMapping = mapping;
        cell.config = std::move(cfg);
        cell.spec.name = std::string("2rank-") + mapping;
        cell.spec.apps = {"soplex"};
        cell.spec.rngThroughputMbps = 5120.0;
        grid.names.push_back("multirank/drstrange/" + cell.spec.name);
        grid.cells.push_back(std::move(cell));
        grid.tiers.push_back("multirank");
    }
    return grid;
}

/** Record the measured (parallel) phase's persistent-cache counters.
 *  The serial/step-1 reference phases bypass the cache entirely, so
 *  these counters describe exactly one SweepRunner. */
void
addCacheStats(dstrange::sim::SweepRunner &runner,
              bench::SweepRecord &sweep)
{
    const auto &store = runner.runner().resultStore();
    if (!store)
        return;
    sweep.cacheEnabled = true;
    sweep.cacheDir = store->dir();
    sweep.cacheHits = store->hits();
    sweep.cacheMisses = store->misses();
    sweep.cacheStores = store->stores();
}

/**
 * In-process sweep through sim::SweepRunner, timing every cell. The
 * parallel run (with per-cell stderr progress) measures throughput; a
 * serial reference run (fresh SweepRunner, fresh alone-run cache)
 * measures the true serial-vs-parallel speedup; a second serial run
 * with DS_FAST_FORWARD=0 measures the cycle-skipping engine's
 * wall-clock win, overall and per tier. All three runs' metric values
 * must be bit-identical. Returns the number of failures (failed cells,
 * each recorded with its error, plus a bit-identity mismatch).
 *
 * With a non-trivial @p shard, all three runs cover only the cells the
 * shard owns; the rest are recorded as skipped, so N such processes
 * with distinct indices produce fragments --merge-shards can join into
 * the full grid. When DS_CACHE_DIR is set, only the measured parallel
 * run uses the persistent alone-run cache (its hit/miss/store counts
 * land in the record); the serial and step-1 references bypass it so
 * their wall-clocks and the bit-identity check stay meaningful.
 */
int
runSweep(unsigned jobs, unsigned n_mixes,
         const dstrange::sim::SweepRunner::ShardSpec &shard,
         bench::SweepRecord &sweep)
{
    const TieredGrid grid = buildSweepGrid(n_mixes);
    const auto &cells = grid.cells;
    sweep.shardIndex = shard.index;
    sweep.shardCount = shard.count;

    // The comparison phases control DS_FAST_FORWARD/DS_BATCH
    // themselves; remember any inherited overrides and restore them
    // afterwards.
    const char *ff_env = std::getenv("DS_FAST_FORWARD");
    const std::string ff_orig = ff_env ? ff_env : "";
    const char *batch_env = std::getenv("DS_BATCH");
    const std::string batch_orig = batch_env ? batch_env : "";
    setFastForwardEnv("1");
    setBatchEnv("1");

    dstrange::sim::SweepRunner runner =
        bench::baseBuilder().buildSweepRunner(jobs);
    runner.setShard(shard);
    sweep.jobs = runner.jobs();
    // One owner assignment for all three phases. Computed here, with
    // the persistent store attached, so a balanced spec resolves
    // against the cost records exactly once; the reference runs below
    // (which bypass the cache) are pinned to the same assignment.
    const std::vector<unsigned> owners = runner.shardOwners(cells);
    std::size_t n_owned = 0;
    for (const unsigned owner : owners)
        if (shard.full() || owner == shard.index)
            ++n_owned;
    runner.setProgress([](std::size_t done, std::size_t total,
                          std::size_t cell, double cell_ms) {
        std::cerr << "[run_all] sweep " << done << "/" << total
                  << " (cell " << cell << ": "
                  << bench::num(cell_ms, 1) << " ms)\n";
    });

    std::vector<std::string> tier_names;
    for (const std::string &t : grid.tiers)
        if (std::find(tier_names.begin(), tier_names.end(), t) ==
            tier_names.end())
            tier_names.push_back(t);
    std::cout << "[run_all] sweep: ";
    if (!shard.full())
        std::cout << n_owned << " of " << cells.size() << " cells "
                  << "(shard " << shard.index << "/" << shard.count
                  << (shard.balanced ? ", balanced" : "") << ") in ";
    else
        std::cout << cells.size() << " cells in ";
    std::cout << tier_names.size() << " tiers on " << runner.jobs()
              << " thread(s) ... " << std::flush;
    bench::WallTimer timer;
    const auto results = runner.run(cells);
    sweep.wallMs = timer.elapsedMs();
    addCacheStats(runner, sweep);

    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        bench::SweepCellRecord rec;
        rec.name = grid.names[i];
        rec.wallMs = results[i].wallMs;
        rec.ok = results[i].ok;
        rec.skipped = results[i].skipped;
        rec.outcome = results[i].outcome;
        sweep.cellsTotalMs += results[i].wallMs;
        if (results[i].ok) {
            rec.metrics = cellMetrics(results[i].result);
        } else if (!results[i].skipped) {
            rec.error = results[i].error;
            ++failures;
        }
        sweep.cells.push_back(std::move(rec));
    }

    // Serial reference (fast-forward on): the parallel-speedup
    // denominator and the fast-forward-speedup numerator's partner.
    // With one worker the run above already is that reference. The
    // reference runs deliberately bypass the persistent cache
    // (cacheDir("")): loading the measured run's baselines would both
    // skew their wall-clock and let the step-1 phase skip the very
    // step-1 baseline computations the bit-identity check exists to
    // compare.
    std::vector<dstrange::sim::SweepRunner::CellResult> serial_owned;
    if (sweep.jobs > 1) {
        dstrange::sim::SweepRunner serial =
            bench::baseBuilder().cacheDir("").buildSweepRunner(1);
        serial.setShard(shard);
        serial.setShardOwners(owners);
        timer.reset();
        serial_owned = serial.run(cells);
        sweep.serialWallMs = timer.elapsedMs();
    } else {
        sweep.serialWallMs = sweep.wallMs;
    }
    const auto &serial_results = sweep.jobs > 1 ? serial_owned : results;

    // Step-1 reference: the same serial sweep ticking every bus cycle.
    setFastForwardEnv("0");
    dstrange::sim::SweepRunner step1 =
        bench::baseBuilder().cacheDir("").buildSweepRunner(1);
    step1.setShard(shard);
    step1.setShardOwners(owners);
    timer.reset();
    const auto step1_results = step1.run(cells);
    sweep.step1WallMs = timer.elapsedMs();

    // Batch-off reference: fast-forward on, batched command retirement
    // off — isolates what batching itself buys on top of span skipping.
    setFastForwardEnv("1");
    setBatchEnv("0");
    dstrange::sim::SweepRunner batchoff =
        bench::baseBuilder().cacheDir("").buildSweepRunner(1);
    batchoff.setShard(shard);
    batchoff.setShardOwners(owners);
    timer.reset();
    const auto batchoff_results = batchoff.run(cells);
    sweep.batchOffWallMs = timer.elapsedMs();
    if (ff_env)
        setFastForwardEnv(ff_orig.c_str());
    else
        setFastForwardEnv("1");
    if (batch_env)
        setBatchEnv(batch_orig.c_str());
    else
        setBatchEnv("1");

    // Per-tier fast-forward and batch accounting from the serial runs
    // (owned cells only; a merge re-sums tiers across shards).
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (results[i].skipped)
            continue;
        bench::FfTierRecord *tier = nullptr;
        for (auto &t : sweep.ffTiers)
            if (t.name == grid.tiers[i])
                tier = &t;
        if (!tier) {
            sweep.ffTiers.push_back({grid.tiers[i], 0.0, 0.0});
            tier = &sweep.ffTiers.back();
        }
        tier->step1Ms += step1_results[i].wallMs;
        tier->ffMs += serial_results[i].wallMs;
        bench::BatchTierRecord *btier = nullptr;
        for (auto &t : sweep.batchTiers)
            if (t.name == grid.tiers[i])
                btier = &t;
        if (!btier) {
            sweep.batchTiers.push_back({grid.tiers[i], 0.0, 0.0});
            btier = &sweep.batchTiers.back();
        }
        btier->offMs += batchoff_results[i].wallMs;
        btier->onMs += serial_results[i].wallMs;
    }

    // Bit-identity across the (up to) three runs.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto check = [&](const auto &other) {
            if (results[i].ok != other[i].ok ||
                results[i].skipped != other[i].skipped ||
                (results[i].ok &&
                 cellMetrics(results[i].result) !=
                     cellMetrics(other[i].result)))
                sweep.bitIdentical = false;
        };
        if (sweep.jobs > 1)
            check(serial_results);
        check(step1_results);
        check(batchoff_results);
    }
    if (!sweep.bitIdentical)
        ++failures;

    std::cout << (failures == 0 ? "ok" : "FAIL") << " ("
              << bench::num(sweep.wallMs, 1) << " ms parallel, "
              << bench::num(sweep.serialWallMs, 1) << " ms serial, "
              << bench::num(sweep.speedup(), 2) << "x parallel speedup, "
              << bench::num(sweep.step1WallMs, 1) << " ms step-1, "
              << bench::num(sweep.ffSpeedup(), 2) << "x ff speedup, "
              << (sweep.bitIdentical ? "bit-identical" : "MISMATCH")
              << ")\n";
    if (sweep.cacheEnabled)
        std::cout << "[run_all] alone-run cache (" << sweep.cacheDir
                  << "): " << sweep.cacheHits << " hits, "
                  << sweep.cacheMisses << " misses, "
                  << sweep.cacheStores << " stores\n";
    for (const bench::FfTierRecord &t : sweep.ffTiers) {
        std::cout << "[run_all]   tier " << t.name << ": "
                  << bench::num(t.step1Ms, 1) << " ms step-1 -> "
                  << bench::num(t.ffMs, 1) << " ms ff ("
                  << bench::num(t.speedup(), 2) << "x)\n";
    }
    for (const bench::BatchTierRecord &t : sweep.batchTiers) {
        std::cout << "[run_all]   tier " << t.name << " batch: "
                  << bench::num(t.offMs, 1) << " ms off -> "
                  << bench::num(t.onMs, 1) << " ms on ("
                  << bench::num(t.speedup(), 2) << "x)\n";
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        if (!results[i].ok && !results[i].skipped)
            std::cerr << "[run_all] sweep cell '" << sweep.cells[i].name
                      << "' failed: " << results[i].error << "\n";
    if (!sweep.bitIdentical)
        std::cerr << "[run_all] sweep: serial/parallel/step-1 metric "
                     "values differ — determinism bug\n";
    return failures;
}

/**
 * The record→replay trace tier: for each scheduler, record a dual-core
 * live run's controller-boundary request stream, replay it into an
 * identically-configured controller, and require the controller-side
 * metrics to match bit-for-bit. The tape files land next to the JSON
 * record (DS_BENCH_OUT) for reuse. Returns the number of failures.
 * Skipped in sharded runs — the tier is a whole-grid artefact like the
 * subprocess benches.
 */
int
runTraceTier(bench::TraceTierRecord &tier, const std::string &out_dir)
{
    const std::vector<std::string> schedulers = {"fr-fcfs",
                                                 "fr-fcfs-cap", "bliss"};
    dstrange::workloads::WorkloadSpec spec;
    spec.apps = {"soplex", "mcf"};
    spec.rngThroughputMbps = 5120.0;

    std::cout << "[run_all] trace tier: " << schedulers.size()
              << " record/replay cells ... " << std::flush;
    int failures = 0;
    for (const std::string &sched : schedulers) {
        dstrange::sim::SimConfig cfg = bench::baseConfig();
        dstrange::sim::DesignRegistry::instance().apply("drstrange",
                                                        cfg);
        cfg.scheduler = sched;
        const std::string path =
            out_dir + "/trace_replay_" + sched + ".bin";
        bench::TraceCellRecord cell;
        try {
            cell = bench::runTraceReplayCell(cfg, spec, path);
        } catch (const std::exception &e) {
            std::cerr << "[run_all] trace cell '" << sched
                      << "' failed: " << e.what() << "\n";
            ++failures;
        }
        cell.name = sched;
        tier.liveMs += cell.liveMs;
        tier.replayMs += cell.replayMs;
        tier.bitIdentical = tier.bitIdentical && cell.bitIdentical;
        tier.cells.push_back(std::move(cell));
    }
    if (!tier.bitIdentical)
        ++failures;
    std::cout << (failures == 0 ? "ok" : "FAIL") << " ("
              << bench::num(tier.liveMs, 1) << " ms live -> "
              << bench::num(tier.replayMs, 1) << " ms replay, "
              << bench::num(tier.speedup(), 2) << "x, "
              << (tier.bitIdentical ? "bit-identical" : "MISMATCH")
              << ")\n";
    for (const bench::TraceCellRecord &cell : tier.cells) {
        std::cout << "[run_all]   trace " << cell.name << ": "
                  << bench::num(cell.liveMs, 1) << " ms live -> "
                  << bench::num(cell.replayMs, 1) << " ms replay ("
                  << bench::num(cell.speedup(), 2) << "x, "
                  << cell.records << " records, "
                  << (cell.bitIdentical ? "bit-identical" : "MISMATCH")
                  << ")\n";
    }
    return failures;
}

/** One parsed BENCH_run_all.shard-I.json fragment. */
struct Fragment
{
    std::string path;
    unsigned index = 0;
    unsigned count = 1;
    std::uint64_t instrBudget = 0;
    std::string config;
    std::string fingerprint; ///< Build fingerprint ("" in old files).
    std::vector<bench::BenchRecord> records;
    bench::SweepRecord sweep;
};

/** Parse one shard fragment, throwing std::runtime_error /
 *  std::invalid_argument with the offending field on malformed input. */
Fragment
parseFragment(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const dstrange::JsonValue doc = dstrange::JsonValue::parse(buf.str());

    Fragment frag;
    frag.path = path;
    if (doc.at("schema").asString() != "drstrange-bench-v1")
        throw std::runtime_error("'" + path + "': unknown schema '" +
                                 doc.at("schema").asString() + "'");
    frag.instrBudget = doc.at("instr_budget").asU64();
    frag.config = doc.at("config").asString();
    // Fragments written before the fingerprint field existed parse as
    // "" and fail the merge-time equality check below with a clear
    // message rather than merging silently.
    if (const dstrange::JsonValue *fp = doc.find("fingerprint"))
        frag.fingerprint = fp->asString();

    for (const auto &rv : doc.at("results").array()) {
        bench::BenchRecord rec;
        rec.name = rv.at("name").asString();
        rec.wallMs = rv.at("wall_ms").asDouble();
        rec.exitCode = static_cast<int>(rv.at("exit_code").asDouble());
        for (const auto &[metric, value] : rv.at("metrics").members())
            rec.metrics.emplace_back(metric, value.asDouble());
        frag.records.push_back(std::move(rec));
    }

    const dstrange::JsonValue &sv = doc.at("sweep");
    const dstrange::JsonValue *shard = sv.find("shard");
    if (!shard)
        throw std::runtime_error(
            "'" + path + "': no \"shard\" record — not a fragment "
            "(was it written by run_all --shard?)");
    frag.index = static_cast<unsigned>(shard->at("index").asU64());
    frag.count = static_cast<unsigned>(shard->at("count").asU64());
    bench::SweepRecord &sweep = frag.sweep;
    sweep.jobs = static_cast<unsigned>(sv.at("jobs").asU64());
    sweep.wallMs = sv.at("wall_ms").asDouble();
    sweep.serialWallMs = sv.at("serial_wall_ms").asDouble();
    sweep.cellsTotalMs = sv.at("cells_total_ms").asDouble();
    sweep.bitIdentical = sv.at("bit_identical").asBool();
    const dstrange::JsonValue &ff = sv.at("fastforward");
    sweep.step1WallMs = ff.at("step1_wall_ms").asDouble();
    for (const auto &tv : ff.at("tiers").array()) {
        bench::FfTierRecord tier;
        tier.name = tv.at("name").asString();
        tier.step1Ms = tv.at("step1_wall_ms").asDouble();
        tier.ffMs = tv.at("ff_wall_ms").asDouble();
        sweep.ffTiers.push_back(std::move(tier));
    }
    // Fragments written before the batch record existed merge with
    // zeroed batch wall-clocks rather than failing.
    if (const dstrange::JsonValue *batch = sv.find("batch")) {
        sweep.batchOffWallMs = batch->at("off_wall_ms").asDouble();
        for (const auto &tv : batch->at("tiers").array()) {
            bench::BatchTierRecord tier;
            tier.name = tv.at("name").asString();
            tier.offMs = tv.at("off_wall_ms").asDouble();
            tier.onMs = tv.at("on_wall_ms").asDouble();
            sweep.batchTiers.push_back(std::move(tier));
        }
    }
    if (const dstrange::JsonValue *cache = sv.find("cache")) {
        sweep.cacheEnabled = true;
        sweep.cacheDir = cache->at("dir").asString();
        sweep.cacheHits = cache->at("hits").asU64();
        sweep.cacheMisses = cache->at("misses").asU64();
        sweep.cacheStores = cache->at("stores").asU64();
    }
    for (const auto &cv : sv.at("cells").array()) {
        bench::SweepCellRecord cell;
        cell.name = cv.at("name").asString();
        cell.wallMs = cv.at("wall_ms").asDouble();
        cell.ok = cv.at("ok").asBool();
        if (const dstrange::JsonValue *sk = cv.find("skipped"))
            cell.skipped = sk->asBool();
        if (const dstrange::JsonValue *err = cv.find("error"))
            cell.error = err->asString();
        // Fragments written before the outcome field existed keep the
        // "ok" default.
        if (const dstrange::JsonValue *oc = cv.find("outcome"))
            cell.outcome = oc->asString();
        for (const auto &[metric, value] : cv.at("metrics").members())
            cell.metrics.emplace_back(metric, value.asDouble());
        sweep.cells.push_back(std::move(cell));
    }
    return frag;
}

/**
 * Join the BENCH_run_all.shard-I.json fragments found in @p dir into
 * the canonical BENCH_run_all.json in @p out_dir. Validates that the
 * fragments form one complete shard family (indices 0..N-1 of the
 * same N, identical config/budget/grid) and that the non-skipped
 * cells are a disjoint exact cover of the grid, so the merged cell
 * metrics are bit-identical to what one unsharded process would have
 * recorded. The merged record carries per-shard wall-clock and cache
 * summaries, and extends the per-shard 3-way bit-identity verdict:
 * merged bit_identical = every fragment's verdict AND the cover check.
 * Returns the process exit code.
 */
int
mergeShards(const std::string &dir, const std::string &out_dir)
{
    std::vector<Fragment> frags;
    try {
        std::vector<std::string> paths;
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const std::string leaf = entry.path().filename().string();
            if (leaf.rfind("BENCH_run_all.shard-", 0) == 0 &&
                leaf.size() > 5 &&
                leaf.compare(leaf.size() - 5, 5, ".json") == 0)
                paths.push_back(entry.path().string());
        }
        if (ec) {
            std::cerr << "--merge-shards: cannot list '" << dir
                      << "': " << ec.message() << "\n";
            return 2;
        }
        std::sort(paths.begin(), paths.end());
        for (const std::string &p : paths)
            frags.push_back(parseFragment(p));
    } catch (const std::exception &e) {
        std::cerr << "--merge-shards: " << e.what() << "\n";
        return 2;
    }
    // Shard-index order (path sort misorders shard-10 before shard-2),
    // so the merged per-shard summary reads in index order.
    std::sort(frags.begin(), frags.end(),
              [](const Fragment &a, const Fragment &b) {
                  return a.index < b.index;
              });
    if (frags.empty()) {
        std::cerr << "--merge-shards: no BENCH_run_all.shard-*.json in '"
                  << dir << "'\n";
        return 2;
    }

    // One complete family: N fragments, indices 0..N-1, one grid.
    const unsigned count = frags[0].count;
    if (frags.size() != count) {
        std::cerr << "--merge-shards: found " << frags.size()
                  << " fragment(s) for a " << count << "-shard run\n";
        return 2;
    }
    std::vector<bool> seen(count, false);
    for (const Fragment &f : frags) {
        if (f.count != count || f.index >= count || seen[f.index]) {
            std::cerr << "--merge-shards: '" << f.path
                      << "' has shard " << f.index << "/" << f.count
                      << ", inconsistent with the other fragments\n";
            return 2;
        }
        seen[f.index] = true;
    }
    for (const Fragment &f : frags) {
        if (f.config != frags[0].config ||
            f.instrBudget != frags[0].instrBudget) {
            std::cerr << "--merge-shards: '" << f.path << "' ran a "
                      << "different configuration than '"
                      << frags[0].path << "'\n";
            return 2;
        }
        // Fragments from different builds (or schema generations) are
        // not comparable cell-for-cell even when their configs match.
        if (f.fingerprint != frags[0].fingerprint) {
            std::cerr << "--merge-shards: '" << f.path
                      << "' has build fingerprint '" << f.fingerprint
                      << "' but '" << frags[0].path << "' has '"
                      << frags[0].fingerprint
                      << "'; fragments must come from one build of one "
                         "simulator — re-run the shards\n";
            return 2;
        }
        if (f.sweep.cells.size() != frags[0].sweep.cells.size()) {
            std::cerr << "--merge-shards: '" << f.path << "' swept "
                      << f.sweep.cells.size() << " cells, expected "
                      << frags[0].sweep.cells.size() << "\n";
            return 2;
        }
        for (std::size_t i = 0; i < f.sweep.cells.size(); ++i)
            if (f.sweep.cells[i].name != frags[0].sweep.cells[i].name) {
                std::cerr << "--merge-shards: cell " << i << " is '"
                          << f.sweep.cells[i].name << "' in '" << f.path
                          << "' but '" << frags[0].sweep.cells[i].name
                          << "' in '" << frags[0].path << "'\n";
                return 2;
            }
    }
    // The merged header re-derives instr_budget/config from this
    // process's environment; it must describe what the shards ran.
    const dstrange::sim::SimConfig local = bench::baseConfig();
    if (dstrange::sim::serializeConfig(local) != frags[0].config ||
        local.instrBudget != frags[0].instrBudget) {
        std::cerr << "--merge-shards: the shards ran with a different "
                     "DS_INSTR_BUDGET/DS_CONFIG than this process; "
                     "re-run the merge under the same environment\n";
        return 2;
    }

    // Disjoint exact cover, then assemble the merged record.
    bench::SweepRecord merged;
    merged.merged = true;
    merged.shardCount = count;
    merged.jobs = frags[0].sweep.jobs;
    int failures = 0;
    bool cover_ok = true;
    for (std::size_t i = 0; i < frags[0].sweep.cells.size(); ++i) {
        const Fragment *owner = nullptr;
        bool duplicated = false;
        for (const Fragment &f : frags) {
            if (f.sweep.cells[i].skipped)
                continue;
            if (owner)
                duplicated = true;
            else
                owner = &f;
        }
        if (!owner || duplicated) {
            std::cerr << "--merge-shards: cell '"
                      << frags[0].sweep.cells[i].name
                      << (owner ? "' was run by more than one shard\n"
                                : "' was run by no shard\n");
            cover_ok = false;
            continue;
        }
        bench::SweepCellRecord cell = owner->sweep.cells[i];
        if (!cell.ok)
            ++failures;
        merged.cells.push_back(std::move(cell));
    }
    if (!cover_ok) {
        std::cerr << "--merge-shards: fragments do not partition the "
                     "grid (mixed shard specs or stale files?)\n";
        return 2;
    }

    merged.bitIdentical = true;
    for (const Fragment &f : frags) {
        const bench::SweepRecord &s = f.sweep;
        merged.bitIdentical = merged.bitIdentical && s.bitIdentical;
        // Shards run concurrently: the merged parallel wall is the
        // slowest shard, while the serial references add up.
        merged.wallMs = std::max(merged.wallMs, s.wallMs);
        merged.serialWallMs += s.serialWallMs;
        merged.step1WallMs += s.step1WallMs;
        merged.cellsTotalMs += s.cellsTotalMs;
        merged.cacheEnabled = merged.cacheEnabled || s.cacheEnabled;
        if (merged.cacheDir.empty())
            merged.cacheDir = s.cacheDir;
        merged.cacheHits += s.cacheHits;
        merged.cacheMisses += s.cacheMisses;
        merged.cacheStores += s.cacheStores;
        for (const bench::FfTierRecord &tier : s.ffTiers) {
            bench::FfTierRecord *dst = nullptr;
            for (auto &t : merged.ffTiers)
                if (t.name == tier.name)
                    dst = &t;
            if (!dst) {
                merged.ffTiers.push_back({tier.name, 0.0, 0.0});
                dst = &merged.ffTiers.back();
            }
            dst->step1Ms += tier.step1Ms;
            dst->ffMs += tier.ffMs;
        }
        merged.batchOffWallMs += s.batchOffWallMs;
        for (const bench::BatchTierRecord &tier : s.batchTiers) {
            bench::BatchTierRecord *dst = nullptr;
            for (auto &t : merged.batchTiers)
                if (t.name == tier.name)
                    dst = &t;
            if (!dst) {
                merged.batchTiers.push_back({tier.name, 0.0, 0.0});
                dst = &merged.batchTiers.back();
            }
            dst->offMs += tier.offMs;
            dst->onMs += tier.onMs;
        }
        bench::ShardSummaryRecord summary;
        summary.index = f.index;
        summary.jobs = s.jobs;
        summary.wallMs = s.wallMs;
        summary.serialWallMs = s.serialWallMs;
        summary.step1WallMs = s.step1WallMs;
        summary.bitIdentical = s.bitIdentical;
        summary.cacheHits = s.cacheHits;
        summary.cacheMisses = s.cacheMisses;
        summary.cacheStores = s.cacheStores;
        merged.shards.push_back(summary);
    }
    if (!merged.bitIdentical)
        ++failures;

    std::vector<bench::BenchRecord> records;
    for (const Fragment &f : frags)
        for (const bench::BenchRecord &rec : f.records) {
            if (rec.exitCode != 0)
                ++failures;
            records.push_back(rec);
        }

    const std::string path =
        bench::writeBenchJson("run_all", records, &merged, out_dir);
    if (path.empty()) {
        std::cerr << "failed to write BENCH_run_all.json into '"
                  << out_dir << "'\n";
        return 1;
    }
    std::cout << "[run_all] merged " << count << " shard fragment(s): "
              << merged.cells.size() << " cells, "
              << (merged.bitIdentical ? "bit-identical"
                                      : "bit-identity MISMATCH")
              << ", " << failures << " failure(s)\n";
    if (merged.cacheEnabled)
        std::cout << "[run_all] alone-run cache (" << merged.cacheDir
                  << "): " << merged.cacheHits << " hits, "
                  << merged.cacheMisses << " misses, "
                  << merged.cacheStores << " stores\n";
    std::cout << "wrote " << path << "\n";
    return failures == 0 ? 0 : 1;
}

/** Decode a std::system() status into the child's exit code. */
int
exitCodeOf(int status)
{
    if (status == -1)
        return -1;
#ifdef WIFEXITED
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return -1;
#else
    return status;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    // An inherited malformed DS_CONFIG would otherwise fail every child
    // bench and then kill the final writeBenchJson (which parses it
    // too, via bench::baseConfig()) — reject it up front.
    if (const char *inherited = std::getenv("DS_CONFIG")) {
        try {
            dstrange::sim::SimulationBuilder::fromText(inherited);
        } catch (const std::exception &e) {
            std::cerr << "DS_CONFIG: " << e.what() << "\n";
            return 2;
        }
    }

    const std::vector<std::string> all_benches = allBenches();
    std::vector<std::string> selected = quickBenches(all_benches);
    std::string out_dir = bench::benchOutputDir();
    std::string merge_dir;      // non-empty = --merge-shards mode.
    unsigned jobs = 0;          // 0 = DS_JOBS / hardware_concurrency.
    unsigned sweep_mixes = 8;   // 0 disables the in-process sweep.

    // DS_SHARD is only validated once we know the invocation actually
    // shards — a malformed leftover value must not break --help,
    // --list, or --merge-shards.
    dstrange::sim::SweepRunner::ShardSpec shard;
    bool shard_from_flag = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--all") {
            selected = all_benches;
        } else if (arg == "--only") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            const std::string pat = argv[++i];
            selected.clear();
            for (const std::string &name : all_benches)
                if (name.find(pat) != std::string::npos)
                    selected.push_back(name);
            if (selected.empty()) {
                std::cerr << "no bench matches '" << pat << "'\n";
                return 2;
            }
        } else if (arg == "--list") {
            for (const std::string &name : all_benches)
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--out") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            out_dir = argv[++i];
        } else if (arg == "--config") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            const std::string text = argv[++i];
            try {
                // Validate before fanning out to every child bench.
                dstrange::sim::SimulationBuilder::fromText(text);
            } catch (const std::exception &e) {
                std::cerr << "--config: " << e.what() << "\n";
                return 2;
            }
#ifdef _WIN32
            _putenv_s("DS_CONFIG", text.c_str());
#else
            setenv("DS_CONFIG", text.c_str(), /*overwrite=*/1);
#endif
        } else if (arg == "--jobs") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            char *end = nullptr;
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], &end, 10));
            if (end == nullptr || *end != '\0') {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--sweep-mixes") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            char *end = nullptr;
            sweep_mixes = static_cast<unsigned>(
                std::strtoul(argv[++i], &end, 10));
            if (end == nullptr || *end != '\0') {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--shard") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            try {
                shard = dstrange::sim::SweepRunner::ShardSpec::parse(
                    argv[++i]);
                shard_from_flag = true;
            } catch (const std::exception &e) {
                std::cerr << "--shard: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--merge-shards") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            merge_dir = argv[++i];
        } else if (arg == "--cache-dir") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            const char *cache_dir = argv[++i];
            try {
                // Validate eagerly: openFromEnv degrades silently-ish,
                // but an explicit flag deserves a hard diagnostic.
                dstrange::sim::ResultStore probe(cache_dir);
            } catch (const std::exception &e) {
                std::cerr << "--cache-dir: " << e.what() << "\n";
                return 2;
            }
            // Via the environment so in-process SweepRunners and every
            // child bench share the same persistent cache.
#ifdef _WIN32
            _putenv_s("DS_CACHE_DIR", cache_dir);
#else
            setenv("DS_CACHE_DIR", cache_dir, /*overwrite=*/1);
#endif
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // Create the output directory before any phase runs, so a sweep
    // whose record could not be written never starts.
    std::error_code out_ec;
    fs::create_directories(out_dir, out_ec);
    if (out_ec || !fs::is_directory(out_dir, out_ec)) {
        std::cerr << "cannot create output directory '" << out_dir
                  << "'";
        if (out_ec)
            std::cerr << ": " << out_ec.message();
        std::cerr << "\n";
        return 2;
    }

    if (!merge_dir.empty())
        return mergeShards(merge_dir, out_dir);

    if (!shard_from_flag) {
        try {
            shard = dstrange::sim::SweepRunner::ShardSpec::fromEnv();
        } catch (const std::exception &e) {
            std::cerr << "DS_SHARD: " << e.what() << "\n";
            return 2;
        }
    }

    // Cross-process sharding: every shard sweeps its slice of the
    // grid, but the subprocess benches are whole-program artefacts —
    // shard 0 runs them once for the family, the others skip them.
    if (!shard.full() && shard.index != 0) {
        std::cout << "[run_all] shard " << shard.index << "/"
                  << shard.count
                  << ": skipping bench subprocesses (shard 0 runs "
                     "them)\n";
        selected.clear();
    }

    // Bench executables are siblings of this harness in the build tree.
    const fs::path self(argv[0]);
    const fs::path bin_dir =
        self.has_parent_path() ? self.parent_path() : fs::path(".");

    std::vector<bench::BenchRecord> records;
    int failures = 0;
    for (const std::string &name : selected) {
        const fs::path exe = bin_dir / name;
        std::error_code ec;
        if (!fs::exists(exe, ec)) {
            std::cerr << "missing bench executable: " << exe.string()
                      << " (build the bench targets first)\n";
            ++failures;
            bench::BenchRecord rec;
            rec.name = name;
            rec.exitCode = -1;
            records.push_back(rec);
            continue;
        }

        std::cout << "[run_all] " << name << " ... " << std::flush;
        // Built piecewise: chained operator+ here trips a GCC 12
        // -Wrestrict false positive (GCC PR105651) under -O2 -Werror.
        std::string cmd = "\"";
        cmd += exe.string();
#ifdef _WIN32
        cmd += "\" > NUL 2>&1";
#else
        cmd += "\" > /dev/null 2>&1";
#endif
        bench::WallTimer timer;
        const int status = std::system(cmd.c_str());
        bench::BenchRecord rec;
        rec.name = name;
        rec.wallMs = timer.elapsedMs();
        rec.exitCode = exitCodeOf(status);
        std::cout << (rec.exitCode == 0 ? "ok" : "FAIL") << " ("
                  << bench::num(rec.wallMs, 1) << " ms)\n";
        if (rec.exitCode != 0)
            ++failures;
        records.push_back(rec);
    }

    // In-process parallel sweep. A throwing cell is recorded in the
    // JSON (ok=false plus its error) and fails the whole run — run_all
    // must never exit 0 over a partial record.
    bench::SweepRecord sweep;
    const bool ran_sweep = sweep_mixes > 0;
    if (ran_sweep)
        failures += runSweep(jobs, sweep_mixes, shard, sweep);

    // Record→replay trace tier (whole-grid artefact: only unsharded
    // runs execute it, like the subprocess benches).
    if (ran_sweep && shard.full()) {
        sweep.hasTrace = true;
        failures += runTraceTier(sweep.trace, out_dir);
    }

    // A shard writes a fragment; --merge-shards joins the family back
    // into the canonical BENCH_run_all.json.
    const std::string leaf =
        shard.full() ? ""
                     : "BENCH_run_all.shard-" +
                           std::to_string(shard.index) + ".json";
    const std::string path = bench::writeBenchJson(
        "run_all", records, ran_sweep ? &sweep : nullptr, out_dir, leaf);
    if (path.empty()) {
        std::cerr << "failed to write " <<
            (leaf.empty() ? "BENCH_run_all.json" : leaf)
                  << " into '" << out_dir << "'\n";
        return 1;
    }
    std::cout << "\nwrote " << path << " (" << records.size()
              << " results, " << failures << " failures)\n";
    return failures == 0 ? 0 : 1;
}
