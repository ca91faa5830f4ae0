/**
 * @file
 * Measurement half of the end-to-end benchmark. One single-threaded
 * process runs one workload through the public API (SimulationBuilder,
 * Runner, System) and prints one raw JSON document on stdout; run.py
 * derives the metrics from it.
 *
 *   drs_perfbench --workload dual-heavy --seed 1 --seconds 10 \
 *                 --trace 0 --out-dir DIR \
 *                 [--setups N] [--min-passes N] [--verify 0|1]
 *
 * run.py starts several of these processes one after another for one
 * run of the benchmark, and only the first of them verifies.
 *
 * Phases:
 *  1. Set-up, repeated --setups times: a fresh Runner, its alone-run
 *     baselines, and one untimed warm-up cell. The host-speed probe
 *     (probe.h) runs kSetupProbes times before each set-up and after
 *     the last.
 *  2. Timed loop: whole passes over the workload's cells through
 *     Runner::run until --seconds have elapsed and at least --min-passes
 *     passes ran, with one run of the probe after each cell. Every pass
 *     must reproduce the first pass's results exactly.
 *  3. Verification pass (untimed, skipped with --verify 0): each cell is
 *     rebuilt as a System with fast-forward on, checked against the
 *     Runner's result and against a step-1 reference by
 *     sim::systemFingerprint; the work counters of every layer are read
 *     from these systems.
 *  4. With --trace 1 only: every other timed pass records spans, each
 *     cell's controller tape is recorded and replayed, and the audit and
 *     trace-generator costs are microtimed. Spans go to DIR at exit.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/simulation_builder.h"
#include "common/json_writer.h"
#include "common/latency_histogram.h"
#include "common/rng.h"
#include "fault/fault_plane.h"
#include "sim/lockstep.h"
#include "sim/result_store.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "trng/bit_quality.h"
#include "workloads/app_profile.h"
#include "workloads/synthetic_trace.h"

#include "cells.h"
#include "probe.h"
#include "tracer.h"

namespace ds = dstrange;
using perfbench::Cell;
using perfbench::HostProbe;
using perfbench::Tracer;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

namespace {

/** Probe runs before each set-up and after the last one. */
constexpr unsigned kSetupProbes = 3;

/** Microbenchmark results land here so the timed calls are not elided. */
volatile double microSink = 0.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    /** Set-ups; run.py reports the median over every process's. */
    unsigned setups = 7;
    /** Timed passes made at least, so each cell's median is taken over
     *  several passes. */
    unsigned minPasses = 3;
    bool verify = true;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "drs_perfbench: " << why
              << "\nusage: drs_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--setups N] "
                 "[--min-passes N] [--verify 0|1]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed")
                o.seed = std::stoull(v);
            else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (flag == "--out-dir")
                o.outDir = v;
            else if (flag == "--setups")
                o.setups = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--min-passes")
                o.minPasses = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--verify")
                o.verify = std::stoi(v) != 0;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.setups == 0 || o.minPasses == 0)
        usage("--setups and --min-passes must be positive");
    return o;
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

bool
sameMcStats(const ds::mem::McStats &a, const ds::mem::McStats &b)
{
    return a.readRequests == b.readRequests &&
           a.writeRequests == b.writeRequests &&
           a.rngRequests == b.rngRequests &&
           a.rngServedFromBuffer == b.rngServedFromBuffer &&
           a.rngServedFromStaging == b.rngServedFromStaging &&
           a.rngJobsCompleted == b.rngJobsCompleted &&
           a.readsCompleted == b.readsCompleted &&
           a.sumReadLatency == b.sumReadLatency &&
           a.sumRngLatency == b.sumRngLatency;
}

/** Work counters summed over the verification pass's systems. */
struct Counters
{
    std::uint64_t busCycles = 0, stepped = 0, skipped = 0, skips = 0,
                  drainTicks = 0;
    std::uint64_t reads = 0, writes = 0, rngRequests = 0, rngBuffer = 0,
                  rngStaging = 0, readsCompleted = 0, sumReadLat = 0,
                  sumRngLat = 0;
    std::uint64_t instr = 0, rngStall = 0, coreCycles = 0;
    std::uint64_t act = 0, rd = 0, wr = 0, ref = 0, rngRounds = 0,
                  cyclesActive = 0, cyclesPrecharged = 0,
                  cyclesPoweredDown = 0;
    std::uint64_t predictions = 0, predCorrect = 0, falsePos = 0,
                  falseNeg = 0;
    double overflowBits = 0.0;
    std::uint64_t audited = 0, discarded = 0, blacklisted = 0,
                  remapped = 0, corruptedBits = 0;
    std::uint64_t offered = 0, completed = 0, shed = 0, backlog = 0,
                  maxBacklog = 0, overSlo = 0;
    /** Latencies of every completed service request, all cells. */
    ds::LatencyHistogram latency;

    void
    add(const ds::sim::System &sys)
    {
        const auto &ff = sys.ffStats();
        busCycles += sys.busCycles();
        stepped += ff.steppedCycles;
        skipped += ff.skippedCycles;
        skips += ff.skips;
        drainTicks += ff.drainTicks;

        const ds::mem::MemoryController &mc = sys.mc();
        const ds::mem::McStats &m = mc.stats();
        reads += m.readRequests;
        writes += m.writeRequests;
        rngRequests += m.rngRequests;
        rngBuffer += m.rngServedFromBuffer;
        rngStaging += m.rngServedFromStaging;
        readsCompleted += m.readsCompleted;
        sumReadLat += m.sumReadLatency;
        sumRngLat += m.sumRngLatency;

        for (unsigned i = 0; i < sys.numCores(); ++i) {
            const ds::cpu::CoreStats &s = sys.coreStats(i);
            instr += s.instrRetired;
            rngStall += s.rngStallCycles;
            coreCycles += s.finishCycle;
        }
        for (unsigned ch = 0; ch < mc.numChannels(); ++ch) {
            const auto &e = mc.channel(ch).energyCounters();
            act += e.nAct;
            rd += e.nRd;
            wr += e.nWr;
            ref += e.nRef;
            rngRounds += e.rngRounds;
            cyclesActive += e.cyclesActive;
            cyclesPrecharged += e.cyclesPrecharged;
            cyclesPoweredDown += e.cyclesPoweredDown;
        }
        if (const auto ps = mc.predictorStats()) {
            predictions += ps->predictions;
            predCorrect += ps->correct;
            falsePos += ps->falsePositives;
            falseNeg += ps->falseNegatives;
        }
        if (const ds::strange::BufferSet *buf = mc.buffer()) {
            for (std::size_t i = 0; i < buf->partitionCount(); ++i)
                overflowBits += buf->partition(i).totalOverflowed();
        }
        if (const ds::fault::FaultPlane *fp = mc.faultInjection()) {
            const ds::fault::FaultReport r = fp->report();
            audited += r.roundsAudited;
            discarded += r.roundsDiscarded;
            blacklisted += r.blacklisted;
            remapped += r.remapped;
            corruptedBits += r.corruptedBits;
        }
        if (const ds::service::OpenLoopService *svc = sys.service()) {
            const ds::service::ServiceStats &s = svc->stats();
            offered += s.offered;
            completed += s.completed;
            shed += s.shed;
            backlog += svc->backlogDepth();
            maxBacklog = std::max(maxBacklog, s.maxBacklog);
            overSlo += s.overSlo;
            latency.merge(s.latency);
        }
    }

    /**
     * Nearest-rank p99 over every *offered* request, shed and
     * uncompleted ones ranked above all completions. Returns UINT64_MAX
     * when the rank falls among those misses.
     */
    std::uint64_t
    p99WithMisses() const
    {
        if (offered == 0)
            return 0;
        const double p =
            0.99 * static_cast<double>(offered) / static_cast<double>(
                                                      completed);
        if (completed == 0 || p > 1.0)
            return ~std::uint64_t{0};
        return latency.percentile(p);
    }
};

/** Attempts and failures across every checked run of a cell. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (reasons.size() < 20)
            reasons.push_back(why);
        std::cerr << "check failed: " << why << "\n";
    }
};

struct TimedLoop
{
    std::vector<double> cellMs;   ///< Untraced passes, in pass order.
    std::vector<double> tracedMs; ///< Traced passes (trace mode only).
    /** Probe time after each cell, parallel to cellMs and tracedMs. */
    std::vector<double> probeMs, tracedProbeMs;
    unsigned passes = 0;          ///< Untraced passes.
};

/**
 * Timed passes over every cell: at least @p minPasses untraced ones, and
 * more while another pass of the mean length so far still ends within
 * @p seconds, so a run's length does not depend on how a pass lines up
 * with the time limit. With @p tracer on, every other
 * pass records spans, so traced and untraced cells share the host's
 * drift and their comparison gives the tracing overhead.
 */
TimedLoop
runTimed(ds::sim::Runner &runner, const Workload &w, double seconds,
         unsigned minPasses, HostProbe &probe, Tracer &tracer,
         std::vector<std::string> &reference,
         std::vector<ds::sim::Runner::WorkloadResult> &first,
         Ledger &ledger)
{
    TimedLoop loop;
    Tracer off(false);
    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0;
         loop.passes < minPasses ||
         msSince(start) * (pass + 1) / pass <= seconds * 1000.0;
         ++pass) {
        const bool traced = tracer.enabled() && pass % 2 == 1;
        Tracer &spans = traced ? tracer : off;
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            const Cell &cell = w.cells[i];
            ++ledger.attempted;
            // A cell that throws still records its time, so every pass
            // stays whole; the failure alone marks the run incorrect.
            const Clock::time_point t0 = Clock::now();
            try {
                ds::sim::Runner::WorkloadResult res;
                {
                    Tracer::Scope span(spans, "runner.run",
                                       static_cast<int>(i));
                    res = runner.run(cell.config, cell.spec);
                }
                (traced ? loop.tracedMs : loop.cellMs)
                    .push_back(msSince(t0));
                const std::string text =
                    ds::sim::serializeWorkloadResult(res);
                if (reference[i].empty()) {
                    reference[i] = text;
                    first[i] = std::move(res);
                } else if (text != reference[i]) {
                    ledger.fail(cell.name +
                                ": result differs from the first pass");
                }
            } catch (const std::exception &e) {
                (traced ? loop.tracedMs : loop.cellMs)
                    .push_back(msSince(t0));
                ledger.fail(cell.name + ": " + e.what());
            }
            (traced ? loop.tracedProbeMs : loop.probeMs)
                .push_back(probe.run());
        }
        if (!traced)
            ++loop.passes;
    }
    return loop;
}

/** Cost of one runsTest + monobitTest on a 32-byte block, in ns. */
double
auditNs(std::uint64_t seed, Tracer &tracer)
{
    Tracer::Scope span(tracer, "micro.trng_audit", -1);
    ds::Xoshiro256ss gen(seed);
    std::vector<std::uint8_t> block(32);
    constexpr int kCalls = 20000;
    double sink = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
        block[i % block.size()] = static_cast<std::uint8_t>(gen.next());
        sink += ds::trng::runsTest(block).statistic +
                ds::trng::monobitTest(block).statistic;
    }
    const double ns = msSince(t0) * 1e6 / kCalls;
    microSink = sink;
    return ns;
}

/** Cost of one SyntheticTrace::next() over the workload's apps, in ns. */
double
traceNextNs(const Workload &w, Tracer &tracer)
{
    if (w.apps.empty())
        return 0.0;
    Tracer::Scope span(tracer, "micro.trace_next", -1);
    constexpr int kOps = 200000;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const std::string &app : w.apps) {
        ds::workloads::SyntheticTrace t(ds::workloads::appByName(app),
                                        w.bases[0].geometry, 0,
                                        w.bases[0].seed);
        for (int i = 0; i < kOps; ++i)
            sink += t.next().addr;
    }
    const double ns =
        msSince(t0) * 1e6 / (static_cast<double>(kOps) * w.apps.size());
    microSink = static_cast<double>(sink);
    return ns;
}

void
writeDoubles(ds::JsonWriter &j, const std::string &key,
             const std::vector<double> &v)
{
    j.key(key).beginArray();
    for (double x : v)
        j.valueExact(x);
    j.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Workload w;
    try {
        w = perfbench::makeWorkload(opt.workload, opt.seed);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    Tracer tracer(opt.trace);
    Ledger ledger;
    HostProbe probe;
    std::vector<double> setupProbeMs;
    const auto runProbes = [&] {
        for (unsigned p = 0; p < kSetupProbes; ++p)
            setupProbeMs.push_back(probe.run());
    };
    // Untimed: brings the probe's code and data into the caches.
    for (unsigned p = 0; p < kSetupProbes; ++p)
        probe.run();

    // --- 1. Set-up ----------------------------------------------------
    std::vector<double> setupS, aloneMs;
    std::unique_ptr<ds::sim::Runner> runner;
    for (unsigned k = 0; k < opt.setups; ++k) {
        runner.reset();
        runProbes();
        Tracer::Scope setup(tracer, "setup", -1);
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope span(tracer, "runner.construct", -1);
            runner =
                std::make_unique<ds::sim::Runner>(w.bases[0], nullptr);
        }
        const Clock::time_point ta = Clock::now();
        {
            // The alone-run cache keys on the whole configuration, so
            // baselines computed under each sub-seed's base serve every
            // cell of that sub-seed.
            Tracer::Scope span(tracer, "alone.warmup", -1);
            for (const ds::sim::SimConfig &base : w.bases) {
                runner->base() = base;
                for (const std::string &app : w.apps)
                    runner->alone(app);
                if (w.rngMbps > 0.0)
                    runner->aloneRng(w.rngMbps);
            }
        }
        aloneMs.push_back(msSince(ta));
        {
            const Cell &warm = w.cells[w.warmupCell];
            Tracer::Scope span(tracer, "warmup.cell",
                               static_cast<int>(w.warmupCell));
            runner->run(warm.config, warm.spec);
        }
        setupS.push_back(msSince(t0) / 1000.0);
    }
    runProbes();

    // --- 2. Timed loop ------------------------------------------------
    std::vector<std::string> reference(w.cells.size());
    std::vector<ds::sim::Runner::WorkloadResult> first(w.cells.size());
    const TimedLoop timed =
        runTimed(*runner, w, opt.seconds, opt.minPasses, probe, tracer,
                 reference, first, ledger);
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    const long peakRssKb = usage_now.ru_maxrss;

    // --- 3. Verification pass -----------------------------------------
    Counters counters;
    double ffMs = 0.0, stepMs = 0.0, replayMs = 0.0;
    std::uint64_t traceRecords = 0;
    std::string cell0Fingerprint;
    for (std::size_t i = 0; opt.verify && i < w.cells.size(); ++i) {
        const Cell &cell = w.cells[i];
        const int id = static_cast<int>(i);
        Tracer::Scope cellSpan(tracer, "verify.cell", id);
        ++ledger.attempted;
        try {
            std::unique_ptr<ds::sim::System> sys;
            {
                Tracer::Scope span(tracer, "build_system", id);
                sys = std::make_unique<ds::sim::System>(
                    cell.config, perfbench::makeTraces(cell));
            }
            sys->setFastForward(true);
            sys->setBatchMode(true);
            const Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "system.run", id);
                sys->run();
            }
            ffMs += msSince(t0);
            counters.add(*sys);
            const std::string fp = ds::sim::systemFingerprint(*sys);
            if (i == 0)
                cell0Fingerprint = fp;

            const auto &res = first[i];
            if (reference[i].empty() ||
                res.busCycles != sys->busCycles() ||
                !sameMcStats(res.mcStats, sys->mc().stats()))
                ledger.fail(cell.name +
                            ": System run does not match Runner::run");

            if (const auto *svc = sys->service()) {
                const auto &s = svc->stats();
                if (s.offered != s.completed + s.shed + svc->backlogDepth())
                    ledger.fail(cell.name +
                                ": offered != completed + shed + backlog");
            }

            {
                Tracer::Scope span(tracer, "step1.reference", id);
                ds::sim::System ref(cell.config,
                                    perfbench::makeTraces(cell));
                ref.setFastForward(false);
                const Clock::time_point ts = Clock::now();
                ref.run();
                stepMs += msSince(ts);
                if (ds::sim::systemFingerprint(ref) != fp)
                    ledger.fail(cell.name + ": fast-forward fingerprint "
                                            "differs from step-1");
            }

            if (opt.trace) {
                const std::string tape =
                    opt.outDir + "/tape-" + opt.workload + "-" +
                    std::to_string(opt.seed) + "-" + std::to_string(i) +
                    ".bin";
                {
                    Tracer::Scope span(tracer, "tape.record", id);
                    ds::sim::SimulationBuilder rec(cell.config);
                    rec.recordTrace(tape);
                    ds::sim::System live(rec.config(),
                                         perfbench::makeTraces(cell));
                    live.setFastForward(true);
                    live.setBatchMode(true);
                    live.run();
                }
                {
                    Tracer::Scope span(tracer, "tape.replay", id);
                    ds::sim::SimulationBuilder rep(cell.config);
                    rep.replayTrace(tape);
                    ds::sim::System replay(rep.config(), {});
                    replay.setFastForward(true);
                    replay.setBatchMode(true);
                    const Clock::time_point tr = Clock::now();
                    replay.run();
                    replayMs += msSince(tr);
                    traceRecords += replay.replaySource()->replayedCount();
                    if (!sameMcStats(replay.mc().stats(), sys->mc().stats()))
                        ledger.fail(cell.name +
                                    ": tape replay differs from live run");
                }
                std::error_code ec;
                std::filesystem::remove(tape, ec);
            }
        } catch (const std::exception &e) {
            ledger.fail(cell.name + ": " + e.what());
        }
    }

    // Seed plumbing: the next seed must change the first cell's run.
    if (opt.verify) {
        ++ledger.attempted;
        try {
            Tracer::Scope span(tracer, "seed.check", 0);
            Cell other =
                perfbench::makeWorkload(opt.workload, opt.seed + 1).cells[0];
            ds::sim::System sys(other.config, perfbench::makeTraces(other));
            sys.setFastForward(true);
            sys.setBatchMode(true);
            sys.run();
            if (ds::sim::systemFingerprint(sys) == cell0Fingerprint)
                ledger.fail("seeds " + std::to_string(opt.seed) + " and " +
                            std::to_string(opt.seed + 1) +
                            " give identical runs: the seed is not plumbed "
                            "through");
        } catch (const std::exception &e) {
            ledger.fail(std::string("seed check: ") + e.what());
        }
    }

    double auditCostNs = 0.0, nextCostNs = 0.0;
    if (opt.trace) {
        auditCostNs = auditNs(opt.seed, tracer);
        nextCostNs = traceNextNs(w, tracer);
    }

    // --- Output ---------------------------------------------------------
    std::string spansPath;
    if (opt.trace) {
        spansPath = opt.outDir + "/spans-" + opt.workload + "-" +
                    std::to_string(opt.seed) + ".json";
        if (!tracer.writeJson(spansPath)) {
            std::cerr << "cannot write " << spansPath << "\n";
            return 1;
        }
    }

    ds::JsonWriter j;
    j.beginObject();
    j.key("workload").value(opt.workload);
    j.key("seed").value(opt.seed);
    j.key("trace").value(opt.trace);
    j.key("verified").value(opt.verify);
    j.key("cells_per_pass").value(static_cast<std::uint64_t>(w.cells.size()));
    j.key("apps").beginArray();
    for (const std::string &a : w.apps)
        j.value(a);
    j.endArray();
    j.key("rng_mbps").valueExact(w.rngMbps);
    writeDoubles(j, "setup_s", setupS);
    writeDoubles(j, "setup_probe_ms", setupProbeMs);
    writeDoubles(j, "alone_ms", aloneMs);
    writeDoubles(j, "cell_ms", timed.cellMs);
    writeDoubles(j, "probe_ms", timed.probeMs);
    j.key("passes").value(static_cast<std::uint64_t>(timed.passes));
    if (opt.trace) {
        writeDoubles(j, "cell_ms_traced", timed.tracedMs);
        writeDoubles(j, "probe_ms_traced", timed.tracedProbeMs);
    }
    j.key("peak_rss_kb").value(static_cast<std::uint64_t>(peakRssKb));
    j.key("attempted").value(ledger.attempted);
    j.key("failed").value(ledger.failed);
    j.key("failures").beginArray();
    for (const std::string &r : ledger.reasons)
        j.value(r);
    j.endArray();

    j.key("cells").beginArray();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const auto &r = first[i];
        j.beginObject();
        j.key("name").value(w.cells[i].name);
        j.key("mix").value(w.cells[i].spec.name);
        j.key("design").value(w.cells[i].design);
        j.key("faults").value(w.cells[i].config.fault.enabled());
        j.key("nonrng_slowdown").valueExact(r.avgNonRngSlowdown());
        j.key("rng_slowdown").valueExact(r.rngSlowdown());
        j.key("unfairness").valueExact(r.unfairnessIndex);
        j.key("rng_requests").value(r.mcStats.rngRequests);
        j.key("rng_from_buffer").value(r.mcStats.rngServedFromBuffer);
        j.key("bus_cycles").value(static_cast<std::uint64_t>(r.busCycles));
        j.endObject();
    }
    j.endArray();

    const Counters &c = counters;
    j.key("counters").beginObject();
    j.key("bus_cycles").value(c.busCycles);
    j.key("stepped_cycles").value(c.stepped);
    j.key("skipped_cycles").value(c.skipped);
    j.key("skips").value(c.skips);
    j.key("drain_ticks").value(c.drainTicks);
    j.key("reads").value(c.reads);
    j.key("writes").value(c.writes);
    j.key("rng_requests").value(c.rngRequests);
    j.key("rng_from_buffer").value(c.rngBuffer);
    j.key("rng_from_staging").value(c.rngStaging);
    j.key("reads_completed").value(c.readsCompleted);
    j.key("sum_read_latency").value(c.sumReadLat);
    j.key("sum_rng_latency").value(c.sumRngLat);
    j.key("instr").value(c.instr);
    j.key("rng_stall_cycles").value(c.rngStall);
    j.key("core_cycles").value(c.coreCycles);
    j.key("act").value(c.act);
    j.key("rd").value(c.rd);
    j.key("wr").value(c.wr);
    j.key("ref").value(c.ref);
    j.key("rng_rounds").value(c.rngRounds);
    j.key("cycles_active").value(c.cyclesActive);
    j.key("cycles_precharged").value(c.cyclesPrecharged);
    j.key("cycles_powered_down").value(c.cyclesPoweredDown);
    j.key("predictions").value(c.predictions);
    j.key("pred_correct").value(c.predCorrect);
    j.key("false_pos").value(c.falsePos);
    j.key("false_neg").value(c.falseNeg);
    j.key("buffer_overflow_bits").valueExact(c.overflowBits);
    j.key("rounds_audited").value(c.audited);
    j.key("rounds_discarded").value(c.discarded);
    j.key("blacklisted").value(c.blacklisted);
    j.key("remapped").value(c.remapped);
    j.key("corrupted_bits").value(c.corruptedBits);
    j.key("svc_offered").value(c.offered);
    j.key("svc_completed").value(c.completed);
    j.key("svc_shed").value(c.shed);
    j.key("svc_backlog").value(c.backlog);
    j.key("svc_max_backlog").value(c.maxBacklog);
    j.key("svc_over_slo").value(c.overSlo);
    j.key("svc_p50").value(c.latency.percentile(0.50));
    j.key("svc_p99").value(c.p99WithMisses());
    j.key("svc_p999").value(c.latency.percentile(0.999));
    j.key("trace_records").value(traceRecords);
    j.endObject();

    j.key("host").beginObject();
    j.key("ff_ms").valueExact(ffMs);
    j.key("step1_ms").valueExact(stepMs);
    j.key("replay_ms").valueExact(replayMs);
    j.key("audit_ns").valueExact(auditCostNs);
    j.key("next_ns").valueExact(nextCostNs);
    j.endObject();
    j.key("spans_file").value(spansPath);
    j.endObject();
    std::cout << j.str() << std::endl;
    return 0;
}
