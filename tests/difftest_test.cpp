/**
 * @file
 * Randomized differential-testing harness for the three time-advance
 * strategies: step-1 (every bus cycle ticked), fast-forward (event
 * horizons + span skips), and batch mode (fast-forward + batched
 * command retirement / controller-only drains). For every randomly
 * drawn configuration and workload the three runs must produce
 * bit-identical full-statistics fingerprints (the DS_LOCKSTEP
 * invariant, extended to the batch path).
 *
 * The draw space covers the full policy cross product the simulator
 * exposes: the nine design presets x scheduler / predictor overrides x
 * multi-rank geometries x address mappings x both memory backends x
 * the open-loop service layer x fault-injection knobs x mechanisms,
 * buffer shapes, priorities and power-down.
 *
 * Reproducing a failure: every mismatch prints the master seed, the
 * config index, and the canonical config text (sim/config_text.h),
 * plus the workload and a redundant service/fault summary for
 * readability. Re-running with DS_DIFFTEST_SEED=<seed> regenerates
 * the identical sequence; see docs/testing.md.
 *
 * Budget: DS_DIFFTEST_CONFIGS (default 120) random configurations,
 * time-boxed by DS_DIFFTEST_SECONDS (default 60) — the loop stops
 * early once the box is exceeded, after a minimum of 16 configs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env_util.h"
#include "common/rng.h"
#include "drstrange.h"
#include "sim/lockstep.h"

using namespace dstrange;

namespace {

/** Deterministic draw helper over SplitMix64. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : gen(seed) {}

    /** Uniform integer in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return gen.next() % n;
    }

    /** true with probability num/den. */
    bool
    chance(unsigned num, unsigned den)
    {
        return below(den) < num;
    }

    template <typename T>
    T
    pick(const std::vector<T> &options)
    {
        return options[static_cast<std::size_t>(below(options.size()))];
    }

  private:
    SplitMix64 gen;
};

/** One randomly drawn scenario: a configuration plus its workload. */
struct Scenario
{
    sim::SimConfig cfg;
    std::vector<std::string> apps; ///< Non-RNG synthetic traces.
    double rngMbps = 0.0;          ///< RNG benchmark rate (0 = none).
};

Scenario
drawScenario(std::uint64_t seed)
{
    Draw d(seed);
    Scenario s;
    sim::SimConfig &cfg = s.cfg;

    // Design preset, then orthogonal-knob overrides on top of it — the
    // construction path composes knobs, so overridden presets are valid
    // configurations in their own right.
    sim::applyDesign(cfg,
                     sim::kAllDesigns[d.below(sim::kAllDesigns.size())]);
    if (d.chance(1, 4))
        cfg.scheduler =
            d.pick<std::string>({"fr-fcfs", "fr-fcfs-cap", "bliss"});
    if (d.chance(1, 4))
        cfg.predictor = d.pick<std::string>({"none", "simple", "rl"});

    cfg.geometry.channels = d.pick<unsigned>({1, 2, 4});
    cfg.geometry.ranksPerChannel = d.pick<unsigned>({1, 1, 2});
    cfg.addressMapping = d.pick<std::string>(
        {"row-bank-col-ch", "row-bank-col-rank-ch", "permute-bank"});
    cfg.backend = d.chance(1, 4) ? "fixed-latency" : "ddr4";

    if (d.chance(1, 3))
        cfg.mechanism = *trng::TrngMechanism::byName(
            d.chance(1, 2) ? "quac" : "drange");
    cfg.bufferEntries = d.pick<unsigned>({4, 8, 16, 32});
    cfg.bufferPartitions = d.chance(1, 4) ? 2 : 0;
    if (d.chance(1, 8))
        cfg.powerDownThreshold = 200;

    // Small budgets keep each run in the low milliseconds; the safety
    // bound caps configurations that retire slowly.
    cfg.instrBudget = 1500 + d.below(5) * 1200;
    cfg.maxBusCycles = 400'000;
    cfg.seed = seed ^ 0x5eedU;

    // Workload: up to two synthetic applications plus an optional RNG
    // benchmark core.
    const auto &table = workloads::appTable();
    const unsigned n_apps = static_cast<unsigned>(d.below(3));
    for (unsigned i = 0; i < n_apps; ++i)
        s.apps.push_back(table[d.below(table.size())].name);
    if (d.chance(3, 5))
        s.rngMbps = d.pick<double>({320.0, 1280.0, 5120.0});

    // Open-loop service layer on its own port.
    if (d.chance(1, 4)) {
        cfg.service.enabled = true;
        cfg.service.arrival = d.pick<std::string>(
            {"poisson", "bursty", "diurnal", "closed-loop"});
        cfg.service.shed = d.pick<std::string>(
            {"shed-none", "shed-tail", "shed-priority"});
        cfg.service.offeredMbps = d.pick<double>({640.0, 5120.0});
        cfg.service.durationCycles = 4000 + d.below(4) * 4000;
        cfg.service.sloTargetCycles = 500;
    }

    // Fault injection.
    if (d.chance(1, 4)) {
        cfg.fault.models = d.pick<std::string>(
            {"bitflip", "bitflip,weak-cell", "weak-cell,stuck-row",
             "weak-cell,stuck-row,outage"});
        cfg.fault.seed = seed ^ 0xfau;
        cfg.fault.cellsPerChannel = 16;
        cfg.fault.weakCells = 4;
        cfg.fault.stuckRows = 1;
        cfg.fault.blacklistThreshold = 2;
        cfg.fault.monitor = d.chance(3, 4);
        if (d.chance(1, 2))
            cfg.fault.driftInterval = 40;
        if (cfg.fault.models.find("outage") != std::string::npos) {
            cfg.fault.outagePeriod = 6000;
            cfg.fault.outageDuration = 400;
            cfg.fault.outageScope =
                d.chance(1, 2) ? "channel" : "rank";
        }
    }

    // A System needs at least one request source.
    if (s.apps.empty() && s.rngMbps == 0.0 && !cfg.service.enabled)
        s.rngMbps = 1280.0;

    // Priorities over all cores (RNG core occupies the last slot).
    const unsigned n_cores =
        static_cast<unsigned>(s.apps.size()) + (s.rngMbps > 0.0 ? 1 : 0);
    if (n_cores > 0 && d.chance(1, 3)) {
        for (unsigned i = 0; i < n_cores; ++i)
            cfg.priorities.push_back(static_cast<int>(d.below(3)));
    }
    return s;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
makeTraces(const Scenario &s)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    CoreId core = 0;
    for (const std::string &app : s.apps) {
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(app), s.cfg.geometry, core++,
            s.cfg.seed));
    }
    if (s.rngMbps > 0.0) {
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            s.rngMbps, s.cfg.geometry, s.cfg.seed + core));
    }
    return traces;
}

enum class Mode
{
    Step1, ///< Every bus cycle ticked.
    Ff,    ///< Fast-forward on, batch mode off.
    Batch, ///< Fast-forward + batched command retirement.
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Step1: return "step-1";
      case Mode::Ff:    return "fast-forward";
      case Mode::Batch: return "batch";
    }
    return "?";
}

std::string
runFingerprint(const Scenario &s, Mode mode)
{
    sim::System sys(s.cfg, makeTraces(s));
    sys.setFastForward(mode != Mode::Step1);
    sys.setBatchMode(mode == Mode::Batch);
    sys.run();
    return sim::systemFingerprint(sys);
}

/** First differing fingerprint line, for the failure message. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "(no differing line?)";
        if (!ga || !gb || la != lb)
            return (ga ? la : "(end)") + "  vs  " + (gb ? lb : "(end)");
    }
}

/** Everything needed to reproduce one scenario outside the harness. */
std::string
reproText(const Scenario &s, std::uint64_t master_seed,
          std::uint64_t index)
{
    std::ostringstream os;
    os << "master-seed=" << master_seed << " config-index=" << index
       << "\nconfig-text: " << sim::serializeConfig(s.cfg) << "\napps:";
    for (const std::string &a : s.apps)
        os << ' ' << a;
    os << " rng-mbps=" << s.rngMbps;
    if (s.cfg.service.enabled) {
        os << "\nservice: arrival=" << s.cfg.service.arrival
           << " shed=" << s.cfg.service.shed
           << " offered-mbps=" << s.cfg.service.offeredMbps
           << " duration=" << s.cfg.service.durationCycles;
    }
    if (s.cfg.fault.enabled()) {
        os << "\nfault: models=" << s.cfg.fault.models
           << " seed=" << s.cfg.fault.seed
           << " monitor=" << s.cfg.fault.monitor
           << " drift=" << s.cfg.fault.driftInterval
           << " outage=" << s.cfg.fault.outagePeriod << '/'
           << s.cfg.fault.outageDuration << '/'
           << s.cfg.fault.outageScope;
    }
    return os.str();
}

TEST(DiffTest, RandomizedThreeWayLockstep)
{
    const std::uint64_t master_seed = envU64("DS_DIFFTEST_SEED", 2022);
    const std::uint64_t n_configs = envU64("DS_DIFFTEST_CONFIGS", 120);
    const std::uint64_t budget_s = envU64("DS_DIFFTEST_SECONDS", 60);
    constexpr std::uint64_t kMinConfigs = 16;

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < n_configs; ++i) {
        const auto elapsed = std::chrono::duration_cast<
            std::chrono::seconds>(std::chrono::steady_clock::now() -
                                  start);
        if (i >= kMinConfigs &&
            elapsed.count() >= static_cast<std::int64_t>(budget_s)) {
            std::printf("[difftest] time box (%llus) reached after %llu "
                        "configs\n",
                        (unsigned long long)budget_s,
                        (unsigned long long)i);
            break;
        }

        const Scenario s = drawScenario(mix64(master_seed + i));
        const std::string ref = runFingerprint(s, Mode::Step1);
        for (const Mode mode : {Mode::Ff, Mode::Batch}) {
            const std::string got = runFingerprint(s, mode);
            ASSERT_EQ(got, ref)
                << "mode " << modeName(mode)
                << " diverges from step-1\nfirst diff: "
                << firstDiff(got, ref) << '\n'
                << reproText(s, master_seed, i);
        }
        ++ran;
    }
    std::printf("[difftest] %llu configs, 3 runs each, bit-identical\n",
                (unsigned long long)ran);
}

/** Three-way fingerprint identity for one fixed scenario. */
void
expectThreeWayIdentical(const Scenario &s, const char *what)
{
    const std::string ref = runFingerprint(s, Mode::Step1);
    for (const Mode mode : {Mode::Ff, Mode::Batch}) {
        const std::string got = runFingerprint(s, mode);
        ASSERT_EQ(got, ref) << what << ": mode " << modeName(mode)
                            << " diverges\nfirst diff: "
                            << firstDiff(got, ref);
    }
}

/**
 * BLISS forced-choice under blacklisting: batch mode memoizes the
 * scheduler's forced picks, and BLISS reorders around blacklisted
 * requestors — the combination must still match the step-1 command
 * stream while the fault monitor is simultaneously retiring cells.
 */
TEST(DiffTestEdge, BlissForcedChoiceUnderBlacklisting)
{
    Scenario s;
    sim::applyDesign(s.cfg, sim::SystemDesign::BlissBaseline);
    s.cfg.scheduler = "bliss";
    s.cfg.fault.models = "bitflip,weak-cell";
    s.cfg.fault.cellsPerChannel = 16;
    s.cfg.fault.weakCells = 6;
    s.cfg.fault.blacklistThreshold = 2;
    s.cfg.fault.monitor = true;
    s.cfg.instrBudget = 6000;
    s.apps = {"mcf", "lbm"};
    s.rngMbps = 5120.0;
    expectThreeWayIdentical(s, "bliss+blacklist");

    sim::System sys(s.cfg, makeTraces(s));
    sys.setFastForward(true);
    sys.setBatchMode(true);
    sys.run();
    EXPECT_GT(sys.ffStats().drainTicks, 0u)
        << "scenario never entered the batch drain";
    ASSERT_NE(sys.mc().faultInjection(), nullptr);
    EXPECT_GT(sys.mc().faultInjection()->stats().blacklisted, 0u)
        << "monitor never blacklisted a cell; forced-choice path unhit";
}

/**
 * Batch aborts at timing fences: a two-rank DDR4 system under a
 * DR-STRaNGe design crosses refresh, tFAW, and rank-to-rank (tRTRS)
 * boundaries as well as RNG-priority fences. Every such boundary must
 * end a batched span at exactly the cycle step-1 would have stalled.
 */
TEST(DiffTestEdge, BatchAbortAtTimingBoundaries)
{
    Scenario s;
    sim::applyDesign(s.cfg, sim::SystemDesign::DrStrange);
    s.cfg.geometry.channels = 2;
    s.cfg.geometry.ranksPerChannel = 2;
    s.cfg.addressMapping = "row-bank-col-rank-ch";
    s.cfg.instrBudget = 8000;
    s.apps = {"ycsb0", "lbm"};
    s.rngMbps = 5120.0;
    expectThreeWayIdentical(s, "timing-fences");

    sim::System sys(s.cfg, makeTraces(s));
    sys.setFastForward(true);
    sys.setBatchMode(true);
    sys.run();
    // Refresh/tFAW/tRTRS stalls force the drain to re-tick: both
    // drained and normally-stepped cycles must appear.
    EXPECT_GT(sys.ffStats().drainTicks, 0u);
    EXPECT_GT(sys.ffStats().steppedCycles, 0u);
}

/**
 * Fault-plane use-count parity: the plane's rotation state (cell use
 * counts, pool pointer, spares) feeds future audit outcomes, so a
 * single use-count divergence between replayed and ticked rounds would
 * silently corrupt every later draw. Compare the plane fingerprint —
 * not just top-level stats — across all three modes.
 */
TEST(DiffTestEdge, FaultPlaneUseCountParity)
{
    Scenario s;
    sim::applyDesign(s.cfg, sim::SystemDesign::DrStrange);
    s.cfg.fault.models = "bitflip,weak-cell,stuck-row";
    s.cfg.fault.cellsPerChannel = 24;
    s.cfg.fault.weakCells = 8;
    s.cfg.fault.stuckRows = 2;
    s.cfg.fault.driftInterval = 64;
    s.cfg.instrBudget = 5000;
    s.rngMbps = 5120.0;

    std::string ref;
    for (const Mode mode : {Mode::Step1, Mode::Ff, Mode::Batch}) {
        sim::System sys(s.cfg, makeTraces(s));
        sys.setFastForward(mode != Mode::Step1);
        sys.setBatchMode(mode == Mode::Batch);
        sys.run();
        ASSERT_NE(sys.mc().faultInjection(), nullptr);
        const std::string fp = sys.mc().faultInjection()->fingerprint();
        if (mode == Mode::Step1)
            ref = fp;
        else
            EXPECT_EQ(fp, ref) << "fault-plane state diverged in "
                               << modeName(mode) << " mode";
    }
}

/**
 * Horizon caches across outage edges: outage windows flip channel
 * availability, which must invalidate the controller's memoized issue
 * horizons at both edges. A run spanning several outage periods must
 * stay bit-identical and still skip spans.
 */
TEST(DiffTestEdge, HorizonCacheAcrossOutageEdges)
{
    Scenario s;
    sim::applyDesign(s.cfg, sim::SystemDesign::DrStrange);
    s.cfg.fault.models = "outage";
    s.cfg.fault.outagePeriod = 150;
    s.cfg.fault.outageDuration = 40;
    s.cfg.fault.outageScope = "channel";
    s.cfg.instrBudget = 6000;
    s.apps = {"ycsb3"};
    s.rngMbps = 1280.0;
    expectThreeWayIdentical(s, "outage-edges");

    sim::System sys(s.cfg, makeTraces(s));
    sys.setFastForward(true);
    sys.setBatchMode(true);
    sys.run();
    // The run must be long enough to cross several outage edges and the
    // fast path must still find skippable spans between them.
    EXPECT_GT(sys.busCycles(), 2 * s.cfg.fault.outagePeriod);
    EXPECT_GT(sys.ffStats().skippedCycles, 0u);
}

/**
 * A fixed spot-check that the scenario generator actually exercises
 * the batch drain: across the first configs at the default seed, batch
 * mode must take controller-only drain ticks somewhere (otherwise the
 * harness compares three identical step paths and proves nothing).
 */
TEST(DiffTest, GeneratorExercisesBatchDrain)
{
    std::uint64_t drain_ticks = 0;
    std::uint64_t skipped = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const Scenario s = drawScenario(mix64(2022 + i));
        sim::System sys(s.cfg, makeTraces(s));
        sys.setFastForward(true);
        sys.setBatchMode(true);
        sys.run();
        drain_ticks += sys.ffStats().drainTicks;
        skipped += sys.ffStats().skippedCycles;
    }
    EXPECT_GT(drain_ticks, 0u);
    EXPECT_GT(skipped, 0u);
}

} // namespace
