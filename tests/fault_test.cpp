/**
 * @file
 * Tests for the deterministic fault-injection subsystem: golden seeded
 * fault streams per FaultRegistry key (pure-function corruption of the
 * synthetic audit blocks), FaultPlane determinism, health-monitor
 * blacklist convergence onto spares,
 * fault.* / service.shed config-text and builder wiring with eager
 * registry validation, shed-policy admission behaviour, DS_LOCKSTEP
 * bit-identity across all nine design presets with faults active, and
 * FaultReport / WorkloadResult JSON round trips.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "drstrange.h"
#include "fault/fault_plane.h"
#include "fault/fault_registry.h"
#include "service/shed_policy.h"
#include "sim/lockstep.h"

using namespace dstrange;

namespace {

fault::FaultConfig
faultedConfig(const std::string &models)
{
    fault::FaultConfig fc;
    fc.models = models;
    fc.cellsPerChannel = 16;
    fc.weakCells = 4;
    fc.stuckRows = 2;
    fc.spareCells = 8;
    return fc;
}

/** A service cell with fault injection underneath it. */
sim::SimConfig
faultyServiceConfig(const std::string &models, bool monitor = true)
{
    sim::SimConfig cfg;
    cfg.service.enabled = true;
    cfg.service.offeredMbps = 2560.0;
    cfg.service.durationCycles = 10000;
    cfg.service.sloTargetCycles = 500;
    cfg.fault.models = models;
    cfg.fault.monitor = monitor;
    return cfg;
}

workloads::WorkloadSpec
serviceSpec()
{
    workloads::WorkloadSpec spec;
    spec.name = "svc";
    spec.rngThroughputMbps = 0.0;
    return spec;
}

// ---------------------------------------------------------------------
// Registry and golden seeded fault streams.
// ---------------------------------------------------------------------

TEST(FaultRegistry, BuiltinsRegistered)
{
    auto &reg = fault::FaultRegistry::instance();
    for (const char *key :
         {"bitflip", "weak-cell", "stuck-row", "outage"})
        EXPECT_TRUE(reg.contains(key)) << key;
    const auto keys = reg.keys();
    EXPECT_GE(keys.size(), 4u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(FaultRegistry, UnknownKeyNamesRegisteredOnes)
{
    try {
        fault::FaultRegistry::instance().make("cosmic-ray",
                                              fault::FaultConfig{});
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cosmic-ray"), std::string::npos);
        EXPECT_NE(msg.find("bitflip"), std::string::npos);
        EXPECT_NE(msg.find("stuck-row"), std::string::npos);
    }
}

TEST(FaultRegistry, RejectsBadKeys)
{
    auto factory = [](const fault::FaultConfig &)
        -> std::unique_ptr<fault::FaultModel> { return nullptr; };
    auto &reg = fault::FaultRegistry::instance();
    EXPECT_THROW(reg.add("", factory), std::invalid_argument);
    EXPECT_THROW(reg.add("a,b", factory), std::invalid_argument);
    EXPECT_THROW(reg.add("has space", factory), std::invalid_argument);
    EXPECT_THROW(reg.add("bitflip", factory), std::invalid_argument);
}

TEST(FaultModels, HealthyBlockIsPureAndVaries)
{
    fault::RoundContext ctx;
    ctx.seed = 7;
    ctx.channel = 1;
    ctx.cell = 3;
    ctx.use = 11;
    const fault::AuditBlock a = fault::healthyBlock(ctx);
    EXPECT_EQ(a, fault::healthyBlock(ctx));
    ctx.use = 12;
    EXPECT_NE(a, fault::healthyBlock(ctx));
    ctx.use = 11;
    ctx.cell = 4;
    EXPECT_NE(a, fault::healthyBlock(ctx));
}

/** Same seed, same context -> bit-identical corruption, every model. */
TEST(FaultModels, GoldenStreamsAreDeterministic)
{
    const fault::FaultConfig fc = faultedConfig("unused");
    for (const char *key : {"bitflip", "weak-cell", "stuck-row"}) {
        auto m1 = fault::FaultRegistry::instance().make(key, fc);
        auto m2 = fault::FaultRegistry::instance().make(key, fc);
        for (std::uint64_t use = 0; use < 64; ++use) {
            fault::RoundContext ctx;
            ctx.seed = fc.seed;
            ctx.channel = 0;
            ctx.cell = 2;
            ctx.use = use;
            ctx.cls = key == std::string("stuck-row")
                          ? fault::CellClass::Stuck
                          : fault::CellClass::Weak;
            ctx.severity = fc.weakSeverity;
            fault::AuditBlock b1 = fault::healthyBlock(ctx);
            fault::AuditBlock b2 = b1;
            const std::uint64_t f1 = m1->corrupt(b1, ctx);
            const std::uint64_t f2 = m2->corrupt(b2, ctx);
            EXPECT_EQ(b1, b2) << key << " use " << use;
            EXPECT_EQ(f1, f2) << key << " use " << use;
        }
    }
}

TEST(FaultModels, BitflipFlipsSilently)
{
    fault::FaultConfig fc = faultedConfig("bitflip");
    fc.bitflipRate = 8.0; // dense enough to observe on a few rounds
    auto m = fault::FaultRegistry::instance().make("bitflip", fc);
    std::uint64_t total = 0;
    for (std::uint64_t use = 0; use < 32; ++use) {
        fault::RoundContext ctx;
        ctx.seed = fc.seed;
        ctx.cell = 1;
        ctx.use = use;
        fault::AuditBlock b = fault::healthyBlock(ctx);
        const fault::AuditBlock before = b;
        const std::uint64_t flips = m->corrupt(b, ctx);
        total += flips;
        // The reported flip count matches the actual Hamming distance.
        std::uint64_t hamming = 0;
        for (std::size_t i = 0; i < b.size(); ++i)
            hamming += static_cast<std::uint64_t>(std::popcount(
                static_cast<std::uint8_t>(b[i] ^ before[i])));
        EXPECT_EQ(flips, hamming);
    }
    EXPECT_GT(total, 0u);
}

TEST(FaultModels, StuckRowPinsTheBlock)
{
    const fault::FaultConfig fc = faultedConfig("stuck-row");
    auto m = fault::FaultRegistry::instance().make("stuck-row", fc);
    fault::RoundContext ctx;
    ctx.seed = fc.seed;
    ctx.cell = 5;
    ctx.cls = fault::CellClass::Stuck;
    fault::AuditBlock b = fault::healthyBlock(ctx);
    EXPECT_EQ(m->corrupt(b, ctx), 0u); // caught by audit, not silent
    // All bytes pinned to the same all-zeros/all-ones value.
    for (const std::uint8_t byte : b)
        EXPECT_EQ(byte, b[0]);
    EXPECT_TRUE(b[0] == 0x00 || b[0] == 0xff);
}

// ---------------------------------------------------------------------
// FaultPlane: determinism, blacklist convergence.
// ---------------------------------------------------------------------

TEST(FaultPlane, RoundStreamIsDeterministic)
{
    const fault::FaultConfig fc =
        faultedConfig("bitflip,weak-cell,stuck-row");
    fault::FaultPlane a(fc, 2), b(fc, 2);
    for (int i = 0; i < 2000; ++i) {
        const unsigned ch = static_cast<unsigned>(i % 2);
        EXPECT_EQ(a.onRound(ch, i % 3 == 0), b.onRound(ch, i % 3 == 0));
    }
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    const fault::FaultReport &r = a.stats();
    EXPECT_EQ(r.roundsDiscarded,
              r.discardsStuck + r.discardsWeak + r.discardsOther);
    EXPECT_GT(r.roundsAudited, 0u);
    EXPECT_GT(r.roundsDiscarded, 0u);
}

// Frozen stream: step-1 vs fast-forward comparisons run the same code
// twice, so a change to the block synthesis, the models or the audit
// that alters both alike would pass them. This literal pins the stream
// itself; it was captured before the word-level audit rewrite.
TEST(FaultPlane, RoundStreamMatchesFrozenGolden)
{
    fault::FaultConfig fc = faultedConfig("bitflip,weak-cell,stuck-row");
    fc.monitor = true;
    fault::FaultPlane plane(fc, 2);
    for (int i = 0; i < 20000; ++i)
        plane.onRound(static_cast<unsigned>(i % 2), (i / 2) % 2 == 0);
    EXPECT_EQ(plane.fingerprint(), "fault.audited=19932\n"
                                   "fault.discarded=68\n"
                                   "fault.corrupted=100370\n"
                                   "fault.blacklisted=15\n"
                                   "fault.state=3380a7cc9cf637b3\n");
}

TEST(FaultPlane, MonitorBlacklistsAndConverges)
{
    fault::FaultConfig fc = faultedConfig("weak-cell,stuck-row");
    fc.weakSeverity = 1; // weak cells always fail: fast convergence
    fault::FaultPlane plane(fc, 1);
    EXPECT_EQ(plane.faultyActive(0), fc.weakCells + fc.stuckRows);
    EXPECT_EQ(plane.sparesLeft(0), fc.spareCells);
    for (int i = 0; i < 20000 && plane.faultyActive(0) > 0; ++i)
        plane.onRound(0, false);
    // Every faulty cell ends up blacklisted and remapped to a spare.
    EXPECT_EQ(plane.faultyActive(0), 0u);
    const fault::FaultReport &r = plane.stats();
    EXPECT_EQ(r.blacklisted, fc.weakCells + fc.stuckRows);
    EXPECT_EQ(r.remapped, r.blacklisted); // spares covered them all
    EXPECT_EQ(plane.sparesLeft(0),
              fc.spareCells - static_cast<unsigned>(r.remapped));
    // A converged plane discards only via healthy false alarms.
    const std::uint64_t discarded = r.roundsDiscarded;
    const std::uint64_t other = r.discardsOther;
    for (int i = 0; i < 2000; ++i)
        plane.onRound(0, false);
    EXPECT_EQ(plane.stats().roundsDiscarded - discarded,
              plane.stats().discardsOther - other);
}

TEST(FaultPlane, MonitorOffNeverMitigates)
{
    fault::FaultConfig fc = faultedConfig("weak-cell,stuck-row");
    fc.monitor = false;
    fault::FaultPlane plane(fc, 1);
    for (int i = 0; i < 5000; ++i)
        plane.onRound(0, true);
    EXPECT_EQ(plane.stats().blacklisted, 0u);
    EXPECT_EQ(plane.stats().remapped, 0u);
    EXPECT_EQ(plane.faultyActive(0), fc.weakCells + fc.stuckRows);
    EXPECT_GT(plane.stats().roundsDiscarded, 0u);
}

TEST(FaultPlane, RetryLimitForcesBlacklistUnderDemand)
{
    fault::FaultConfig fc = faultedConfig("stuck-row");
    // An all-stuck pool: the rotation cannot reach a passing cell, so
    // only the retry escalation (consecutive discards while demand
    // waits) can recover the channel.
    fc.cellsPerChannel = 4;
    fc.stuckRows = 4;
    fc.blacklistThreshold = 1000000; // never via the failure counter
    // A passing round resets the consecutive-discard counter, so once
    // the first spare is swapped in, runs longer than 1 stop happening;
    // retryLimit=1 keeps the escalation deterministic.
    fc.retryLimit = 1;
    fault::FaultPlane plane(fc, 1);
    for (int i = 0; i < 5000 && plane.stats().forcedBlacklists <
                                    fc.stuckRows;
         ++i)
        plane.onRound(0, true); // demand waiting arms the escalation
    EXPECT_EQ(plane.stats().forcedBlacklists, fc.stuckRows);
    EXPECT_EQ(plane.faultyActive(0), 0u);
}

// ---------------------------------------------------------------------
// Config text, builder, and CLI-visible validation.
// ---------------------------------------------------------------------

TEST(FaultConfigText, RoundTripsThroughCanonicalText)
{
    sim::SimConfig cfg;
    cfg.fault.models = "bitflip,weak-cell";
    cfg.fault.seed = 99;
    cfg.fault.bitflipRate = 0.5;
    cfg.fault.cellsPerChannel = 32;
    cfg.fault.weakCells = 6;
    cfg.fault.weakSeverity = 2;
    cfg.fault.driftInterval = 500;
    cfg.fault.stuckRows = 3;
    cfg.fault.spareCells = 4;
    cfg.fault.blacklistThreshold = 5;
    cfg.fault.retryLimit = 2;
    cfg.fault.monitor = false;
    cfg.fault.outagePeriod = 4000;
    cfg.fault.outageDuration = 250;
    cfg.fault.outageScope = "rank";
    cfg.service.shed = "shed-tail";
    cfg.service.shedLimit = 64;
    const std::string text = sim::serializeConfig(cfg);
    sim::SimConfig back;
    sim::applyConfigText(back, text);
    EXPECT_EQ(sim::serializeConfig(back), text);
    EXPECT_EQ(back.fault.models, "bitflip,weak-cell");
    EXPECT_EQ(back.fault.seed, 99u);
    EXPECT_FALSE(back.fault.monitor);
    EXPECT_EQ(back.fault.outageScope, "rank");
    EXPECT_EQ(back.service.shed, "shed-tail");
    EXPECT_EQ(back.service.shedLimit, 64u);
}

TEST(FaultConfigText, InvalidKeysFailEagerlyNamingValidOnes)
{
    sim::SimConfig cfg;
    try {
        sim::applyConfigText(cfg, "fault.mdoels=bitflip");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("fault.mdoels"), std::string::npos);
        EXPECT_NE(msg.find("models"), std::string::npos);
        EXPECT_NE(msg.find("retry-limit"), std::string::npos);
    }
    // Unknown model / shed keys name the registered alternatives.
    try {
        sim::applyConfigText(cfg, "fault.models=bitflip,gamma-ray");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("gamma-ray"), std::string::npos);
        EXPECT_NE(msg.find("weak-cell"), std::string::npos);
    }
    try {
        sim::applyConfigText(cfg, "service.shed=shed-everything");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shed-everything"), std::string::npos);
        EXPECT_NE(msg.find("shed-tail"), std::string::npos);
    }
    EXPECT_THROW(sim::applyConfigText(cfg, "fault.outage-scope=bank"),
                 std::invalid_argument);
}

TEST(FaultBuilder, SettersValidateAndRoundTrip)
{
    sim::SimulationBuilder b;
    b.faultModels("bitflip,stuck-row")
        .faultSeed(7)
        .faultBitflipRate(0.1)
        .faultWeakCells(2)
        .faultStuckRows(1)
        .faultSpares(3)
        .faultMonitor(false)
        .faultOutagePeriod(1000)
        .faultOutageDuration(100)
        .faultOutageScope("rank")
        .serviceShedPolicy("shed-priority")
        .serviceShedLimit(32);
    EXPECT_EQ(b.config().fault.models, "bitflip,stuck-row");
    EXPECT_EQ(b.config().service.shed, "shed-priority");
    const std::string text = b.toText();
    EXPECT_EQ(sim::SimulationBuilder::fromText(text).toText(), text);

    EXPECT_THROW(sim::SimulationBuilder().faultModels("bitflip,nope"),
                 std::out_of_range);
    EXPECT_THROW(sim::SimulationBuilder().faultOutageScope("bank"),
                 std::out_of_range);
    EXPECT_THROW(sim::SimulationBuilder().serviceShedPolicy("nope"),
                 std::out_of_range);
}

// ---------------------------------------------------------------------
// Shed policies.
// ---------------------------------------------------------------------

TEST(ShedPolicy, BuiltinsRegisteredAndDeterministic)
{
    auto &reg = service::ShedRegistry::instance();
    for (const char *key : {"shed-none", "shed-tail", "shed-priority"})
        EXPECT_TRUE(reg.contains(key)) << key;
    EXPECT_THROW(reg.make("nope", service::ShedContext{}),
                 std::out_of_range);

    service::ShedContext ctx;
    ctx.seed = 42;
    ctx.limit = 16;
    for (const char *key : {"shed-none", "shed-tail", "shed-priority"}) {
        auto p1 = reg.make(key, ctx);
        auto p2 = reg.make(key, ctx);
        for (std::uint64_t i = 0; i < 200; ++i)
            EXPECT_EQ(p1->admit(i, i % 24), p2->admit(i, i % 24))
                << key << " arrival " << i;
    }
}

TEST(ShedPolicy, TailShedsOnlyAtTheLimit)
{
    service::ShedContext ctx;
    ctx.limit = 8;
    auto none = service::ShedRegistry::instance().make("shed-none", ctx);
    auto tail = service::ShedRegistry::instance().make("shed-tail", ctx);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(none->admit(i, 1000));
        EXPECT_TRUE(tail->admit(i, ctx.limit - 1));
        EXPECT_FALSE(tail->admit(i, ctx.limit));
    }
}

TEST(ShedPolicy, ServiceRunShedsUnderOverload)
{
    sim::SimConfig cfg;
    cfg.service.enabled = true;
    cfg.service.offeredMbps = 20480.0; // far past saturation
    cfg.service.durationCycles = 10000;
    cfg.service.sloTargetCycles = 500;
    cfg.service.shed = "shed-tail";
    sim::Runner runner(cfg);
    const auto shed_run = runner.run(cfg, serviceSpec());
    ASSERT_TRUE(shed_run.service.has_value());
    EXPECT_EQ(shed_run.service->shedPolicy, "shed-tail");
    EXPECT_GT(shed_run.service->shed, 0u);
    EXPECT_GT(shed_run.service->pctShed, 0.0);

    cfg.service.shed = "shed-none";
    const auto keep_run = runner.run(cfg, serviceSpec());
    ASSERT_TRUE(keep_run.service.has_value());
    EXPECT_EQ(keep_run.service->shed, 0u);
    // Shedding is graceful degradation: strictly better tail latency
    // than admitting everything into a diverging backlog.
    EXPECT_LT(shed_run.service->p99, keep_run.service->p99);
    EXPECT_LT(shed_run.service->maxBacklog, keep_run.service->maxBacklog);
}

// ---------------------------------------------------------------------
// End-to-end: Runner cells, lockstep across presets, JSON round trips.
// ---------------------------------------------------------------------

TEST(FaultRun, ReportsAndRerunsBitIdentically)
{
    const sim::SimConfig cfg =
        faultyServiceConfig("bitflip,weak-cell,stuck-row");
    sim::Runner runner(cfg);
    const auto a = runner.run(cfg, serviceSpec());
    ASSERT_TRUE(a.fault.has_value());
    EXPECT_EQ(a.fault->models, "bitflip,weak-cell,stuck-row");
    EXPECT_TRUE(a.fault->monitor);
    EXPECT_GT(a.fault->roundsAudited, 0u);
    const auto b = runner.run(cfg, serviceSpec());
    EXPECT_EQ(sim::serializeWorkloadResult(a),
              sim::serializeWorkloadResult(b));

    // A fault-free run omits the report entirely.
    const auto clean =
        runner.run(faultyServiceConfig(""), serviceSpec());
    EXPECT_FALSE(clean.fault.has_value());
}

TEST(FaultRun, MitigationBeatsNoMitigation)
{
    // Heavy enough load and fault population that unmitigated discards
    // visibly cost goodput (mirrors bench/fault_resilience).
    sim::SimConfig mit = faultyServiceConfig("weak-cell,stuck-row");
    mit.service.offeredMbps = 5120.0;
    mit.service.durationCycles = 20000;
    mit.fault.weakCells = 16;
    mit.fault.stuckRows = 4;
    sim::SimConfig nomit = mit;
    nomit.fault.monitor = false;
    sim::Runner runner(mit);
    const auto with = runner.run(mit, serviceSpec());
    const auto without = runner.run(nomit, serviceSpec());
    ASSERT_TRUE(with.service.has_value());
    ASSERT_TRUE(without.service.has_value());
    EXPECT_GT(with.service->goodputRps, without.service->goodputRps);
    EXPECT_LT(with.fault->roundsDiscarded,
              without.fault->roundsDiscarded);
    EXPECT_GT(with.fault->blacklisted, 0u);
    EXPECT_EQ(without.fault->blacklisted, 0u);
}

TEST(FaultLockstep, AllPresetsWithFaultsActive)
{
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "1");
#else
    setenv("DS_LOCKSTEP", "1", 1);
#endif
    // verifyLockstep (driven by the Runner) throws on any fast-forward
    // divergence; faults make every audit failure a span-ending event.
    for (sim::SystemDesign d : sim::kAllDesigns) {
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.service.enabled = true;
        cfg.service.offeredMbps = 1280.0;
        cfg.service.durationCycles = 6000;
        cfg.service.sloTargetCycles = 500;
        cfg.fault.models = "bitflip,weak-cell,stuck-row";
        cfg.fault.cellsPerChannel = 16;
        sim::Runner runner(cfg);
        EXPECT_NO_THROW(runner.run(cfg, serviceSpec()))
            << sim::designKey(d);
    }
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "");
#else
    unsetenv("DS_LOCKSTEP");
#endif
}

TEST(FaultLockstep, OutageDecoratorIsBitIdentical)
{
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "1");
#else
    setenv("DS_LOCKSTEP", "1", 1);
#endif
    for (const char *scope : {"channel", "rank"}) {
        sim::SimConfig cfg = faultyServiceConfig("outage");
        cfg.fault.outagePeriod = 2000;
        cfg.fault.outageDuration = 150;
        cfg.fault.outageScope = scope;
        sim::Runner runner(cfg);
        EXPECT_NO_THROW(runner.run(cfg, serviceSpec())) << scope;
    }
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "");
#else
    unsetenv("DS_LOCKSTEP");
#endif
}

TEST(FaultReportJson, RoundTripIsBitExact)
{
    const sim::SimConfig cfg =
        faultyServiceConfig("bitflip,weak-cell,stuck-row");
    sim::Runner runner(cfg);
    const auto res = runner.run(cfg, serviceSpec());
    ASSERT_TRUE(res.fault.has_value());

    JsonWriter w;
    res.fault->writeJson(w);
    const fault::FaultReport back =
        fault::FaultReport::fromJson(JsonValue::parse(w.str()));
    JsonWriter w2;
    back.writeJson(w2);
    EXPECT_EQ(w.str(), w2.str());
    EXPECT_EQ(back.roundsDiscarded, res.fault->roundsDiscarded);
    EXPECT_EQ(back.blacklisted, res.fault->blacklisted);

    // The WorkloadResult serialization carries the fault report too.
    const std::string text = sim::serializeWorkloadResult(res);
    const auto parsed = sim::parseWorkloadResult(text);
    ASSERT_TRUE(parsed.fault.has_value());
    EXPECT_EQ(sim::serializeWorkloadResult(parsed), text);
}

} // namespace
