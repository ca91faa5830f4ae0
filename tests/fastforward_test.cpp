/**
 * @file
 * Tests for the event-driven cycle-skipping simulation core: per-
 * component event-horizon units, fast-forward batching equivalence,
 * and full-system bit-identity between the step-1 and fast-forward
 * paths — across all nine design presets, both TRNG mechanisms, and
 * randomized configurations with mixed RNG/non-RNG workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "drstrange.h"
#include "dram/dram_channel.h"
#include "fault/fault_plane.h"
#include "mem/bliss.h"
#include "mem/fr_fcfs.h"
#include "mem/rng_aware.h"
#include "sim/lockstep.h"
#include "trng/rng_engine.h"

using namespace dstrange;

namespace {

// ---------------------------------------------------------------------
// Full-system bit-identity (the DS_LOCKSTEP invariant, driven directly).
// ---------------------------------------------------------------------

std::vector<std::unique_ptr<cpu::TraceSource>>
makeTraces(const sim::SimConfig &cfg, const std::string &app, double mbps)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    CoreId core = 0;
    if (!app.empty()) {
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(app), cfg.geometry, core++, cfg.seed));
    }
    if (mbps > 0.0) {
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            mbps, cfg.geometry, cfg.seed + core));
    }
    return traces;
}

/** Run to completion with or without fast-forward; full fingerprint. */
std::string
runFingerprint(const sim::SimConfig &cfg, const std::string &app,
               double mbps, bool fast_forward)
{
    sim::System sys(cfg, makeTraces(cfg, app, mbps));
    sys.setFastForward(fast_forward);
    sys.run();
    if (fast_forward) {
        // The fast path must actually have fast-forwarded something on
        // these workloads, or the test proves nothing.
        EXPECT_GT(sys.ffStats().skippedCycles, 0u);
    }
    return sim::systemFingerprint(sys);
}

void
expectBitIdentical(const sim::SimConfig &cfg, const std::string &app,
                   double mbps, const std::string &label)
{
    const std::string fast = runFingerprint(cfg, app, mbps, true);
    const std::string ref = runFingerprint(cfg, app, mbps, false);
    EXPECT_EQ(fast, ref) << label;
}

TEST(FastForwardLockstep, AllPresetsDualWorkload)
{
    for (sim::SystemDesign d : sim::kAllDesigns) {
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "mcf", 5120.0, sim::designKey(d));
    }
}

TEST(FastForwardLockstep, AllPresetsRngOnly)
{
    for (sim::SystemDesign d : sim::kAllDesigns) {
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "", 640.0, sim::designKey(d));
    }
}

TEST(FastForwardLockstep, AllPresetsNonRngOnly)
{
    for (sim::SystemDesign d : sim::kAllDesigns) {
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "gcc", 0.0, sim::designKey(d));
    }
}

TEST(FastForwardLockstep, QuacMechanismAndPartitions)
{
    for (sim::SystemDesign d :
         {sim::SystemDesign::RngOblivious, sim::SystemDesign::GreedyIdle,
          sim::SystemDesign::DrStrange}) {
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.instrBudget = 15000;
        cfg.mechanism = trng::TrngMechanism::quacTrng();
        cfg.bufferPartitions = 2;
        expectBitIdentical(cfg, "libq", 2560.0, sim::designKey(d));
    }
}

TEST(FastForwardLockstep, PrioritiesAndPowerDown)
{
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 15000;
    cfg.priorities = {5, 0};
    expectBitIdentical(cfg, "gcc", 1280.0, "non-RNG prioritized");

    cfg.priorities = {0, 5};
    expectBitIdentical(cfg, "gcc", 1280.0, "RNG prioritized");

    cfg.priorities.clear();
    cfg.powerDownThreshold = 200;
    expectBitIdentical(cfg, "gcc", 320.0, "power-down");
    expectBitIdentical(cfg, "sjeng", 0.0, "power-down non-RNG");
}

TEST(FastForwardLockstep, RandomizedConfigs)
{
    // Deterministically-seeded random sampling of the configuration
    // space: all presets, both mechanisms, varying buffers, budgets,
    // intensities, and seeds.
    Xoshiro256ss gen(0x5eedf00d);
    const char *apps[] = {"mcf", "gcc", "libq", "h264ref", "gamess"};
    const double mbps_choices[] = {0.0, 320.0, 1280.0, 5120.0, 10240.0};
    const unsigned buffers[] = {1, 4, 16, 64};
    for (unsigned trial = 0; trial < 10; ++trial) {
        const sim::SystemDesign d =
            sim::kAllDesigns[gen.next() % sim::kAllDesigns.size()];
        sim::SimConfig cfg = sim::designConfig(d);
        cfg.instrBudget = 8000 + gen.next() % 8000;
        cfg.seed = 1 + gen.next() % 1000;
        cfg.bufferEntries =
            buffers[gen.next() % std::size(buffers)];
        if (gen.next() % 2)
            cfg.mechanism = trng::TrngMechanism::quacTrng();
        if (gen.next() % 4 == 0)
            cfg.powerDownThreshold = 100 + gen.next() % 400;
        const std::string app = apps[gen.next() % std::size(apps)];
        const double mbps =
            mbps_choices[gen.next() % std::size(mbps_choices)];
        expectBitIdentical(
            cfg, app, mbps,
            std::string(sim::designKey(d)) + "/" + app + "/trial" +
                std::to_string(trial));
    }
}

TEST(FastForwardLockstep, SteppedInFineIncrementsMatchesRun)
{
    // step() with arbitrary increments (forcing span clamping at each
    // boundary) must land on the same state as run().
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 5000;

    sim::System whole(cfg, makeTraces(cfg, "gcc", 640.0));
    whole.run();

    sim::System pieces(cfg, makeTraces(cfg, "gcc", 640.0));
    while (!pieces.allFinished() &&
           pieces.busCycles() < whole.busCycles())
        pieces.step(7);
    // Align exactly (run() stops at the first all-finished check).
    if (pieces.busCycles() < whole.busCycles())
        pieces.step(whole.busCycles() - pieces.busCycles());
    EXPECT_EQ(sim::systemFingerprint(pieces),
              sim::systemFingerprint(whole));
}

TEST(FastForwardLockstep, RunnerMetricsIdentical)
{
    // End to end through the Runner: the derived paper metrics (not
    // just raw counters) must be bit-identical.
    auto metricsWith = [](bool ff) {
        sim::SimConfig base;
        base.instrBudget = 10000;
        sim::Runner runner(base);
        workloads::WorkloadSpec spec;
        spec.name = "mix";
        spec.apps = {"mcf"};
        spec.rngThroughputMbps = 5120.0;
        // Runner honors DS_FAST_FORWARD via System's constructor
        // default; override through the explicit setter path instead by
        // running the systems ourselves is covered above — here we set
        // the environment.
#ifdef _WIN32
        _putenv_s("DS_FAST_FORWARD", ff ? "1" : "0");
#else
        setenv("DS_FAST_FORWARD", ff ? "1" : "0", 1);
#endif
        const auto res = runner.run(sim::SystemDesign::DrStrange, spec);
#ifndef _WIN32
        unsetenv("DS_FAST_FORWARD");
#else
        _putenv_s("DS_FAST_FORWARD", "");
#endif
        return std::vector<double>{
            res.cores[0].slowdown,     res.cores[1].slowdown,
            res.cores[0].memSlowdown,  res.cores[1].memSlowdown,
            res.unfairnessIndex,       res.weightedSpeedupNonRng,
            res.bufferServeRate,       res.predictorAccuracy,
            static_cast<double>(res.busCycles), res.energyNj};
    };
    EXPECT_EQ(metricsWith(true), metricsWith(false));
}

// ---------------------------------------------------------------------
// Component event-horizon units.
// ---------------------------------------------------------------------

TEST(FastForwardHorizon, RngEngineSchedule)
{
    const trng::TrngMechanism mech = trng::TrngMechanism::dRange();
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);
    trng::RngEngine eng(mech, chan);

    // Idle: no self-scheduled event.
    EXPECT_EQ(eng.nextEventCycle(0), kNoEvent);

    // Switching in: the phase completes on the tick at phaseEnd - 1.
    eng.start(0);
    EXPECT_TRUE(eng.switchingIn());
    EXPECT_EQ(eng.nextEventCycle(0), mech.switchInLatency - 1);

    // Batched cycle counting matches per-cycle ticks.
    trng::RngEngine stepped(mech, chan);
    stepped.start(0);
    for (Cycle c = 0; c + 1 < mech.switchInLatency; ++c)
        EXPECT_EQ(stepped.tick(c), 0.0);
    eng.fastForward(0, mech.switchInLatency - 1);
    EXPECT_EQ(eng.totalOccupiedCycles(), stepped.totalOccupiedCycles());
    EXPECT_EQ(eng.switchingIn(), stepped.switchingIn());

    // The switch-in completion tick moves both into the first round.
    stepped.tick(mech.switchInLatency - 1);
    eng.fastForwardPhases(1);
    eng.fastForward(mech.switchInLatency - 1, mech.switchInLatency);
    EXPECT_TRUE(eng.inRound());
    EXPECT_TRUE(stepped.inRound());
    EXPECT_EQ(eng.phaseEndCycle(), stepped.phaseEndCycle());
    EXPECT_EQ(eng.nextEventCycle(mech.switchInLatency),
              mech.switchInLatency + mech.roundLatency - 1);
}

TEST(FastForwardHorizon, RngEngineParkedAndStopping)
{
    const trng::TrngMechanism mech = trng::TrngMechanism::dRange();
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);
    trng::RngEngine eng(mech, chan);

    eng.start(0);
    Cycle now = 0;
    while (!eng.inRound())
        eng.tick(now++);
    eng.requestPark();
    while (eng.inRound())
        eng.tick(now++);
    ASSERT_TRUE(eng.parked());
    // Parked without a stop: quiescent until told otherwise.
    EXPECT_EQ(eng.nextEventCycle(now), kNoEvent);
    eng.requestStop();
    // Parked with a stop pending: acts on the very next tick.
    EXPECT_EQ(eng.nextEventCycle(now), now);
}

TEST(FastForwardHorizon, DramChannelRefreshAndResidency)
{
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);

    // Fresh channel: the next self-scheduled event is the refresh edge.
    EXPECT_EQ(chan.nextEventCycle(0, false), timings.tREFI);

    // Batched residency equals per-cycle sampling.
    dram::DramChannel stepped(timings, geom);
    for (Cycle c = 0; c < 100; ++c)
        stepped.sampleState(c);
    chan.fastForwardState(0, 100);
    EXPECT_EQ(chan.energyCounters().cyclesPrecharged,
              stepped.energyCounters().cyclesPrecharged);
    EXPECT_EQ(chan.energyCounters().cyclesActive,
              stepped.energyCounters().cyclesActive);

    // With all banks closed the refresh edge issues REF immediately;
    // the next event is then the end of the tRFC window.
    dram::DramChannel refr(timings, geom);
    refr.tickRefresh(timings.tREFI);
    ASSERT_TRUE(refr.refreshBusy(timings.tREFI));
    EXPECT_EQ(refr.nextEventCycle(timings.tREFI, false),
              timings.tREFI + timings.tRFC);

    // With an open bank the refresh stages per-cycle precharges: the
    // channel reports per-cycle work (unless an active engine fences
    // it, in which case staging parks until the engine's own events).
    dram::DramChannel open(timings, geom);
    ASSERT_TRUE(open.canIssue(dram::DramCmd::Act, 0, 10));
    open.issue(dram::DramCmd::Act, 0, 10, /*row=*/7);
    open.tickRefresh(timings.tREFI);
    ASSERT_TRUE(open.refreshBusy(timings.tREFI));
    EXPECT_EQ(open.nextEventCycle(timings.tREFI, false), timings.tREFI);
    EXPECT_NE(open.nextEventCycle(timings.tREFI, true), timings.tREFI);
}

TEST(FastForwardHorizon, DramChannelEarliestIssueMatchesCanIssue)
{
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);

    ASSERT_TRUE(chan.canIssue(dram::DramCmd::Act, 0, 10));
    chan.issue(dram::DramCmd::Act, 0, 10, /*row=*/42);

    // The read becomes legal exactly at earliestIssueCycle, not before.
    const Cycle rd_at = chan.earliestIssueCycle(dram::DramCmd::Rd, 0);
    for (Cycle c = 11; c < rd_at; ++c)
        EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, c)) << c;
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Rd, 0, rd_at));

    // Same for a second activate on another bank (tRRD fence).
    const Cycle act_at = chan.earliestIssueCycle(dram::DramCmd::Act, 1);
    for (Cycle c = 11; c < act_at; ++c)
        EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 1, c)) << c;
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Act, 1, act_at));
}

TEST(FastForwardHorizon, SchedulerDefaultsAndBliss)
{
    // FR-FCFS never blocks skipping; BLISS's event is the clearing
    // interval; the base-class default is maximally conservative.
    mem::FrFcfsScheduler fr(1, 8, 16);
    EXPECT_EQ(fr.nextEventCycle(123), kNoEvent);

    mem::BlissScheduler bliss(1, 2, 4, 10000);
    EXPECT_EQ(bliss.nextEventCycle(123), 10000u);
    bliss.tick(10000);
    EXPECT_EQ(bliss.nextEventCycle(10001), 20000u);

    struct DefaultSched : mem::Scheduler
    {
        int pick(const mem::SchedContext &) override { return -1; }
        void onColumnIssued(const mem::Request &, unsigned) override {}
    } plain;
    EXPECT_EQ(plain.nextEventCycle(55), 55u);
}

TEST(FastForwardHorizon, RngAwarePolicyPeekAndFastForward)
{
    mem::RngAwarePolicy::Config pc;
    pc.stallLimit = 10;
    mem::RngAwarePolicy policy(1, 2, pc);
    mem::RequestQueue reads(8);
    mem::Request req;
    req.type = mem::ReqType::Read;
    req.core = 0;
    req.seq = 1;
    reads.push(req);
    std::deque<mem::RngJob> jobs;
    jobs.push_back(mem::RngJob{1, 0, 2, 0, 0.0});

    // Equal priorities charge the regular counter while choosing Rng.
    mem::RngAwarePolicy stepped(1, 2, pc);
    for (Cycle c = 0; c < 6; ++c) {
        EXPECT_EQ(stepped.peek(0, reads, jobs), mem::QueueChoice::Rng);
        EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Rng);
    }
    policy.fastForward(0, reads, jobs, 6);
    EXPECT_EQ(policy.maxStallObserved(), stepped.maxStallObserved());
    // Both predict the flip at the same cycle.
    EXPECT_EQ(policy.nextEventCycle(0, reads, jobs, 100),
              stepped.nextEventCycle(0, reads, jobs, 100));
    // And the flip actually happens there: 4 more charges, then Regular.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Rng);
    EXPECT_EQ(stepped.peek(0, reads, jobs), mem::QueueChoice::Regular);
    EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Regular);
}

TEST(FastForwardHorizon, SystemSkipsAndClampsToStep)
{
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 5000;
    sim::System sys(cfg, makeTraces(cfg, "", 320.0));
    ASSERT_TRUE(sys.fastForwardEnabled());

    // Advancing one cycle at a time never fast-forwards (the span is
    // clamped to the step boundary), yet stays bit-identical.
    sim::System fine(cfg, makeTraces(cfg, "", 320.0));
    for (unsigned i = 0; i < 500; ++i)
        fine.step(1);
    EXPECT_EQ(fine.ffStats().skips, 0u);
    EXPECT_EQ(fine.busCycles(), 500u);

    sys.run();
    EXPECT_GT(sys.ffStats().skips, 0u);
    EXPECT_GT(sys.ffStats().skippedCycles,
              sys.ffStats().steppedCycles);
}

/** Tick cycle of the next round completion of any generating engine
 *  (kNoEvent when no engine is in or switching into a round). */
Cycle
nextRoundCompletion(const mem::MemoryController &mc)
{
    Cycle next = kNoEvent;
    for (unsigned ch = 0; ch < mc.numChannels(); ++ch) {
        const trng::RngEngine &eng = mc.engine(ch);
        if (eng.inRound())
            next = std::min(next, eng.phaseEndCycle() - 1);
        else if (eng.switchingIn())
            next = std::min(next, eng.phaseEndCycle() +
                                      eng.mechanism().roundLatency - 1);
    }
    return next;
}

TEST(FastForwardHorizon, FaultAuditedRoundsEndEverySpan)
{
    // With a fault plane every round completion is an audit that must
    // run in a normal tick: no span may cross one, and each round the
    // channels complete is audited exactly once.
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 30000;
    cfg.fault.models = "bitflip,weak-cell,stuck-row";
    cfg.fault.monitor = true;
    for (const bool ff : {false, true}) {
        SCOPED_TRACE(ff ? "fast-forward" : "step-1");
        sim::System sys(cfg, makeTraces(cfg, "gcc", 5120.0));
        sys.setFastForward(ff);
        const fault::FaultPlane *plane = sys.mc().faultInjection();
        ASSERT_NE(plane, nullptr);
        unsigned violations = 0;
        while (!sys.allFinished() && sys.busCycles() < 400000) {
            const Cycle now = sys.busCycles();
            const Cycle horizon = sys.nextEventCycle();
            if (horizon > nextRoundCompletion(sys.mc()))
                ++violations;
            // Under fast-forward, jump straight to the horizon.
            sys.step(ff && horizon > now + 1 ? horizon - now : 1);
        }
        EXPECT_TRUE(sys.allFinished());
        EXPECT_EQ(violations, 0u);

        std::uint64_t rounds = 0;
        for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch)
            rounds += sys.mc().channel(ch).energyCounters().rngRounds;
        const fault::FaultReport &r = plane->stats();
        EXPECT_GT(r.roundsDiscarded, 0u);
        EXPECT_EQ(r.roundsAudited + r.roundsDiscarded, rounds);
        if (ff) {
            EXPECT_GT(sys.ffStats().skips, 0u);
        }
    }
}

TEST(FastForwardHorizon, DisabledMatchesLegacyStepping)
{
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 4000;
    sim::System sys(cfg, makeTraces(cfg, "gcc", 640.0));
    sys.setFastForward(false);
    sys.run();
    EXPECT_EQ(sys.ffStats().skips, 0u);
    EXPECT_EQ(sys.ffStats().skippedCycles, 0u);
    EXPECT_EQ(sys.ffStats().steppedCycles, sys.busCycles());
}

// ---------------------------------------------------------------------
// Production horizon: the closed form against the round-by-round walk.
// ---------------------------------------------------------------------

/**
 * The production walk that mem::productionEvent replaced, kept verbatim
 * (bar its signature) as the reference: merge the producers' rounds one
 * at a time and stop at the round that completes the front job or comes
 * at/one round before buffer-full. After @p maxSteps rounds it returns
 * the next round as a checkpoint (the controller capped it at 512).
 */
Cycle
walkProductionEvent(std::vector<mem::Producer> producerScratch,
                    std::optional<double> front, std::optional<double> buf,
                    unsigned maxSteps)
{
    const bool jobs = front.has_value();
    double collected = jobs ? *front : 0.0;
    double spare = 0.0;
    if (!jobs) {
        if (!buf)
            return kNoEvent;
        spare = *buf;
    }
    for (unsigned step = 0; step < maxSteps; ++step) {
        std::size_t best = producerScratch.size();
        for (std::size_t i = 0; i < producerScratch.size(); ++i) {
            if (best == producerScratch.size() ||
                producerScratch[i].next < producerScratch[best].next)
                best = i;
        }
        mem::Producer &p = producerScratch[best];
        if (p.next == kNoEvent)
            return kNoEvent; // Every one-shot producer consumed.
        if (jobs) {
            const double need = 64.0 - collected;
            const double take = std::min(need, p.bits);
            if (collected + take >= 64.0)
                return p.next; // The front job completes here.
            collected += take;
        } else if (buf) {
            if (2.0 * p.bits >= spare)
                return p.next; // At/one round before buffer-full.
            spare -= p.bits;
        }
        p.next = p.oneShot ? kNoEvent : p.next + p.period;
    }
    Cycle checkpoint = kNoEvent;
    for (const mem::Producer &p : producerScratch)
        checkpoint = std::min(checkpoint, p.next);
    return checkpoint;
}

TEST(ProductionHorizon, ClosedFormMatchesWalk)
{
    // 1-4 producers with periods 5/119 (equal and mixed), first rounds
    // up to three periods apart (switching-in engines), one-shot
    // producers, integral/fractional/mixed bits; every front-job fill
    // level 0-63 and spare buffer bits 0-1024 around the 2*bits edge.
    SplitMix64 rng(15);
    const std::vector<std::vector<double>> bit_sets = {
        {8.0}, {1.0}, {64.0}, {512.0}, {8.5}, {2.75}, {8.0, 512.0}};
    unsigned exact = 0, early = 0, checkpointed = 0, one_shot = 0;
    for (unsigned trial = 0; trial < 1500; ++trial) {
        const unsigned n = 1 + trial % 4;
        const std::vector<double> &bit_set = bit_sets[trial % 7];
        const unsigned period_mode = (trial / 7) % 3; // 5, 119, mixed.
        std::vector<mem::Producer> ps(n);
        bool uniform = true;
        for (unsigned i = 0; i < n; ++i) {
            mem::Producer &p = ps[i];
            p.period = period_mode == 0   ? 5
                       : period_mode == 1 ? 119
                       : (rng.next() & 1) ? 5 : 119;
            p.bits = bit_set[rng.next() % bit_set.size()];
            p.ch = i;
            p.oneShot = rng.next() % 4 == 0;
            p.next = 1000 + rng.next() % (3 * p.period + 2);
            uniform = uniform && p.period == ps[0].period &&
                      p.bits == ps[0].bits;
            one_shot += p.oneShot;
        }
        const bool integral =
            uniform && ps[0].bits == std::floor(ps[0].bits);

        const double b = ps[0].bits;
        std::vector<double> spares = {0.0, 2 * b - 1, 2 * b, 2 * b + 1,
                                      1023.0, 1024.0};
        for (unsigned i = 0; i < 8; ++i)
            spares.push_back(static_cast<double>(rng.next() % 1025));
        std::vector<std::pair<std::optional<double>, std::optional<double>>>
            cases;
        for (unsigned c = 0; c < 64; ++c)
            cases.emplace_back(static_cast<double>(c), std::nullopt);
        if (!integral)
            cases.emplace_back(63.25, std::nullopt);
        for (const double s : spares)
            if (s >= 0.0 && s <= 1024.0)
                cases.emplace_back(std::nullopt, s);

        for (const auto &[front, spare] : cases) {
            std::vector<mem::Producer> scratch = ps;
            const Cycle closed = mem::productionEvent(scratch, front, spare);
            const Cycle walk = walkProductionEvent(ps, front, spare, 1u << 20);
            const Cycle capped = walkProductionEvent(ps, front, spare, 512);
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << " front "
                         << front.value_or(-1) << " spare "
                         << spare.value_or(-1));
            if (integral) {
                // Equal to the walk below 512 rounds and to the
                // uncapped walk beyond, where the old code checkpointed.
                EXPECT_EQ(closed, walk);
                if (capped != walk) {
                    EXPECT_LT(capped, walk);
                    ++checkpointed;
                }
                ++exact;
            } else {
                EXPECT_LE(closed, walk) << "later than the walk";
                early += closed < walk;
            }
        }
    }
    EXPECT_GT(exact, 10000u);
    EXPECT_GT(early, 0u);
    EXPECT_GT(checkpointed, 0u);
    EXPECT_GT(one_shot, 100u);
}

TEST(ProductionHorizon, NoTargetOrProducerMeansNoEvent)
{
    std::vector<mem::Producer> ps = {{10, 5, 8.0, 0, false}};
    EXPECT_EQ(mem::productionEvent(ps, std::nullopt, std::nullopt),
              kNoEvent);
    std::vector<mem::Producer> none;
    EXPECT_EQ(mem::productionEvent(none, 0.0, std::nullopt), kNoEvent);
    // Two one-shot rounds cannot complete a job needing three.
    const std::vector<mem::Producer> once = {{10, 5, 8.0, 0, true},
                                             {12, 5, 8.0, 1, true}};
    ps = once;
    EXPECT_EQ(mem::productionEvent(ps, 40.0, std::nullopt), kNoEvent);
    ps = once;
    EXPECT_EQ(mem::productionEvent(ps, 48.0, std::nullopt), 12u);
    // Zero-bit rounds against a full buffer: the walk's first round.
    ps = {{10, 5, 0.0, 0, false}};
    EXPECT_EQ(mem::productionEvent(ps, std::nullopt, 0.0), 10u);
}

TEST(FastForwardHorizon, ProbeCountRepeatsAndBoundsSkips)
{
    sim::SimConfig cfg = sim::designConfig(sim::SystemDesign::DrStrange);
    cfg.instrBudget = 20000;
    std::vector<sim::System::FfStats> runs;
    for (unsigned i = 0; i < 2; ++i) {
        sim::System sys(cfg, makeTraces(cfg, "gcc", 5120.0));
        sys.run();
        runs.push_back(sys.ffStats());
    }
    EXPECT_EQ(runs[0].probes, runs[1].probes);
    EXPECT_EQ(runs[0].skips, runs[1].skips);
    EXPECT_GT(runs[0].skips, 0u);
    EXPECT_LE(runs[0].skips, runs[0].probes);
}

} // namespace
