#include "mem/memory_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dram/mapping_registry.h"
#include "fault/fault_plane.h"
#include "fault/faulty_backend.h"
#include "mem/backend_registry.h"
#include "mem/scheduler_registry.h"
#include "strange/predictor_registry.h"

namespace dstrange::mem {

FillMode
fillModeFromName(const std::string &name)
{
    if (name == "none")
        return FillMode::None;
    if (name == "greedy-oracle")
        return FillMode::GreedyOracle;
    if (name == "engine")
        return FillMode::Engine;
    throw std::out_of_range(
        "unknown fill mode '" + name +
        "' (known: none, greedy-oracle, engine)");
}

FillPlacement
fillPlacementFromName(const std::string &name)
{
    if (name == "first-idle")
        return FillPlacement::FirstIdle;
    if (name == "round-robin")
        return FillPlacement::RoundRobin;
    throw std::out_of_range("unknown fill placement '" + name +
                            "' (known: first-idle, round-robin)");
}

std::vector<std::string>
fillPlacementNames()
{
    return {"first-idle", "round-robin"};
}

MemoryController::MemoryController(const McConfig &config,
                                   const dram::DramTimings &timings,
                                   const dram::DramGeometry &geometry,
                                   const trng::TrngMechanism &mechanism,
                                   unsigned num_cores)
    : cfg(config),
      mapper(dram::MappingRegistry::instance().make(config.addressMapping,
                                                    geometry)),
      mech(mechanism),
      fillMech(config.fillMechanism.value_or(mechanism)),
      numCores(num_cores),
      writeSched(geometry.channels, geometry.banksPerChannel(), /*cap=*/0)
{
    assert(timingsAreConsistent(timings));

    const BackendContext bctx{timings, geometry, cfg};
    for (unsigned ch = 0; ch < geometry.channels; ++ch) {
        auto backend = BackendRegistry::instance().make(cfg.backend, bctx);
        // Outage injection decorates the timing model, so it composes
        // with any registered backend; the engine and every controller
        // path see the decorator's overlaid availability.
        if (fault::hasOutageModel(cfg.fault))
            backend = std::make_unique<fault::FaultyBackend>(
                std::move(backend), cfg.fault, ch);
        chans.push_back(std::move(backend));
        chans.back()->setPowerDownPolicy(cfg.powerDownThreshold);
        engines.push_back(std::make_unique<trng::RngEngine>(
            mech, fillMech, *chans.back()));
    }

    if (fault::hasCellModels(cfg.fault))
        faultPlane = std::make_unique<fault::FaultPlane>(
            cfg.fault, geometry.channels);

    perChan.resize(geometry.channels);
    for (unsigned ch = 0; ch < geometry.channels; ++ch) {
        ChannelState &cs = perChan[ch];
        cs.readQ = std::make_unique<RequestQueue>(cfg.readQueueCap);
        cs.writeQ = std::make_unique<RequestQueue>(cfg.writeQueueCap);
        // Completion lists never outgrow the queues feeding them by
        // much; pre-sizing keeps the per-cycle loop allocation-free.
        cs.inflightReads.reserve(cfg.readQueueCap + 8);
        cs.inflightDone.reserve(cfg.readQueueCap + 8);
        if (cfg.fill == FillMode::Engine) {
            strange::PredictorContext pctx;
            pctx.channel = ch;
            pctx.tableEntries = cfg.predictorEntries;
            pctx.periodThreshold = cfg.periodThreshold;
            pctx.rlConfig = cfg.rlConfig;
            cs.predictor = strange::PredictorRegistry::instance().make(
                cfg.predictor, pctx);
        }
        // Channels start empty, i.e. idle from cycle 0; the first fill
        // prediction is made lazily by manageEngine().
        cs.idleActive = true;
    }

    const SchedulerContext sctx{geometry.channels,
                                geometry.banksPerChannel(), num_cores,
                                cfg};
    readSched = SchedulerRegistry::instance().make(cfg.scheduler, sctx);

    if (cfg.rngAwareQueueing) {
        RngAwarePolicy::Config pc;
        pc.stallLimit = cfg.stallLimit;
        rngPolicy = std::make_unique<RngAwarePolicy>(geometry.channels,
                                                     num_cores, pc);
    }

    if (cfg.bufferEntries > 0) {
        buf = std::make_unique<strange::BufferSet>(cfg.bufferEntries,
                                                   cfg.bufferPartitions);
    }

    pendingBufferServes.reserve(4 * static_cast<std::size_t>(num_cores));
    pendingBufferServeDone.reserve(
        4 * static_cast<std::size_t>(num_cores));

    horizonCache.resize(geometry.channels);
}

MemoryController::~MemoryController() = default;

void
MemoryController::setCompletionCallback(CompletionCallback cb)
{
    onComplete = std::move(cb);
}

void
MemoryController::setPriority(CoreId core, int priority)
{
    if (rngPolicy)
        rngPolicy->setPriority(core, priority);
}

unsigned
MemoryController::occupancy(const ChannelState &cs) const
{
    return static_cast<unsigned>(cs.readQ->size() + cs.writeQ->size());
}

bool
MemoryController::enqueue(Request req, Cycle now)
{
    req.arrival = now;
    const bool accepted = enqueueAccept(req, now);
    // The sink sees exactly the accepted-request stream: rejected
    // requests are retried by the issuer and recorded on the cycle the
    // retry succeeds, which is the cycle that shaped controller state.
    if (accepted && traceSink)
        traceSink(req, now);
    return accepted;
}

bool
MemoryController::enqueueAccept(Request &req, Cycle now)
{
    if (req.type == ReqType::Rng) {
        if (rngPolicy)
            rngPolicy->markRngApp(req.core);
        if (buf && buf->canServe64(req.core)) {
            buf->serve64(req.core);
            statistics.rngRequests++;
            statistics.rngServedFromBuffer++;
            statistics.sumRngLatency += cfg.bufferServeLatency;
            RngJob job{req.core, now, nextSeq++, req.token, 64.0,
                       ServePath::Buffer};
            pendingBufferServes.push_back(job);
            pendingBufferServeDone.push_back(now + cfg.bufferServeLatency);
            return true;
        }
        if (stagingBits >= 64.0) {
            // Leftover bits of an earlier demand round cover the request.
            stagingBits -= 64.0;
            statistics.rngRequests++;
            statistics.rngServedFromStaging++;
            statistics.sumRngLatency += cfg.bufferServeLatency;
            RngJob job{req.core, now, nextSeq++, req.token, 64.0,
                       ServePath::Staging};
            pendingBufferServes.push_back(job);
            pendingBufferServeDone.push_back(now + cfg.bufferServeLatency);
            return true;
        }
        if (rngJobs.size() >= cfg.rngQueueCap)
            return false;
        statistics.rngRequests++;
        RngJob job{req.core, now, nextSeq++, req.token, 0.0};
        // Start the job with whatever partial bits are staged.
        job.bitsCollected = stagingBits;
        stagingBits = 0.0;
        rngJobs.push_back(job);
        return true;
    }

    req.coord = mapper->decode(req.addr);
    ChannelState &cs = perChan[req.coord.channel];
    RequestQueue &q =
        req.type == ReqType::Write ? *cs.writeQ : *cs.readQ;
    if (q.full())
        return false;
    req.seq = nextSeq++;
    q.push(req);
    if (req.type == ReqType::Read)
        statistics.readRequests++;
    else
        statistics.writeRequests++;

    // The arrival ends any idle/quiet period; the predictor trains with
    // the *previous* last-accessed address, then the address updates.
    updateIdleState(req.coord.channel, now);
    cs.lastAddr = req.addr;
    return true;
}

void
MemoryController::updateIdleState(unsigned ch, Cycle now)
{
    ChannelState &cs = perChan[ch];
    const unsigned occ = occupancy(cs);

    const bool idle_now = occ == 0;
    if (idle_now && !cs.idleActive) {
        cs.idleActive = true;
        cs.idleStart = now;
        cs.predictionCached = false;
        cs.predictedLong = false;
    } else if (!idle_now && cs.idleActive) {
        // The period ends at the first arrival: record its length for
        // the Fig. 5/18 distributions and train the predictor with the
        // previous last-accessed address (Section 5.1.2).
        cs.idleActive = false;
        const Cycle len = now - cs.idleStart;
        if (len > 0 && cs.idleLengths.size() < kMaxIdleSamples)
            cs.idleLengths.push_back(static_cast<std::uint32_t>(len));
        if (cs.predictor)
            cs.predictor->periodEnded(cs.lastAddr, len);
    }

}

void
MemoryController::routeBits(double bits, Cycle now)
{
    while (bits > 0.0 && !rngJobs.empty()) {
        RngJob &job = rngJobs.front();
        const double need = 64.0 - job.bitsCollected;
        const double take = std::min(need, bits);
        job.bitsCollected += take;
        bits -= take;
        if (job.done()) {
            statistics.rngJobsCompleted++;
            statistics.sumRngLatency += now - job.arrival;
            if (onComplete)
                onComplete(job.core, job.token, ReqType::Rng, job.path);
            rngJobs.pop_front();
        }
    }
    if (bits > 0.0 && buf)
        bits -= buf->deposit(bits);
    if (bits > 0.0) {
        stagingBits = std::min(stagingBits + bits,
                               std::max(mech.bitsPerRound,
                                        fillMech.bitsPerRound));
    }
}

bool
MemoryController::fillSessionActive() const
{
    if (cfg.fillChannelLimit == 0)
        return false; // Unlimited concurrent fill channels.
    unsigned active = 0;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        if (engines[ch]->active() && !engines[ch]->parked() &&
            !perChan[ch].demandSession) {
            if (++active >= cfg.fillChannelLimit)
                return true;
        }
    }
    return false;
}

bool
MemoryController::fillReady(unsigned ch, Cycle now) const
{
    return engines[ch]->idle() && !chans[ch]->refreshBusy(now) &&
           occupancy(perChan[ch]) == 0 && perChan[ch].idleActive;
}

bool
MemoryController::fillStartAllowed(unsigned ch, Cycle now) const
{
    if (cfg.fillPlacement == FillPlacement::FirstIdle)
        return true;
    // Round-robin: the first fill-ready channel at or after the rotation
    // pointer claims the session this cycle; later ones defer. The probe
    // is side-effect-free (no predictor queries), so deferring never
    // perturbs the peer channel's prediction state.
    const unsigned n = static_cast<unsigned>(chans.size());
    for (unsigned d = 0; d < n; ++d) {
        const unsigned c = (fillPreferredCh + d) % n;
        if (c == ch)
            return true;
        if (fillReady(c, now))
            return false;
    }
    return true;
}

void
MemoryController::manageEngine(unsigned ch, Cycle now)
{
    trng::RngEngine &eng = *engines[ch];
    ChannelState &cs = perChan[ch];
    MemoryBackend &chan = *chans[ch];

    const unsigned occ = occupancy(cs);
    const bool want_demand =
        !rngJobs.empty() && choiceNow[ch] == QueueChoice::Rng;
    const bool fill_capable =
        cfg.fill == FillMode::Engine && buf && !buf->full();

    if (eng.idle()) {
        cs.lowUtilSession = false;
        cs.demandSession = false;
        if (chan.refreshBusy(now))
            return;
        if (want_demand) {
            eng.start(now, trng::RngEngine::SessionKind::Demand);
            cs.demandSession = true;
            return;
        }
        if (!fill_capable || fillSessionActive())
            return; // Fill uses one selected channel at a time (5.1.1).
        if (occ == 0 && cs.idleActive) {
            // Predict once per idle period; sessions may restart within
            // the same period while the prediction holds.
            if (!cs.predictionCached) {
                cs.predictedLong =
                    cs.predictor ? cs.predictor->predictLong(cs.lastAddr)
                                 : true; // Simple buffering (5.1.1).
                cs.predictionCached = true;
            }
            if (cs.predictedLong && fillStartAllowed(ch, now)) {
                eng.start(now, trng::RngEngine::SessionKind::Fill);
                if (cfg.fillPlacement == FillPlacement::RoundRobin)
                    fillPreferredCh =
                        (ch + 1) % static_cast<unsigned>(chans.size());
            }
        } else if (cfg.lowUtilThreshold > 0 &&
                   occ < cfg.lowUtilThreshold &&
                   now >= cs.lowUtilNextAllowed &&
                   buf->levelBits() < 0.5 * buf->capacityBits()) {
            // Low-utilization extension: short generation bursts while
            // the queue stays below the threshold and the buffer is
            // running low, gated by the trained predictor and
            // rate-limited so the few queued requests are stalled only
            // briefly between bursts (Section 5.1.2: "the predictor
            // stalls only a small number of requests").
            cs.lowUtilNextAllowed = now + 6 * cfg.periodThreshold;
            const bool fill_now =
                cs.predictor ? cs.predictor->peekLong(cs.lastAddr) : false;
            if (fill_now) {
                eng.start(now, trng::RngEngine::SessionKind::Fill);
                cs.lowUtilSession = true;
            }
        }
        return;
    }

    // Engine active: keep generating for pending demand, or keep filling
    // while the channel is strictly idle; otherwise wind down after the
    // current round (rounds cannot abort mid-flight because non-standard
    // timing parameters are in effect). Refinements:
    //  - A fill session still swapping timing parameters when a request
    //    arrives aborts outright — the mispredicted session yields
    //    nothing (low-utilization sessions start with requests queued,
    //    so they are exempt and commit to one round).
    //  - A demand session with no regular work waiting parks in RNG mode
    //    so the RNG application's next request (typically a handful of
    //    cycles away) resumes generation without another switch-in.
    const bool continue_fill = fill_capable && occ == 0;
    if (want_demand || continue_fill) {
        eng.cancelStop();
        if (eng.parked()) {
            // A hybrid engine parked in demand mode cannot fill without
            // re-switching mechanisms; wind it down instead.
            if (want_demand ||
                eng.canResumeAs(trng::RngEngine::SessionKind::Fill)) {
                eng.resume(now);
            } else {
                eng.requestStop();
            }
        }
        if (want_demand)
            cs.demandSession = true;
    } else if (cfg.enableFillAbort && eng.switchingIn() &&
               !cs.lowUtilSession && !cs.demandSession) {
        eng.abortSwitchIn(now);
    } else if (cfg.rngAwareQueueing && cfg.enableParking &&
               cs.demandSession && occ == 0 && !chan.refreshBusy(now)) {
        // Only the RNG-aware designs batch: they keep the channel in RNG
        // mode awaiting the next request burst (Section 2: interleaving
        // RNG and regular requests costs a timing-parameter swap each
        // way). The RNG-oblivious baseline switches back immediately.
        eng.requestPark();
    } else {
        eng.requestStop();
    }
}

void
MemoryController::serveChannel(unsigned ch, Cycle now)
{
    ChannelState &cs = perChan[ch];
    MemoryBackend &chan = *chans[ch];

    if (engines[ch]->active() || chan.refreshBusy(now) ||
        chan.rngBusy(now)) {
        return;
    }

    // A powered-down rank must wake before serving queued work.
    if (chan.poweredDown()) {
        if (!cs.readQ->empty() || !cs.writeQ->empty())
            chan.requestWake(now);
        return;
    }
    // Partially powered-down channel (some ranks asleep, some awake):
    // wake the sleeping ranks whenever work is queued so a request
    // targeting one of them cannot stall indefinitely, then keep serving
    // the awake ranks this cycle. Unreachable with one rank, where
    // any-powered-down implies all-powered-down.
    if (chan.anyRankPoweredDown() &&
        (!cs.readQ->empty() || !cs.writeQ->empty()))
        chan.requestWake(now);

    // Write-drain policy: drain on the high watermark or opportunistically
    // when no reads wait; stop once the low watermark is reached and reads
    // are waiting again.
    const bool reads_waiting = !cs.readQ->empty();
    if (!cs.writeDraining &&
        (cs.writeQ->size() >= cfg.writeDrainHigh ||
         (!reads_waiting && !cs.writeQ->empty()))) {
        cs.writeDraining = true;
    }
    if (cs.writeDraining &&
        (cs.writeQ->empty() ||
         (cs.writeQ->size() <= cfg.writeDrainLow && reads_waiting))) {
        cs.writeDraining = false;
    }

    RequestQueue *queue = nullptr;
    Scheduler *sched = nullptr;
    if (cs.writeDraining) {
        queue = cs.writeQ.get();
        sched = &writeSched;
    } else {
        if (!reads_waiting)
            return;
        // When the RNG queue is chosen for this channel, regular reads
        // wait; the engine is being started by manageEngine(). In the
        // RNG-oblivious configuration any pending RNG job stalls all
        // regular traffic (Section 3 baseline).
        if (!rngJobs.empty() && choiceNow[ch] == QueueChoice::Rng)
            return;
        queue = cs.readQ.get();
        sched = readSched.get();
    }

    const SchedContext ctx{*queue, chan, ch, now};
    int pick = kUnknownPick;
    if (batchMode) {
        // Cached horizon first: when no queued command's timing fence
        // has passed, every canIssue() is false and the full pick()
        // scan must return kNoPick — skip it. (Refresh/RNG/power-down
        // exclusions were already early-outed above.)
        if (nextIssueCycle(*queue, ch, now) > now)
            return;
        pick = sched->forcedPick(ctx);
#ifndef NDEBUG
        assert((pick == kUnknownPick || pick == sched->pick(ctx)) &&
               "forcedPick() must agree with pick()");
#endif
    }
    if (pick == kUnknownPick)
        pick = sched->pick(ctx);
    if (pick < 0)
        return;

    Request &req = queue->at(static_cast<std::size_t>(pick));
    const dram::DramCmd cmd = nextCommandFor(req, chan);
    const Cycle done = chan.issue(
        cmd, req.coord.bank, now, static_cast<std::int64_t>(req.coord.row));

    if (cmd == dram::DramCmd::Rd) {
        statistics.readsCompleted++;
        statistics.sumReadLatency += done - req.arrival;
        cs.inflightReads.push_back(req);
        cs.inflightDone.push_back(done);
        sched->onColumnIssued(req, ch);
        if (rngPolicy)
            rngPolicy->noteServed(ch, QueueChoice::Regular);
        queue->erase(static_cast<std::size_t>(pick));
        updateIdleState(ch, now);
    } else if (cmd == dram::DramCmd::Wr) {
        sched->onColumnIssued(req, ch);
        queue->erase(static_cast<std::size_t>(pick));
        updateIdleState(ch, now);
    }
    // ACT/PRE only advance bank state; the request stays queued.
}

void
MemoryController::tick(Cycle now)
{
    readSched->tick(now);

    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        chans[ch]->tickRefresh(now);
        chans[ch]->sampleState(now);
    }

    // 1. Deliver completed reads and buffer-served RNG requests.
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        ChannelState &cs = perChan[ch];
        while (!cs.inflightDone.empty() && cs.inflightDone.front() <= now) {
            const Request &req = cs.inflightReads.front();
            if (onComplete)
                onComplete(req.core, req.token, ReqType::Read,
                           ServePath::Dram);
            cs.inflightReads.pop_front();
            cs.inflightDone.pop_front();
        }
    }
    while (!pendingBufferServeDone.empty() &&
           pendingBufferServeDone.front() <= now) {
        const RngJob &job = pendingBufferServes.front();
        if (onComplete)
            onComplete(job.core, job.token, ReqType::Rng, job.path);
        pendingBufferServes.pop_front();
        pendingBufferServeDone.pop_front();
    }

    // 2. Advance RNG-mode engines; route any bits a finished round
    //    yields. With fault injection active, each round is audited by
    //    the fault plane first: a failing round's bits are discarded
    //    (and the health monitor reacts), which also withholds the
    //    round's noteServed — fault pressure surfaces as RNG stall.
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const double bits = engines[ch]->tick(now);
        if (bits > 0.0 &&
            (!faultPlane || faultPlane->onRound(ch, !rngJobs.empty()))) {
            routeBits(bits, now);
            if (rngPolicy)
                rngPolicy->noteServed(ch, QueueChoice::Rng);
        }
    }

    // 3. Greedy-oracle fill: once a contiguous idle stretch reaches the
    //    Period Threshold, deposit one round's bits at zero cost, then
    //    one more round per round-latency of continued idleness. Like
    //    DR-STRaNGe's engine fill, the oracle uses one selected channel
    //    at a time (the lowest-numbered idle one).
    if (cfg.fill == FillMode::GreedyOracle && buf) {
        bool selected = false;
        for (unsigned ch = 0; ch < chans.size(); ++ch) {
            ChannelState &cs = perChan[ch];
            const bool eligible = occupancy(cs) == 0 &&
                                  engines[ch]->idle() &&
                                  !chans[ch]->refreshBusy(now);
            if (!eligible) {
                cs.greedyIdleCredit = 0;
            } else if (!selected) {
                selected = true;
                cs.greedyIdleCredit++;
                if (cs.greedyIdleCredit >= cfg.periodThreshold &&
                    (cs.greedyIdleCredit - cfg.periodThreshold) %
                            fillMech.roundLatency ==
                        0 &&
                    !buf->full())
                    buf->deposit(fillMech.bitsPerRound);
            }
            // Other idle channels keep their accrued credit paused.
        }
    }

    // 4. Arbitrate queues, start/stop RNG mode, then issue regular DRAM
    //    commands.
    choiceNow.assign(chans.size(), QueueChoice::None);
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        if (!cfg.rngAwareQueueing) {
            // RNG-oblivious: pending RNG work preempts every channel
            // (the same pure arbitration the fast-forward horizon
            // previews).
            choiceNow[ch] = peekChoice(ch);
        } else {
            choiceNow[ch] =
                rngPolicy->choose(ch, *perChan[ch].readQ, rngJobs);
        }
    }
    for (unsigned ch = 0; ch < chans.size(); ++ch)
        manageEngine(ch, now);
    for (unsigned ch = 0; ch < chans.size(); ++ch)
        serveChannel(ch, now);
}

QueueChoice
MemoryController::peekChoice(unsigned ch) const
{
    if (!cfg.rngAwareQueueing) {
        return !rngJobs.empty()          ? QueueChoice::Rng
               : !perChan[ch].readQ->empty() ? QueueChoice::Regular
                                             : QueueChoice::None;
    }
    return rngPolicy->peek(ch, *perChan[ch].readQ, rngJobs);
}

Cycle
MemoryController::manageEngineEventCycle(unsigned ch, Cycle now,
                                         QueueChoice choice) const
{
    const ChannelState &cs = perChan[ch];
    const trng::RngEngine &eng = *engines[ch];
    const MemoryBackend &chan = *chans[ch];
    const unsigned occ = occupancy(cs);
    const bool want_demand =
        !rngJobs.empty() && choice == QueueChoice::Rng;
    const bool fill_capable =
        cfg.fill == FillMode::Engine && buf && !buf->full();

    if (eng.idle()) {
        if (cs.lowUtilSession || cs.demandSession)
            return now; // The session flags are cleared this cycle.
        if (chan.refreshBusy(now))
            return kNoEvent; // Blocked; refresh edges are channel events.
        if (want_demand)
            return now; // A demand session starts this cycle.
        if (!fill_capable || fillSessionActive())
            return kNoEvent;
        if (occ == 0 && cs.idleActive) {
            if (!cs.predictionCached)
                return now; // predictLong() scores a prediction.
            return cs.predictedLong ? now : kNoEvent;
        }
        // Low-utilization territory: the trigger mutates its rate
        // limiter whenever it fires; its earliest firing cycle is the
        // rate limiter itself (every other condition is static over a
        // quiescent span).
        if (cfg.lowUtilThreshold > 0 && occ < cfg.lowUtilThreshold) {
            if (buf->levelBits() >= 0.5 * buf->capacityBits())
                return kNoEvent;
            return std::max(now, cs.lowUtilNextAllowed);
        }
        return kNoEvent;
    }

    const bool continue_fill = fill_capable && occ == 0;
    if (want_demand || continue_fill) {
        if (!eng.windNone())
            return now; // cancelStop() clears the pending wind.
        if (eng.parked())
            return now; // resume()/requestStop() this cycle.
        if (want_demand && !cs.demandSession)
            return now;
        return kNoEvent;
    }
    if (cfg.enableFillAbort && eng.switchingIn() && !cs.lowUtilSession &&
        !cs.demandSession)
        return now; // abortSwitchIn() fires this cycle.
    if (cfg.rngAwareQueueing && cfg.enableParking && cs.demandSession &&
        occ == 0 && !chan.refreshBusy(now)) {
        // requestPark() is a no-op only when already requested.
        return eng.parkRequested() ? kNoEvent : now;
    }
    return eng.stopRequested() ? kNoEvent : now; // requestStop() likewise.
}

Cycle
MemoryController::nextIssueCycle(const RequestQueue &queue, unsigned ch,
                                 Cycle now) const
{
    // Work-conserving schedulers issue on the first cycle any request's
    // next command is legal; with nothing issuable before that, queue
    // and bank state are static and pick() stays kNoPick.
    const MemoryBackend &chan = *chans[ch];
    if (!batchMode) {
        Cycle earliest = kNoEvent;
        for (const Request &req : queue.all()) {
            const dram::DramCmd cmd = nextCommandFor(req, chan);
            earliest = std::min(
                earliest, chan.earliestIssueCycle(cmd, req.coord.bank));
            if (earliest <= now)
                return now;
        }
        return earliest;
    }

    // Batch mode memoizes the *full* queue minimum, keyed on the
    // backend's fence version and the queue's membership version. Only
    // completed scans are cached: when some entry's fence has already
    // passed the scan early-exits with `now` uncached (a partial prefix
    // minimum would not be reusable at a later `now`), which keeps the
    // issuable-right-now case exactly as cheap as the uncached path.
    // The cache pays off in blocked phases, where the old code rescanned
    // the whole queue on every probe.
    IssueHorizon &hz =
        horizonCache[ch][&queue == perChan[ch].writeQ.get() ? 1 : 0];
    const std::uint64_t tv = chan.timingVersion();
    if (hz.timingV == tv && hz.queueV == queue.version())
        return std::max(hz.earliest, now);
    Cycle earliest = kNoEvent;
    for (const Request &req : queue.all()) {
        const dram::DramCmd cmd = nextCommandFor(req, chan);
        earliest = std::min(earliest,
                            chan.earliestIssueCycle(cmd, req.coord.bank));
        if (earliest <= now)
            return now;
    }
    hz.earliest = earliest;
    hz.timingV = tv;
    hz.queueV = queue.version();
    return earliest;
}

Cycle
MemoryController::serveChannelEventCycle(unsigned ch, Cycle now,
                                         QueueChoice choice) const
{
    const ChannelState &cs = perChan[ch];
    const MemoryBackend &chan = *chans[ch];

    // serveChannel() early-outs before touching any state; the engine,
    // refresh, and RNG-fence edges are tracked as their own events.
    if (engines[ch]->active() || chan.refreshBusy(now) ||
        chan.rngBusy(now)) {
        return kNoEvent;
    }
    if (chan.poweredDown()) {
        return cs.readQ->empty() && cs.writeQ->empty() ? kNoEvent
                                                       : now; // Wakes.
    }
    // Partially powered-down with queued work: serveChannel() issues a
    // wake this cycle (never taken with one rank).
    if (chan.anyRankPoweredDown() &&
        !(cs.readQ->empty() && cs.writeQ->empty()))
        return now;

    const bool reads_waiting = !cs.readQ->empty();
    if (!cs.writeDraining &&
        (cs.writeQ->size() >= cfg.writeDrainHigh ||
         (!reads_waiting && !cs.writeQ->empty())))
        return now; // Write drain starts this cycle.
    if (cs.writeDraining &&
        (cs.writeQ->empty() ||
         (cs.writeQ->size() <= cfg.writeDrainLow && reads_waiting)))
        return now; // Write drain stops this cycle.
    if (cs.writeDraining)
        return nextIssueCycle(*cs.writeQ, ch, now);
    if (!reads_waiting)
        return kNoEvent;
    // Reads wait while the RNG queue owns the channel.
    if (!rngJobs.empty() && choice == QueueChoice::Rng)
        return kNoEvent;
    return nextIssueCycle(*cs.readQ, ch, now);
}

Cycle
MemoryController::greedyNextEventCycle(Cycle now) const
{
    Cycle ev = kNoEvent;
    bool selected = false;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const ChannelState &cs = perChan[ch];
        const bool eligible = occupancy(cs) == 0 && engines[ch]->idle() &&
                              !chans[ch]->refreshBusy(now);
        if (!eligible) {
            if (cs.greedyIdleCredit != 0)
                return now; // The credit resets this cycle.
        } else if (!selected) {
            selected = true;
            if (!buf->full()) {
                // Credit at the tick of cycle T is credit + (T - now) + 1;
                // a deposit fires when it reaches periodThreshold plus a
                // multiple of the fill round latency.
                const Cycle thr = cfg.periodThreshold;
                const Cycle rl = fillMech.roundLatency;
                const Cycle c1 = cs.greedyIdleCredit + 1;
                Cycle v = thr;
                if (c1 >= thr) {
                    const Cycle rem = (c1 - thr) % rl;
                    v = rem == 0 ? c1 : c1 + (rl - rem);
                }
                ev = std::min(ev, now + (v - c1));
            }
        }
        // Non-selected eligible channels keep their credit paused.
    }
    return ev;
}

void
MemoryController::collectProducers() const
{
    producerScratch.clear();
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const trng::RngEngine &eng = *engines[ch];
        // A generating engine with no pending stop/park (and, per the
        // stability checks, no management change coming) completes a
        // round every roundLatency cycles; a switching-in engine's
        // first round lands one switch phase later. A stopping engine
        // completes exactly one more round before switching out.
        const bool periodic =
            (eng.inRound() || eng.switchingIn()) && eng.windNone();
        const bool stopping = eng.inRound() && eng.stopRequested();
        if (!periodic && !stopping)
            continue;
        const trng::TrngMechanism &m = eng.mechanism();
        Producer p;
        p.period = m.roundLatency;
        p.bits = m.bitsPerRound;
        p.ch = ch;
        p.oneShot = stopping;
        const Cycle end = eng.phaseEndCycle();
        p.next = (eng.switchingIn() ? end + m.roundLatency : end) - 1;
        producerScratch.push_back(p);
    }
}

Cycle
productionEvent(std::span<Producer> producers,
                std::optional<double> frontJobBits,
                std::optional<double> spareBits)
{
    if (!frontJobBits && !spareBits)
        return kNoEvent;

    // Rounds before the event. A round completes the front job once
    // (k + 1) * bits covers the 64 - collected it still needs; the
    // buffer-full test fires once (k + 2) * bits covers the spare bits.
    double bits = 0.0;
    bool integral = true;
    Cycle period = kNoEvent;
    for (const Producer &p : producers) {
        bits = std::max(bits, p.bits);
        integral = integral && p.bits == std::floor(p.bits);
        if (!p.oneShot)
            period = std::min(period, p.period);
    }
    const double need = frontJobBits ? 64.0 - *frontJobBits : *spareBits;
    double rounds = std::ceil(need / bits) - (frontJobBits ? 1.0 : 2.0);
    // Fractional bits summed round by round may cross the threshold one
    // round before exact arithmetic does.
    if (!integral || need != std::floor(need))
        rounds -= 1.0;
    // A smaller count only ends the span earlier, which is always safe,
    // so a NaN count (zero bits, nothing spare) means round 0.
    constexpr double kMaxRounds = 0x1p40;
    std::uint64_t k = static_cast<std::uint64_t>(
        rounds >= kMaxRounds ? kMaxRounds : rounds > 0.0 ? rounds : 0.0);

    // Round k of the merged stream, stage by stage: stage n runs from
    // the n-th producer's first round to the next producer's. Each
    // started periodic producer's next is kept at its first round at or
    // after the stage start, at offset o < period, so a stage spanning
    // `full` periods plus `rem` cycles holds `full` rounds of each such
    // producer plus one more of each with o < rem, in offset order. A
    // one-shot producer's single round opens its stage.
    const auto by_next = [](const Producer &a, const Producer &b) {
        return a.next < b.next;
    };
    std::sort(producers.begin(), producers.end(), by_next);
    std::uint64_t started = 0;
    for (std::size_t n = 1; n <= producers.size(); ++n) {
        Producer &joined = producers[n - 1];
        const Cycle start = joined.next;
        if (!joined.oneShot)
            ++started;
        else if (k-- == 0)
            return start;
        else
            joined.next = kNoEvent; // Its only round is spent.
        if (n < producers.size()) {
            const Cycle span = producers[n].next - start;
            const Cycle full = span / period;
            const Cycle rem = span % period;
            std::uint64_t stage = started * full; // Rounds in the stage.
            for (std::size_t i = 0; i < n; ++i) {
                const Producer &p = producers[i];
                stage += !p.oneShot && p.next - start < rem;
            }
            if (k >= stage) {
                k -= stage;
                for (std::size_t i = 0; i < n; ++i) {
                    Producer &p = producers[i];
                    if (!p.oneShot)
                        p.next += (full + (p.next - start < rem)) * period;
                }
                continue;
            }
        }
        if (started == 0)
            return kNoEvent;
        // Started producers sort first (spent one-shots hold kNoEvent).
        std::sort(producers.begin(), producers.begin() + n, by_next);
        return producers[k % started].next + k / started * period;
    }
    return kNoEvent;
}

Cycle
MemoryController::productionEventCycle(Cycle bound) const
{
    // Without jobs, round bits deposit into the buffer; the deposit that
    // fills it flips fill_capable and is therefore an event. Bufferless
    // production is pure: staging absorbs everything.
    std::optional<double> front;
    std::optional<double> spare;
    if (!rngJobs.empty())
        front = rngJobs.front().bitsCollected;
    else if (buf)
        spare = buf->capacityBits() - buf->levelBits();
    const Cycle event = productionEvent(producerScratch, front, spare);
    return event < bound ? event : kNoEvent;
}

Cycle
MemoryController::nextEventCycle(Cycle now) const
{
    // Intra-queue scheduler housekeeping (BLISS clearing interval; a
    // custom scheduler without a nextEventCycle() override reports
    // per-cycle work and disables skipping).
    Cycle ev = readSched->nextEventCycle(now);
    if (ev <= now)
        return now;

    // Completion deliveries.
    for (const ChannelState &cs : perChan)
        if (!cs.inflightDone.empty())
            ev = std::min(ev, cs.inflightDone.front());
    if (!pendingBufferServeDone.empty())
        ev = std::min(ev, pendingBufferServeDone.front());
    if (ev <= now)
        return now;

    bool producing = false;
    bool regular_prio = false;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const trng::RngEngine &eng = *engines[ch];
        ev = std::min(ev, chans[ch]->nextEventCycle(now, eng.active()));
        QueueChoice choice;
        if (cfg.rngAwareQueueing) {
            // One queue scan yields the choice, the stall-limit flip
            // event, and the counter-direction flag together.
            const RngAwarePolicy::Arbitration arb =
                rngPolicy->arbitration(ch, *perChan[ch].readQ, rngJobs,
                                       now);
            choice = arb.choice;
            ev = std::min(ev, arb.flipAt);
            regular_prio = regular_prio || arb.regularPrioritized;
        } else {
            choice = peekChoice(ch);
        }
        ev = std::min(ev, manageEngineEventCycle(ch, now, choice));
        ev = std::min(ev, serveChannelEventCycle(ch, now, choice));
        if (ev <= now)
            return now;
        // Steadily-generating engines advance through whole rounds
        // inside a span, and a stopping engine through its final round
        // (their completions are batched; the switch-out end is the
        // bounding event). Any other engine phase boundary ends the
        // span.
        if ((eng.inRound() || eng.switchingIn()) && eng.windNone()) {
            producing = true;
        } else if (eng.inRound() && eng.stopRequested()) {
            producing = true;
            ev = std::min(ev, eng.phaseEndCycle() +
                                  eng.mechanism().switchOutLatency - 1);
        } else {
            ev = std::min(ev, eng.nextEventCycle(now));
        }
        if (ev <= now)
            return now;
    }

    if (producing) {
        collectProducers();
        if (regular_prio || faultPlane) {
            // The span stops at the first round completion. While
            // regular traffic is prioritized, every completion resets
            // the live RNG stall counter; with a fault plane, every
            // completion is an audit that onRound() performs in a tick.
            // The production event is one of those completions, so it
            // could not end the span any earlier.
            for (const Producer &p : producerScratch)
                ev = std::min(ev, p.next);
        } else {
            ev = std::min(ev, productionEventCycle(ev));
        }
        if (ev <= now)
            return now;
    }

    if (cfg.fill == FillMode::GreedyOracle && buf)
        ev = std::min(ev, greedyNextEventCycle(now));

    return ev;
}

void
MemoryController::fastForward(Cycle from, Cycle to)
{
    assert(to > from);
    const Cycle span = to - from;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        // Residency sampling happens before the engine tick each cycle,
        // so batch it first (the engine extends the fences afterwards).
        chans[ch]->fastForwardState(from, to);
        engines[ch]->fastForward(from, to);
        if (cfg.rngAwareQueueing) {
            rngPolicy->fastForward(ch, *perChan[ch].readQ, rngJobs, span);
        }
    }

    // Replay the span's engine phase completions in exact per-cycle
    // order (time, then channel index — the tick loop's order), routing
    // each completed round's bits through the normal path. The horizon
    // guarantees none of these completes the front job or fills the
    // buffer, and that none is a round the fault plane must audit.
    collectProducers();
    if (!producerScratch.empty()) {
        // Switching-in engines also complete their (bit-less) switch
        // phase inside the span; start their stream at that transition.
        for (Producer &p : producerScratch) {
            if (engines[p.ch]->switchingIn())
                p.next = engines[p.ch]->phaseEndCycle() - 1;
        }
        for (;;) {
            std::size_t best = producerScratch.size();
            for (std::size_t i = 0; i < producerScratch.size(); ++i) {
                if (producerScratch[i].next < to &&
                    (best == producerScratch.size() ||
                     producerScratch[i].next < producerScratch[best].next))
                    best = i;
            }
            if (best == producerScratch.size())
                break;
            Producer &p = producerScratch[best];
            trng::RngEngine &eng = *engines[p.ch];
            const bool round_end = eng.inRound();
            if (p.oneShot)
                eng.fastForwardFinalRound();
            else
                eng.fastForwardPhases(1);
            if (round_end) {
                assert(!faultPlane &&
                       "a fault-audited round must complete in a tick");
#ifndef NDEBUG
                const std::size_t jobs_before = rngJobs.size();
#endif
                routeBits(p.bits, p.next);
                assert(rngJobs.size() == jobs_before &&
                       "fast-forwarded round must not complete a job");
                if (rngPolicy)
                    rngPolicy->noteServed(p.ch, QueueChoice::Rng);
            }
            p.next = p.oneShot ? kNoEvent : p.next + p.period;
        }
    }

    if (cfg.fill == FillMode::GreedyOracle && buf) {
        for (unsigned ch = 0; ch < chans.size(); ++ch) {
            ChannelState &cs = perChan[ch];
            const bool eligible = occupancy(cs) == 0 &&
                                  engines[ch]->idle() &&
                                  !chans[ch]->refreshBusy(from);
            if (eligible) {
                // Only the selected (first eligible) channel accrues.
                cs.greedyIdleCredit += span;
                break;
            }
        }
    }
}

std::optional<strange::PredictorStats>
MemoryController::predictorStats() const
{
    strange::PredictorStats agg;
    bool any = false;
    for (const ChannelState &cs : perChan) {
        if (!cs.predictor)
            continue;
        any = true;
        const strange::PredictorStats &s = cs.predictor->stats();
        agg.predictions += s.predictions;
        agg.correct += s.correct;
        agg.falsePositives += s.falsePositives;
        agg.falseNegatives += s.falseNegatives;
    }
    if (!any)
        return std::nullopt;
    return agg;
}

Cycle
MemoryController::rngOccupiedCycles() const
{
    Cycle total = 0;
    for (const auto &eng : engines)
        total += eng->totalOccupiedCycles();
    return total;
}

bool
MemoryController::hasWorkForPort(CoreId first) const
{
    for (const RngJob &j : rngJobs)
        if (j.core >= first)
            return true;
    for (const RngJob &j : pendingBufferServes)
        if (j.core >= first)
            return true;
    for (const ChannelState &cs : perChan) {
        for (const Request &r : cs.inflightReads)
            if (r.core >= first)
                return true;
        for (const Request &r : cs.readQ->all())
            if (r.core >= first)
                return true;
        for (const Request &r : cs.writeQ->all())
            if (r.core >= first)
                return true;
    }
    return false;
}

bool
MemoryController::busy() const
{
    if (!rngJobs.empty() || !pendingBufferServes.empty())
        return true;
    for (const ChannelState &cs : perChan) {
        if (!cs.readQ->empty() || !cs.writeQ->empty() ||
            !cs.inflightReads.empty()) {
            return true;
        }
    }
    for (const auto &eng : engines)
        if (eng->active())
            return true;
    return false;
}

} // namespace dstrange::mem
