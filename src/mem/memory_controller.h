/**
 * @file
 * The memory controller: per-channel read/write queues, write-drain and
 * refresh handling, pluggable intra-queue schedulers, and the RNG service
 * machinery (oblivious on-demand generation, RNG-aware queueing, random
 * number buffering, greedy-oracle fill, and predictor-driven fill).
 *
 * All three of the paper's system designs — RNG-Oblivious baseline,
 * Greedy Idle, and DR-STRaNGe — are configurations of this one class, so
 * they share every substrate code path and differ only in policy.
 */

#ifndef DSTRANGE_MEM_MEMORY_CONTROLLER_H
#define DSTRANGE_MEM_MEMORY_CONTROLLER_H

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/pop_vector.h"
#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "fault/fault_config.h"
#include "mem/fr_fcfs.h"
#include "mem/memory_backend.h"
#include "mem/request.h"
#include "mem/request_queue.h"
#include "mem/rng_aware.h"
#include "mem/scheduler.h"
#include "strange/idleness_predictor.h"
#include "strange/buffer_set.h"
#include "strange/random_buffer.h"
#include "strange/rl_predictor.h"
#include "strange/simple_predictor.h"
#include "trng/rng_engine.h"
#include "trng/trng_mechanism.h"

namespace dstrange::fault {
class FaultPlane;
}

namespace dstrange::mem {

/** How random bits are proactively generated for the buffer. */
enum class FillMode : std::uint8_t
{
    None,         ///< Never fill; generate on demand only.
    GreedyOracle, ///< Zero-overhead oracle fill (Greedy Idle design).
    Engine,       ///< Real RNG-mode fill driven by the idleness logic.
};

/**
 * Parse a fill-mode name ("none"/"greedy-oracle"/"engine") as used by
 * SimConfig::fillPolicy and the config text format.
 * @throws std::out_of_range on an unknown name.
 */
FillMode fillModeFromName(const std::string &name);

/** Where an engine buffer-fill session is placed across channels. */
enum class FillPlacement : std::uint8_t
{
    /** The lowest-numbered eligible channel starts the session (the
     *  historical behaviour: manageEngine's channel-index order). */
    FirstIdle,
    /** Rotate the preferred start channel after every fill session so
     *  fill wear (and rank/channel occupancy) spreads evenly. */
    RoundRobin,
};

/**
 * Parse a fill-placement name ("first-idle"/"round-robin") as used by
 * SimConfig::fillPlacement and the config text format.
 * @throws std::out_of_range on an unknown name.
 */
FillPlacement fillPlacementFromName(const std::string &name);

/** Registered fill-placement names, sorted. */
std::vector<std::string> fillPlacementNames();

/** Full memory controller configuration. */
struct McConfig
{
    /** Intra-queue scheduler (mem::SchedulerRegistry key). */
    std::string scheduler = "fr-fcfs-cap";
    unsigned columnCap = 16;
    unsigned blissThreshold = 4;
    Cycle blissClearingInterval = 10000;

    unsigned readQueueCap = 32;
    unsigned writeQueueCap = 32;
    unsigned rngQueueCap = 32;
    unsigned writeDrainHigh = 28;
    unsigned writeDrainLow = 8;

    /** true: separate RNG queue + RngAwarePolicy arbitration.
     *  false: RNG-oblivious — jobs preempt all channels on arrival. */
    bool rngAwareQueueing = false;
    Cycle stallLimit = 100;

    unsigned bufferEntries = 0;      ///< 64-bit entries; 0 disables.
    /** Partition the buffer per application (Section 6 side/covert-
     *  channel countermeasure); 0/1 = one shared buffer. */
    unsigned bufferPartitions = 0;
    Cycle bufferServeLatency = 2;    ///< Buffer-hit service latency.

    FillMode fill = FillMode::None;
    /** Optional distinct TRNG mechanism for buffer filling (hybrid
     *  design, Section 8.7 future work); demand generation always uses
     *  the mechanism passed to the controller. */
    std::optional<trng::TrngMechanism> fillMechanism;
    /** Idleness predictor gating engine fill (strange::PredictorRegistry
     *  key; "none" = simple buffering, every quiet period assumed long). */
    std::string predictor = "simple";
    unsigned predictorEntries = 256;
    Cycle periodThreshold = 40;
    /** Read+write queue occupancy below which a channel counts as
     *  low-utilization (0 = idle-only fill). */
    unsigned lowUtilThreshold = 4;
    /** Precharge power-down after this many idle cycles (0 = off). */
    Cycle powerDownThreshold = 0;

    // --- Modelling-refinement ablation knobs (see DESIGN.md) ---------
    /** RNG-aware designs park channels in RNG mode between demand
     *  bursts instead of switching out after every generation. */
    bool enableParking = true;
    /** Mispredicted fill sessions abort during switch-in instead of
     *  committing to a full round. */
    bool enableFillAbort = true;
    /** Max concurrent buffer-fill channels (0 = unlimited; the paper's
     *  Section 5.1.1 selects one channel at a time). */
    unsigned fillChannelLimit = 1;
    /** Cross-channel placement of engine fill sessions. */
    FillPlacement fillPlacement = FillPlacement::FirstIdle;

    /** Address-interleaving policy (dram::MappingRegistry key). */
    std::string addressMapping = "row-bank-col-ch";

    /** Per-channel timing model (mem::BackendRegistry key). */
    std::string backend = "ddr4";
    /** Data-completion latency of a read under "fixed-latency". */
    Cycle backendReadLatency = 20;
    /** Data-completion latency of a write under "fixed-latency". */
    Cycle backendWriteLatency = 20;
    /** Column-to-column gap under "fixed-latency". */
    Cycle backendGap = 4;

    /** Deterministic fault injection + health-monitor mitigation (a
     *  default-constructed config is inert). */
    fault::FaultConfig fault;

    strange::RlIdlenessPredictor::Config rlConfig{};
};

/**
 * One generating engine's round-completion stream: a stable (wind-free,
 * management-quiescent) engine in Round or SwitchingIn produces `bits`
 * every `period` cycles, the first batch landing on the tick at `next`.
 */
struct Producer
{
    Cycle next = 0;   ///< Tick cycle of the next round completion.
    Cycle period = 0; ///< Round latency.
    double bits = 0.0;
    unsigned ch = 0;
    /** Stopping engine: exactly one more round completes, then the
     *  switch-out (whose end bounds the span) begins. */
    bool oneShot = false;
};

/**
 * Tick cycle of the first round completion in the merged stream of
 * @p producers with a non-batchable effect: the one that finishes the
 * front RNG job holding @p frontJobBits, or, without a job, the one
 * that lands at or one round before filling a buffer with @p spareBits
 * free bits (the one-round margin absorbs the buffer's own partition
 * arithmetic). kNoEvent when there is no such completion.
 *
 * Closed form that loops over producers, never over rounds: the round
 * count comes from the bits, the cycle from each producer's (next,
 * period, oneShot). It is exact when every producer yields the same
 * integral bit count with the same period. Otherwise it counts with the
 * largest bits and the shortest period, one round fewer for fractional
 * bits, so it may be early but is never late. Reorders and overwrites
 * @p producers.
 */
Cycle productionEvent(std::span<Producer> producers,
                      std::optional<double> frontJobBits,
                      std::optional<double> spareBits);

/** Aggregate controller statistics. */
struct McStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t rngRequests = 0;
    std::uint64_t rngServedFromBuffer = 0;
    /** Requests served entirely from the mechanism's output staging
     *  register (leftover bits of earlier demand rounds). */
    std::uint64_t rngServedFromStaging = 0;
    std::uint64_t rngJobsCompleted = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t sumReadLatency = 0; ///< Bus cycles, arrival to data.
    std::uint64_t sumRngLatency = 0;  ///< Bus cycles, arrival to service.

    /** Fraction of RNG requests served from the buffer (Section 8.3). */
    double
    bufferServeRate() const
    {
        return rngRequests == 0 ? 0.0
                                : static_cast<double>(rngServedFromBuffer) /
                                      static_cast<double>(rngRequests);
    }
};

/**
 * Cycle-level memory controller over N DRAM channels with an integrated
 * DRAM-based TRNG.
 */
class MemoryController
{
  public:
    /** Callback invoked when a read or RNG request completes. The
     *  ServePath tag names how it was served (Dram for reads; Buffer /
     *  Staging / Engine for RNG requests). */
    using CompletionCallback = std::function<void(
        CoreId, std::uint64_t token, ReqType, ServePath)>;

    MemoryController(const McConfig &config,
                     const dram::DramTimings &timings,
                     const dram::DramGeometry &geometry,
                     const trng::TrngMechanism &mechanism,
                     unsigned num_cores);
    ~MemoryController(); // Out-of-line: fault::FaultPlane is incomplete.

    void setCompletionCallback(CompletionCallback cb);

    /** Set an application's OS priority (RNG-aware designs only). */
    void setPriority(CoreId core, int priority);

    /**
     * Enqueue a request. The caller must set type/addr/core/token;
     * arrival, seq and coord are filled in here.
     * @retval false the target queue is full — retry next cycle.
     */
    bool enqueue(Request req, Cycle now);

    /** Advance the whole memory system by one bus cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() could do anything beyond
     * the batchable per-cycle bookkeeping (state-residency sampling,
     * engine cycle counting, stall-counter and greedy-credit advances):
     * a completion delivery, an engine phase boundary, a refresh or
     * power-down edge, a stall-limit flip, an oracle-fill deposit, a
     * scheduler housekeeping event, or any cycle whose queue state makes
     * command issue or engine management possible. Returns @p now when
     * the current cycle itself is (or may be) such a cycle — the caller
     * must then tick normally. Never returns a cycle later than the
     * first real event, so skipping to the returned cycle is
     * bit-identical to ticking through the span.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Batch-apply the per-cycle effects of the quiescent span
     * [@p from, @p to): state-residency counters, engine
     * occupied/parked cycles and channel fences, RNG-aware stall
     * counters, and greedy-oracle idle credit.
     * @pre nextEventCycle(from) >= to
     */
    void fastForward(Cycle from, Cycle to);

    /**
     * Observe every successfully enqueued request with its arrival
     * cycle, after address mapping — the controller-boundary stream the
     * trace recorder captures (see trace/trace_writer.h). The stream
     * fully determines the controller's evolution for a fixed
     * configuration, which is what makes replay bit-identical.
     */
    using TraceSink = std::function<void(const Request &, Cycle)>;
    void setTraceSink(TraceSink sink) { traceSink = std::move(sink); }

    // --- Introspection -----------------------------------------------
    const McStats &stats() const { return statistics; }
    const MemoryBackend &channel(unsigned i) const { return *chans[i]; }
    /** Mutable access for verification harnesses (command observers). */
    MemoryBackend &channelMutable(unsigned i) { return *chans[i]; }
    /** One channel's TRNG engine (telemetry/lockstep fingerprinting). */
    const trng::RngEngine &engine(unsigned i) const { return *engines[i]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(chans.size());
    }
    const strange::BufferSet *buffer() const { return buf.get(); }

    /** Aggregated predictor accuracy across channels (empty if none). */
    std::optional<strange::PredictorStats> predictorStats() const;

    /** Recorded strict-idle period lengths for one channel (Fig. 5/18). */
    const std::vector<std::uint32_t> &idlePeriods(unsigned ch) const
    {
        return perChan[ch].idleLengths;
    }

    /** Total bus cycles channels spent held in RNG mode. */
    Cycle rngOccupiedCycles() const;

    /** Pending work indicator (used by drain-out loops in tests). */
    bool busy() const;

    /** RNG jobs currently queued (not yet fully generated). */
    std::size_t pendingRngJobs() const { return rngJobs.size(); }

    /** Bits currently held in the mechanism's staging register. */
    double stagingLevel() const { return stagingBits; }

    /** Read-queue occupancy of one channel (tests/telemetry). */
    std::size_t
    readQueueSize(unsigned ch) const
    {
        return perChan[ch].readQ->size();
    }

    /** Write-queue occupancy of one channel (tests/telemetry). */
    std::size_t
    writeQueueSize(unsigned ch) const
    {
        return perChan[ch].writeQ->size();
    }

    const McConfig &config() const { return cfg; }

    const RngAwarePolicy *policy() const { return rngPolicy.get(); }

    /**
     * Enable/disable batch mode (DS_BATCH): memoized per-queue issue
     * horizons plus the scheduler forcedPick() fast path. Pure
     * shortcuts — behaviour must stay bit-identical either way, which
     * DS_LOCKSTEP and the difftest harness verify. Off by default so a
     * bare controller behaves exactly as before; sim::System turns it
     * on alongside fast-forward.
     */
    void setBatchMode(bool on) { batchMode = on; }
    bool batchModeEnabled() const { return batchMode; }

    /**
     * true while any queued, in-flight, or RNG work belongs to a core
     * port >= @p first. System's drain loop refuses to run while the
     * service driver (whose ports start past the traced cores) has work
     * in flight, because RNG completions are delivered directly from
     * inside tick() rather than through a queue front the drain could
     * bound on.
     */
    bool hasWorkForPort(CoreId first) const;

    /** The fault-injection plane, or nullptr when no cell-fault model
     *  is configured (see fault/fault_plane.h). */
    const fault::FaultPlane *faultInjection() const
    {
        return faultPlane.get();
    }

  private:
    struct ChannelState
    {
        std::unique_ptr<RequestQueue> readQ;
        std::unique_ptr<RequestQueue> writeQ;
        bool writeDraining = false;

        /// In-flight reads awaiting their data burst (FIFO by completion).
        PopVector<Request> inflightReads;
        PopVector<Cycle> inflightDone;

        // Idle-period tracking: drives the Fig. 5/18 distributions and
        // the idleness predictor (predicted at period start, trained at
        // the arrival that ends the period).
        bool idleActive = false;
        Cycle idleStart = 0;
        bool predictionCached = false; ///< Predicted this idle period?
        bool predictedLong = false;    ///< Cached per-period prediction.
        /** Rate limiter for the low-utilization fill trigger: earliest
         *  cycle the next low-utilization session may start. */
        Cycle lowUtilNextAllowed = 0;
        /** Current engine session was started by the low-utilization
         *  trigger (it commits to one round; it is not aborted when a
         *  request arrives). */
        bool lowUtilSession = false;
        /** Current engine session served on-demand generation; such
         *  sessions park in RNG mode awaiting the next request burst
         *  instead of eagerly switching out. */
        bool demandSession = false;
        std::vector<std::uint32_t> idleLengths;

        // Greedy-oracle fill bookkeeping.
        Cycle greedyIdleCredit = 0;

        Addr lastAddr = 0;

        std::unique_ptr<strange::IdlenessPredictor> predictor;
    };

    unsigned occupancy(const ChannelState &cs) const;
    void updateIdleState(unsigned ch, Cycle now);

    /** enqueue() minus the trace-sink notification (fills in coord/seq). */
    bool enqueueAccept(Request &req, Cycle now);

    /** The queue choice the next tick would compute for @p ch. */
    QueueChoice peekChoice(unsigned ch) const;
    /** Earliest cycle >= @p now at which manageEngine(ch) changes any
     *  state (@p now = this cycle; kNoEvent = only on external input).
     *  @p choice is peekChoice(ch), computed once by the caller. */
    Cycle manageEngineEventCycle(unsigned ch, Cycle now,
                                 QueueChoice choice) const;
    /** Earliest cycle >= @p now at which serveChannel(ch) changes any
     *  state — a drain-flag transition, a wake, or the first cycle any
     *  queued request's next DRAM command can legally issue. */
    Cycle serveChannelEventCycle(unsigned ch, Cycle now,
                                 QueueChoice choice) const;
    /** First cycle >= @p now any of @p queue's requests can issue. */
    Cycle nextIssueCycle(const RequestQueue &queue, unsigned ch,
                         Cycle now) const;

    /**
     * Memoized full-queue issue horizon, valid while neither the
     * backend's timing fences nor the queue's membership have changed.
     * Two slots per channel: [0] readQ, [1] writeQ. Only consulted in
     * batch mode; the sentinel versions make the first probe a miss.
     */
    struct IssueHorizon
    {
        std::uint64_t timingV = ~std::uint64_t{0};
        std::uint64_t queueV = ~std::uint64_t{0};
        Cycle earliest = 0;
    };
    /** Next greedy-oracle deposit cycle on the selected channel, or
     *  @p now when credit bookkeeping mutates state this cycle. */
    Cycle greedyNextEventCycle(Cycle now) const;

    /** Collect the stable producers into producerScratch, in channel
     *  order (the per-cycle tick order for equal completion cycles). */
    void collectProducers() const;
    /**
     * productionEvent() of producerScratch against the live front job
     * or buffer, or kNoEvent when it is not below @p bound (earlier
     * completions only accumulate). Overwrites producerScratch. Only
     * consulted when spans may cross round completions: no fault plane
     * is configured and regular traffic is not prioritized.
     */
    Cycle productionEventCycle(Cycle bound) const;

    /** true when some channel is running a buffer-fill session. Fill
     *  uses one selected channel at a time (Section 5.1.1: "selects a
     *  channel for RNG"); demand generation still uses all channels. */
    bool fillSessionActive() const;
    /** Side-effect-free idle-fill readiness of @p ch (no predictor
     *  consultation; used only for cross-channel placement ordering). */
    bool fillReady(unsigned ch, Cycle now) const;
    /** true when the placement policy lets @p ch start a fill session
     *  this cycle (always true under FillPlacement::FirstIdle). */
    bool fillStartAllowed(unsigned ch, Cycle now) const;
    void routeBits(double bits, Cycle now);
    void serveChannel(unsigned ch, Cycle now);
    void manageEngine(unsigned ch, Cycle now);

    /** Per-channel queue choice, computed once per tick (the policy's
     *  stall counters advance exactly once per channel per cycle). */
    std::vector<QueueChoice> choiceNow;

    McConfig cfg;
    std::unique_ptr<const dram::AddressMapping> mapper;
    trng::TrngMechanism mech;     ///< Demand-generation mechanism.
    trng::TrngMechanism fillMech; ///< Fill mechanism (== mech unless hybrid).
    unsigned numCores;

    std::vector<std::unique_ptr<MemoryBackend>> chans;
    std::vector<std::unique_ptr<trng::RngEngine>> engines;
    std::vector<ChannelState> perChan;

    std::unique_ptr<Scheduler> readSched;
    FrFcfsScheduler writeSched; ///< Plain FR-FCFS for write drains.
    std::unique_ptr<RngAwarePolicy> rngPolicy;

    std::deque<RngJob> rngJobs;
    std::unique_ptr<strange::BufferSet> buf;
    /** Round auditing + health monitor; null when no cell-fault model
     *  is listed (the common case — zero overhead when off). */
    std::unique_ptr<fault::FaultPlane> faultPlane;
    /**
     * The TRNG mechanism's output staging register: bits left over from
     * demand rounds beyond the requested 64 (significant for QUAC-TRNG's
     * 512-bit rounds). Present in every design — it is part of the
     * mechanism, not of DR-STRaNGe. Capped at one round's yield.
     */
    double stagingBits = 0.0;
    /// Buffer hits completing after the fixed serve latency.
    PopVector<RngJob> pendingBufferServes;
    PopVector<Cycle> pendingBufferServeDone;

    CompletionCallback onComplete;
    TraceSink traceSink;
    std::uint64_t nextSeq = 0;
    McStats statistics;

    /** Rotation cursor for FillPlacement::RoundRobin (unused under
     *  FirstIdle, so the default placement stays bit-identical). */
    unsigned fillPreferredCh = 0;

    /** Scratch for collectProducers (avoids per-horizon allocation). */
    mutable std::vector<Producer> producerScratch;

    bool batchMode = false; ///< See setBatchMode().
    /** Per-channel {readQ, writeQ} horizon memos (see IssueHorizon). */
    mutable std::vector<std::array<IssueHorizon, 2>> horizonCache;

    /** Cap on stored idle-period samples per channel (memory bound). */
    static constexpr std::size_t kMaxIdleSamples = 1u << 18;
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_MEMORY_CONTROLLER_H
