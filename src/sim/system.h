/**
 * @file
 * Top-level simulated system: N cores + memory controller + DRAM +
 * integrated DRAM TRNG. Components advance in lock-step at bus-cycle
 * granularity, but quiescent stretches — every component reporting that
 * its next tick only does batchable bookkeeping — are fast-forwarded in
 * one jump to the earliest event horizon, with bit-identical results
 * (see README "How the simulator advances time" and DS_LOCKSTEP).
 */

#ifndef DSTRANGE_SIM_SYSTEM_H
#define DSTRANGE_SIM_SYSTEM_H

#include <memory>
#include <vector>

#include "cpu/core.h"
#include "cpu/trace_source.h"
#include "service/open_loop_service.h"
#include "sim/sim_config.h"
#include "trace/trace_replay_source.h"
#include "trace/trace_writer.h"
#include "trng/entropy_source.h"

namespace dstrange::sim {

/**
 * Owns and steps all components. Cores run until each retires its
 * instruction budget; finished cores keep generating traffic (standard
 * multi-programmed methodology) but their statistics freeze.
 */
class System
{
  public:
    System(const SimConfig &config,
           std::vector<std::unique_ptr<cpu::TraceSource>> traces);

    // The memory controller's completion callback captures `this`;
    // moving or copying a System would leave it dangling.
    System(const System &) = delete;
    System &operator=(const System &) = delete;
    System(System &&) = delete;
    System &operator=(System &&) = delete;

    /** Run to completion (all budgets retired) or the safety bound. */
    void run();

    /** Advance exactly @p cycles bus cycles (for tests). */
    void step(Cycle cycles);

    /**
     * Enable/disable event-driven cycle skipping (default: the
     * DS_FAST_FORWARD environment flag, which defaults to on). With it
     * disabled every bus cycle is ticked individually; results are
     * bit-identical either way.
     */
    void
    setFastForward(bool enabled)
    {
        ffEnabled = enabled;
        applyBatchMode();
    }
    bool fastForwardEnabled() const { return ffEnabled; }

    /**
     * Enable/disable batched command retirement (default: the DS_BATCH
     * environment flag, which defaults to on). Batch mode rides the
     * fast-forward path: when every core is head-blocked and the
     * service/replay layers are quiescent, the controller is ticked
     * alone — cores advance analytically to each read delivery — and
     * the controller's memoized issue horizons and scheduler forced
     * picks cut the per-tick arbitration cost. Results are bit-identical
     * either way; DS_LOCKSTEP and the difftest harness verify it.
     */
    void
    setBatchMode(bool enabled)
    {
        batchEnabled = enabled;
        applyBatchMode();
    }
    bool batchModeEnabled() const { return batchEnabled; }

    /**
     * The earliest cycle >= busCycles() at which any component does
     * non-batchable work (the fast-forward horizon). Exposed for tests;
     * equal to busCycles() when the current cycle must tick normally.
     */
    Cycle nextEventCycle() const;

    /** Fast-forward effectiveness counters (telemetry/bench records). */
    struct FfStats
    {
        std::uint64_t steppedCycles = 0; ///< Bus cycles ticked normally.
        std::uint64_t skips = 0;         ///< Fast-forward jumps taken.
        std::uint64_t skippedCycles = 0; ///< Bus cycles jumped over.
        /** Bus cycles where only the controller ticked (batch drain);
         *  the cores/service advanced analytically over them. */
        std::uint64_t drainTicks = 0;
        /** Horizon probes: nextEventCycle() calls of the run loop plus
         *  the batch drain's controller-only probes (skips <= probes). */
        std::uint64_t probes = 0;
    };
    const FfStats &ffStats() const { return ffCounters; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores.size());
    }
    const cpu::CoreStats &coreStats(unsigned i) const
    {
        return cores[i]->stats();
    }
    const std::string &traceName(unsigned i) const
    {
        return cores[i]->traceName();
    }
    mem::MemoryController &mc() { return *controller; }
    const mem::MemoryController &mc() const { return *controller; }
    /** The open-loop service driver, or nullptr when not configured. */
    const service::OpenLoopService *service() const { return svc.get(); }
    /** The replay source, or nullptr outside replay mode. */
    const trace::TraceReplaySource *replaySource() const
    {
        return replay.get();
    }
    trng::EntropySource &entropy() { return entropySource; }
    Cycle busCycles() const { return now; }
    bool allFinished() const;
    const SimConfig &config() const { return cfg; }

  private:
    /** Advance to @p end, optionally stopping once all budgets retire. */
    void advanceUntil(Cycle end, bool stop_when_finished);

    /**
     * Batch drain: while every core reports kNoEvent (only a completion
     * can wake it) and the service/replay layers have no event before
     * the bound, tick the controller alone cycle by cycle (with
     * controller-only span skips in between), watching for a completion
     * that wakes a core. Returns true when at least one cycle advanced;
     * false when the entry conditions fail (some component is active at
     * @p now, or service work is in flight).
     */
    bool tryDrainController(Cycle end);

    /** Forward the effective batch flag to the controller. */
    void applyBatchMode();

    SimConfig cfg;
    std::vector<std::unique_ptr<cpu::TraceSource>> traceOwners;
    std::unique_ptr<mem::MemoryController> controller;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    /** Open-loop service driver on the port past the last core. */
    std::unique_ptr<service::OpenLoopService> svc;
    /** Tape standing in for cores + service when cfg.traceReplay set. */
    std::unique_ptr<trace::TraceReplaySource> replay;
    /** Recorder hooked into the controller when cfg.traceRecord set. */
    std::unique_ptr<trace::TraceWriter> recorder;
    trng::EntropySource entropySource;
    Cycle now = 0;
    bool ffEnabled;
    bool batchEnabled;
    /** Set by the completion callback whenever a core receives a
     *  completion; the batch drain polls and clears it instead of
     *  re-deriving every core's horizon after every controller tick. */
    bool coreCompletionPending = false;
    FfStats ffCounters;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_SYSTEM_H
