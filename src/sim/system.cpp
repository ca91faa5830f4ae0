#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/env_util.h"
#include "trace/trace_reader.h"

namespace dstrange::sim {

System::System(const SimConfig &config,
               std::vector<std::unique_ptr<cpu::TraceSource>> traces)
    : cfg(config), traceOwners(std::move(traces)),
      entropySource(mix64(config.seed) ^ 0xdead),
      ffEnabled(envFlag("DS_FAST_FORWARD", true)),
      batchEnabled(envFlag("DS_BATCH", true))
{
    // A system needs at least one request source: a traced core, the
    // open-loop service port, or a replay tape standing in for both.
    assert(!traceOwners.empty() || cfg.service.enabled ||
           !cfg.traceReplay.empty());

    // In replay mode the tape dictates the port topology; the cores and
    // the service driver of the recorded run are not instantiated — the
    // tape re-issues their accepted requests at the recorded cycles.
    unsigned n_ports = static_cast<unsigned>(traceOwners.size()) +
                       (cfg.service.enabled ? 1u : 0u);
    if (!cfg.traceReplay.empty()) {
        replay = std::make_unique<trace::TraceReplaySource>(
            trace::loadTrace(cfg.traceReplay));
        n_ports = replay->tape().numPorts();
    }

    // The service layer issues on one extra controller port past the
    // last core, so its requests arbitrate like any application's.
    controller = std::make_unique<mem::MemoryController>(
        mcConfigFor(cfg), cfg.timings, cfg.geometry, cfg.mechanism,
        n_ports);
    applyBatchMode();

    if (!replay) {
        cpu::Core::Config core_cfg;
        core_cfg.instrBudget = cfg.instrBudget;
        for (unsigned i = 0; i < traceOwners.size(); ++i) {
            cores.push_back(std::make_unique<cpu::Core>(
                static_cast<CoreId>(i), core_cfg, *traceOwners[i],
                *controller));
        }

        if (cfg.service.enabled) {
            svc = std::make_unique<service::OpenLoopService>(
                cfg.service, static_cast<CoreId>(cores.size()),
                *controller, cfg.seed);
        }
    }

    // In replay mode no issuer waits on completions, so the callback
    // finds neither a core nor the service driver and does nothing.
    controller->setCompletionCallback(
        [this](CoreId core, std::uint64_t token, mem::ReqType,
               mem::ServePath path) {
            if (core < cores.size()) {
                cores[core]->onCompletion(token);
                coreCompletionPending = true;
            } else if (svc) {
                svc->onCompletion(token, now, path);
            }
        });

    if (replay) {
        const auto &ports = replay->tape().header.ports;
        for (unsigned i = 0; i < ports.size(); ++i)
            if (ports[i].hasPriority)
                controller->setPriority(static_cast<CoreId>(i),
                                        ports[i].priority);
    } else {
        for (unsigned i = 0; i < cfg.priorities.size() && i < cores.size();
             ++i)
            controller->setPriority(static_cast<CoreId>(i),
                                    cfg.priorities[i]);
    }

    if (!cfg.traceRecord.empty()) {
        // The record port field is one byte; no simulated topology comes
        // close, but fail loudly rather than wrap silently.
        if (n_ports > 255)
            throw std::runtime_error(
                "trace recording supports at most 255 ports");
        trace::TraceHeader header;
        if (replay) {
            // Re-recording a replay reproduces the original header (and
            // with matching bounds, a byte-identical tape).
            header = replay->tape().header;
        } else {
            for (unsigned i = 0; i < n_ports; ++i) {
                trace::TracePortInfo p;
                p.hasPriority =
                    i < cfg.priorities.size() && i < cores.size();
                p.priority = p.hasPriority ? cfg.priorities[i] : 0;
                header.ports.push_back(p);
            }
            header.servicePort =
                svc ? static_cast<std::int32_t>(n_ports) - 1 : -1;
        }
        recorder =
            std::make_unique<trace::TraceWriter>(cfg.traceRecord, header);
        std::vector<std::int32_t> port_priority;
        for (const trace::TracePortInfo &p : header.ports)
            port_priority.push_back(p.priority);
        controller->setTraceSink(
            [this, port_priority](const mem::Request &req, Cycle at) {
                trace::TraceRecord rec;
                rec.cycle = at;
                rec.addr = req.addr;
                rec.type = trace::reqTypeToByte(req.type);
                rec.port = static_cast<std::uint8_t>(req.core);
                rec.priority = port_priority[req.core];
                recorder->append(rec);
            });
    }
}

void
System::applyBatchMode()
{
    // Batch mode is an acceleration of the fast-forward path; the
    // step-1 lockstep reference must run the historical code exactly.
    controller->setBatchMode(ffEnabled && batchEnabled);
}

bool
System::allFinished() const
{
    for (const auto &core : cores)
        if (!core->finished())
            return false;
    return true;
}

Cycle
System::nextEventCycle() const
{
    // Core horizons are cheap; check them before the controller's
    // deeper analysis so busy-core cycles bail out early.
    Cycle horizon = kNoEvent;
    for (const auto &core : cores) {
        horizon = std::min(horizon, core->nextEventCycle(now));
        if (horizon <= now)
            return now;
    }
    if (svc) {
        horizon = std::min(horizon, svc->nextEventCycle(now));
        if (horizon <= now)
            return now;
    }
    if (replay) {
        // The head record's arrival cycle is the tape's only event; a
        // skip must never jump past a pending enqueue.
        horizon = std::min(horizon, replay->nextEventCycle());
        if (horizon <= now)
            return now;
    }
    horizon = std::min(horizon, controller->nextEventCycle(now));
    return horizon <= now ? now : horizon;
}

void
System::advanceUntil(Cycle end, bool stop_when_finished)
{
    // Adaptive horizon backoff: during dense event phases the horizon
    // computation itself is the overhead, so after consecutive blocked
    // probes the loop ticks a few cycles without probing. This only
    // delays the start of the next skip by at most the backoff (the
    // step path is always correct) and keeps event-dense workloads
    // from paying the probe on every cycle.
    Cycle probe_at = 0;
    unsigned backoff = 0;
    while (now < end) {
        if (stop_when_finished && allFinished() &&
            (!svc || svc->drained()))
            return;
        if (ffEnabled && now >= probe_at) {
            ffCounters.probes++;
            const Cycle horizon = nextEventCycle();
            const Cycle to = std::min(horizon, end);
            if (to <= now + 1) {
                // Only back off inside genuinely dense phases: isolated
                // event ticks between skips keep probing every cycle.
                ++backoff;
                if (backoff > 4)
                    probe_at = now + 1 + std::min(backoff - 4, 8u);
            } else {
                backoff = 0;
            }
            if (to > now + 1) {
                // Every component is quiescent through [now, to):
                // batch-apply the span's bookkeeping and jump.
                controller->fastForward(now, to);
                for (auto &core : cores)
                    core->fastForward(now, to);
                if (svc)
                    svc->fastForward(now, to);
                ffCounters.skips++;
                ffCounters.skippedCycles += to - now;
                now = to;
                continue;
            }
            // No system-wide span to skip: the controller is dense. If
            // it is the *only* dense component, drain it alone — the
            // command-bound phases of heavy workloads spend most of
            // their cycles here.
            if (batchEnabled && tryDrainController(end)) {
                backoff = 0;
                probe_at = now;
                continue;
            }
        }
        // The service port issues before the controller tick, so an
        // arrival at cycle t can be buffer-served with its completion
        // scheduled from t — one fixed order keeps runs bit-identical.
        // Replay preserves both enqueue phases: recorded service-port
        // requests land pre-tick, recorded core requests post-tick.
        if (svc)
            svc->tick(now);
        if (replay)
            replay->tickService(now, *controller);
        controller->tick(now);
        if (ffEnabled && batchEnabled) {
            // A core reporting kNoEvent *after* the controller tick (so
            // same-cycle completions are visible) only does stall
            // bookkeeping this cycle; the one-cycle fastForward applies
            // it bit-identically without the five per-CPU-cycle ticks.
            for (auto &core : cores) {
                if (core->nextEventCycle(now) == kNoEvent)
                    core->fastForward(now, now + 1);
                else
                    core->tickBusCycle(now);
            }
        } else {
            for (auto &core : cores)
                core->tickBusCycle(now);
        }
        if (replay)
            replay->tickCores(now, *controller);
        ffCounters.steppedCycles++;
        ++now;
    }
}

bool
System::tryDrainController(Cycle end)
{
    // Entry: every core must be quiescent past the current cycle. A
    // core's horizon is the first cycle its tick does anything beyond
    // the bookkeeping fastForward() batches — in particular it cannot
    // issue a request before then — so until the earliest core horizon
    // the controller is the only component doing per-cycle work.
    // kNoEvent cores wake only through a completion (watched via the
    // completion flag below); future-event cores bound the drain.
    Cycle core_ev = kNoEvent;
    for (const auto &core : cores) {
        core_ev = std::min(core_ev, core->nextEventCycle(now));
        if (core_ev <= now)
            return false;
    }

    // The service and replay layers do not tick inside the drain; bound
    // the drain by their next event so skipping their no-op ticks is
    // exact. Neither can have an event appear earlier mid-drain: their
    // state only changes through their own ticks and (for the service)
    // completions, which the in-flight check below excludes.
    Cycle bound = std::min(end, core_ev);
    if (svc)
        bound = std::min(bound, svc->nextEventCycle(now));
    if (replay)
        bound = std::min(bound, replay->nextEventCycle());
    if (bound <= now)
        return false;

    // RNG completions are delivered from *inside* the controller tick
    // (routeBits), not through a queue front the bound could cover; a
    // service-destined one would mutate service state mid-drain unseen.
    // Refuse while any service work is in flight — no new service work
    // can appear during the drain, since the service only issues in its
    // own tick and the cores are blocked.
    if (svc &&
        controller->hasWorkForPort(static_cast<CoreId>(cores.size())))
        return false;

    const Cycle svcFrom = now;
    Cycle coreFrom = now;
    // The caller only drains after a failed skip probe, so the current
    // cycle is known dense — start probing at the next one.
    Cycle probe_at = now + 1;
    unsigned backoff = 0;
    coreCompletionPending = false;
    while (now < bound) {
        if (now >= probe_at) {
            // Controller-only horizon: much cheaper than the full probe
            // and still able to skip intra-burst timing gaps.
            ffCounters.probes++;
            const Cycle to = std::min(controller->nextEventCycle(now),
                                      bound);
            if (to > now + 1) {
                controller->fastForward(now, to);
                ffCounters.skips++;
                ffCounters.skippedCycles += to - now;
                now = to;
                backoff = 0;
                continue;
            }
            ++backoff;
            if (backoff > 4)
                probe_at = now + 1 + std::min(backoff - 4, 8u);
        }

        // Bring the blocked cores' bookkeeping up to `now` before the
        // tick: a completion this cycle may wake one, and its wake tick
        // below must start from consistent state.
        if (now > coreFrom) {
            for (auto &core : cores)
                core->fastForward(coreFrom, now);
            coreFrom = now;
        }

        controller->tick(now);
        ffCounters.drainTicks++;

        if (coreCompletionPending) {
            coreCompletionPending = false;
            // A completion only moves a core's horizon earlier; the
            // drain continues under the tightened bound unless a core
            // became runnable this very cycle.
            Cycle ev = kNoEvent;
            for (const auto &core : cores)
                ev = std::min(ev, core->nextEventCycle(now));
            if (ev <= now) {
                // Finish the cycle exactly as the step path would: the
                // service/replay ticks it skipped are no-ops below the
                // bound, the controller already ticked, the cores tick
                // now (their bookkeeping was flushed to `now` above).
                for (auto &core : cores)
                    core->tickBusCycle(now);
                ffCounters.steppedCycles++;
                ffCounters.drainTicks--; // Counted as a full step.
                ++now;
                coreFrom = now;
                break;
            }
            bound = std::min(bound, ev);
        }
        ++now;
    }

    // Batch the remaining blocked span for the cores and the service.
    if (now > coreFrom)
        for (auto &core : cores)
            core->fastForward(coreFrom, now);
    if (svc && now > svcFrom)
        svc->fastForward(svcFrom, now);
    return true;
}

void
System::step(Cycle cycles)
{
    advanceUntil(now + cycles, /*stop_when_finished=*/false);
}

void
System::run()
{
    if (replay) {
        // The recorded run stopped at endCycle; advancing to exactly
        // that cycle reproduces every controller-side metric. The
        // all-finished early exit must stay off: with no cores, every
        // budget is vacuously retired at cycle 0.
        advanceUntil(std::min(cfg.maxBusCycles, replay->endCycle()),
                     /*stop_when_finished=*/false);
    } else {
        advanceUntil(cfg.maxBusCycles, /*stop_when_finished=*/true);
    }
    if (recorder)
        recorder->finalize(now);
}

} // namespace dstrange::sim
