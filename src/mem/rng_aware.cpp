#include "mem/rng_aware.h"

#include <algorithm>
#include <cassert>

namespace dstrange::mem {

RngAwarePolicy::RngAwarePolicy(unsigned channels, unsigned cores,
                               const Config &config)
    : cfg(config), priorities(cores, 0), rngApp(cores, false),
      stalls(channels)
{
}

void
RngAwarePolicy::setPriority(CoreId core, int priority)
{
    if (priorities[core] != priority) {
        priorities[core] = priority;
        // Priority changes reset the anti-starvation state (Section 5.2).
        for (auto &s : stalls)
            s = StallCounters{};
    }
}

RngAwarePolicy::Pressure
RngAwarePolicy::pressure(const RequestQueue &read_queue,
                         const std::deque<RngJob> &rng_jobs) const
{
    if (rng_jobs.empty() || read_queue.empty())
        return Pressure::None;

    int prio_rng = priorities[rng_jobs.front().core];
    for (const RngJob &job : rng_jobs)
        prio_rng = std::max(prio_rng, priorities[job.core]);

    int prio_reg = priorities[read_queue.at(0).core];
    std::uint64_t oldest_reg_seq = read_queue.at(0).seq;
    CoreId oldest_reg_core = read_queue.at(0).core;
    for (std::size_t i = 0; i < read_queue.size(); ++i) {
        const Request &req = read_queue.at(i);
        prio_reg = std::max(prio_reg, priorities[req.core]);
        if (req.seq < oldest_reg_seq) {
            oldest_reg_seq = req.seq;
            oldest_reg_core = req.core;
        }
    }

    if (prio_reg > prio_rng) {
        // Non-RNG prioritized: RNG requests older than an RNG
        // application's blocked regular read drain unconditionally.
        if (rngApp[oldest_reg_core] &&
            oldest_reg_seq > rng_jobs.front().seq)
            return Pressure::None;
        return Pressure::OnRng;
    }
    // RNG prioritized or equal priorities: drain the RNG queue first
    // (Section 5.2.1), bounded by the stall limit.
    return Pressure::OnRegular;
}

QueueChoice
RngAwarePolicy::pureChoice(const RequestQueue &read_queue,
                           const std::deque<RngJob> &rng_jobs) const
{
    if (rng_jobs.empty() && read_queue.empty())
        return QueueChoice::None;
    if (rng_jobs.empty())
        return QueueChoice::Regular;
    // RNG pending and either no regular reads or the old-RNG-drain rule.
    return QueueChoice::Rng;
}

QueueChoice
RngAwarePolicy::choose(unsigned channel, const RequestQueue &read_queue,
                       const std::deque<RngJob> &rng_jobs)
{
    const Pressure p = pressure(read_queue, rng_jobs);
    if (p == Pressure::None)
        return pureChoice(read_queue, rng_jobs);

    StallCounters &s = stalls[channel];
    Cycle &counter = p == Pressure::OnRegular ? s.regular : s.rng;
    if (counter >= cfg.stallLimit) {
        // The deprioritized queue's stall limit trips: serve it once.
        counter = 0;
        return p == Pressure::OnRegular ? QueueChoice::Regular
                                        : QueueChoice::Rng;
    }
    counter++;
    maxStall = std::max(maxStall, counter);
    return p == Pressure::OnRegular ? QueueChoice::Rng
                                    : QueueChoice::Regular;
}

RngAwarePolicy::Arbitration
RngAwarePolicy::arbitration(unsigned channel,
                            const RequestQueue &read_queue,
                            const std::deque<RngJob> &rng_jobs,
                            Cycle now) const
{
    Arbitration arb;
    const Pressure p = pressure(read_queue, rng_jobs);
    if (p == Pressure::None) {
        arb.choice = pureChoice(read_queue, rng_jobs);
        return arb;
    }
    arb.regularPrioritized = p == Pressure::OnRng;
    const StallCounters &s = stalls[channel];
    const Cycle counter = p == Pressure::OnRegular ? s.regular : s.rng;
    if (counter >= cfg.stallLimit) {
        // The flip-and-reset happens on the very next choose() call.
        arb.flipAt = now;
        arb.choice = p == Pressure::OnRegular ? QueueChoice::Regular
                                              : QueueChoice::Rng;
    } else {
        arb.flipAt = now + (cfg.stallLimit - counter);
        arb.choice = p == Pressure::OnRegular ? QueueChoice::Rng
                                              : QueueChoice::Regular;
    }
    return arb;
}

QueueChoice
RngAwarePolicy::peek(unsigned channel, const RequestQueue &read_queue,
                     const std::deque<RngJob> &rng_jobs) const
{
    return arbitration(channel, read_queue, rng_jobs, 0).choice;
}

Cycle
RngAwarePolicy::nextEventCycle(unsigned channel,
                               const RequestQueue &read_queue,
                               const std::deque<RngJob> &rng_jobs,
                               Cycle now) const
{
    return arbitration(channel, read_queue, rng_jobs, now).flipAt;
}

void
RngAwarePolicy::fastForward(unsigned channel,
                            const RequestQueue &read_queue,
                            const std::deque<RngJob> &rng_jobs,
                            Cycle span)
{
    const Pressure p = pressure(read_queue, rng_jobs);
    if (p == Pressure::None)
        return;
    StallCounters &s = stalls[channel];
    Cycle &counter = p == Pressure::OnRegular ? s.regular : s.rng;
    assert(counter + span <= cfg.stallLimit);
    counter += span;
    maxStall = std::max(maxStall, counter);
}

void
RngAwarePolicy::noteServed(unsigned channel, QueueChoice served)
{
    StallCounters &s = stalls[channel];
    if (served == QueueChoice::Regular)
        s.regular = 0;
    else if (served == QueueChoice::Rng)
        s.rng = 0;
}

} // namespace dstrange::mem
