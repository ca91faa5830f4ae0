/**
 * @file
 * Host-speed probe. A fixed piece of work, independent of the simulator,
 * timed between the timed cells. On a shared host the speed the process
 * gets drifts by tens of percent within seconds; a cell's time divided
 * by the probe times around it follows the simulator's own cost, not
 * the host's state, and run.py reports host times scaled that way.
 *
 * The probe mixes five kinds of work, because no single kind slows down
 * in step with the simulator: a dependent ALU chain, independent ALU
 * chains with data-dependent branches, a byte-code interpreter over an
 * L2-sized table, an event-queue loop over a 1.5 MB working set, and
 * indirect calls spread over about 100 KB of code.
 * Its work is fixed: it never depends on the workload, the seed or the
 * simulator's sources.
 */

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe
{
  public:
    HostProbe();

    /** Run the probe's fixed work once; returns its host time in ms. */
    double run();

  private:
    struct Slot
    {
        std::uint64_t a = 0, b = 0;
        std::uint32_t c = 0, d = 0;
    };

    std::uint64_t dependentChain(std::uint64_t steps) const;
    std::uint64_t independentChains(std::uint64_t steps) const;
    std::uint64_t interpret(std::uint64_t steps) const;
    std::uint64_t eventLoop(std::uint64_t events);
    std::uint64_t indirectCalls(std::uint64_t calls) const;

    std::vector<std::uint8_t> code_;
    std::vector<std::uint64_t> table_;
    std::vector<Slot> slots_;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
