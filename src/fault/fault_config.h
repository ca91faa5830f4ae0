/**
 * @file
 * Configuration of the deterministic fault-injection layer. Kept free
 * of heavy includes so sim/sim_config.h and mem/memory_controller.h can
 * embed it; all fields travel through the canonical config text as
 * `fault.*` keys, so faulty cells are cacheable and shardable like any
 * other sweep cell.
 */

#ifndef DSTRANGE_FAULT_FAULT_CONFIG_H
#define DSTRANGE_FAULT_FAULT_CONFIG_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace dstrange::fault {

/**
 * Knobs of the seeded fault-injection layer. `models` is the master
 * switch: a comma-separated list of fault::FaultRegistry keys (empty =
 * no injection, the default — a default-constructed config is inert and
 * bit-identical to the pre-fault simulator). Every injected fault is a
 * pure hash of (seed, channel, cell, per-cell use count), so runs are
 * reproducible and step-1 and fast-forward runs stay bit-identical.
 */
struct FaultConfig
{
    /** CSV of FaultRegistry keys ("bitflip", "weak-cell", "stuck-row",
     *  "outage"); empty = fault injection off. */
    std::string models;
    /** Fault-stream seed, independent of the simulation seed so fault
     *  environments can be varied against a fixed workload. */
    std::uint64_t seed = 1;
    /** Expected flipped bits per 256-bit audit block ("bitflip"). */
    double bitflipRate = 0.02;
    /** Active RNG cells rotated round-robin per channel. */
    unsigned cellsPerChannel = 64;
    /** Cells classified weak per channel ("weak-cell"). */
    unsigned weakCells = 8;
    /** Initial weak-cell bias exponent k: ones-density 1/2 + 2^-(k+1),
     *  so larger = milder (k=3 fails its audit intermittently, k=1
     *  always). */
    unsigned weakSeverity = 3;
    /** Uses per one-step severity decay toward k=1 (entropy drift);
     *  0 = stable cells. */
    std::uint64_t driftInterval = 0;
    /** Cells stuck at all-zeros/all-ones per channel ("stuck-row"). */
    unsigned stuckRows = 2;
    /** Healthy screened spare cells per channel available to the health
     *  monitor for remapping blacklisted cells. */
    unsigned spareCells = 16;
    /** Audit failures before the health monitor blacklists a cell. */
    unsigned blacklistThreshold = 3;
    /** Consecutive discarded rounds while demand is waiting before the
     *  monitor force-blacklists the failing cell (the bounded
     *  retry-then-refill path). */
    unsigned retryLimit = 8;
    /** Health monitor (blacklist/remap mitigation) enabled. Injection
     *  with the monitor off measures the unmitigated system. */
    bool monitor = true;
    /** Cycles between outage windows ("outage"; 0 = none even when the
     *  model is listed). */
    Cycle outagePeriod = 0;
    /** Outage window length in cycles. */
    Cycle outageDuration = 0;
    /** Outage blast radius: "channel" blocks the whole channel,
     *  "rank" only the banks of one seeded-per-channel rank. */
    std::string outageScope = "channel";

    /** Fault injection active (any model listed)? */
    bool enabled() const { return !models.empty(); }
};

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_CONFIG_H
