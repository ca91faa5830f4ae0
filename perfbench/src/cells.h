/**
 * @file
 * The benchmark's three workloads. Each is a fixed list of cells — one
 * (workload mix, design) pair run to completion through sim::Runner —
 * repeated under n simulation seeds derived from the benchmark seed s as
 * s * n + {0 .. n-1}. The app lists are fixed, so the seed changes only
 * the generated traces, arrivals and fault streams, never which work a
 * run does; the sub-seeds average out how much one draw of those
 * streams costs, so a run's host time depends little on its seed.
 */

#ifndef PERFBENCH_CELLS_H
#define PERFBENCH_CELLS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace_source.h"
#include "sim/sim_config.h"
#include "workloads/mixes.h"

namespace perfbench {

/** One timed unit of work: Runner::run(config, spec). */
struct Cell
{
    std::string name;   ///< "<mix>/<design>[/<variant>]".
    std::string design; ///< sim::DesignRegistry key.
    dstrange::sim::SimConfig config;
    dstrange::workloads::WorkloadSpec spec;
};

struct Workload
{
    std::string name;
    /** Runner base configuration per sub-seed (design knobs at their
     *  defaults); the alone baselines of each are computed in set-up. */
    std::vector<dstrange::sim::SimConfig> bases;
    /** Non-RNG apps whose alone baselines the set-up computes. */
    std::vector<std::string> apps;
    double rngMbps = 0.0; ///< RNG app throughput (0 = no RNG core).
    std::vector<Cell> cells;
    /** The cell each set-up runs once, untimed, before the timed loop. */
    std::size_t warmupCell = 0;
};

/** Build a workload; throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The per-core traces Runner::run builds for @p cell (same generators,
 * same per-core seeds), so a directly built System reproduces the
 * Runner's run of the cell.
 */
std::vector<std::unique_ptr<dstrange::cpu::TraceSource>>
makeTraces(const Cell &cell);

} // namespace perfbench

#endif // PERFBENCH_CELLS_H
