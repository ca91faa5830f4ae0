#include "cells.h"

#include <algorithm>
#include <stdexcept>

#include "api/simulation_builder.h"
#include "sim/design_registry.h"
#include "workloads/app_profile.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

namespace perfbench {

namespace ds = dstrange;

namespace {

/** Instructions per core on dual-heavy: the figure benches' default. */
constexpr std::uint64_t kHeavyBudget = 200000;
/** dual-idle cells run 5x longer so that each DR-STRaNGe cell sees a few
 *  hundred RNG requests at 640 Mb/s and a cell takes milliseconds. */
constexpr std::uint64_t kIdleBudget = 1000000;

/** Sub-seeds per run, chosen so every pass is 105 (dual-*) or 205
 *  (svc-fault) cells: an odd count puts the nearest-rank median, and
 *  0.9 * 105 = 94.5 or 0.9 * 205 = 184.5 the p90, mid-way through one
 *  cell instead of on the edge between two, and leaves at least 10
 *  cells beyond the p90. svc-fault takes more sub-seeds because the
 *  fault stream of one sub-seed changes a cell's cost up to 3x. */
constexpr unsigned kDualSubSeeds = 7;     // x 5 apps x 3 designs
constexpr unsigned kServiceSubSeeds = 41; // x 5 cells

/** The designs of Figs. 6 and 9. */
const std::vector<std::string> kDualDesigns = {"oblivious", "greedy",
                                               "drstrange"};

/**
 * @p k apps evenly spaced along @p names ordered by MPKI, lowest and
 * highest included, so the sample spans the whole intensity ladder.
 */
std::vector<std::string>
ladder(std::vector<std::string> names, unsigned k)
{
    std::stable_sort(names.begin(), names.end(),
                     [](const std::string &a, const std::string &b) {
                         return ds::workloads::appByName(a).mpki <
                                ds::workloads::appByName(b).mpki;
                     });
    std::vector<std::string> out;
    for (unsigned i = 0; i < k; ++i)
        out.push_back(names[i * (names.size() - 1) / (k - 1)]);
    return out;
}

ds::sim::SimConfig
baseConfig(std::uint64_t seed, std::uint64_t budget)
{
    ds::sim::SimulationBuilder b;
    b.instrBudget(budget).seed(seed).faultSeed(seed);
    return b.config();
}

Cell
makeCell(const ds::sim::SimConfig &base, const std::string &design,
         ds::workloads::WorkloadSpec spec, const std::string &variant)
{
    Cell c;
    c.design = design;
    c.config = base;
    ds::sim::DesignRegistry::instance().apply(design, c.config);
    c.name = spec.name + "/" + design;
    if (!variant.empty())
        c.name += "/" + variant;
    c.spec = std::move(spec);
    return c;
}

/** Two-core mixes of @p apps with one RNG app, under every dual design
 *  and sub-seed. */
Workload
dualWorkload(const std::string &name, std::vector<std::string> apps,
             double rng_mbps, std::uint64_t budget, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.apps = std::move(apps);
    w.rngMbps = rng_mbps;
    for (unsigned j = 0; j < kDualSubSeeds; ++j) {
        const std::uint64_t sub = seed * kDualSubSeeds + j;
        w.bases.push_back(baseConfig(sub, budget));
        for (const std::string &app : w.apps) {
            ds::workloads::WorkloadSpec spec;
            spec.name = app + "+rng" + std::to_string(int(rng_mbps)) +
                        "@" + std::to_string(sub);
            spec.apps = {app};
            spec.rngThroughputMbps = rng_mbps;
            for (const std::string &design : kDualDesigns)
                w.cells.push_back(
                    makeCell(w.bases.back(), design, spec, ""));
        }
    }
    return w;
}

/** Open-loop Poisson RNG service under cell faults, no cores. Per
 *  sub-seed: {oblivious, drstrange} x monitor {on, off}, plus the
 *  fault-free drstrange reference. */
Workload
serviceFaultWorkload(std::uint64_t seed)
{
    Workload w;
    w.name = "svc-fault";
    for (unsigned j = 0; j < kServiceSubSeeds; ++j) {
        const std::uint64_t sub = seed * kServiceSubSeeds + j;
        // Service cells have no cores: the instruction budget is unused.
        ds::sim::SimulationBuilder b(baseConfig(sub, kHeavyBudget));
        b.serviceEnabled(true)
            .serviceArrival("poisson")
            .serviceOfferedMbps(5120.0)
            .serviceDuration(10000)
            .serviceSloTarget(500)
            .faultModels("bitflip,weak-cell,stuck-row");
        w.bases.push_back(b.config());

        ds::workloads::WorkloadSpec spec;
        spec.name = "svc5120@" + std::to_string(sub);
        spec.rngThroughputMbps = 0.0;
        for (const std::string design : {"oblivious", "drstrange"}) {
            for (const bool monitor : {true, false}) {
                ds::sim::SimConfig cfg = w.bases.back();
                cfg.fault.monitor = monitor;
                w.cells.push_back(makeCell(
                    cfg, design, spec, monitor ? "monitor" : "nomonitor"));
            }
        }
        // The same load with the fault plane bypassed: the reference
        // that isolates the fault plane's cost.
        ds::sim::SimConfig clean = w.bases.back();
        clean.fault.models.clear();
        // Set-up warms up on a fault-free cell: a faulted cell's cost
        // depends on its fault stream up to 3x, which would make set-up
        // time follow the seed rather than the code. There are no alone
        // baselines here, so the warm-up is most of the set-up.
        if (j == 0)
            w.warmupCell = w.cells.size();
        w.cells.push_back(makeCell(clean, "drstrange", spec, "nofault"));
    }
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "dual-heavy")
        return dualWorkload(
            name, ladder(ds::workloads::paperPlottedApps(), 5), 5120.0,
            kHeavyBudget, seed);
    if (name == "dual-idle") {
        std::vector<std::string> low;
        for (const ds::workloads::AppProfile *p :
             ds::workloads::appsByCategory('L'))
            low.push_back(p->name);
        return dualWorkload(name, ladder(low, 5), 640.0, kIdleBudget,
                            seed);
    }
    if (name == "svc-fault")
        return serviceFaultWorkload(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::unique_ptr<ds::cpu::TraceSource>>
makeTraces(const Cell &cell)
{
    const ds::sim::SimConfig &cfg = cell.config;
    std::vector<std::unique_ptr<ds::cpu::TraceSource>> traces;
    for (std::size_t i = 0; i < cell.spec.apps.size(); ++i) {
        traces.push_back(std::make_unique<ds::workloads::SyntheticTrace>(
            ds::workloads::appByName(cell.spec.apps[i]), cfg.geometry,
            static_cast<ds::CoreId>(i), cfg.seed));
    }
    if (cell.spec.rngThroughputMbps > 0.0) {
        traces.push_back(std::make_unique<ds::workloads::RngBenchmark>(
            cell.spec.rngThroughputMbps, cfg.geometry,
            cfg.seed + traces.size()));
    }
    return traces;
}

} // namespace perfbench
