/**
 * @file
 * Component microbenchmarks (google-benchmark): per-operation costs of
 * the simulator's hot paths — address decode, scheduler pick, predictor
 * ops, RNG engine ticks, buffer ops, trace generation, the TRNG round
 * audit (monobit/runs tests, fault-plane rounds), and a whole simulated
 * bus cycle.
 */

#include <benchmark/benchmark.h>

#include "drstrange.h"
#include "fault/fault_plane.h"
#include "mem/bliss.h"
#include "mem/fr_fcfs.h"

using namespace dstrange;

static void
BM_AddressDecode(benchmark::State &state)
{
    const dram::AddressMapper mapper{dram::DramGeometry{}};
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.decode(addr));
        addr += 64 * 37;
    }
}
BENCHMARK(BM_AddressDecode);

static void
BM_FrFcfsPick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    mem::RequestQueue q(32);
    Xoshiro256ss gen(1);
    for (unsigned i = 0; i < 32; ++i) {
        mem::Request r;
        r.type = mem::ReqType::Read;
        r.coord = dram::DramCoord{0, static_cast<unsigned>(gen.nextBelow(8)),
                                  static_cast<unsigned>(gen.nextBelow(64)),
                                  0};
        r.seq = i;
        q.push(r);
    }
    mem::FrFcfsScheduler sched(1, 8, 16);
    Cycle now = 1000;
    for (auto _ : state) {
        const mem::SchedContext ctx{q, chan, 0, now++};
        benchmark::DoNotOptimize(sched.pick(ctx));
    }
}
BENCHMARK(BM_FrFcfsPick);

static void
BM_BlissPick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    mem::RequestQueue q(32);
    Xoshiro256ss gen(2);
    for (unsigned i = 0; i < 32; ++i) {
        mem::Request r;
        r.type = mem::ReqType::Read;
        r.coord = dram::DramCoord{0, static_cast<unsigned>(gen.nextBelow(8)),
                                  static_cast<unsigned>(gen.nextBelow(64)),
                                  0};
        r.core = static_cast<CoreId>(i % 4);
        r.seq = i;
        q.push(r);
    }
    mem::BlissScheduler sched(1, 4, 4, 10000);
    Cycle now = 1000;
    for (auto _ : state) {
        const mem::SchedContext ctx{q, chan, 0, now++};
        benchmark::DoNotOptimize(sched.pick(ctx));
    }
}
BENCHMARK(BM_BlissPick);

static void
BM_SimplePredictorCycle(benchmark::State &state)
{
    strange::SimpleIdlenessPredictor pred(
        strange::SimpleIdlenessPredictor::Config{});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predictLong(addr));
        pred.periodEnded(addr, addr % 80);
        addr += 64;
    }
}
BENCHMARK(BM_SimplePredictorCycle);

static void
BM_RlPredictorCycle(benchmark::State &state)
{
    strange::RlIdlenessPredictor pred(
        strange::RlIdlenessPredictor::Config{});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predictLong(addr));
        pred.periodEnded(addr, addr % 80);
        addr += 64;
    }
}
BENCHMARK(BM_RlPredictorCycle);

static void
BM_RngEngineTick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    trng::RngEngine eng(trng::TrngMechanism::dRange(), chan);
    Cycle now = 0;
    eng.start(now);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eng.tick(now++));
    }
}
BENCHMARK(BM_RngEngineTick);

static void
BM_BufferDepositServe(benchmark::State &state)
{
    strange::RandomNumberBuffer buf(16);
    for (auto _ : state) {
        buf.deposit(8.0);
        if (buf.canServe64())
            buf.serve64();
    }
}
BENCHMARK(BM_BufferDepositServe);

static void
BM_SyntheticTraceNext(benchmark::State &state)
{
    workloads::SyntheticTrace trace(workloads::appByName("mcf"),
                                    dram::DramGeometry{}, 0, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace.next());
}
BENCHMARK(BM_SyntheticTraceNext);

static void
BM_EntropyWord(benchmark::State &state)
{
    trng::EntropySource src(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(src.next64());
}
BENCHMARK(BM_EntropyWord);

/** 1024 distinct 32-byte audit-sized blocks: cycling through them keeps
 *  the branch predictor from learning one block's bit pattern. */
static std::vector<std::vector<std::uint8_t>>
auditBlocks()
{
    trng::EntropySource src(3);
    std::vector<std::vector<std::uint8_t>> blocks(1024);
    for (auto &b : blocks)
        b = src.nextBytes(32);
    return blocks;
}

static void
BM_MonobitTest32(benchmark::State &state)
{
    const auto blocks = auditBlocks();
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            trng::monobitTest(blocks[i++ % blocks.size()]));
}
BENCHMARK(BM_MonobitTest32);

static void
BM_RunsTest32(benchmark::State &state)
{
    const auto blocks = auditBlocks();
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            trng::runsTest(blocks[i++ % blocks.size()]));
}
BENCHMARK(BM_RunsTest32);

/** One audited TRNG round: block synthesis, the three cell fault models
 *  and both tests, with the health monitor on, over two channels. */
static void
BM_FaultPlaneRound(benchmark::State &state)
{
    fault::FaultConfig fc;
    fc.models = "bitflip,weak-cell,stuck-row";
    fault::FaultPlane plane(fc, 2);
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(plane.onRound(i & 1, (i & 2) != 0));
        ++i;
    }
}
BENCHMARK(BM_FaultPlaneRound);

static void
BM_SystemBusCycle(benchmark::State &state)
{
    sim::SimConfig cfg;
    sim::applyDesign(cfg, sim::SystemDesign::DrStrange);
    cfg.instrBudget = 1u << 30;
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), cfg.geometry, 0, 1));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        5120.0, cfg.geometry, 2));
    sim::System sys(cfg, std::move(traces));
    for (auto _ : state)
        sys.step(1);
}
BENCHMARK(BM_SystemBusCycle);

BENCHMARK_MAIN();
