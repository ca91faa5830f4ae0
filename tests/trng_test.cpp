/**
 * @file
 * Tests for the TRNG substrate: mechanism parameter math, the simulated
 * entropy source, statistical bitstream quality, and the per-channel
 * RNG-mode engine state machine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dram/dram_channel.h"
#include "trng/bit_quality.h"
#include "trng/entropy_source.h"
#include "trng/rng_engine.h"
#include "trng/trng_mechanism.h"

using namespace dstrange;
using namespace dstrange::trng;

TEST(TrngMechanism, DRangeThroughputMatchesCalibration)
{
    const TrngMechanism m = TrngMechanism::dRange();
    EXPECT_NEAR(m.perChannelThroughputMbps(), 1280.0, 1.0);
    EXPECT_NEAR(m.systemThroughputMbps(4), 5120.0, 4.0);
}

TEST(TrngMechanism, QuacHasHigherThroughputAndLatency)
{
    const TrngMechanism d = TrngMechanism::dRange();
    const TrngMechanism q = TrngMechanism::quacTrng();
    EXPECT_GT(q.perChannelThroughputMbps(), d.perChannelThroughputMbps());
    EXPECT_GT(q.demandLatency(64, 4), d.demandLatency(64, 4));
    EXPECT_NEAR(q.perChannelThroughputMbps(), 3442.0, 5.0);
}

TEST(TrngMechanism, DemandLatencyScalesWithBitsAndChannels)
{
    const TrngMechanism m = TrngMechanism::dRange();
    // 64 bits over 4 channels: 2 rounds each.
    EXPECT_EQ(m.demandLatency(64, 4),
              m.switchInLatency + 2 * m.roundLatency + m.switchOutLatency);
    // One channel: 8 rounds.
    EXPECT_EQ(m.demandLatency(64, 1),
              m.switchInLatency + 8 * m.roundLatency + m.switchOutLatency);
    // More channels never increase latency.
    EXPECT_LE(m.demandLatency(64, 8), m.demandLatency(64, 4));
}

TEST(TrngMechanism, SweepMechanismHitsTargetSystemThroughput)
{
    for (double mbps : {200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0}) {
        const TrngMechanism m =
            TrngMechanism::withSystemThroughput(mbps, 4);
        EXPECT_NEAR(m.systemThroughputMbps(4), mbps, mbps * 0.01)
            << "target " << mbps;
        // Round latency is held at D-RaNGe's to isolate throughput.
        EXPECT_EQ(m.roundLatency, TrngMechanism::dRange().roundLatency);
    }
}

TEST(EntropySource, DeterministicAndCounted)
{
    EntropySource a(5), b(5);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next64(), b.next64());
    EXPECT_EQ(a.totalBitsHarvested(), 6400u);
}

TEST(EntropySource, NextBytesSizesAndCounts)
{
    EntropySource src(7);
    const auto bytes = src.nextBytes(100);
    EXPECT_EQ(bytes.size(), 100u);
    // 100 bytes need 13 words internally.
    EXPECT_EQ(src.totalBitsHarvested(), 13u * 64u);
}

class BitQualityTest : public ::testing::Test
{
  protected:
    std::vector<std::uint8_t>
    randomBytes(std::size_t n, std::uint64_t seed)
    {
        EntropySource src(seed);
        return src.nextBytes(n);
    }
};

TEST_F(BitQualityTest, GoodSourcePassesAllTests)
{
    const auto bytes = randomBytes(1 << 16, 11);
    EXPECT_TRUE(monobitTest(bytes).pass);
    EXPECT_TRUE(runsTest(bytes).pass);
    EXPECT_TRUE(chiSquareByteTest(bytes).pass);
    EXPECT_TRUE(serialCorrelationTest(bytes).pass);
    EXPECT_GT(shannonEntropyPerByte(bytes), 7.99);
}

TEST_F(BitQualityTest, ConstantStreamFailsMonobit)
{
    const std::vector<std::uint8_t> zeros(1 << 14, 0x00);
    EXPECT_FALSE(monobitTest(zeros).pass);
    EXPECT_DOUBLE_EQ(shannonEntropyPerByte(zeros), 0.0);
}

TEST_F(BitQualityTest, AlternatingPatternFailsRunsTest)
{
    // 0x55 = 01010101: maximal run count, far above expectation.
    const std::vector<std::uint8_t> alt(1 << 14, 0x55);
    EXPECT_FALSE(runsTest(alt).pass);
}

TEST_F(BitQualityTest, BiasedStreamFailsChiSquare)
{
    auto bytes = randomBytes(1 << 16, 13);
    // Skew: force a quarter of the bytes to a single value.
    for (std::size_t i = 0; i < bytes.size(); i += 4)
        bytes[i] = 0xab;
    EXPECT_FALSE(chiSquareByteTest(bytes).pass);
}

TEST_F(BitQualityTest, SequentialBytesFailSerialCorrelation)
{
    std::vector<std::uint8_t> ramp(1 << 14);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<std::uint8_t>(i);
    EXPECT_FALSE(serialCorrelationTest(ramp).pass);
}

// Bit-serial references for the word-level monobit and runs tests: one
// branch per bit, LSB-first within each byte. The production tests must
// agree with them exactly, statistic and verdict.
namespace {
namespace ref {

std::uint64_t
countOnes(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t ones = 0;
    for (std::uint8_t b : bytes)
        for (unsigned i = 0; i < 8; ++i)
            ones += (b >> i) & 1;
    return ones;
}

TestResult
monobitTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    const double n = static_cast<double>(bytes.size()) * 8.0;
    if (n == 0.0)
        return res;
    const double ones = static_cast<double>(countOnes(bytes));
    res.statistic = std::abs(2.0 * ones - n) / std::sqrt(n);
    res.pass = res.statistic < 3.29;
    return res;
}

TestResult
runsTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    const std::size_t n_bits = bytes.size() * 8;
    if (n_bits < 2)
        return res;
    auto bit_at = [&](std::size_t i) {
        return (bytes[i / 8] >> (i % 8)) & 1;
    };
    std::uint64_t runs = 1;
    for (std::size_t i = 1; i < n_bits; ++i)
        if (bit_at(i) != bit_at(i - 1))
            ++runs;
    const double n = static_cast<double>(n_bits);
    const double pi = static_cast<double>(countOnes(bytes)) / n;
    const double expected = 2.0 * n * pi * (1.0 - pi) + 1.0;
    const double variance =
        2.0 * n * pi * (1.0 - pi) * (2.0 * pi * (1.0 - pi));
    if (variance <= 0.0)
        return res;
    res.statistic =
        std::abs(static_cast<double>(runs) - expected) / std::sqrt(variance);
    res.pass = res.statistic < 3.29;
    return res;
}

} // namespace ref

void
expectMatchesReference(const std::vector<std::uint8_t> &bytes)
{
    SCOPED_TRACE(::testing::Message() << "length " << bytes.size());
    const TestResult mono = monobitTest(bytes);
    const TestResult mono_ref = ref::monobitTest(bytes);
    EXPECT_EQ(mono.statistic, mono_ref.statistic);
    EXPECT_EQ(mono.pass, mono_ref.pass);
    const TestResult runs = runsTest(bytes);
    const TestResult runs_ref = ref::runsTest(bytes);
    EXPECT_EQ(runs.statistic, runs_ref.statistic);
    EXPECT_EQ(runs.pass, runs_ref.pass);
}

} // namespace

TEST(BitQualityGolden, RandomBuffersMatchBitSerialReference)
{
    // Lengths 0..67 cover every length mod 8 and buffers with 0..8 whole
    // 64-bit words, so the byte tail and the word boundaries are hit.
    // Every third buffer is ones-sparse (density 1/4) so failing
    // verdicts are compared too, not only passing ones.
    Xoshiro256ss gen(0x5eed);
    for (int i = 0; i < 2720; ++i) {
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(i % 68));
        for (std::uint8_t &b : bytes) {
            std::uint64_t v = gen.next();
            if (i % 3 == 0)
                v &= gen.next();
            b = static_cast<std::uint8_t>(v);
        }
        expectMatchesReference(bytes);
    }
}

TEST(BitQualityGolden, CraftedBlocksMatchBitSerialReference)
{
    for (std::size_t len : {1u, 7u, 8u, 9u, 16u, 31u, 32u, 33u, 64u}) {
        for (std::uint8_t fill : {0x00, 0xff, 0x55, 0xaa})
            expectMatchesReference(std::vector<std::uint8_t>(len, fill));
        // One 0 -> 1 transition, placed on every byte boundary in turn
        // (every eighth one is also a 64-bit word boundary).
        for (std::size_t cut = 1; cut < len; ++cut) {
            std::vector<std::uint8_t> step(len, 0x00);
            for (std::size_t b = cut; b < len; ++b)
                step[b] = 0xff;
            expectMatchesReference(step);
        }
    }
    // The one transition sits exactly between 64-bit words 0 and 1 of a
    // 256-bit audit block: bit 63 is 0, bit 64 is 1.
    std::vector<std::uint8_t> block(32, 0x00);
    for (std::size_t b = 8; b < block.size(); ++b)
        block[b] = 0xff;
    expectMatchesReference(block);
}

class RngEngineTest : public ::testing::Test
{
  protected:
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan{t, g};
    TrngMechanism mech = TrngMechanism::dRange();
};

TEST_F(RngEngineTest, ProducesBitsPerRoundAfterSwitchIn)
{
    RngEngine eng(mech, chan);
    EXPECT_TRUE(eng.idle());
    eng.start(0);
    EXPECT_TRUE(eng.active());

    double produced = 0.0;
    Cycle first_bits_at = 0;
    for (Cycle c = 0; c < 200 && produced == 0.0; ++c) {
        produced = eng.tick(c);
        first_bits_at = c;
    }
    EXPECT_DOUBLE_EQ(produced, mech.bitsPerRound);
    // Bits appear at the end of switch-in plus one round.
    EXPECT_EQ(first_bits_at + 1, mech.switchInLatency + mech.roundLatency);
}

TEST_F(RngEngineTest, StopFinishesCurrentRoundThenExits)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    // Run into the first round, then ask to stop.
    for (Cycle c = 0; c < mech.switchInLatency + 1; ++c)
        eng.tick(c);
    eng.requestStop();
    double bits = 0.0;
    Cycle c = mech.switchInLatency + 1;
    while (eng.active() && c < 1000) {
        bits += eng.tick(c);
        ++c;
    }
    EXPECT_TRUE(eng.idle());
    // Exactly one round completed before switching out.
    EXPECT_DOUBLE_EQ(bits, mech.bitsPerRound);
    EXPECT_DOUBLE_EQ(eng.totalBits(), mech.bitsPerRound);
}

TEST_F(RngEngineTest, CancelStopContinuesRounds)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    eng.requestStop();
    eng.cancelStop();
    double bits = 0.0;
    for (Cycle c = 0; c < mech.switchInLatency + 3 * mech.roundLatency + 2;
         ++c) {
        bits += eng.tick(c);
    }
    EXPECT_GE(bits, 3 * mech.bitsPerRound);
    EXPECT_TRUE(eng.active());
}

TEST_F(RngEngineTest, OccupiesChannelWhileActive)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    EXPECT_TRUE(chan.rngBusy(1));
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 0, 1));
    // Sustained occupancy accounting.
    for (Cycle c = 0; c < 100; ++c)
        eng.tick(c);
    EXPECT_GT(eng.totalOccupiedCycles(), 90u);
}

TEST_F(RngEngineTest, SustainedThroughputMatchesMechanism)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    const Cycle horizon = 100000;
    double bits = 0.0;
    for (Cycle c = 0; c < horizon; ++c)
        bits += eng.tick(c);
    const double mbps = bits / (horizon / kBusFreqHz) / 1e6;
    EXPECT_NEAR(mbps, mech.perChannelThroughputMbps(),
                mech.perChannelThroughputMbps() * 0.02);
}

TEST_F(RngEngineTest, RoundsCountedForEnergy)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    for (Cycle c = 0; c < mech.switchInLatency + 5 * mech.roundLatency + 1;
         ++c) {
        eng.tick(c);
    }
    EXPECT_GE(chan.energyCounters().rngRounds, 5u);
}
