/**
 * @file
 * NIST-SP800-22-style statistical quality checks for random bitstreams.
 * Used in tests and examples to validate the simulated entropy source the
 * same way the paper's TRNG mechanisms validate their post-processed
 * output.
 */

#ifndef DSTRANGE_TRNG_BIT_QUALITY_H
#define DSTRANGE_TRNG_BIT_QUALITY_H

#include <cstdint>
#include <span>
#include <vector>

namespace dstrange::trng {

/** Result of one statistical test. */
struct TestResult
{
    double statistic = 0.0; ///< Test-specific statistic (e.g. |z|).
    bool pass = false;      ///< Pass at the test's default significance.
};

/**
 * Frequency (monobit) test: the fraction of ones should be ~0.5.
 * Passes when |z| < 3.29 (alpha ~ 0.001). Bit i of the stream is bit
 * i % 8 of byte i / 8.
 */
TestResult monobitTest(std::span<const std::uint8_t> bytes);

/**
 * Runs test: the number of maximal same-bit runs should match the
 * expectation for an unbiased source. Passes when |z| < 3.29. Same bit
 * order as monobitTest().
 */
TestResult runsTest(std::span<const std::uint8_t> bytes);

/**
 * Byte-level chi-square uniformity test over 256 bins. Passes when the
 * statistic lies within a generous [160, 380] band (df = 255).
 */
TestResult chiSquareByteTest(const std::vector<std::uint8_t> &bytes);

/**
 * First-order serial correlation of consecutive bytes; near 0 for a good
 * source. Passes when |r| < 0.05.
 */
TestResult serialCorrelationTest(const std::vector<std::uint8_t> &bytes);

/** Shannon entropy per byte (max 8.0). */
double shannonEntropyPerByte(const std::vector<std::uint8_t> &bytes);

} // namespace dstrange::trng

#endif // DSTRANGE_TRNG_BIT_QUALITY_H
