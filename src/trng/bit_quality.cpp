#include "trng/bit_quality.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

namespace dstrange::trng {

namespace {

/** @p n <= 8 stream bytes as a little-endian word: word bit j is bit
 *  j % 8 of byte j / 8, i.e. stream order. */
std::uint64_t
loadLe(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t v = 0;
    if (n == 8 && std::endian::native == std::endian::little) {
        std::memcpy(&v, p, 8);
        return v;
    }
    for (std::size_t b = 0; b < n; ++b)
        v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    return v;
}

/** Call @p f(word, width) on each 64-bit word of the stream in order;
 *  a final partial word has width 8 * (size % 8) and zero high bits. */
template <typename F>
void
forEachWord(std::span<const std::uint8_t> bytes, F f)
{
    const std::size_t whole = bytes.size() / 8;
    for (std::size_t w = 0; w < whole; ++w)
        f(loadLe(bytes.data() + 8 * w, 8), 64u);
    if (const std::size_t tail = bytes.size() % 8)
        f(loadLe(bytes.data() + 8 * whole, tail),
          static_cast<unsigned>(8 * tail));
}

std::uint64_t
countOnes(std::span<const std::uint8_t> bytes)
{
    std::uint64_t ones = 0;
    forEachWord(bytes, [&](std::uint64_t x, unsigned) {
        ones += static_cast<std::uint64_t>(std::popcount(x));
    });
    return ones;
}

/** Adjacent stream bits that differ. Inside a word, x ^ (x >> 1) marks
 *  them (bit j compares bits j and j + 1); one more pair joins each
 *  word to the next. */
std::uint64_t
countTransitions(std::span<const std::uint8_t> bytes)
{
    std::uint64_t transitions = 0;
    // Last stream bit of the previous word, seeded with the first bit so
    // the first word adds no boundary pair.
    std::uint64_t carry = bytes.empty() ? 0 : bytes[0] & 1u;
    forEachWord(bytes, [&](std::uint64_t x, unsigned width) {
        const std::uint64_t inner =
            (width == 64 ? ~0ULL : (1ULL << width) - 1) >> 1;
        transitions +=
            static_cast<std::uint64_t>(std::popcount((x ^ (x >> 1)) & inner)) +
            (carry ^ (x & 1));
        carry = x >> (width - 1);
    });
    return transitions;
}

} // namespace

TestResult
monobitTest(std::span<const std::uint8_t> bytes)
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
runsTest(std::span<const std::uint8_t> bytes)
{
    TestResult res;
    const std::size_t n_bits = bytes.size() * 8;
    if (n_bits < 2)
        return res;

    const std::uint64_t runs = 1 + countTransitions(bytes);
    const double n = static_cast<double>(n_bits);
    const double pi =
        static_cast<double>(countOnes(bytes)) / n; // fraction of ones
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

TestResult
chiSquareByteTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    if (bytes.size() < 2560) // need >=10 expected per bin
        return res;
    std::array<std::uint64_t, 256> hist{};
    for (std::uint8_t b : bytes)
        hist[b]++;
    const double expected = static_cast<double>(bytes.size()) / 256.0;
    double chi2 = 0.0;
    for (std::uint64_t h : hist) {
        const double d = static_cast<double>(h) - expected;
        chi2 += d * d / expected;
    }
    res.statistic = chi2;
    res.pass = chi2 > 160.0 && chi2 < 380.0;
    return res;
}

TestResult
serialCorrelationTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    const std::size_t n = bytes.size();
    if (n < 2)
        return res;

    double sum_x = 0.0, sum_x2 = 0.0, sum_xy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = bytes[i];
        sum_x += x;
        sum_x2 += x * x;
        sum_xy += x * bytes[(i + 1) % n];
    }
    const double nn = static_cast<double>(n);
    const double num = nn * sum_xy - sum_x * sum_x;
    const double den = nn * sum_x2 - sum_x * sum_x;
    if (den == 0.0)
        return res;
    res.statistic = num / den;
    res.pass = std::abs(res.statistic) < 0.05;
    return res;
}

double
shannonEntropyPerByte(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.empty())
        return 0.0;
    std::array<std::uint64_t, 256> hist{};
    for (std::uint8_t b : bytes)
        hist[b]++;
    double entropy = 0.0;
    const double n = static_cast<double>(bytes.size());
    for (std::uint64_t h : hist) {
        if (h == 0)
            continue;
        const double p = static_cast<double>(h) / n;
        entropy -= p * std::log2(p);
    }
    return entropy;
}

} // namespace dstrange::trng
