#include "probe.h"

#include <array>
#include <chrono>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

namespace {

/** Steps of each kernel per probe: about 2.4 ms in all on a 4-vCPU
 *  Xeon VM, split as 0.3 / 0.1 / 0.55 / 0.5 / 0.95 ms. */
constexpr std::uint64_t kChainSteps = 40000;
constexpr std::uint64_t kIlpSteps = 30000;
constexpr std::uint64_t kInterpSteps = 40000;
constexpr std::uint64_t kEvents = 4000;
constexpr std::uint64_t kCalls = 20000;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * One of kBodies distinct small branchy functions. Together they span
 * about 100 KB of code, more than the instruction caches and branch
 * predictors hold, as the simulator's own code does.
 */
template <int N>
[[gnu::noinline]] std::uint64_t
body(std::uint64_t x, std::uint64_t *state)
{
    constexpr std::uint64_t k1 = 0x9E3779B97F4A7C15ULL * (N + 1);
    constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4FULL ^ (N * 7919ULL);
    x ^= x >> ((N % 13) + 7);
    x *= k1;
    if (x & (1ULL << (N % 17))) {
        state[N % 64] += x >> 11;
        x ^= k2;
    } else {
        state[(N * 3) % 64] ^= x;
        x += k2 >> (N % 5);
    }
    if ((x >> 20) % (3 + N % 5) == 0)
        x = (x << 9) | (x >> 55);
    switch ((x >> 40) & 3) {
    case 0: x += state[(N + 5) % 64]; break;
    case 1: x ^= state[(N + 9) % 64] * 3; break;
    case 2: x -= N; break;
    default: x = ~x; break;
    }
    return x;
}

using Body = std::uint64_t (*)(std::uint64_t, std::uint64_t *);

template <int... Ns>
constexpr std::array<Body, sizeof...(Ns)>
bodyTable(std::integer_sequence<int, Ns...>)
{
    return {&body<Ns>...};
}

constexpr auto kBodies = bodyTable(std::make_integer_sequence<int, 512>{});

} // namespace

HostProbe::HostProbe() : code_(8192), table_(1 << 15), slots_(1 << 16)
{
    std::uint64_t x = 0x853c49e6748fea9bULL;
    for (std::uint8_t &c : code_)
        c = static_cast<std::uint8_t>(xorshift(x));
    for (std::uint64_t &t : table_)
        t = xorshift(x);
}

std::uint64_t
HostProbe::dependentChain(std::uint64_t steps) const
{
    std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        xorshift(x);
        if (x & 1)
            acc += x * i;
        else
            acc ^= x >> 3;
    }
    return acc;
}

std::uint64_t
HostProbe::independentChains(std::uint64_t steps) const
{
    std::uint64_t a = 1, b = 0x9E3779B97F4A7C15ULL, c = 7, d = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        a = a * 6364136223846793005ULL + 1442695040888963407ULL;
        xorshift(b);
        c = ((c << 7) | (c >> 57)) + a;
        d += (b & 1) ? c : (a ^ d);
        if (((a >> 33) & 3) == 0)
            d ^= b;
    }
    return a + b + c + d;
}

std::uint64_t
HostProbe::interpret(std::uint64_t steps) const
{
    std::uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::size_t codeMask = code_.size() - 1;
    const std::size_t tableMask = table_.size() - 1;
    std::size_t pc = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        const std::uint8_t op = code_[pc];
        const unsigned x = op & 7, y = (op >> 3) & 7;
        switch (op >> 5) {
        case 0: r[x] += r[y]; break;
        case 1: r[x] ^= r[y] >> 3; break;
        case 2: r[x] = table_[r[y] & tableMask]; break;
        case 3:
            if (r[x] & 1)
                r[y] += 0x9E37;
            else
                r[y] -= r[x];
            break;
        case 4: r[x] *= (r[y] | 1); break;
        case 5: pc = (pc + (r[x] & 63)) & codeMask; break;
        case 6: r[x] = (r[x] << 5) | (r[y] >> 59); break;
        default: r[y] += static_cast<std::uint64_t>(r[x] < r[y]); break;
        }
        pc = (pc + 1) & codeMask;
    }
    return r[0] + r[1] + r[2] + r[3] + r[4] + r[5] + r[6] + r[7];
}

std::uint64_t
HostProbe::eventLoop(std::uint64_t events)
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    std::uint64_t x = 0x2545F4914F6CDD1DULL, acc = 0;
    for (std::uint32_t i = 0; i < 64; ++i)
        q.push({i, i});
    for (std::uint64_t e = 0; e < events; ++e) {
        const auto [t, id] = q.top();
        q.pop();
        xorshift(x);
        Slot &s = slots_[(x >> 11) % slots_.size()];
        if (s.c > (x & 0xff)) {
            s.a += t;
            s.c -= 1;
        } else {
            s.b ^= x;
            s.c += 3;
        }
        if ((s.d ^ id) & 4)
            s.d += 1;
        else
            acc += s.a;
        q.push({t + 1 + (x & 15), id});
    }
    return acc + slots_[0].b;
}

std::uint64_t
HostProbe::indirectCalls(std::uint64_t calls) const
{
    std::uint64_t state[64] = {};
    std::uint64_t x = 0x1234567, pick = 0xABCDEF;
    for (std::uint64_t i = 0; i < calls; ++i)
        x = kBodies[xorshift(pick) % kBodies.size()](x, state);
    return x + state[3];
}

double
HostProbe::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    sink_ += dependentChain(kChainSteps) + independentChains(kIlpSteps) +
             interpret(kInterpSteps) + eventLoop(kEvents) +
             indirectCalls(kCalls);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace perfbench
