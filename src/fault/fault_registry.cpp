#include "fault/fault_registry.h"

#include <bit>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/registry_key.h"
#include "common/rng.h"

namespace dstrange::fault {

namespace {

// Distinct salts keep every hash stream independent: the healthy block,
// each model's draws, and the plane's cell ranking never correlate.
constexpr std::uint64_t kChannelSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kCellSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kUseSalt = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kWordSalt = 0x27d4eb2f165667c5ULL;
constexpr std::uint64_t kFlipSalt = 0x85ebca6b2b2ae35ULL;
constexpr std::uint64_t kStuckSalt = 0xb492b66fbe98f273ULL;
constexpr std::uint64_t kWeakSalt = 0x9ae16a3b2f90404fULL;

std::uint64_t
blockSeed(const RoundContext &ctx)
{
    return mix64(ctx.seed ^ ctx.channel * kChannelSalt ^
                 ctx.cell * kCellSalt ^ ctx.use * kUseSalt);
}

void
storeWord(AuditBlock &block, unsigned word, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        block[word * 8 + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

std::uint64_t
loadWord(const AuditBlock &block, unsigned word)
{
    std::uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(block[word * 8 + b]) << (8 * b);
    return v;
}

/** Transient single-bit upsets: flips survive the audit (the block
 *  stays statistically healthy), so they count as silently corrupted
 *  bits delivered downstream. */
class BitflipModel final : public FaultModel
{
  public:
    explicit BitflipModel(const FaultConfig &cfg) : rate(cfg.bitflipRate)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "bitflip";
        return n;
    }

    std::uint64_t
    corrupt(AuditBlock &block, const RoundContext &ctx) const override
    {
        if (rate <= 0.0)
            return 0;
        const double expected = 256.0 * rate;
        const std::uint64_t whole =
            static_cast<std::uint64_t>(expected);
        const double frac = expected - static_cast<double>(whole);
        const std::uint64_t base = blockSeed(ctx) ^ kFlipSalt;
        const double u =
            static_cast<double>(mix64(base) >> 11) * 0x1.0p-53;
        std::uint64_t flips = whole + (u < frac ? 1 : 0);
        // XOR through a mask so colliding draws cancel and the returned
        // count is the number of bits actually changed. Block bit `pos`
        // is bit pos % 64 of little-endian word pos / 64.
        std::array<std::uint64_t, 4> mask{};
        for (std::uint64_t j = 0; j < flips; ++j) {
            const std::uint64_t pos = mix64(base ^ (j + 1)) & 255;
            mask[pos >> 6] ^= 1ULL << (pos & 63);
        }
        std::uint64_t changed = 0;
        for (unsigned w = 0; w < mask.size(); ++w) {
            if (mask[w] == 0)
                continue;
            storeWord(block, w, loadWord(block, w) ^ mask[w]);
            changed += static_cast<std::uint64_t>(std::popcount(mask[w]));
        }
        return changed;
    }

  private:
    double rate;
};

/** Ones-biased cells: each output word is ORed with an AND of k random
 *  masks, pushing ones-density to 1/2 + 2^-(k+1). The audit's monobit
 *  test catches the bias with probability rising as k shrinks (entropy
 *  drift lowers k over use). Audit-visible, so no silent corruption. */
class WeakCellModel final : public FaultModel
{
  public:
    explicit WeakCellModel(const FaultConfig &) {}

    const std::string &
    name() const override
    {
        static const std::string n = "weak-cell";
        return n;
    }

    std::uint64_t
    corrupt(AuditBlock &block, const RoundContext &ctx) const override
    {
        if (ctx.cls != CellClass::Weak)
            return 0;
        const unsigned k = ctx.severity > 0 ? ctx.severity : 1;
        const std::uint64_t base = blockSeed(ctx) ^ kWeakSalt;
        for (unsigned w = 0; w < 4; ++w) {
            std::uint64_t bias = ~0ULL;
            for (unsigned d = 0; d < k; ++d)
                bias &= mix64(base ^ (w * 8 + d + 1));
            storeWord(block, w, loadWord(block, w) | bias);
        }
        return 0;
    }
};

/** Stuck-at rows: the whole block reads all-zeros or all-ones (the
 *  polarity is a per-cell hash). The audit always catches these. */
class StuckRowModel final : public FaultModel
{
  public:
    explicit StuckRowModel(const FaultConfig &) {}

    const std::string &
    name() const override
    {
        static const std::string n = "stuck-row";
        return n;
    }

    std::uint64_t
    corrupt(AuditBlock &block, const RoundContext &ctx) const override
    {
        if (ctx.cls != CellClass::Stuck)
            return 0;
        const std::uint64_t h = mix64(ctx.seed ^ kStuckSalt ^
                                      ctx.channel * kChannelSalt ^
                                      ctx.cell * kCellSalt);
        block.fill((h & 1) ? 0xff : 0x00);
        return 0;
    }
};

/** Timed rank/channel outages live in the "faulty" decorator backend
 *  (fault/faulty_backend.h), not in audit blocks; the registry entry
 *  exists so `fault.models=outage` validates and enumerates like every
 *  other key. */
class OutageModel final : public FaultModel
{
  public:
    explicit OutageModel(const FaultConfig &) {}

    const std::string &
    name() const override
    {
        static const std::string n = "outage";
        return n;
    }

    std::uint64_t
    corrupt(AuditBlock &, const RoundContext &) const override
    {
        return 0;
    }
};

} // namespace

AuditBlock
healthyBlock(const RoundContext &ctx)
{
    const std::uint64_t base = blockSeed(ctx);
    AuditBlock block{};
    for (unsigned w = 0; w < 4; ++w)
        storeWord(block, w, mix64(base ^ (w + 1) * kWordSalt));
    return block;
}

FaultRegistry::FaultRegistry()
{
    add("bitflip", [](const FaultConfig &cfg) {
        return std::make_unique<BitflipModel>(cfg);
    });
    add("weak-cell", [](const FaultConfig &cfg) {
        return std::make_unique<WeakCellModel>(cfg);
    });
    add("stuck-row", [](const FaultConfig &cfg) {
        return std::make_unique<StuckRowModel>(cfg);
    });
    add("outage", [](const FaultConfig &cfg) {
        return std::make_unique<OutageModel>(cfg);
    });
}

FaultRegistry &
FaultRegistry::instance()
{
    static FaultRegistry registry;
    return registry;
}

void
FaultRegistry::add(const std::string &key, FaultModelFactory factory)
{
    validateRegistryKey("fault model", key);
    // Keys also travel inside the comma-joined fault.models value.
    if (key.find(',') != std::string::npos)
        throw std::invalid_argument("fault model key '" + key +
                                    "' must not contain a comma");
    if (!factory)
        throw std::invalid_argument("fault model factory for '" + key +
                                    "' must not be empty");
    std::unique_lock<std::shared_mutex> lock(mu);
    if (!factories.emplace(key, std::move(factory)).second)
        throw std::invalid_argument("fault model '" + key +
                                    "' is already registered");
}

std::unique_ptr<FaultModel>
FaultRegistry::make(const std::string &key, const FaultConfig &cfg) const
{
    // Copy the factory out so user factories run lock-free (one that
    // registers another model from inside would otherwise deadlock).
    FaultModelFactory factory;
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        const auto it = factories.find(key);
        if (it == factories.end()) {
            std::string known;
            for (const auto &[k, f] : factories)
                known += (known.empty() ? "" : ", ") + k;
            throw std::out_of_range("unknown fault model '" + key +
                                    "' (registered: " + known + ")");
        }
        factory = it->second;
    }
    return factory(cfg);
}

bool
FaultRegistry::contains(const std::string &key) const
{
    std::shared_lock<std::shared_mutex> lock(mu);
    return factories.count(key) != 0;
}

std::vector<std::string>
FaultRegistry::keys() const
{
    std::shared_lock<std::shared_mutex> lock(mu);
    std::vector<std::string> out;
    for (const auto &[key, factory] : factories)
        out.push_back(key);
    return out;
}

std::vector<std::unique_ptr<FaultModel>>
makeModels(const FaultConfig &cfg)
{
    std::vector<std::unique_ptr<FaultModel>> models;
    std::istringstream iss(cfg.models);
    std::string key;
    while (std::getline(iss, key, ','))
        if (!key.empty())
            models.push_back(FaultRegistry::instance().make(key, cfg));
    return models;
}

} // namespace dstrange::fault
