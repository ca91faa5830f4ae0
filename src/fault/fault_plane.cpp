#include "fault/fault_plane.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "trng/bit_quality.h"

namespace dstrange::fault {

namespace {

// Cell-ranking salts, independent of the block-synthesis hash streams
// in fault_registry.cpp so classification never correlates with data.
constexpr std::uint64_t kRankSalt = 0x2545f4914f6cdd1dULL;
constexpr std::uint64_t kRankChannelSalt = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kRankCellSalt = 0xc4ceb9fe1a85ec53ULL;

bool
listsKey(const std::string &models, const char *key)
{
    std::istringstream iss(models);
    std::string item;
    while (std::getline(iss, item, ','))
        if (item == key)
            return true;
    return false;
}

} // namespace

bool
hasCellModels(const FaultConfig &cfg)
{
    std::istringstream iss(cfg.models);
    std::string item;
    while (std::getline(iss, item, ','))
        if (!item.empty() && item != "outage")
            return true;
    return false;
}

bool
hasOutageModel(const FaultConfig &cfg)
{
    return cfg.outagePeriod > 0 && cfg.outageDuration > 0 &&
           listsKey(cfg.models, "outage");
}

void
FaultReport::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("models").value(models);
    w.key("monitor").value(monitor);
    w.key("rounds_audited").value(roundsAudited);
    w.key("rounds_discarded").value(roundsDiscarded);
    w.key("discards_stuck").value(discardsStuck);
    w.key("discards_weak").value(discardsWeak);
    w.key("discards_other").value(discardsOther);
    w.key("corrupted_bits").value(corruptedBits);
    w.key("blacklisted").value(blacklisted);
    w.key("remapped").value(remapped);
    w.key("forced_blacklists").value(forcedBlacklists);
    w.key("blacklist_exhausted").value(blacklistExhausted);
    w.endObject();
}

FaultReport
FaultReport::fromJson(const JsonValue &v)
{
    FaultReport r;
    r.models = v.at("models").asString();
    r.monitor = v.at("monitor").asBool();
    r.roundsAudited = v.at("rounds_audited").asU64();
    r.roundsDiscarded = v.at("rounds_discarded").asU64();
    r.discardsStuck = v.at("discards_stuck").asU64();
    r.discardsWeak = v.at("discards_weak").asU64();
    r.discardsOther = v.at("discards_other").asU64();
    r.corruptedBits = v.at("corrupted_bits").asU64();
    r.blacklisted = v.at("blacklisted").asU64();
    r.remapped = v.at("remapped").asU64();
    r.forcedBlacklists = v.at("forced_blacklists").asU64();
    r.blacklistExhausted = v.at("blacklist_exhausted").asU64();
    return r;
}

FaultPlane::FaultPlane(const FaultConfig &config, unsigned n_channels)
    : cfg(config), models(makeModels(config))
{
    bool want_stuck = false;
    bool want_weak = false;
    for (const auto &m : models) {
        if (m->name() == "stuck-row")
            want_stuck = true;
        else if (m->name() == "weak-cell")
            want_weak = true;
    }
    counters.models = cfg.models;
    counters.monitor = cfg.monitor;

    const std::uint32_t cells = std::max(1u, cfg.cellsPerChannel);
    channels.resize(n_channels);
    for (unsigned ch = 0; ch < n_channels; ++ch) {
        ChannelState &st = channels[ch];
        // Deterministic fault assignment: rank the active ids by hash;
        // the worst-ranked become stuck, the next tier weak. Counts for
        // unlisted models collapse to zero, so e.g. `models=bitflip`
        // leaves every cell healthy.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> rank;
        rank.reserve(cells);
        for (std::uint32_t id = 0; id < cells; ++id)
            rank.emplace_back(mix64(cfg.seed ^ kRankSalt ^
                                    ch * kRankChannelSalt ^
                                    id * kRankCellSalt),
                              id);
        std::sort(rank.begin(), rank.end());
        const std::uint32_t n_stuck =
            want_stuck ? std::min<std::uint32_t>(cfg.stuckRows, cells)
                       : 0;
        const std::uint32_t n_weak =
            want_weak ? std::min<std::uint32_t>(cfg.weakCells,
                                                cells - n_stuck)
                      : 0;
        std::vector<CellClass> cls(cells, CellClass::Healthy);
        for (std::uint32_t i = 0; i < n_stuck; ++i)
            cls[rank[i].second] = CellClass::Stuck;
        for (std::uint32_t i = n_stuck; i < n_stuck + n_weak; ++i)
            cls[rank[i].second] = CellClass::Weak;

        st.pool.reserve(cells);
        for (std::uint32_t id = 0; id < cells; ++id)
            st.pool.push_back(Cell{id, cls[id], 0, 0});
        // Spares are screened healthy cells above the active range,
        // consumed highest-id-first (pop_back) for determinism.
        st.spares.reserve(cfg.spareCells);
        for (std::uint32_t s = 0; s < cfg.spareCells; ++s)
            st.spares.push_back(cells + s);
    }
}

FaultPlane::~FaultPlane() = default;

FaultPlane::Audit
FaultPlane::evalRound(unsigned channel, const Cell &cell,
                      std::uint64_t use) const
{
    RoundContext ctx;
    ctx.seed = cfg.seed;
    ctx.channel = channel;
    ctx.cell = cell.id;
    ctx.use = use;
    ctx.cls = cell.cls;
    if (cell.cls == CellClass::Weak) {
        unsigned k = std::max(1u, cfg.weakSeverity);
        if (cfg.driftInterval > 0) {
            const std::uint64_t steps = use / cfg.driftInterval;
            k = steps >= k - 1 ? 1 : k - static_cast<unsigned>(steps);
        }
        ctx.severity = k;
    }

    AuditBlock block = healthyBlock(ctx);
    Audit a;
    for (const auto &m : models)
        a.flips += m->corrupt(block, ctx);
    const std::vector<std::uint8_t> bytes(block.begin(), block.end());
    a.pass = trng::monobitTest(bytes).pass && trng::runsTest(bytes).pass;
    return a;
}

void
FaultPlane::blacklistCell(ChannelState &st, std::size_t index)
{
    counters.blacklisted++;
    if (!st.spares.empty()) {
        const std::uint32_t id = st.spares.back();
        st.spares.pop_back();
        st.pool[index] = Cell{id, CellClass::Healthy, 0, 0};
        counters.remapped++;
        return;
    }
    counters.blacklistExhausted++;
    // Never empty the pool: with one cell left the channel limps on,
    // discarding whatever that cell produces.
    if (st.pool.size() <= 1)
        return;
    st.pool.erase(st.pool.begin() +
                  static_cast<std::ptrdiff_t>(index));
    if (index < st.pointer)
        --st.pointer;
    if (st.pointer >= st.pool.size())
        st.pointer = 0;
}

bool
FaultPlane::onRound(unsigned channel, bool demand_waiting)
{
    ChannelState &st = channels[channel];
    const std::size_t idx = st.pointer;
    Cell &c = st.pool[idx];
    const Audit a = evalRound(channel, c, c.useCount);
    c.useCount++;
    st.pointer = (st.pointer + 1) % st.pool.size();

    if (a.pass) {
        counters.roundsAudited++;
        counters.corruptedBits += a.flips;
        st.consecDiscards = 0;
        return true;
    }

    counters.roundsDiscarded++;
    switch (c.cls) {
      case CellClass::Stuck:
        counters.discardsStuck++;
        break;
      case CellClass::Weak:
        counters.discardsWeak++;
        break;
      case CellClass::Healthy:
        counters.discardsOther++;
        break;
    }
    c.failCount++;
    bool retired = false;
    if (cfg.monitor && c.failCount >= cfg.blacklistThreshold) {
        blacklistCell(st, idx);
        retired = true;
    }
    if (cfg.monitor && demand_waiting &&
        ++st.consecDiscards >= cfg.retryLimit) {
        // Bounded retry-then-refill: demand has starved through
        // retryLimit consecutive discards — stop retrying the rotation
        // and force the offender out so the next refill can succeed.
        if (!retired) {
            counters.forcedBlacklists++;
            blacklistCell(st, idx);
        }
        st.consecDiscards = 0;
    }
    return false;
}

unsigned
FaultPlane::faultyActive(unsigned channel) const
{
    unsigned n = 0;
    for (const Cell &c : channels[channel].pool)
        if (c.cls != CellClass::Healthy)
            ++n;
    return n;
}

unsigned
FaultPlane::sparesLeft(unsigned channel) const
{
    return static_cast<unsigned>(channels[channel].spares.size());
}

std::string
FaultPlane::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const ChannelState &st : channels) {
        h = mix64(h ^ st.pointer);
        h = mix64(h ^ st.consecDiscards);
        h = mix64(h ^ st.spares.size());
        for (const Cell &c : st.pool) {
            h = mix64(h ^ c.id);
            h = mix64(h ^ c.useCount);
            h = mix64(h ^ c.failCount);
            h = mix64(h ^ static_cast<std::uint64_t>(c.cls));
        }
    }
    std::ostringstream o;
    o << "fault.audited=" << counters.roundsAudited << '\n'
      << "fault.discarded=" << counters.roundsDiscarded << '\n'
      << "fault.corrupted=" << counters.corruptedBits << '\n'
      << "fault.blacklisted=" << counters.blacklisted << '\n'
      << "fault.state=" << std::hex << h << '\n';
    return o.str();
}

} // namespace dstrange::fault
