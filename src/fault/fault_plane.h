/**
 * @file
 * Per-channel fault-injection plane + TRNG-side health monitor. The
 * memory controller consults the plane once per completed TRNG round:
 * the round's 256-bit raw audit block is synthesized from the active
 * cell's (seed, channel, cell, use) tuple, corrupted by the configured
 * fault models, and audited with trng/bit_quality statistical tests. A
 * failing audit discards the round's bits; the health monitor then
 * counts failures per cell and blacklists/remaps persistent offenders
 * onto screened spares, with a bounded retry-then-refill escalation
 * when demand is waiting.
 *
 * Fast-forward contract: while a plane is configured, the controller's
 * event horizon ends every span at the next round completion, so each
 * round is audited exactly once, by onRound() in a normal tick.
 */

#ifndef DSTRANGE_FAULT_FAULT_PLANE_H
#define DSTRANGE_FAULT_FAULT_PLANE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "fault/fault_config.h"
#include "fault/fault_registry.h"

namespace dstrange::fault {

/** End-of-run fault/mitigation counters (rides in WorkloadResult). */
struct FaultReport
{
    std::string models;    ///< Active model CSV of the run.
    bool monitor = false;  ///< Health monitor was enabled.

    std::uint64_t roundsAudited = 0;   ///< Rounds whose audit passed.
    std::uint64_t roundsDiscarded = 0; ///< Rounds failing the audit.
    std::uint64_t discardsStuck = 0;   ///< ... attributed to stuck cells.
    std::uint64_t discardsWeak = 0;    ///< ... attributed to weak cells.
    std::uint64_t discardsOther = 0;   ///< ... healthy-cell false alarms.
    /** Bits flipped inside the audit blocks of *passing* rounds:
     *  transient corruption delivered silently downstream. */
    std::uint64_t corruptedBits = 0;
    std::uint64_t blacklisted = 0;  ///< Cells retired by the monitor.
    std::uint64_t remapped = 0;     ///< Blacklists absorbed by a spare.
    std::uint64_t forcedBlacklists = 0; ///< Retry-limit escalations.
    std::uint64_t blacklistExhausted = 0; ///< Blacklists with no spare.

    /** Emit as a JSON object (caller owns surrounding structure). */
    void writeJson(JsonWriter &w) const;

    /** Parse a writeJson() document back, bit-exactly. */
    static FaultReport fromJson(const JsonValue &v);
};

/** Any model listed that corrupts audit blocks (i.e. not "outage")? */
bool hasCellModels(const FaultConfig &cfg);

/** Outage windows configured ("outage" listed with a nonzero window)? */
bool hasOutageModel(const FaultConfig &cfg);

/**
 * The fault plane: per-channel cell pools with deterministic fault
 * classification, round auditing, and blacklist/remap mitigation.
 * Constructed by the memory controller when hasCellModels(cfg).
 */
class FaultPlane
{
  public:
    FaultPlane(const FaultConfig &cfg, unsigned channels);
    ~FaultPlane();

    /**
     * Account one completed TRNG round on @p channel during a normal
     * tick. Selects the channel's next cell, audits its block, rotates
     * the pool, and applies mitigation on failure. @p demand_waiting
     * marks that RNG requests are queued (arms the retry-then-refill
     * escalation).
     * @return true when the round's bits may be delivered.
     */
    bool onRound(unsigned channel, bool demand_waiting);

    const FaultReport &stats() const { return counters; }

    /** Snapshot of the counters for WorkloadResult. */
    FaultReport report() const { return counters; }

    /** Non-blacklisted faulty (weak/stuck) cells still in @p channel's
     *  active pool — the health monitor's convergence target is 0. */
    unsigned faultyActive(unsigned channel) const;

    /** Spare cells @p channel has left. */
    unsigned sparesLeft(unsigned channel) const;

    /** Deterministic "key=value " state tokens for lockstep
     *  fingerprinting (counters + per-channel rotation state). */
    std::string fingerprint() const;

  private:
    struct Cell
    {
        std::uint32_t id = 0;
        CellClass cls = CellClass::Healthy;
        std::uint64_t useCount = 0;
        unsigned failCount = 0;
    };

    struct ChannelState
    {
        std::vector<Cell> pool;           ///< Active rotation.
        std::vector<std::uint32_t> spares; ///< Healthy remap targets.
        std::size_t pointer = 0;          ///< Next cell to use.
        unsigned consecDiscards = 0;      ///< Fails while demand waits.
    };

    struct Audit
    {
        bool pass = false;
        std::uint64_t flips = 0;
    };

    /** Pure round evaluation for @p cell at use count @p use. */
    Audit evalRound(unsigned channel, const Cell &cell,
                    std::uint64_t use) const;

    /** Retire pool slot @p index: swap in a spare or shrink the pool. */
    void blacklistCell(ChannelState &st, std::size_t index);

    FaultConfig cfg;
    std::vector<std::unique_ptr<FaultModel>> models;
    std::vector<ChannelState> channels;
    FaultReport counters;
};

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_PLANE_H
