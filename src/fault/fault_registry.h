/**
 * @file
 * String-keyed registry of composable fault models. A fault model is a
 * *pure* corruption of the 256-bit raw audit block a TRNG round exposes
 * to the health monitor: given the same RoundContext it must produce
 * the same corruption. Each round is audited once, in a tick; purity is
 * what keeps step-1, fast-forward and batch runs bit-identical (checked
 * by DS_LOCKSTEP and the difftest harness) and lets a frozen golden in
 * tests/fault_test.cpp pin the stream itself. Models listed in
 * FaultConfig::models compose in list order.
 */

#ifndef DSTRANGE_FAULT_FAULT_REGISTRY_H
#define DSTRANGE_FAULT_FAULT_REGISTRY_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fault/fault_config.h"

namespace dstrange::fault {

/** Health classification assigned to a cell at plane construction. */
enum class CellClass : std::uint8_t
{
    Healthy = 0,
    Weak = 1,  ///< Biased ones-density, optionally drifting worse.
    Stuck = 2, ///< Row stuck at all-zeros or all-ones.
};

/**
 * Everything a fault model may consult for one round. Values only — a
 * model must stay a pure function of this context (no internal state),
 * so a round's corruption does not depend on how the run got there.
 */
struct RoundContext
{
    std::uint64_t seed = 0;  ///< FaultConfig::seed.
    unsigned channel = 0;
    std::uint32_t cell = 0;  ///< Cell id within the channel's pool.
    std::uint64_t use = 0;   ///< Per-cell use count before this round.
    CellClass cls = CellClass::Healthy;
    unsigned severity = 0;   ///< Effective weak bias exponent k.
};

/** A TRNG round's raw audit block: 256 bits read back for testing. */
using AuditBlock = std::array<std::uint8_t, 32>;

/** The deterministic healthy block for a round (before corruption). */
AuditBlock healthyBlock(const RoundContext &ctx);

/**
 * One composable corruption of a round's audit block.
 *
 * @return the number of bits flipped relative to the input block that
 *         would survive into delivered output if the round's audit
 *         passes (silent corruption accounting); class-level
 *         corruptions (stuck/weak) that the audit is expected to catch
 *         return 0.
 */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    virtual const std::string &name() const = 0;

    virtual std::uint64_t corrupt(AuditBlock &block,
                                  const RoundContext &ctx) const = 0;
};

/** Factory producing one configured fault model. */
using FaultModelFactory =
    std::function<std::unique_ptr<FaultModel>(const FaultConfig &)>;

/**
 * Process-global fault-model registry. Built-in models are registered
 * on first access:
 *
 *   "bitflip"    transient bit flips in otherwise healthy blocks —
 *                rarely fails the audit, so flipped bits are *silent*
 *                corruption delivered downstream
 *   "weak-cell"  ones-biased cells with optional severity drift; the
 *                audit catches them with probability rising in bias
 *   "stuck-row"  all-zeros/all-ones rows; the audit always catches them
 *   "outage"     timed rank/channel unavailability windows (applied by
 *                the "faulty" decorator MemoryBackend, not to blocks)
 *
 * Thread-safe: lookups take a shared lock and add() an exclusive one,
 * so parallel sweeps can build fault planes while user code registers
 * new models.
 */
class FaultRegistry
{
  public:
    static FaultRegistry &instance();

    /**
     * Register a factory under @p key.
     * @throws std::invalid_argument if @p key is empty, contains
     *         whitespace or a comma, or is already taken.
     */
    void add(const std::string &key, FaultModelFactory factory);

    /**
     * Instantiate the model registered under @p key.
     * @throws std::out_of_range if @p key is unknown (the message lists
     *         the registered keys).
     */
    std::unique_ptr<FaultModel> make(const std::string &key,
                                     const FaultConfig &cfg) const;

    bool contains(const std::string &key) const;

    /** Registered keys in sorted order. */
    std::vector<std::string> keys() const;

  private:
    FaultRegistry();

    mutable std::shared_mutex mu;
    std::map<std::string, FaultModelFactory> factories;
};

/**
 * Split FaultConfig::models on commas and instantiate each key.
 * @throws std::out_of_range for unknown keys.
 */
std::vector<std::unique_ptr<FaultModel>>
makeModels(const FaultConfig &cfg);

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_REGISTRY_H
