/**
 * @file
 * RefBoard: a deliberately naive re-implementation of the MemorIES
 * board semantics, used as the executable specification the fast
 * production path (ies::MemoriesBoard) is differentially tested
 * against.
 *
 * Design rules, in priority order:
 *
 *  1. *Independence.* RefBoard shares only the configuration types
 *     (ies::BoardConfig), the bus-transaction vocabulary (bus::*), the
 *     protocol tables (pure data) and common::Rng (needed so the
 *     Random replacement policy draws the same sequence) with the
 *     production code. It does NOT use cache::TagStore,
 *     ies::NodeController or ies::TransactionBuffer — every directory,
 *     replacement policy and pacing rule is re-implemented here from
 *     the paper's description.
 *
 *  2. *Readability over speed.* Directories are lazily-allocated maps
 *     of plain structs, counters are a name->value map, and every rule
 *     is written in the most obvious way. This file is meant to be
 *     auditable against paper sections 3.1-3.3 in one sitting.
 *
 *  3. *Determinism.* Same config + seed + stream => same final state,
 *     bit-for-bit, so the diff harness (oracle/diff.hh) can compare
 *     counters, directories and retirement order exactly.
 *
 * The oracle models the hardware board only: health monitoring, fault
 * injection and trace capture are out of scope (configs enabling them
 * are rejected), which also pins down what "board semantics" means.
 */

#ifndef MEMORIES_ORACLE_REFBOARD_HH
#define MEMORIES_ORACLE_REFBOARD_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bus/transaction.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "ies/boardconfig.hh"

namespace memories::ckpt
{
class CheckpointImage;
} // namespace memories::ckpt

namespace memories::oracle
{

/**
 * Deliberate bugs the oracle can carry, for the mutation-smoke tests
 * that prove the diff harness actually detects divergences. A mutated
 * RefBoard must diverge from the production board on a suitable
 * stream; shrinking that stream exercises the whole toolchain.
 */
enum class RefMutation : std::uint8_t
{
    /** Faithful board semantics (the only mode real checks use). */
    None = 0,
    /** Forget to update tree-PLRU bits on lookup hits (classic
     *  replacement bug: victims drift from the production board). */
    SkipPlruTouchOnHit,
    /** Drop the snooper-map downgrade transition (a remote Read no
     *  longer moves Modified lines to Shared, etc.). */
    DropSnooperDowngrade,
};

/** One retired tenure, in retirement order (the SDRAM-side order). */
struct RefRetirement
{
    std::uint32_t traceId = 0;
    Addr addr = 0;
    bus::BusOp op = bus::BusOp::Read;
    std::uint8_t cpu = 0;
    Cycle retireCycle = 0;

    bool operator==(const RefRetirement &) const = default;
};

/** The naive reference board. */
class RefBoard
{
  public:
    /**
     * Build a reference board for @p config. fatal()s on invalid
     * configurations and on configurations the oracle does not model
     * (health monitoring enabled, trace capture enabled).
     * @param seed Must match the production board's seed (it feeds the
     *        Random replacement policy the same way).
     */
    explicit RefBoard(const ies::BoardConfig &config,
                      std::uint64_t seed = 1,
                      RefMutation mutation = RefMutation::None);

    /**
     * Resume from an IESCKPT checkpoint: decode the directory, buffer
     * and pacing sections of @p image (by their documented layout,
     * docs/FORMATS.md section 7 — the oracle deliberately re-parses
     * rather than reusing the production loadState) and rebuild this
     * board's sets, FIFO and credit state to match the checkpointed
     * production board exactly.
     *
     * Counter values are intentionally NOT restored: a from-checkpoint
     * diff clears the production counters after its restore and
     * compares the deltas accumulated over the resumed stream, so both
     * sides start from zero.
     *
     * fatal()s when the checkpoint cannot be diffed against: config
     * fingerprint mismatch, a fault-injector section, parity-corrupted
     * lines, buffer stall/slot-loss fault state, or an in-flight retry
     * tenure (checkpoint at a quiescent feed point).
     */
    void restoreFromCheckpoint(const ckpt::CheckpointImage &image);

    /**
     * Feed one committed tenure, exactly like
     * MemoriesBoard::feedCommitted: filter, count, let the SDRAM side
     * catch up, and either buffer the tenure or report the overflow.
     * @return false when the transaction buffer was full.
     */
    bool feedCommitted(const bus::BusTransaction &txn);

    /** End-of-run flush: retire everything still buffered. */
    void drainAll();

    /**
     * Every counter the production board exposes (global bank plus all
     * node banks), by the production names, masked to the 40-bit
     * hardware counter width.
     */
    std::map<std::string, std::uint64_t> counters() const;

    /** One counter by production name; fatal() if unknown. */
    std::uint64_t counter(std::string_view name) const;

    /**
     * Directory contents of node @p node as (line address, state)
     * pairs sorted by address — the canonical form the diff harness
     * compares against NodeController::directorySnapshot().
     */
    std::vector<std::pair<Addr, std::uint8_t>>
    directorySnapshot(std::size_t node) const;

    /** Tenures retired so far, in retirement order. */
    const std::vector<RefRetirement> &retirements() const
    {
        return retirements_;
    }

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t bufferSize() const { return fifo_.size(); }
    std::size_t bufferHighWater() const { return highWater_; }
    std::uint64_t bufferRetired() const { return retired_; }

    const ies::BoardConfig &config() const { return config_; }

  private:
    /** One line frame: a tag plus an 8-bit protocol state. */
    struct Frame
    {
        std::uint64_t line = 0; //!< addr >> lineShift
        std::uint8_t state = 0; //!< 0 = invalid
        std::uint64_t stamp = 0; //!< LRU/FIFO recency stamp
    };

    /** One cache set: @c assoc frames plus the tree-PLRU bits. */
    struct Set
    {
        std::vector<Frame> ways;
        std::uint8_t plruBits = 0;
        /** Random-policy victim stream: the production TagStore keeps
         *  one Rng per set (seeded seedBase + set * golden gamma) so
         *  disjoint sets share no state; the oracle mirrors that. */
        Rng rng;
    };

    /** One emulated node: geometry, lazily-built sets, counters. */
    struct Node
    {
        ies::NodeConfig cfg;
        unsigned lineShift = 0;
        std::uint64_t setSamplingMask = 0;
        std::uint64_t setMask = 0;
        unsigned assoc = 0;
        /** Set index -> set, created on first touch. */
        std::map<std::uint64_t, Set> sets;
        std::uint64_t tick = 0;
        /** Base seed for per-set Random draws (seed + id*7919). */
        std::uint64_t seedBase = 0;
        std::string prefix; //!< "node<id>." counter prefix
    };

    void bump(const std::string &name, std::uint64_t n = 1);
    std::uint64_t &slot(const std::string &name);

    /** Earn SDRAM credits up to @p now and retire everything due. */
    void drainDue(Cycle now);

    /** Run one retired tenure through every target-machine group. */
    void emulate(const bus::BusTransaction &txn);

    bool inSample(const Node &node, Addr addr) const;
    Addr sampleAddr(const Node &node, Addr addr) const;
    Set &setFor(Node &node, std::uint64_t line);

    /** Requester-side walk of @p node for a local tenure. */
    void processLocal(Node &node, const bus::BusTransaction &txn,
                      bus::SnoopResponse emu_resp);

    /** Snooper-side walk of @p node for a remote tenure. */
    bus::SnoopResponse snoopRemote(Node &node,
                                   const bus::BusTransaction &txn);

    /** Pick the victim way of a full @p set under @p node's policy. */
    unsigned victimWay(Node &node, Set &set);

    static void plruTouch(Set &set, unsigned way, unsigned assoc);
    static unsigned plruVictim(const Set &set, unsigned assoc);

    ies::BoardConfig config_;
    RefMutation mutation_;
    std::vector<Node> nodes_;

    /** Counter name -> raw event count (masked to 40 bits on read). */
    std::map<std::string, std::uint64_t> counters_;

    /** The transaction buffer and its credit-paced SDRAM drain. */
    std::deque<bus::BusTransaction> fifo_;
    std::size_t capacity_ = 0;
    unsigned throughputPercent_ = 0;
    Cycle lastEarnCycle_ = 0;
    std::uint64_t credits_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t retired_ = 0;

    std::vector<RefRetirement> retirements_;
};

} // namespace memories::oracle

#endif // MEMORIES_ORACLE_REFBOARD_HH
