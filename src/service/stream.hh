/**
 * @file
 * Stream ingest: the `feed` / `drain` / `stream` / `fleet` console
 * families that turn one Console (and its board) into a trace-stream
 * sink with admission control.
 *
 * The ingest layer is daemon-independent on purpose: it plugs into any
 * Console through Console::registerCommand, so the interactive console
 * example, the unit tests, and every IESSERV daemon session share one
 * command registry and one code path (ISSUE: service, campaign, and
 * interactive sessions must not fork the grammar).
 *
 * Ingest grammar (docs/SERVICE.md has the full spec):
 *
 *   feed <hex16> [<hex16> ...]   -- offer packed v2 BusRecords, cycle
 *                                   deltas chained across feed lines
 *   drain                        -- end-of-stream: drain board + fleet
 *   stream [status]              -- ingest counters and mode
 *   stream pace on|off           -- admission mode (see below)
 *   stream reset                 -- fresh stream (zero chain + counters)
 *   stream replay <path>         -- server-side v2 trace file ingest
 *   fleet add [label] [seed]     -- add a same-config twin board
 *   fleet [list|status]          -- twin boards and their health
 *   fleet counters <i>           -- twin board's raw counter dump
 *   fleet resync                 -- pull the main board back from a
 *                                   healthy twin (manual health ladder)
 *
 * Admission control (paced mode, the default) reuses the board's
 * credit-paced transaction-buffer semantics: a feed line is admitted
 * up to the longest prefix the buffer takes record by record at the
 * records' own cycles (TransactionBuffer::admissiblePrefix), so an
 * in-rate line lands whole and an over-rate client is *back-pressured*
 * — told to re-send the tail — rather than having references dropped.
 * Raw mode (`stream pace off`) attempts every record exactly once,
 * making the session byte-identical to an in-process feedBatch of the
 * same stream even when that stream overflows (drops and all); the
 * conformance tier leans on this.
 *
 * Deferred emulation: a feed line runs only the boards' admission,
 * which fixes its reply, and leaves the retirements it owes queued.
 * The console's owner (service::Session) emulates them with
 * emulateDeferred() between requests and must settle() before anything
 * reads or copies board state (docs/SERVICE.md, "Reply before
 * emulation").
 *
 * Health ladder: when a feed drives the board to Quarantined, the
 * ingest layer resyncs it from the first healthy same-fingerprint
 * fleet twin (MemoriesBoard::resyncFrom). With no twin available it
 * raises an `error: quarantined ...` reply and flags the session for
 * eviction; the daemon closes the connection and reclaims the boards.
 */

#ifndef MEMORIES_SERVICE_STREAM_HH
#define MEMORIES_SERVICE_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ies/board.hh"
#include "ies/console.hh"

namespace memories::service
{

/** Per-stream ingest state behind the feed/stream/fleet families. */
class StreamIngest
{
  public:
    /** @param max_batch Most records accepted on one feed line. */
    explicit StreamIngest(std::size_t max_batch = 4096)
        : maxBatch_(max_batch)
    {
    }

    std::size_t maxBatch() const { return maxBatch_; }

    bool paced() const { return paced_; }
    void setPaced(bool paced) { paced_ = paced; }

    /** Cycle of the last record attempted (delta-chain anchor). */
    Cycle prevCycle() const { return prevCycle_; }

    std::uint64_t refsOffered() const { return refsOffered_; }
    std::uint64_t refsAttempted() const { return refsAttempted_; }
    std::uint64_t refsAccepted() const { return refsAccepted_; }
    /** Feed lines answered with zero admission (paced mode). */
    std::uint64_t backpressureEvents() const { return backpressure_; }
    /** Records the board rejected in raw mode (buffer overflow). */
    std::uint64_t overflowDrops() const { return overflowDrops_; }
    std::uint64_t feedLines() const { return feedLines_; }
    std::uint64_t resyncs() const { return resyncs_; }

    /** True once a quarantined board had no healthy twin to resync
     *  from — the session layer must evict this session. */
    bool evictRequested() const { return evictRequested_; }

    /** One same-config twin board, fed in lock-step with the main
     *  board on the feeding thread. */
    struct Twin
    {
        std::unique_ptr<ies::MemoriesBoard> board;
        std::string label;
        std::uint64_t seed = 1;
    };

    /** The session's twin boards (suspend/resume walks them). */
    const std::vector<Twin> &twins() const { return twins_; }

    /**
     * Add a twin board cloned from @p config. Exposed (beside the
     * `fleet add` command) so session resume can rebuild twins.
     */
    ies::MemoriesBoard &addTwin(const ies::BoardConfig &config,
                                std::uint64_t seed,
                                const std::string &label);

    /** Suspend/resume: the scalar stream state (docs/SERVICE.md). */
    struct State
    {
        Cycle prevCycle = 0;
        bool paced = true;
        std::uint64_t refsOffered = 0;
        std::uint64_t refsAttempted = 0;
        std::uint64_t refsAccepted = 0;
        std::uint64_t backpressure = 0;
        std::uint64_t overflowDrops = 0;
        std::uint64_t feedLines = 0;
        std::uint64_t resyncs = 0;
    };
    State state() const;
    void restore(const State &state);

    /** Retirements feed lines left queued, the most on any board. */
    std::size_t deferredRetirements(ies::Console &console) const;

    /**
     * Emulate up to @p max deferred retirements on the board and on
     * each twin, oldest first.
     * @return true while any remain.
     */
    bool emulateDeferred(ies::Console &console, std::size_t max);

    /** Emulate every deferred retirement. */
    void settle(ies::Console &console) { emulateDeferred(console, SIZE_MAX); }

    /**
     * Register the feed/drain/stream/fleet families on @p console.
     * The ingest object must outlive the console's use of them.
     */
    void registerCommands(ies::Console &console);

  private:
    friend struct StreamCommands;

    std::string handleFeed(ies::Console &console,
                           const std::vector<std::string> &tokens);
    std::string handleDrain(ies::Console &console);
    std::string handleStream(ies::Console &console,
                             const std::vector<std::string> &tokens);
    std::string handleFleet(ies::Console &console,
                            const std::vector<std::string> &tokens);
    std::string replayFile(ies::Console &console, const std::string &path);

    /**
     * Feed the @p n records at @p txns to the board and twins, only
     * admitting them when @p defer; handles the health ladder.
     * @return board-accepted count.
     */
    std::size_t feedAttempted(ies::Console &console,
                              const bus::BusTransaction *txns,
                              std::size_t n, bool defer,
                              std::string &notes);

    /** Resync @p board from the first healthy same-fingerprint twin,
     *  emulating every board's deferred retirements first.
     *  @return "resynced from twin <i> '<label>'", or "" when no twin
     *  qualifies. */
    std::string resyncFromTwin(ies::MemoriesBoard &board);

    std::size_t maxBatch_;
    bool paced_ = true;
    Cycle prevCycle_ = 0;
    std::uint64_t refsOffered_ = 0;
    std::uint64_t refsAttempted_ = 0;
    std::uint64_t refsAccepted_ = 0;
    std::uint64_t backpressure_ = 0;
    std::uint64_t overflowDrops_ = 0;
    std::uint64_t feedLines_ = 0;
    std::uint64_t resyncs_ = 0;
    bool evictRequested_ = false;

    std::vector<Twin> twins_;

    /** handleFeed's unpacked line, kept from line to line so a feed
     *  allocates nothing once warm. */
    std::vector<bus::BusTransaction> txns_;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_STREAM_HH
