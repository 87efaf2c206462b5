/**
 * @file
 * DiffHarness: run the same bus-transaction stream through the fast
 * production board (ies::MemoriesBoard) and the naive reference board
 * (oracle::RefBoard), then diff everything observable — per-tenure
 * acceptance, every Counter40 value, the final directory contents of
 * every node, the SDRAM retirement order, and the buffer's high-water
 * and retired totals. The first divergence is reported together with
 * the production board's flight-recorder dump, so a failure arrives
 * with its own trace attached.
 *
 * runLattice() sweeps a configuration lattice (line size x
 * associativity x size x replacement policy x protocol table x node
 * topology, per paper Figure 11) over many generated streams; a
 * divergence is delta-debug shrunk and written out as a replayable
 * trace file plus a lifecycle dump.
 */

#ifndef MEMORIES_ORACLE_DIFF_HH
#define MEMORIES_ORACLE_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "ies/boardconfig.hh"
#include "oracle/refboard.hh"
#include "trace/lifecycle.hh"

namespace memories::oracle
{

/** Knobs of one differential comparison. */
struct DiffOptions
{
    /** Seed handed to both boards (Random-policy victim draws). */
    std::uint64_t boardSeed = 1;
    /** Deliberate oracle bug, for mutation-smoke tests. */
    RefMutation mutation = RefMutation::None;
    /**
     * Configuration for the RefBoard when it should deliberately
     * differ from the production board's (protocol-table-flip smoke
     * tests). nullptr: both boards get the same configuration.
     */
    const ies::BoardConfig *refConfig = nullptr;
    /** Flight-recorder ring capacity; 0 sizes it to the stream. */
    std::size_t recorderCapacity = 0;
    /** Differences listed before the report truncates. */
    std::size_t maxDetails = 8;
    /**
     * Production feed path: 0 = one feedCommitted call per tenure
     * (the default); N > 0 = feedBatch in chunks of N, first without
     * a flight recorder so the queued emulation pass is what gets
     * diffed (a divergence re-runs with the recorder for the witness).
     * The reference board is always serial.
     */
    std::size_t batchSize = 0;
};

/** Outcome of one differential comparison. */
struct DiffReport
{
    bool diverged = false;
    /** First divergence, one line ("" when the boards agree). */
    std::string summary;
    /** Up to DiffOptions::maxDetails individual differences. */
    std::vector<std::string> details;
    /** Production flight-recorder dump at divergence (else empty). */
    std::vector<trace::LifecycleEvent> flightDump;

    /** Multi-line rendering: summary, details, recorder tail. */
    std::string describe() const;
};

/**
 * Feed @p stream through a production board and a reference board
 * built from @p config, drain both, and diff the final state.
 */
DiffReport diffStream(const ies::BoardConfig &config,
                      const std::vector<bus::BusTransaction> &stream,
                      const DiffOptions &opts = {});

/**
 * Like diffStream(), but both boards first resume from the IESCKPT
 * checkpoint at @p checkpointPath: the production board restores it
 * via MemoriesBoard::loadState and the reference board re-parses the
 * same file independently (RefBoard::restoreFromCheckpoint). Counters
 * are cleared on both sides after the restore, so the comparison
 * covers exactly the resumed stream — this is the
 * `oracle_diff --from-checkpoint` path for replaying a divergence
 * tail without its warmup (docs/TESTING.md).
 *
 * The checkpoint must be quiescent and fault-free: no in-flight retry
 * tenure, no fault-injector section, no parity-corrupted lines and no
 * buffer stall/slot-loss state, and its config fingerprint must match
 * @p config. Violations fatal() with a diagnostic.
 */
DiffReport diffStreamFromCheckpoint(
    const ies::BoardConfig &config, const std::string &checkpointPath,
    const std::vector<bus::BusTransaction> &stream,
    const DiffOptions &opts = {});

/** One named point of the configuration lattice. */
struct LatticeConfig
{
    std::string name;
    ies::BoardConfig config;
};

/**
 * The configuration lattice: 14 named boards covering line size,
 * associativity, capacity, every replacement policy, every built-in
 * protocol, multi-node coherent machines, a Figure 4 multi-config
 * board, set sampling, and a tiny paced buffer that overflows. Every
 * config uses host CPUs 0..7, so one generated stream drives them all.
 */
std::vector<LatticeConfig> latticeConfigs();

/** One divergence found by a lattice run. */
struct LatticeDivergence
{
    std::string configName;
    std::uint64_t seed = 0;
    DiffReport report;
    /** Delta-debug minimized failing stream. */
    std::vector<bus::BusTransaction> shrunk;
    /** Replayable trace written for it ("" when dumpDir was empty). */
    std::string tracePath;
};

/** Outcome of a lattice sweep. */
struct LatticeRun
{
    /** (seed, config) pairs compared. */
    std::size_t comparisons = 0;
    std::vector<LatticeDivergence> divergences;

    bool clean() const { return divergences.empty(); }
};

/**
 * Sweep seeds [firstSeed, firstSeed + numSeeds) x latticeConfigs():
 * generate one stream per seed and diff it on every config. Each
 * divergence is shrunk; when @p dumpDir is nonempty the minimized
 * stream is written there as divergence-<config>-seed<N>.trace (with
 * the flight dump beside it as .spans) for offline replay.
 */
LatticeRun runLattice(std::uint64_t firstSeed, std::size_t numSeeds,
                      std::size_t txnsPerStream,
                      const std::string &dumpDir = "",
                      const DiffOptions &opts = {});

} // namespace memories::oracle

#endif // MEMORIES_ORACLE_DIFF_HH
