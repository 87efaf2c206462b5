/**
 * @file
 * The MemorIES board: address filter, global event counters,
 * transaction buffering, and up to four (logically eight) lock-stepped
 * node controllers, plugged into the host's 6xx bus as a passive
 * snooper.
 *
 * Passivity is structural: the board receives transactions through the
 * BusSnooper/BusObserver interfaces and holds no reference to any host
 * cache. Its only possible effect on the host is the retry it posts
 * when its transaction buffers overflow (paper section 3.3 — never
 * observed below 42% sustained utilization).
 */

#ifndef MEMORIES_IES_BOARD_HH
#define MEMORIES_IES_BOARD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "common/counters.hh"
#include "fault/health.hh"
#include "ies/boardconfig.hh"
#include "ies/nodecontroller.hh"
#include "ies/txnbuffer.hh"
#include "trace/capture.hh"

namespace memories::fault
{
class FaultInjector;
} // namespace memories::fault

namespace memories::ckpt
{
class CheckpointWriter;
class CheckpointImage;
} // namespace memories::ckpt

namespace memories::profile
{
class Profiler;
} // namespace memories::profile

namespace memories::ies
{

/** The complete emulation board. */
class MemoriesBoard : public bus::BusSnooper, public bus::BusObserver
{
  public:
    explicit MemoriesBoard(const BoardConfig &config,
                           std::uint64_t seed = 1);
    ~MemoriesBoard() override;

    MemoriesBoard(const MemoriesBoard &) = delete;
    MemoriesBoard &operator=(const MemoriesBoard &) = delete;

    /**
     * Factory returning an owned board. The board is neither copyable
     * nor movable (the bus holds raw snooper/observer pointers into
     * it), so contexts that transfer ownership — ExperimentFleet,
     * containers of boards — standardize on this.
     */
    static std::unique_ptr<MemoriesBoard> make(const BoardConfig &config,
                                               std::uint64_t seed = 1);

    /** Attach to the host bus (snoop + response-window observer). */
    void plugInto(bus::Bus6xx &bus);

    /** Detach from the host bus. */
    void unplug(bus::Bus6xx &bus);

    /** BusSnooper: filter, pace, and Retry only on buffer overflow. */
    bus::SnoopResponse snoop(const bus::BusTransaction &txn) override;
    std::string snooperName() const override { return "memories-board"; }

    /** BusObserver: commit or drop the tenure once responses combine. */
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;

    /**
     * Replay path: feed one already-committed tenure (a tenure some
     * live bus completed without a Retry). Behaves exactly like
     * snoop() followed by observeResult() for that tenure — same
     * counters, same pacing, same capacity check — minus the
     * response-window bookkeeping a live bus needs.
     *
     * @return false when the transaction buffer was full, i.e. the
     *         point where a live board would have posted a bus retry
     *         (retries_posted is counted either way); the caller
     *         decides how to surface the dropped tenure.
     */
    bool feedCommitted(const bus::BusTransaction &txn);

    /**
     * Batch replay path: feed @p count already-committed tenures in
     * one call. Bit-exact to calling feedCommitted() per element —
     * same counters, same pacing, same retirement order, same
     * lifecycle-event bytes, same checkpoint bytes. Admission runs the
     * same code as feedCommitted(). Without a flight recorder the
     * retirements are queued and emulated after admission in one
     * dense, prefetching pass (and before any injected tag flip
     * probes the directory); with a recorder attached every retirement
     * is emulated inline, so lifecycle events keep their serial order.
     * Everything runs on the calling thread.
     *
     * @param accepted Optional out array of @p count flags mirroring
     *        each feedCommitted() return value.
     * @return the number of accepted tenures.
     */
    std::size_t feedBatch(const bus::BusTransaction *txns,
                          std::size_t count, bool *accepted = nullptr);
    std::size_t feedBatch(const std::vector<bus::BusTransaction> &txns,
                          bool *accepted = nullptr);

    /**
     * The admission half of feedBatch(): every counter, pacing and
     * commit effect of the batch, with the retirements it owes left
     * queued for emulateQueued() (a recorder still sees them emulated
     * inline). feedBatch() is admitBatch() plus emulateQueued().
     * Emulation is deferred, never dropped: the next feedCommitted(),
     * snoop(), drainAll() or resyncFrom() emulates the queue first,
     * and a further admitBatch() appends to it in retirement order.
     * Readers (counters, directories, saveState) see the deferred
     * retirements only once the caller has emulated them.
     */
    std::size_t admitBatch(const bus::BusTransaction *txns,
                           std::size_t count, bool *accepted = nullptr);

    /** Retirements admitBatch() left for emulateQueued(). */
    std::size_t queuedRetirements() const
    {
        return retireSlab_.size() - slabHead_;
    }

    /**
     * Emulate up to @p max queued retirements, oldest first.
     * @return the number still queued.
     */
    std::size_t emulateQueued(std::size_t max = SIZE_MAX);

    /**
     * Retired API, kept only because the benchmark's per-layer probe
     * ("ies.feed_batch_shard4") still calls it; it goes with that probe
     * at the next benchmark change. Batch emulation always runs on the
     * calling thread, so the effective count is always 1.
     */
    std::size_t enableSharding(std::size_t) { return 1; }

    /**
     * Process everything still sitting in the transaction buffers
     * (call at the end of a measurement; the host has gone quiet so
     * the SDRAM side catches up).
     */
    void drainAll();

    std::size_t numNodes() const { return nodes_.size(); }
    NodeController &node(std::size_t i) { return *nodes_[i]; }
    const NodeController &node(std::size_t i) const { return *nodes_[i]; }

    /** Board-level (global-events FPGA) counters. */
    const CounterBank &globalCounters() const { return global_; }

    /** Retries the board itself posted (should stay 0 below 42% util). */
    std::uint64_t retriesPosted() const;

    /** Deepest buffer occupancy seen. */
    std::size_t bufferHighWater() const { return buffer_.highWater(); }

    /** Tenures currently awaiting retirement (oracle diffing). */
    std::size_t bufferSize() const { return buffer_.size(); }

    /** Tenures the SDRAM side has retired (oracle diffing). */
    std::uint64_t bufferRetired() const { return buffer_.retired(); }

    /**
     * Mutation-free admission probe: the longest prefix of @p txns the
     * transaction buffer would take at their own cycles without
     * posting a retry (TransactionBuffer::admissiblePrefix). The
     * IESSERV admission controller prices paced feed lines with this
     * (docs/SERVICE.md).
     */
    std::size_t admissiblePrefix(const bus::BusTransaction *txns,
                                 std::size_t n) const
    {
        return buffer_.admissiblePrefix(txns, n);
    }

    /** Trace-capture buffer, when the mode is enabled. */
    trace::CaptureBuffer *captureBuffer()
    {
        return capture_ ? &*capture_ : nullptr;
    }
    const trace::CaptureBuffer *captureBuffer() const
    {
        return capture_ ? &*capture_ : nullptr;
    }

    /** Clear all counters (node + global); keeps directories warm. */
    void clearCounters();

    /**
     * Cold-start the board: every directory, counter, the transaction
     * buffer (entries, pacing credits, fault windows), the pending
     * snoop and the health monitor return to their constructed values.
     * Attachments (recorder, injector, profiler, telemetry) stay.
     */
    void reset();

    /** Multi-line human-readable statistics dump (console "stats"). */
    std::string dumpStats() const;

    /**
     * Checkpoint the complete board state to @p path as an IESCKPT
     * container (docs/FORMATS.md section 7).
     *
     * Section 4.2 notes that, unlike Embra, the hardware board cannot
     * checkpoint and reposition a workload. A software board can — and
     * the capture is exact: directories *with* replacement metadata
     * (recency stamps, PLRU bits, per-set replacement RNGs), every
     * 40-bit counter bank, the transaction buffer's in-flight entries
     * and pacing credits, active fault windows, the health state
     * machine, and any attached fault injector's RNG stream. A run
     * resumed from the checkpoint retires, counts, and traces
     * byte-identically to one that never stopped. The only state not
     * captured is the on-board trace-capture buffer's *contents* (its
     * mode is part of the fingerprinted configuration).
     */
    void saveState(const std::string &path) const;

    /** Checkpoint into @p writer (caller renders/stores the bytes). */
    void saveState(ckpt::CheckpointWriter &writer) const;

    /**
     * Restore a board checkpointed by saveState(). Fails closed: the
     * checkpoint's config fingerprint must match this board's (see
     * BoardConfig::validationErrors(fingerprint)), an injector must be
     * attached iff one was attached at save time, and every section
     * must decode cleanly — any failure is a fatal() diagnostic that
     * leaves the board completely untouched.
     */
    void loadState(const std::string &path);

    /** Restore from an already-validated container image. */
    void loadState(const ckpt::CheckpointImage &image);

    const BoardConfig &config() const { return config_; }

    /**
     * Register this board's observables with a telemetry sampler: the
     * global-events bank and every node bank (windowed, wrap-correct
     * deltas), a buffer-occupancy gauge, plus two histograms fed by the
     * transaction buffer — occupancy at each accepted push and
     * snoop-to-commit latency in bus cycles at each paced retirement.
     * Metric names are prefixed "<prefix>."; pass distinct prefixes to
     * tell boards apart in one sampler.
     *
     * Threading: registered sources are read on the sampler's (bus
     * time) thread. Only attach a board that is emulated on that same
     * thread — never a live ExperimentFleet worker board.
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         const std::string &prefix = "board");

    /**
     * Attach a flight recorder to the board and all of its node
     * controllers. The board then emits the board-side lifecycle of
     * every tenure — BoardCommit when it enters the transaction
     * buffer, Retire when the SDRAM side retires it, BoardDropRetry
     * when another agent's retry voids it — and BufferOverflow plus a
     * TxnBufferOverflow/FleetDrop anomaly when the buffer fills; the
     * nodes emit hit/miss/castout/state-transition events. @p boardId
     * tags every event (fleet board index; default: a lone board).
     * Costs one null check per tenure when detached.
     */
    void attachFlightRecorder(trace::FlightRecorder &recorder,
                              std::uint8_t boardId =
                                  trace::lifecycleNoOwner);

    /** Stop emitting lifecycle events (board and nodes). */
    void detachFlightRecorder();

    /** Currently attached flight recorder (nullptr when detached). */
    trace::FlightRecorder *flightRecorder() const { return recorder_; }

    /**
     * Attach a fault injector: the board then routes every snooped/fed
     * tenure through FaultInjector::onTenure (drops, delays, address
     * flips) and every commit through onCommit (tag flips, slot loss,
     * retirement stalls). One injector serves one board — sharing
     * breaks per-board determinism. An injector with an empty plan
     * leaves the board bit-exact to an unattached one. The caller
     * keeps ownership; detach before destroying the injector. Costs
     * one null check per tenure when detached.
     */
    void attachFaultInjector(fault::FaultInjector &injector);

    /** Stop injecting faults. */
    void detachFaultInjector();

    /** Currently attached injector (nullptr when detached). */
    fault::FaultInjector *faultInjector() const { return injector_; }

    /**
     * Attach an IESPROF profiler: the batch hot path then attributes
     * its wall-clock to pipeline stages (src/profile/profiler.hh). The profiler only observes the
     * emulator — tests/profile/prof_equiv_test.cc proves every
     * emulated byte (counters, directories, retirement order,
     * chrome-trace bytes) identical attached vs detached. One
     * profiler serves one board; the caller keeps ownership. Costs
     * one null check per hook site when detached, like the recorder
     * and injector.
     */
    void attachProfiler(profile::Profiler &profiler);

    /** Stop profiling (the profiler keeps its accumulated data). */
    void detachProfiler();

    /** Currently attached profiler (nullptr when detached). */
    profile::Profiler *profiler() const { return prof_; }

    /** Where this board sits on the degradation ladder. */
    fault::HealthState healthState() const { return health_.state(); }

    /** The health monitor (policy, state, console rendering). */
    const fault::HealthMonitor &health() const { return health_; }

    /**
     * Recover a quarantined board by mirroring @p healthy's directories
     * through the same StateCodec the checkpoint path uses (each node's
     * saveDirectoryState/decodeDirectoryState/restoreDirectoryState),
     * so the copy is exact down to recency stamps and replacement RNG
     * streams. Node counts and geometries must match; fatal() before
     * anything is touched otherwise. Only the directories move:
     * counters stay (a resynced board keeps its own history, unlike a
     * checkpoint restore), stale buffered tenures predate the new
     * directories and are discarded (counted as lost in flight), and
     * health returns to Healthy. Like saveState(), it refuses a source
     * with retirements still queued (admitBatch()).
     */
    void resyncFrom(const MemoriesBoard &healthy);

    /** Tenures lost between the capacity check and the buffer. */
    std::uint64_t tenuresLostInflight() const
    {
        return global_.value(hLostInflight_);
    }

  private:
    /** Nodes of one target machine, in first-appearance order. */
    struct MachineGroup
    {
        unsigned machine;
        std::vector<std::uint8_t> nodes;
    };

    /** How admit() disposed of one tenure. */
    enum class Admission : std::uint8_t
    {
        Filtered, //!< not a memory op: dropped by the address filter
        Skipped,  //!< fault drop, quarantine, sampled out, or shed
        Overflow, //!< buffer full: a bus retry, or a dropped fed tenure
        Accepted, //!< cleared every check
    };

    /**
     * The board's one admission pipeline (paper section 3): address
     * filter, fault stream, global-event counters, injected drop,
     * SDRAM catch-up, quarantine, degraded sampling, capacity check,
     * commit. Stream faults rewrite @p t in place. A @p live tenure
     * is not committed here but waits for its response window
     * (snoop/observeResult); @p live also picks how an overflow is
     * recorded: a bus retry (arg0 0, TxnBufferOverflow) or a dropped
     * fed tenure (arg0 1, FleetDrop).
     */
    Admission admit(bus::BusTransaction &t, bool live);

    /** One lock-step emulation step over every node. */
    void emulate(const bus::BusTransaction &txn);

    /**
     * Retire everything the SDRAM side owes by bus cycle @p now.
     * Retirements are emulated inline for a single-tenure call or with
     * a flight recorder attached (after anything still queued);
     * otherwise they are queued in retireSlab_.
     */
    void drainDue(Cycle now);

    /**
     * Accept @p txn into the transaction buffer: count the commit,
     * record/capture it, fire commit-time faults, and recover (never
     * panic) if a fault shrank the buffer after the capacity check.
     */
    void commit(const bus::BusTransaction &txn, Cycle event_cycle);

    /** Apply the injector's commit-time faults for @p txn. */
    void applyCommitFaults(const bus::BusTransaction &txn);

    /** Build the common fields of a board-level lifecycle event. */
    trace::LifecycleEvent makeEvent(trace::EventKind kind,
                                    const bus::BusTransaction &txn,
                                    Cycle cycle) const
    {
        trace::LifecycleEvent ev;
        ev.kind = kind;
        ev.cycle = cycle;
        ev.addr = txn.addr;
        ev.traceId = txn.traceId;
        ev.board = boardId_;
        ev.cpu = txn.cpu;
        ev.op = txn.op;
        return ev;
    }

    BoardConfig config_;
    std::vector<std::unique_ptr<NodeController>> nodes_;
    TransactionBuffer buffer_;
    std::optional<trace::CaptureBuffer> capture_;

    /** Owned by the board, fed by buffer_ (see attachTelemetry). */
    std::unique_ptr<telemetry::Histogram> occupancyHist_;
    std::unique_ptr<telemetry::Histogram> commitLatencyHist_;

    /** Tenure seen by snoop() awaiting its response window. */
    std::optional<bus::BusTransaction> pending_;
    bool pendingRetried_ = false;

    trace::FlightRecorder *recorder_ = nullptr;
    std::uint8_t boardId_ = trace::lifecycleNoOwner;

    fault::FaultInjector *injector_ = nullptr;
    profile::Profiler *prof_ = nullptr;
    fault::HealthMonitor health_;
    unsigned healthLineShift_ = 0; //!< line shift for degraded sampling
    /** Stamp for health-transition events (last tenure seen). */
    Cycle healthCycle_ = 0;
    std::uint32_t healthTraceId_ = 0;

    CounterBank global_;
    CounterBank::Handle hTenures_, hCommitted_, hFiltered_,
        hDroppedRetry_, hReads_, hWrites_, hWritebacks_, hRetriesPosted_;
    CounterBank::Handle hLostInflight_, hFaultDropped_, hSampledOut_,
        hShed_, hQuarantined_, hHealthTransitions_;

    /** Target-machine groups, precomputed for the emulation step. */
    std::vector<MachineGroup> machines_;

    bool batching_ = false; //!< inside an admitBatch call
    /** Retirements queued for emulation, in retirement order; the
     *  first slabHead_ of them are already emulated. */
    std::vector<bus::BusTransaction> retireSlab_;
    std::size_t slabHead_ = 0;
};

/**
 * Build the common single-target-machine configuration: @p node_count
 * nodes, @p cpus_per_node CPUs each (CPU IDs assigned round-robin
 * contiguously), every node with geometry @p cache and protocol
 * @p protocol_name.
 */
BoardConfig makeUniformBoard(std::size_t node_count,
                             unsigned cpus_per_node,
                             const cache::CacheConfig &cache,
                             const std::string &protocol_name = "MESI");

/**
 * Build the Figure 4 style multi-configuration board: every entry of
 * @p caches becomes one node emulating the *same* target node (all
 * CPUs 0..cpus-1 local) in its own target-machine group, so several
 * geometries are measured against identical traffic in one run.
 */
BoardConfig makeMultiConfigBoard(const std::vector<cache::CacheConfig>
                                     &caches,
                                 unsigned cpus,
                                 const std::string &protocol_name =
                                     "MESI");

} // namespace memories::ies

#endif // MEMORIES_IES_BOARD_HH
