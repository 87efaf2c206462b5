/**
 * @file
 * Multi-configuration fan-out: one host bus stream, many boards.
 *
 * The hardware board emulates exactly one memory configuration per
 * real-time run, so each cache-sensitivity curve in the paper's case
 * studies (Figures 9-11) is a separate multi-hour host run. A software
 * board has no such constraint: because the board is a *passive*
 * snooper, one host bus stream can legally feed any number of
 * MemoriesBoard instances at once.
 *
 * ExperimentFleet implements that fan-out. A single tap attaches to the
 * host Bus6xx as a BusObserver, records every committed tenure (retried
 * tenures are dropped at the tap) into a bounded broadcast ring, and a
 * std::thread pool replays the stream into M independently-configured
 * boards (one board per ring cursor, no shared mutable state between
 * boards, each seeded deterministically). The same machinery replays a
 * captured trace file offline through the identical code path.
 *
 * Passivity is preserved end to end: the tap never drives a snoop
 * response, and when the ring fills behind a slow board the *producer's
 * wall clock* stalls — bus time is virtual, so the emulated host sees
 * no perturbation at all. Each stall episode is charged to the lagging
 * boards' backpressure counters so a slow configuration surfaces as a
 * number, never as host interference.
 *
 * Bit-exactness contract (enforced by tests/ies/fanout_equiv_test.cc):
 * as long as no board overflows its transaction buffer, every
 * NodeController counter of a fleet-fed board is bit-identical to the
 * same board plugged directly into the bus, for any worker count.
 * Node-level emulation depends only on the order of committed tenures,
 * which the ring preserves per cursor; SDRAM pacing shifts *when*
 * entries retire, not their order. On overflow a live board posts a bus
 * retry and the host replays the tenure, while a fleet board silently
 * drops it (counted in overflowDrops()) — so overflow is the one point
 * of divergence, exactly as it is the one non-passive behaviour of the
 * hardware (paper section 3.3).
 */

#ifndef MEMORIES_IES_FANOUT_HH
#define MEMORIES_IES_FANOUT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bus/bus6xx.hh"
#include "ies/board.hh"

namespace memories::ies
{

/**
 * Bounded single-producer broadcast ring with one cursor per consumer.
 *
 * Every consumer sees every event in publication order (this is a
 * broadcast, not a work queue); a slot is reclaimed once the slowest
 * cursor has passed it. The producer blocks while the ring is full and
 * charges each blocking episode to the consumers currently holding the
 * minimum cursor.
 */
class EventRing
{
  public:
    EventRing(std::size_t capacity, std::size_t consumers);

    /** Producer: append @p n events, blocking while the ring is full. */
    void push(const bus::BusTransaction *events, std::size_t n);

    /** Producer: no more events will arrive; wakes every consumer. */
    void close();

    /**
     * Consumer @p c: pop up to @p max events without blocking. When
     * @p drained is non-null it reports, under the same lock, whether
     * the ring is closed and @p c has now consumed everything.
     */
    std::size_t pop(std::size_t c, bus::BusTransaction *out, std::size_t max,
                    bool *drained = nullptr);

    /** True once the ring is closed and @p c has consumed everything. */
    bool drained(std::size_t c) const;

    /**
     * Block until one of @p consumers has unconsumed events or the ring
     * is closed.
     */
    void waitForEvents(const std::vector<std::size_t> &consumers);

    /** Events pushed so far. */
    std::uint64_t published() const;

    /** Producer blocking episodes charged to consumer @p c. */
    std::uint64_t stalls(std::size_t c) const;

  private:
    std::size_t freeSpaceLocked() const;

    mutable std::mutex mu_;
    std::condition_variable notFull_;  //!< producer waits here
    std::condition_variable notEmpty_; //!< consumers wait here
    std::vector<bus::BusTransaction> ring_;
    std::vector<std::uint64_t> tails_;  //!< absolute per-consumer cursors
    std::vector<std::uint64_t> stalls_; //!< blocking episodes per laggard
    std::uint64_t head_ = 0;            //!< absolute events pushed
    bool closed_ = false;
};

/** Tunables of the fan-out machinery. */
struct FleetOptions
{
    /** Events buffered between the tap and the boards. */
    std::size_t ringCapacity = std::size_t{1} << 14;
    /** Producer flush / consumer pop granule. */
    std::size_t batchSize = 256;
};

/**
 * A fleet of independently-configured boards fed from one bus stream.
 *
 * Live mode:
 *
 *   ExperimentFleet fleet;
 *   for (const auto &cfg : configs) fleet.addExperiment(cfg, seed);
 *   fleet.attach(machine.bus());
 *   fleet.start(workers);
 *   machine.run(refs);          // boards consume while the host runs
 *   fleet.finish();             // join, drain, detach
 *
 * Offline mode replays a captured trace file through the same path:
 *
 *   fleet.replayFile("oltp.trace", workers);
 *
 * Boards are assigned to workers statically (board i belongs to worker
 * i mod W), so each board is always advanced by exactly one thread in
 * ring order — results are independent of the worker count, which the
 * determinism tests assert.
 */
class ExperimentFleet final : public bus::BusObserver
{
  public:
    explicit ExperimentFleet(FleetOptions opts = {});
    ~ExperimentFleet() override;

    ExperimentFleet(const ExperimentFleet &) = delete;
    ExperimentFleet &operator=(const ExperimentFleet &) = delete;

    /**
     * Add one board configuration to the fleet (before start()).
     * @return the experiment's index.
     */
    std::size_t addExperiment(const BoardConfig &config,
                              std::uint64_t seed = 1,
                              const std::string &label = "");

    std::size_t numExperiments() const { return boards_.size(); }
    MemoriesBoard &board(std::size_t i) { return *boards_[i]; }
    const MemoriesBoard &board(std::size_t i) const { return *boards_[i]; }
    const std::string &label(std::size_t i) const { return labels_[i]; }

    /** Attach the tap to the host bus (live mode). */
    void attach(bus::Bus6xx &bus);

    /** Detach the tap (finish() also does this). */
    void detach(bus::Bus6xx &bus);

    /**
     * Spawn @p workers consumer threads (clamped to the experiment
     * count) and begin accepting events. Restartable: a finished fleet
     * may start() again with warm boards and fresh fleet counters.
     */
    void start(std::size_t workers);

    /**
     * Close the stream, join the workers, drain every board's
     * transaction buffer, and detach the tap if attached.
     */
    void finish();

    /**
     * Offline mode: replay a captured trace file into the fleet using
     * @p workers threads. Equivalent to start(); publish() per record;
     * finish(). Captured traces hold only committed tenures, the same
     * stream the live tap publishes.
     */
    void replayFile(const std::string &path, std::size_t workers);

    /**
     * Feed one committed tenure from a custom source (offline mode).
     * Events are batched; the ring sees them in publication order.
     */
    void publish(const bus::BusTransaction &txn);

    /** BusObserver tap: publishes committed memory tenures; retried
     *  ones are dropped here, so the ring never carries a response. */
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;

    bool running() const { return running_; }

    /** Committed tenures published to the ring. */
    std::uint64_t eventsPublished() const { return published_; }

    /** Tenures the tap skipped as non-memory operations. */
    std::uint64_t tapFiltered() const { return tapFiltered_; }

    /** Tenures the tap skipped because the host retried them. */
    std::uint64_t tapRetryDropped() const { return tapRetryDropped_; }

    /**
     * Producer stall episodes charged to board @p i (the board held the
     * slowest cursor while the ring was full). Read after finish().
     */
    std::uint64_t backpressureStalls(std::size_t i) const;

    /**
     * Committed tenures board @p i dropped because its transaction
     * buffer overflowed (a live board would have retried them on the
     * bus instead). Read after finish().
     */
    std::uint64_t overflowDrops(std::size_t i) const;

    /** Events consumed by board @p i. Read after finish(). */
    std::uint64_t eventsConsumed(std::size_t i) const;

    /** Multi-line fleet diagnostics (read after finish()). */
    std::string dumpStats() const;

    /**
     * Register the fleet's thread-safe observables with a sampler:
     * tap-side totals (published, filtered, retry-dropped) plus, when
     * @p board_progress is set, per-board events-consumed,
     * overflow-drop, and ring-stall counts under "fleet.board<i>.".
     * Call after every addExperiment() so all boards get sources, and
     * Sampler::resync() after start() — start() zeroes the fleet
     * counters, which would corrupt baselines captured earlier.
     *
     * Only these are safe to sample live: the tap counters are written
     * on the bus-time thread (the sampler's thread) and the per-board
     * counts are relaxed atomics / mutex-protected. The boards' own
     * CounterBanks are written by worker threads and must NOT be
     * registered while the fleet runs — use
     * MemoriesBoard::attachTelemetry only on single-owner boards.
     *
     * The tap counters advance on the bus thread, so their windows are
     * deterministic for a deterministic host run. The per-board counts
     * measure *worker* progress against bus time: their final values
     * are scheduling-independent, but the window each increment lands
     * in is not. Pass board_progress=false when the telemetry stream
     * must be byte-stable run-to-run (CI artifacts); the deterministic
     * per-board fidelity numbers are in FleetReport after finish().
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         bool board_progress = true);

    /**
     * Attach a flight recorder to board @p i, tagging its lifecycle
     * events with the board index. Use one recorder per board: each
     * board is advanced by exactly one worker, so a private recorder
     * needs no synchronization, and the resulting per-board streams
     * can be compared directly with trace::firstDivergence() (two
     * boards fed the same stream should diverge only where their
     * configurations make them). Call before start().
     */
    void attachFlightRecorder(std::size_t i,
                              trace::FlightRecorder &recorder)
    {
        requireIdle("attachFlightRecorder");
        boards_[i]->attachFlightRecorder(
            recorder, static_cast<std::uint8_t>(i));
    }

    /**
     * Attach a fault injector to board @p i. One injector per board —
     * each board is advanced by exactly one worker, so a private
     * injector needs no synchronization and keeps its fault sequence a
     * pure function of (plan, seed, that board's stream). Call before
     * start(); the caller keeps ownership for the fleet's lifetime.
     */
    void attachFaultInjector(std::size_t i,
                             fault::FaultInjector &injector)
    {
        requireIdle("attachFaultInjector");
        boards_[i]->attachFaultInjector(injector);
    }

    /**
     * Attach an IESPROF profiler to board @p i
     * (MemoriesBoard::attachProfiler). One profiler per board — each
     * board is advanced by exactly one worker, so its stage cells keep
     * their single-writer contract. Call before start(); read the
     * profiler only between runs.
     */
    void attachProfiler(std::size_t i, profile::Profiler &profiler)
    {
        requireIdle("attachProfiler");
        boards_[i]->attachProfiler(profiler);
    }

    /** Detach board @p i's profiler. Only between runs. */
    void detachProfiler(std::size_t i)
    {
        requireIdle("detachProfiler");
        boards_[i]->detachProfiler();
    }

    /**
     * Recover board @p sick by mirroring board @p healthy's
     * directories (MemoriesBoard::resyncFrom). Only meaningful between
     * runs — both boards must be quiescent — and only bit-faithful
     * when the two boards share a configuration.
     */
    void resyncBoard(std::size_t sick, std::size_t healthy)
    {
        requireIdle("resyncBoard");
        boards_[sick]->resyncFrom(*boards_[healthy]);
    }

    /**
     * Checkpoint board @p i to @p path as an IESCKPT container
     * (MemoriesBoard::saveState). Only between runs: the board must be
     * quiescent so the capture is a consistent cut.
     */
    void checkpointBoard(std::size_t i, const std::string &path) const
    {
        requireIdle("checkpointBoard");
        boards_[i]->saveState(path);
    }

    /**
     * Restore board @p i from an IESCKPT checkpoint
     * (MemoriesBoard::loadState): fails closed on any mismatch,
     * leaving the board untouched. Only between runs.
     */
    void restoreBoard(std::size_t i, const std::string &path)
    {
        requireIdle("restoreBoard");
        boards_[i]->loadState(path);
    }

  private:
    void workerMain(std::size_t worker, std::size_t worker_count);
    void feedBoard(std::size_t i, const bus::BusTransaction *events,
                   std::size_t n);
    void flushProducer();
    void requireIdle(const char *what) const;

    FleetOptions opts_;
    std::vector<std::unique_ptr<MemoriesBoard>> boards_;
    std::vector<std::string> labels_;
    std::unique_ptr<EventRing> ring_;
    std::vector<std::thread> workers_;
    std::vector<bus::BusTransaction> producerBuf_;
    bus::Bus6xx *tappedBus_ = nullptr;
    bool running_ = false;

    std::uint64_t overflowDropsRelaxed(std::size_t i) const
    {
        return i < slotCount_
                   ? overflowDrops_[i].load(std::memory_order_relaxed)
                   : 0;
    }
    std::uint64_t eventsConsumedRelaxed(std::size_t i) const
    {
        return i < slotCount_
                   ? eventsConsumed_[i].load(std::memory_order_relaxed)
                   : 0;
    }

    std::uint64_t published_ = 0;
    std::uint64_t tapFiltered_ = 0;
    std::uint64_t tapRetryDropped_ = 0;
    /**
     * Written only by the owning worker, but relaxed-atomic so a
     * telemetry sampler on the bus-time thread may read them live
     * (plain uint64 reads would race under TSan). Arrays rather than
     * vectors because std::atomic is not movable; sized at start().
     */
    std::unique_ptr<std::atomic<std::uint64_t>[]> overflowDrops_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> eventsConsumed_;
    std::size_t slotCount_ = 0;
};

} // namespace memories::ies

#endif // MEMORIES_IES_FANOUT_HH
