/**
 * @file
 * IESPROF: the emulator profiling itself.
 *
 * Every other observability layer in this codebase watches the
 * *emulated* machine — counters count target-cache events, the flight
 * recorder records tenure lifecycles, telemetry windows are bus-cycle
 * aligned. This subsystem watches the *emulator*: where the wall-clock
 * nanoseconds of MemoriesBoard::feedBatch actually go, attributed to
 * the pipeline stages of the batch hot path (batch admission and
 * retirement emulation).
 *
 * Design rules, in the order they matter:
 *
 *  1. Non-perturbing. The profiler only ever *reads* the clock and
 *     *writes* its own slabs; it cannot change a single emulated byte.
 *     tests/profile/prof_equiv_test.cc proves attached-vs-detached
 *     byte equivalence the same way the batch-equivalence tier does.
 *  2. Zero-cost when detached. Board hot paths guard every hook with
 *     one `if (prof_)` on a pointer that is null in the common case —
 *     the same single-predictable-branch contract the flight recorder,
 *     sampler, and fault injector already honor.
 *  3. Measured, never estimated. Every stage pays one steady_clock
 *     pair per batch, and each child's pair nests inside its parent's,
 *     so no stage can report more time than its parent. Nothing is
 *     timed per tenure, so the overhead stays under 5% of the batch
 *     path (docs/PROFILING.md records the methodology).
 *  4. Single writer. Stage cells are written only by the thread that
 *     feeds the board. Fields are relaxed atomics so a telemetry
 *     Sampler may read them between batches without UB.
 *
 * Exports: a text report (describe()), folded-stack flamegraph lines
 * and Chrome-trace merge in profile/profexport.hh, and Sampler gauges
 * via attachTelemetry() (Prometheus/JSONL/CSV for free).
 */

#ifndef MEMORIES_PROFILE_PROFILER_HH
#define MEMORIES_PROFILE_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace memories::telemetry
{
class Sampler;
} // namespace memories::telemetry

namespace memories::profile
{

/**
 * The pipeline stages of MemoriesBoard::feedBatch. FeedBatch is the
 * root; BatchAdmission and Emulation (the pass over the queued
 * retirements) are its children.
 */
enum class Stage : std::uint8_t
{
    FeedBatch = 0,
    BatchAdmission,
    /** Nothing records this stage; it stays only because the
     *  benchmark's probeProfiler reads it, and goes with that probe at
     *  the next benchmark change. */
    CreditPacing,
    Emulation,
    NumStages,
};

constexpr std::size_t numStages =
    static_cast<std::size_t>(Stage::NumStages);

/** The stages the board records, root first: every export walks
 *  these, so the CreditPacing stub never shows a row. */
constexpr Stage recordedStages[] = {Stage::FeedBatch,
                                    Stage::BatchAdmission,
                                    Stage::Emulation};

/** Stable machine-readable stage name ("batch_admission", ...). */
const char *stageName(Stage stage);

/** Flamegraph parent (FeedBatch is its own parent — the root). */
Stage stageParent(Stage stage);

/** Read-side view of one stage's accumulated attribution. */
struct StageStats
{
    std::uint64_t calls = 0; //!< timed bouts
    std::uint64_t ns = 0;    //!< wall ns accumulated over the bouts

    /** Total ns. Every bout is timed, so this is the measured ns. */
    std::uint64_t estNs() const { return ns; }
};

/**
 * One emulator span on the merged Chrome-trace timeline. Timestamps
 * are *bus cycles* (the batch's admitted cycle range) so profiler
 * spans line up with the emulated spans the same batch produced; the
 * wall-clock cost is carried in wallNs and rendered into the span's
 * args.
 */
struct ProfSpan
{
    Stage stage = Stage::FeedBatch;
    Cycle beginCycle = 0;
    Cycle endCycle = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t batch = 0; //!< feedBatch ordinal, 1-based
};

/** Merged-on-read snapshot of everything the profiler collected. */
struct ProfReport
{
    std::vector<StageStats> stages; //!< indexed by Stage
    std::uint64_t batches = 0;
    std::uint64_t spansRecorded = 0;
    std::uint64_t spansDropped = 0;

    const StageStats &
    stage(Stage s) const
    {
        return stages[static_cast<std::size_t>(s)];
    }
};

/** The collector. One profiler serves one board; see class comment. */
class Profiler
{
  public:
    /** @param span_capacity Bounded span ring size; recording stops
     *        (dropped spans are counted) when the ring fills. */
    explicit Profiler(std::size_t span_capacity = std::size_t{1} << 16);
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Zero every cell and the span ring. */
    void reset();

    /** Monotonic wall clock, ns. */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    // --- Batch-frequency hooks. The board calls none of these when
    // detached; each is a handful of relaxed atomic ops plus at most
    // one clock read.

    /** Open batch @p first_cycle..: resets per-batch accumulators. */
    void beginBatch(Cycle first_cycle);

    /**
     * Close the batch: record the FeedBatch root time (clock pair
     * started at @p root_t0) and push this batch's stage spans onto
     * the ring, stamped with the admitted cycle range.
     */
    void endBatch(Cycle last_cycle, std::uint64_t root_t0);

    /** Record a stage bout started at @p t0 = nowNs(). */
    void
    recordStage(Stage s, std::uint64_t t0)
    {
        addStage(s, nowNs() - t0);
    }

    // --- Read side. Call from the feeding thread between batches (the
    // same single-owner contract as MemoriesBoard::attachTelemetry).

    /** Merge every slab into one report. */
    ProfReport snapshot() const;

    /** Spans recorded so far, in batch order. */
    std::vector<ProfSpan> spans() const;

    /** Aligned text report: one row per stage. */
    std::string describe() const;

    /**
     * Register the stage observables with a telemetry sampler:
     * "<prefix>.stage.<name>.ns" and ".calls" as windowed counters per
     * recorded stage — which is how the profiler reaches the
     * Prometheus/JSONL/CSV exporters. Values read through `this`; keep
     * the profiler alive while the sampler runs.
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         const std::string &prefix = "prof");

  private:
    /** Single-writer accumulators; relaxed atomics so the read side
     *  may observe them between batches without UB. */
    struct alignas(64) StageCell
    {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> ns{0};
        std::atomic<std::uint64_t> batchNs{0};
    };

    /** Single-writer add: plain load+store, never a locked RMW. */
    static void
    bump(std::atomic<std::uint64_t> &cell, std::uint64_t d)
    {
        cell.store(cell.load(std::memory_order_relaxed) + d,
                   std::memory_order_relaxed);
    }

    void
    addStage(Stage s, std::uint64_t d)
    {
        StageCell &c = stageCells_[static_cast<std::size_t>(s)];
        bump(c.calls, 1);
        bump(c.ns, d);
        bump(c.batchNs, d);
    }

    void pushSpan(Stage s, Cycle begin, Cycle end, std::uint64_t wall_ns);

    StageCell stageCells_[numStages];

    std::uint64_t batches_ = 0;
    Cycle batchBeginCycle_ = 0;

    std::vector<ProfSpan> ring_;
    std::size_t spanCapacity_;
    std::uint64_t spansDropped_ = 0;
};

/**
 * RAII stage scope for block-structured sites: times the enclosed
 * block iff @p profiler is non-null (one predictable branch when
 * detached, matching the board's other attach points).
 */
class ScopedStage
{
  public:
    ScopedStage(Profiler *profiler, Stage stage)
        : profiler_(profiler), stage_(stage),
          t0_(profiler ? Profiler::nowNs() : 0)
    {
    }

    ~ScopedStage()
    {
        if (profiler_)
            profiler_->recordStage(stage_, t0_);
    }

    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    Profiler *profiler_;
    Stage stage_;
    std::uint64_t t0_;
};

} // namespace memories::profile

#endif // MEMORIES_PROFILE_PROFILER_HH
