/**
 * @file
 * Checkpoint-at-k resume equivalence: for any generated stream, any
 * lattice configuration, and any split point k, feeding k transactions,
 * checkpointing, restoring into a fresh board and feeding the rest
 * must be byte-identical to the run that never stopped — tail
 * acceptance flags, every Counter40, every directory, the retirement
 * order, and the rendered chrome-trace bytes. Fault plans and the
 * batch feed path are covered too, including saving after a batched
 * prefix and resuming serial.
 *
 * Scale: seeds default to a quick smoke count; CI raises it via the
 * MEMORIES_CKPT_SEEDS environment variable (see docs/TESTING.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/file.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/diff.hh"
#include "oracle/stimulus.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

std::size_t
seedCount()
{
    if (const char *env = std::getenv("MEMORIES_CKPT_SEEDS")) {
        const unsigned long n = std::strtoul(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return 3;
}

std::vector<bus::BusTransaction>
propertyStream(std::uint64_t seed, std::size_t count = 800)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.pBurst = 0.3;
    return oracle::StimulusGen(p).generate();
}

/** Everything the acceptance criteria call byte-identical. */
struct Outcome
{
    std::vector<std::uint8_t> tailAccepted;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;
    /** Tail retirements: (traceId, addr, op, cpu, cycle). */
    std::vector<std::tuple<std::uint32_t, Addr, std::uint8_t,
                           std::uint8_t, Cycle>>
        retires;
    /** Chrome-trace rendering of the tail's lifecycle events. */
    std::string chrome;

    bool operator==(const Outcome &) const = default;
};

/** How one run feeds the stream around the split point. */
struct FeedPlan
{
    /** Feed the prefix [0, k) through feedBatch (else serially). */
    bool prefixBatched = false;
    /** Feed the tail [k, n) through feedBatch (else serially). */
    bool tailBatched = false;
    std::size_t batch = 64;
    /** Fault plan attached (same plan and seed on every board). */
    const fault::FaultPlan *plan = nullptr;
    std::uint64_t faultSeed = 3;
};

void
feedRange(MemoriesBoard &board,
          const std::vector<bus::BusTransaction> &stream,
          std::size_t from, std::size_t to, bool batched,
          std::size_t batch, std::vector<std::uint8_t> *accepted)
{
    if (!batched) {
        for (std::size_t i = from; i < to; ++i) {
            const bool ok = board.feedCommitted(stream[i]);
            if (accepted)
                accepted->push_back(ok ? 1 : 0);
        }
        return;
    }
    std::vector<std::uint8_t> storage(batch, 0);
    bool *flags = reinterpret_cast<bool *>(storage.data());
    for (std::size_t at = from; at < to; at += batch) {
        const std::size_t n = std::min(batch, to - at);
        board.feedBatch(&stream[at], n, flags);
        if (accepted) {
            for (std::size_t i = 0; i < n; ++i)
                accepted->push_back(flags[i] ? 1 : 0);
        }
    }
}

/** Feed the tail on @p board, drain, and collect the full outcome. */
Outcome
finishTail(MemoriesBoard &board,
           const std::vector<bus::BusTransaction> &stream,
           std::size_t k, const FeedPlan &plan)
{
    trace::FlightRecorder recorder(std::size_t{1} << 16);
    board.attachFlightRecorder(recorder);

    Outcome out;
    feedRange(board, stream, k, stream.size(), plan.tailBatched,
              plan.batch, &out.tailAccepted);
    board.drainAll();

    const auto collect = [&out](const CounterSample &s) {
        out.counters.emplace_back(std::string(s.name), s.value);
    };
    board.globalCounters().snapshot(collect);
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot(collect);
        out.dirs.push_back(board.node(i).directorySnapshot());
    }
    out.bufferRetired = board.bufferRetired();
    out.bufferSize = board.bufferSize();
    out.bufferHighWater = board.bufferHighWater();

    const auto events = recorder.snapshot();
    for (const trace::LifecycleEvent &ev : events) {
        if (ev.kind == trace::EventKind::Retire)
            out.retires.emplace_back(
                ev.traceId, ev.addr,
                static_cast<std::uint8_t>(ev.op), ev.cpu, ev.cycle);
    }
    out.chrome = trace::chromeTraceToString(events);
    board.detachFlightRecorder();
    return out;
}

/** The run that never stops: prefix, then tail, one board. */
Outcome
runStraight(const BoardConfig &cfg,
            const std::vector<bus::BusTransaction> &stream,
            std::size_t k, const FeedPlan &plan)
{
    MemoriesBoard board(cfg);
    std::unique_ptr<fault::FaultInjector> inj;
    if (plan.plan) {
        inj = std::make_unique<fault::FaultInjector>(*plan.plan,
                                                     plan.faultSeed);
        board.attachFaultInjector(*inj);
    }
    feedRange(board, stream, 0, k, plan.prefixBatched, plan.batch,
              nullptr);
    return finishTail(board, stream, k, plan);
}

/** Feed k, checkpoint, restore into a fresh board, finish there. */
Outcome
runResumed(const BoardConfig &cfg,
           const std::vector<bus::BusTransaction> &stream,
           std::size_t k, const FeedPlan &plan)
{
    ckpt::CheckpointWriter writer;
    {
        MemoriesBoard board(cfg);
        std::unique_ptr<fault::FaultInjector> inj;
        if (plan.plan) {
            inj = std::make_unique<fault::FaultInjector>(
                *plan.plan, plan.faultSeed);
            board.attachFaultInjector(*inj);
        }
        feedRange(board, stream, 0, k, plan.prefixBatched, plan.batch,
                  nullptr);
        board.saveState(writer);
    }
    const auto image = ckpt::CheckpointImage::fromBytes(
        writer.bytes(cfg.fingerprint()), "resume property");

    MemoriesBoard board(cfg);
    std::unique_ptr<fault::FaultInjector> inj;
    if (plan.plan) {
        inj = std::make_unique<fault::FaultInjector>(*plan.plan,
                                                     plan.faultSeed);
        board.attachFaultInjector(*inj);
    }
    board.loadState(image);
    return finishTail(board, stream, k, plan);
}

void
checkResume(const BoardConfig &cfg,
            const std::vector<bus::BusTransaction> &stream,
            std::size_t k, const FeedPlan &plan,
            const std::string &what)
{
    const Outcome straight = runStraight(cfg, stream, k, plan);
    const Outcome resumed = runResumed(cfg, stream, k, plan);
    if (straight == resumed)
        return;
    std::string detail = "outcome structs differ";
    if (straight.tailAccepted != resumed.tailAccepted)
        detail = "tail acceptance flags";
    else if (straight.counters != resumed.counters)
        detail = "counter values";
    else if (straight.dirs != resumed.dirs)
        detail = "directory contents";
    else if (straight.retires != resumed.retires)
        detail = "retirement order";
    else if (straight.chrome != resumed.chrome)
        detail = "chrome-trace bytes";
    else if (straight.bufferRetired != resumed.bufferRetired ||
             straight.bufferSize != resumed.bufferSize ||
             straight.bufferHighWater != resumed.bufferHighWater)
        detail = "buffer statistics";
    ADD_FAILURE() << what << ": resumed run diverged from the "
                  << "straight-through run (" << detail << ", split k="
                  << k << " of " << stream.size() << ")";
}

TEST(CheckpointResumePropertyTest, ResumeMatchesAcrossLattice)
{
    const auto lattice = oracle::latticeConfigs();
    const std::size_t seeds = seedCount();
    for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 1 + s;
        const auto stream = propertyStream(seed);
        for (std::size_t c = 0; c < lattice.size(); ++c) {
            // Vary the split point per (seed, config) so the whole
            // range — early, middle, late — gets exercised.
            const std::size_t k =
                stream.size() / 4 +
                (seed * 37 + c * 131) % (stream.size() / 2);
            checkResume(lattice[c].config, stream, k, FeedPlan{},
                        "seed " + std::to_string(seed) + " config " +
                            lattice[c].name);
        }
    }
}

TEST(CheckpointResumePropertyTest, ResumeMatchesWithActiveFaultPlan)
{
    // Scheduled and probabilistic faults spanning the split point:
    // the injector's RNG words and opportunity counters must resume
    // exactly, and a checkpoint taken inside the slot-loss and stall
    // windows must carry the buffer's fault pacing state.
    const auto plan = fault::FaultPlan::parse(
        "retry prob 0.01\n"
        "dropreply prob 0.005\n"
        "tagflip at 150 node 0 bit 3\n"
        "slotloss at 300 slots 16 cycles 4000\n"
        "stall at 500 cycles 600\n");
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 64;
    cfg.sdramThroughputPercent = 40;

    const std::size_t seeds = std::min<std::size_t>(seedCount(), 20);
    for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 101 + s;
        const auto stream = propertyStream(seed);
        FeedPlan fp;
        fp.plan = &plan;
        fp.faultSeed = seed;
        for (const std::size_t k :
             {stream.size() / 3, stream.size() / 2,
              2 * stream.size() / 3}) {
            checkResume(cfg, stream, k, fp,
                        "fault seed " + std::to_string(seed));
        }
    }
}

TEST(CheckpointResumePropertyTest, ResumeMatchesUnderShardedBatchFeed)
{
    const BoardConfig cfg = makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    const std::size_t seeds = std::min<std::size_t>(seedCount(), 10);
    for (std::size_t s = 0; s < seeds; ++s) {
        const auto stream = propertyStream(41 + s);
        FeedPlan fp;
        fp.prefixBatched = true;
        fp.tailBatched = true;
        fp.batch = 64;
        checkResume(cfg, stream, stream.size() / 2, fp,
                    "batched seed " + std::to_string(41 + s));
    }
}

TEST(CheckpointResumePropertyTest, CrossShardRestoreContinuesSerial)
{
    // Save after a batched prefix, restore and continue with the
    // plain serial feed: the batch-equivalence tier makes the prefix
    // state identical, so the tails must match too.
    const BoardConfig cfg = makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    const std::size_t seeds = std::min<std::size_t>(seedCount(), 10);
    for (std::size_t s = 0; s < seeds; ++s) {
        const auto stream = propertyStream(71 + s);
        const std::size_t k = stream.size() / 2;

        // Straight-through run, entirely serial.
        const Outcome straight =
            runStraight(cfg, stream, k, FeedPlan{});

        // Resumed run: batched prefix, checkpoint, serial tail.
        FeedPlan fp;
        fp.prefixBatched = true;
        fp.tailBatched = false;
        const Outcome resumed = runResumed(cfg, stream, k, fp);

        EXPECT_TRUE(straight == resumed)
            << "batched-prefix seed " << (71 + s)
            << ": checkpoint after a batched prefix resumed serially "
               "diverged from the serial straight-through run";
    }
}

} // namespace
} // namespace memories::ies
