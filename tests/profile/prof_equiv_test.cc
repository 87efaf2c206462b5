/**
 * @file
 * IESPROF non-perturbation tier: attaching a profiler must not change
 * one observable byte of the emulation. "Byte-identical" is taken as
 * literally as in the batch tier it mirrors: every global and node
 * counter, every node's directorySnapshot(), the retirement order,
 * the buffer statistics, and the chrome-trace JSON rendered from the
 * flight-recorder ring must match between an instrumented run and a
 * bare one — across the serial path and the batch path, with its
 * retirements emulated inline (recorder attached) or queued (none).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "profile/profiler.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::profile
{
namespace
{

/** Everything observable about a board after a run. */
struct BoardSignature
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;
    std::vector<std::uint32_t> retirementOrder;
    std::string chromeTrace;
};

BoardSignature
signatureOf(const ies::MemoriesBoard &board,
            const trace::FlightRecorder *recorder)
{
    BoardSignature sig;
    board.globalCounters().snapshot([&](const CounterSample &s) {
        sig.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            sig.counters.emplace_back(s.name, s.value);
        });
        sig.dirs.push_back(board.node(i).directorySnapshot());
    }
    sig.bufferRetired = board.bufferRetired();
    sig.bufferSize = board.bufferSize();
    sig.bufferHighWater = board.bufferHighWater();
    if (recorder) {
        const auto events = recorder->snapshot();
        for (const auto &ev : events) {
            if (ev.kind == trace::EventKind::Retire)
                sig.retirementOrder.push_back(ev.traceId);
        }
        sig.chromeTrace = trace::chromeTraceToString(events, recorder);
    }
    return sig;
}

void
expectIdentical(const BoardSignature &bare,
                const BoardSignature &profiled, const std::string &what)
{
    ASSERT_EQ(bare.counters.size(), profiled.counters.size()) << what;
    for (std::size_t i = 0; i < bare.counters.size(); ++i) {
        EXPECT_EQ(bare.counters[i].second, profiled.counters[i].second)
            << what << ": counter " << bare.counters[i].first;
    }
    ASSERT_EQ(bare.dirs.size(), profiled.dirs.size()) << what;
    for (std::size_t n = 0; n < bare.dirs.size(); ++n)
        EXPECT_EQ(bare.dirs[n], profiled.dirs[n])
            << what << ": node " << n << " directory";
    EXPECT_EQ(bare.bufferRetired, profiled.bufferRetired) << what;
    EXPECT_EQ(bare.bufferSize, profiled.bufferSize) << what;
    EXPECT_EQ(bare.bufferHighWater, profiled.bufferHighWater) << what;
    EXPECT_EQ(bare.retirementOrder, profiled.retirementOrder) << what;
    EXPECT_EQ(bare.chromeTrace, profiled.chromeTrace) << what;
}

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    return oracle::StimulusGen(p).generate();
}

cache::CacheConfig
cacheCfg(std::uint64_t bytes, unsigned assoc,
         cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU)
{
    return cache::CacheConfig{bytes, assoc, 128, policy};
}

/** The geometries the tier sweeps; same lattice as batch_equiv. */
struct EquivConfig
{
    std::string name;
    ies::BoardConfig board;
};

std::vector<EquivConfig>
equivConfigs()
{
    using ies::makeMultiConfigBoard;
    using ies::makeUniformBoard;
    std::vector<EquivConfig> cfgs;
    cfgs.push_back(
        {"mesi-4node", makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4))});
    cfgs.push_back(
        {"moesi-2node-fifo",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 2,
                                   cache::ReplacementPolicy::FIFO),
                          "MOESI")});
    cfgs.push_back(
        {"multicfg",
         makeMultiConfigBoard({cacheCfg(2 * MiB, 2), cacheCfg(4 * MiB, 4),
                               cacheCfg(8 * MiB, 8)},
                              4)});
    {
        // Tiny, slow buffer: pacing, overflow, and drop paths fire —
        // the profiler hooks must not change what gets dropped.
        ies::BoardConfig tiny =
            makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
        tiny.bufferEntries = 32;
        tiny.sdramThroughputPercent = 10;
        cfgs.push_back({"tinybuf", std::move(tiny)});
    }
    return cfgs;
}

enum class Feed
{
    Serial, //!< feedCommitted per element
    Batch,  //!< feedBatch in chunks of 512
};

BoardSignature
run(const ies::BoardConfig &cfg,
    const std::vector<bus::BusTransaction> &txns, Feed feed,
    bool profiled, bool record, Profiler *prof_out = nullptr)
{
    ies::MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    Profiler local;
    Profiler &prof = prof_out ? *prof_out : local;
    if (profiled)
        board.attachProfiler(prof);
    if (feed == Feed::Serial) {
        for (const auto &t : txns)
            board.feedCommitted(t);
    } else {
        constexpr std::size_t chunk = 512;
        for (std::size_t at = 0; at < txns.size(); at += chunk) {
            const std::size_t n = std::min(chunk, txns.size() - at);
            board.feedBatch(&txns[at], n);
        }
    }
    return signatureOf(board, recorder.get());
}

TEST(ProfEquivTest, AttachedMatchesDetachedAcrossFeedsAndShards)
{
    struct Leg
    {
        std::string name;
        Feed feed;
        bool record;
    };
    const std::vector<Leg> legs = {
        {"serial", Feed::Serial, true},
        {"recorded batch", Feed::Batch, true},
        {"queued batch", Feed::Batch, false},
    };
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(101, 3000);
        for (const auto &leg : legs) {
            const auto bare =
                run(cfg.board, txns, leg.feed, false, leg.record);
            const auto profiled =
                run(cfg.board, txns, leg.feed, true, leg.record);
            expectIdentical(bare, profiled,
                            cfg.name + " " + leg.name);
        }
    }
}

TEST(ProfEquivTest, ProfiledShardedRunActuallyMeasuredSomething)
{
    // Guard against the equivalence passing vacuously because the
    // hooks never fired: the instrumented queued-batch leg must have
    // attributed real time to admission and emulation.
    const auto cfgs = equivConfigs();
    const auto txns = stream(211, 3000);
    Profiler prof;
    run(cfgs.front().board, txns, Feed::Batch, true, false, &prof);
    const ProfReport report = prof.snapshot();
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.stage(Stage::FeedBatch).estNs(), 0u);
    EXPECT_GT(report.stage(Stage::BatchAdmission).calls, 0u);
    EXPECT_GT(report.stage(Stage::Emulation).calls, 0u);
    EXPECT_GT(report.stage(Stage::Emulation).estNs(), 0u);
}

TEST(ProfEquivTest, MidRunAttachDetachLeavesStateUntouched)
{
    // Attach after the first third, detach after the second: the
    // run's final state must still match a never-profiled run.
    const ies::BoardConfig cfg =
        ies::makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const auto txns = stream(307, 3000);
    const auto bare = run(cfg, txns, Feed::Batch, false, true);

    ies::MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(1 << 14);
    board.attachFlightRecorder(recorder);
    Profiler prof;
    const std::size_t third = txns.size() / 3;
    auto feed = [&](std::size_t from, std::size_t to) {
        constexpr std::size_t chunk = 512;
        for (std::size_t at = from; at < to; at += chunk) {
            const std::size_t n = std::min(chunk, to - at);
            board.feedBatch(&txns[at], n);
        }
    };
    feed(0, third);
    board.attachProfiler(prof);
    feed(third, 2 * third);
    board.detachProfiler();
    feed(2 * third, txns.size());
    expectIdentical(bare, signatureOf(board, &recorder),
                    "mid-run attach/detach");
    EXPECT_GT(prof.snapshot().batches, 0u);
}

} // namespace
} // namespace memories::profile
