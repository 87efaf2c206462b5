/**
 * @file
 * Fault injection and board health under the batch path.
 *
 * Admission owns every fault and health hook: stream faults fire at
 * admission, commit faults at commit, retry storms walk the
 * degradation ladder, and a tag flip first emulates every queued
 * retirement so it probes an up-to-date directory. None of that may
 * produce a single byte of difference against the serial path —
 * with or without a flight recorder, and with one attached including
 * the anomaly stream and the recorder ring — and re-running the same
 * scenario must reproduce it exactly.
 *
 * The suite keeps its historical name, ShardFaultTest, from when it
 * also swept a set-sharded worker pool, so test ids stay stable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/faultplan.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

struct RunResult
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::string chromeTrace;
    std::uint64_t anomalies = 0;
    fault::HealthState finalHealth = fault::HealthState::Healthy;
    std::uint64_t parityScrubs = 0;
};

std::uint64_t
counterValue(const RunResult &r, const std::string &name)
{
    for (const auto &[n, v] : r.counters) {
        if (n == name)
            return v;
    }
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

/** Tiny pressured board so overflow/health paths actually fire. */
BoardConfig
pressuredConfig(bool health_on)
{
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 24;
    cfg.sdramThroughputPercent = 12;
    if (health_on) {
        cfg.health.enabled = true;
        cfg.health.degradeOccupancyPercent = 60;
        cfg.health.degradeWindow = 16;
        cfg.health.recoverWindow = 256;
        cfg.health.quarantineStorms = 4;
    }
    return cfg;
}

fault::FaultPlan
mixedPlan()
{
    fault::FaultPlan plan;
    auto add = [&plan](fault::FaultKind kind, auto setup) {
        fault::FaultSpec spec;
        spec.kind = kind;
        setup(spec);
        plan.faults.push_back(spec);
    };
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 1;
        s.node = 0;
    });
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.atTenure = 200;
        s.bit = 2;
        s.node = 1;
    });
    add(fault::FaultKind::SlotLoss, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.slots = 12;
        s.cycles = 400;
    });
    add(fault::FaultKind::RetirementStall, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.cycles = 300;
    });
    add(fault::FaultKind::DropReply,
        [](fault::FaultSpec &s) { s.probability = 0.01; });
    add(fault::FaultKind::AddressFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 9;
    });
    return plan;
}

std::vector<bus::BusTransaction>
burstyStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.pBurst = 0.7; // keep the tiny buffer under pressure
    p.maxGap = 4;
    return oracle::StimulusGen(p).generate();
}

/**
 * Calm pacing and a tight working set: nearly every tenure commits
 * and the directories stay warm, so commit-time tag flips land on
 * live lines and later touches scrub them.
 */
std::vector<bus::BusTransaction>
calmLocalStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.footprintLines = 1u << 9;
    p.sharedLines = 1u << 8;
    p.shareFraction = 0.5;
    return oracle::StimulusGen(p).generate();
}

/**
 * One full scenario: faulted, health-monitored run of @p txns.
 * @p chunk == 0 means the serial feedCommitted path; otherwise the
 * stream goes through feedBatch in chunks of @p chunk. Without
 * @p record no flight recorder is attached, so batches queue their
 * retirements (chromeTrace stays empty and anomalies 0).
 */
RunResult
runScenario(const BoardConfig &cfg, const fault::FaultPlan &plan,
            const std::vector<bus::BusTransaction> &txns,
            std::size_t chunk, bool record = true,
            std::uint64_t seed = 7)
{
    MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(1 << 14);
    if (record)
        board.attachFlightRecorder(recorder);
    fault::FaultInjector injector(plan, seed);
    board.attachFaultInjector(injector);

    if (chunk == 0) {
        for (const auto &t : txns)
            board.feedCommitted(t);
    } else {
        for (std::size_t at = 0; at < txns.size(); at += chunk)
            board.feedBatch(&txns[at],
                            std::min(chunk, txns.size() - at));
    }

    RunResult r;
    board.globalCounters().snapshot([&](const CounterSample &s) {
        r.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            r.counters.emplace_back(s.name, s.value);
        });
        r.dirs.push_back(board.node(i).directorySnapshot());
        r.parityScrubs += board.node(i).parityScrubs();
    }
    r.bufferRetired = board.bufferRetired();
    r.bufferSize = board.bufferSize();
    r.chromeTrace =
        trace::chromeTraceToString(recorder.snapshot(), &recorder);
    r.anomalies = recorder.anomalies();
    r.finalHealth = board.healthState();
    board.detachFaultInjector();
    return r;
}

void
expectSameRun(const RunResult &serial, const RunResult &batched,
              const std::string &what)
{
    ASSERT_EQ(serial.counters.size(), batched.counters.size()) << what;
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        EXPECT_EQ(serial.counters[i].second, batched.counters[i].second)
            << what << ": counter " << serial.counters[i].first;
    }
    EXPECT_EQ(serial.dirs, batched.dirs) << what;
    EXPECT_EQ(serial.bufferRetired, batched.bufferRetired) << what;
    EXPECT_EQ(serial.bufferSize, batched.bufferSize) << what;
    EXPECT_EQ(serial.chromeTrace, batched.chromeTrace) << what;
    EXPECT_EQ(serial.anomalies, batched.anomalies) << what;
    EXPECT_EQ(serial.finalHealth, batched.finalHealth) << what;
}

/** Serial vs batched at chunk sizes 7 and 256, with the recorder on
 *  and off (each against a serial run in the same recorder mode). */
void
expectBatchesMatchSerial(const BoardConfig &cfg,
                         const fault::FaultPlan &plan,
                         const std::vector<bus::BusTransaction> &txns,
                         const std::string &what)
{
    for (bool record : {true, false}) {
        const RunResult serial = runScenario(cfg, plan, txns, 0, record);
        for (std::size_t chunk : {std::size_t{7}, std::size_t{256}}) {
            expectSameRun(serial,
                          runScenario(cfg, plan, txns, chunk, record),
                          what + (record ? " recorded" : " bare") +
                              " batch " + std::to_string(chunk));
        }
    }
}

TEST(ShardFaultTest, FaultedRunMatchesSerialAtEveryShardCount)
{
    // Roomy default buffer so commits actually land: tag flips then
    // corrupt live lines and the parity scrubber has work to do.
    const BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = calmLocalStream(101, 6000);
    const RunResult serial = runScenario(cfg, plan, txns, 0);

    // The scenario must actually exercise the hard paths, or this
    // test proves nothing.
    EXPECT_GT(serial.parityScrubs, 0u) << "no tag flip was scrubbed";
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";
    // Queued retirements must also meet pending scrubs.
    const RunResult bare = runScenario(cfg, plan, txns, 256, false);
    EXPECT_GT(bare.parityScrubs, 0u) << "no queued scrub";

    expectBatchesMatchSerial(cfg, plan, txns, "faulted run");
}

TEST(ShardFaultTest, FaultedHealthRunMatchesSerialAtEveryShardCount)
{
    // Pressured board with health monitoring on top of the full fault
    // plan: the ugliest interaction the batch path has to reproduce.
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(101, 6000);
    const RunResult serial = runScenario(cfg, plan, txns, 0);
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";

    expectBatchesMatchSerial(cfg, plan, txns, "faulted health run");
}

TEST(ShardFaultTest, RetryStormLadderMatchesSerial)
{
    // No injector needed: the tiny buffer plus bursty traffic drives
    // overflow storms through the health ladder on its own.
    const BoardConfig cfg = pressuredConfig(true);
    const auto txns = burstyStream(211, 8000);
    const RunResult serial =
        runScenario(cfg, fault::FaultPlan{}, txns, 0);
    EXPECT_GT(counterValue(serial, "global.health.transitions"), 0u)
        << "stream never pressured the board";

    expectBatchesMatchSerial(cfg, fault::FaultPlan{}, txns,
                             "retry storm");
}

TEST(ShardFaultTest, TenureAccountingConserved)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(307, 6000);
    const RunResult r = runScenario(cfg, plan, txns, 256, false);

    // Every committed tenure is either retired by the SDRAM side,
    // still buffered, or was lost in flight to a commit-time fault.
    const std::uint64_t committed =
        counterValue(r, "global.tenures.committed");
    const std::uint64_t lost =
        counterValue(r, "global.tenures.lost_inflight");
    EXPECT_EQ(committed, r.bufferRetired + r.bufferSize + lost);
}

TEST(ShardFaultTest, RunTwiceIsByteIdentical)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(401, 5000);
    const RunResult first = runScenario(cfg, plan, txns, 256);
    const RunResult second = runScenario(cfg, plan, txns, 256);
    expectSameRun(first, second, "second identical run");
}

TEST(ShardFaultTest, ResyncFromHealthyMatchesSerial)
{
    const BoardConfig cfg = pressuredConfig(true);
    const auto txns = burstyStream(503, 8000);
    const std::size_t half = txns.size() / 2;

    auto run = [&](bool batched) {
        MemoriesBoard board(cfg);
        MemoriesBoard healthy(cfg);
        auto feed = [batched](MemoriesBoard &b,
                              const bus::BusTransaction *t,
                              std::size_t n) {
            if (!batched) {
                for (std::size_t i = 0; i < n; ++i)
                    b.feedCommitted(t[i]);
            } else {
                b.feedBatch(t, n);
            }
        };
        // Only the victim sees the pressure; the healthy twin idles
        // through a calm prefix so its directories are warm.
        feed(healthy, txns.data(), half / 4);
        feed(board, txns.data(), half);
        if (board.healthState() == fault::HealthState::Quarantined)
            board.resyncFrom(healthy);
        feed(board, txns.data() + half, txns.size() - half);

        std::vector<std::uint64_t> values;
        board.globalCounters().snapshot(
            [&](const CounterSample &s) { values.push_back(s.value); });
        for (std::size_t i = 0; i < board.numNodes(); ++i) {
            board.node(i).counters().snapshot([&](const CounterSample &s) {
                values.push_back(s.value);
            });
        }
        std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>>
            dirs;
        for (std::size_t i = 0; i < board.numNodes(); ++i)
            dirs.push_back(board.node(i).directorySnapshot());
        return std::make_pair(values, dirs);
    };

    const auto serial = run(false);
    const auto batched = run(true);
    EXPECT_EQ(serial.first, batched.first) << "resync counters";
    EXPECT_EQ(serial.second, batched.second) << "resync directories";
}

} // namespace
} // namespace memories::ies
