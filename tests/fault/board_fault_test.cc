/**
 * @file
 * MemoriesBoard + FaultInjector + HealthMonitor integration: every
 * fault kind lands in the board path it targets, the old overflow
 * panic paths now recover and count, degradation sheds instead of
 * wedging, and a quarantined board resyncs from a healthy one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "fault/injector.hh"
#include "ies/analysis.hh"
#include "ies/board.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

cache::CacheConfig
smallCache()
{
    return cache::CacheConfig{2 * MiB, 4, 128,
                              cache::ReplacementPolicy::LRU};
}

bus::BusTransaction
readAt(Addr addr, Cycle cycle)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.cycle = cycle;
    t.op = bus::BusOp::Read;
    t.cpu = 0;
    return t;
}

BoardConfig
boardWithBuffer(std::size_t entries)
{
    BoardConfig cfg = makeUniformBoard(1, 4, smallCache());
    cfg.bufferEntries = entries;
    return cfg;
}

TEST(BoardFaultTest, DroppedTenuresNeverReachTheBuffer)
{
    MemoriesBoard board(boardWithBuffer(512));
    fault::FaultInjector inj(fault::FaultPlan::parse("dropreply at 2\n"),
                             1);
    board.attachFaultInjector(inj);

    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_TRUE(board.feedCommitted(readAt(i * 128, 0)));
    board.drainAll();

    const auto &g = board.globalCounters();
    EXPECT_EQ(g.valueByName("global.tenures.memory"), 3u);
    EXPECT_EQ(g.valueByName("global.tenures.committed"), 2u);
    EXPECT_EQ(g.valueByName("global.tenures.fault_dropped"), 1u);
    EXPECT_EQ(inj.injected(fault::FaultKind::DropReply), 1u);
    // The dropped tenure was never emulated.
    EXPECT_EQ(board.node(0).stats().localRefs, 2u);
}

TEST(BoardFaultTest, SlotLossLosesCommittedTenureWithoutPanic)
{
    // Fill six of eight slots at cycle 0 (no drain credits yet), then
    // have the seventh commit lose six slots: its own push lands on a
    // buffer that is suddenly too small. The hardware would have
    // wedged; the board must count a lost-in-flight tenure and go on.
    MemoriesBoard board(boardWithBuffer(8));
    fault::FaultInjector inj(
        fault::FaultPlan::parse("slotloss at 7 slots 6 cycles 100000\n"),
        1);
    board.attachFaultInjector(inj);
    trace::FlightRecorder recorder(256);
    board.attachFlightRecorder(recorder);

    for (std::uint64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(board.feedCommitted(readAt(i * 128, 0)));
    EXPECT_TRUE(board.feedCommitted(readAt(6 * 128, 0)));

    const auto &g = board.globalCounters();
    EXPECT_EQ(g.valueByName("global.tenures.committed"), 7u);
    EXPECT_EQ(board.tenuresLostInflight(), 1u);

    // The shrunk buffer now rejects at the snoop-time check too.
    EXPECT_FALSE(board.feedCommitted(readAt(7 * 128, 0)));
    EXPECT_EQ(g.valueByName("global.retries_posted"), 1u);

    // The loss is a recorded anomaly, not a silent divergence.
    const auto events = recorder.snapshot();
    const bool saw_loss = std::any_of(
        events.begin(), events.end(), [](const auto &ev) {
            return ev.kind == trace::EventKind::BufferOverflow &&
                   ev.arg0 == 2;
        });
    EXPECT_TRUE(saw_loss);
    EXPECT_GE(recorder.anomalies(), 1u);

    // Capacity returns once the slot-loss window expires.
    EXPECT_TRUE(board.feedCommitted(readAt(8 * 128, 200000)));
    board.drainAll();
    EXPECT_NE(board.dumpStats().find("lost-inflight 1"),
              std::string::npos);

    const auto report = BoardReport::capture(board);
    EXPECT_EQ(report.lostInflight, 1u);
    EXPECT_NE(report.toCsv().find("lost_inflight"), std::string::npos);
    EXPECT_NE(report.toText().find("lost in flight"),
              std::string::npos);
}

TEST(BoardFaultTest, RetirementStallDefersRetirement)
{
    MemoriesBoard board(boardWithBuffer(512));
    fault::FaultInjector inj(
        fault::FaultPlan::parse("stall at 1 cycles 1000\n"), 1);
    board.attachFaultInjector(inj);

    ASSERT_TRUE(board.feedCommitted(readAt(0, 0)));
    // 500 cycles later a healthy board would have retired the tenure;
    // the stalled SDRAM earned no credits.
    ASSERT_TRUE(board.feedCommitted(readAt(128, 500)));
    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
    // Once the stall window passes, credits accrue again.
    ASSERT_TRUE(board.feedCommitted(readAt(256, 2000)));
    EXPECT_EQ(board.node(0).stats().localRefs, 2u);
    board.drainAll();
    EXPECT_EQ(board.node(0).stats().localRefs, 3u);
}

TEST(BoardFaultTest, TagFlipIsDetectedScrubbedAndRecounted)
{
    MemoriesBoard board(boardWithBuffer(512));
    fault::FaultInjector inj(
        fault::FaultPlan::parse("tagflip at 2 node 0 bit 1\n"), 1);
    board.attachFaultInjector(inj);

    // Warm the line, then touch it again; the second commit flips a
    // tag bit on it. Parity detects the corruption at the next access,
    // scrubs (invalidates) the line, and the access misses instead of
    // hitting.
    ASSERT_TRUE(board.feedCommitted(readAt(0x4000, 0)));
    board.drainAll();
    ASSERT_EQ(board.node(0).stats().localMisses, 1u);

    ASSERT_TRUE(board.feedCommitted(readAt(0x4000, 1000)));
    board.drainAll();

    EXPECT_EQ(board.node(0).parityScrubs(), 1u);
    EXPECT_EQ(board.node(0).stats().localMisses, 2u);
    EXPECT_EQ(board.node(0).stats().localHits, 0u);
    EXPECT_EQ(inj.injected(fault::FaultKind::TagFlip), 1u);
    // The scrub refilled the line: a third access hits normally.
    ASSERT_TRUE(board.feedCommitted(readAt(0x4000, 2000)));
    board.drainAll();
    EXPECT_EQ(board.node(0).stats().localHits, 1u);
}

BoardConfig
degradingConfig()
{
    BoardConfig cfg = boardWithBuffer(4);
    cfg.health.enabled = true;
    cfg.health.degradeWindow = 100; // overflow, not occupancy, degrades
    cfg.health.backoffLimit = 1;    // shed 2 tenures per storm
    cfg.health.quarantineStorms = 2;
    return cfg;
}

TEST(BoardFaultTest, OverflowStormsDegradeThenQuarantine)
{
    MemoriesBoard board(degradingConfig());

    // Even line indices only, so degraded sampling (shift 1) never
    // sheds these tenures and the storm accounting stays exact.
    auto feed = [&](std::uint64_t i) {
        return board.feedCommitted(readAt(i * 256, 0));
    };

    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(feed(i)); // fill the 4-entry buffer
    EXPECT_EQ(board.healthState(), fault::HealthState::Healthy);

    // Storm 1: the overflow retries (live behaviour) and degrades.
    EXPECT_FALSE(feed(4));
    EXPECT_EQ(board.healthState(), fault::HealthState::Degraded);
    // Backoff: the next two overflows shed instead of retrying.
    EXPECT_TRUE(feed(5));
    EXPECT_TRUE(feed(6));
    // Storm 2 hits the quarantine limit.
    EXPECT_TRUE(feed(7));
    EXPECT_EQ(board.healthState(), fault::HealthState::Quarantined);
    // Quarantined: tenures are ignored, not buffered.
    EXPECT_TRUE(feed(8));
    EXPECT_TRUE(feed(9));

    const auto &g = board.globalCounters();
    EXPECT_EQ(g.valueByName("global.retries_posted"), 1u);
    EXPECT_EQ(g.valueByName("global.tenures.shed"), 3u);
    EXPECT_EQ(g.valueByName("global.tenures.quarantined"), 2u);
    EXPECT_EQ(g.valueByName("global.health.transitions"), 2u);
    EXPECT_EQ(g.valueByName("global.tenures.committed"), 4u);

    const auto report = BoardReport::capture(board);
    EXPECT_EQ(report.healthState, "quarantined");
    EXPECT_EQ(report.shed, 3u);
    EXPECT_NE(report.toText().find("quarantined"), std::string::npos);
}

TEST(BoardFaultTest, DegradedBoardSamplesInsteadOfDropping)
{
    MemoriesBoard board(degradingConfig());
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(board.feedCommitted(readAt(i * 256, 0)));
    EXPECT_FALSE(board.feedCommitted(readAt(4 * 256, 0))); // degrade

    // Far in the future the buffer has drained; an odd-line tenure is
    // now sampled out (kept statistics, shed load), an even-line one
    // is accepted.
    EXPECT_TRUE(board.feedCommitted(readAt(3 * 128, 1000000)));
    EXPECT_TRUE(board.feedCommitted(readAt(4 * 128, 1000001)));
    const auto &g = board.globalCounters();
    EXPECT_EQ(g.valueByName("global.tenures.sampled_out"), 1u);
    EXPECT_EQ(board.healthState(), fault::HealthState::Degraded);
}

TEST(BoardFaultTest, QuarantinedBoardResyncsFromHealthyBoard)
{
    MemoriesBoard healthy(boardWithBuffer(512));
    for (std::uint64_t i = 0; i < 32; ++i)
        ASSERT_TRUE(healthy.feedCommitted(readAt(i * 128, 0)));
    healthy.drainAll();

    MemoriesBoard sick(degradingConfig());
    for (std::uint64_t i = 0; i < 8; ++i)
        sick.feedCommitted(readAt(i * 256, 0));
    ASSERT_EQ(sick.healthState(), fault::HealthState::Quarantined);

    sick.resyncFrom(healthy);
    EXPECT_EQ(sick.healthState(), fault::HealthState::Healthy);
    // Stale buffered tenures were discarded, not emulated against the
    // mirrored directories.
    EXPECT_EQ(sick.tenuresLostInflight(), 4u);
    EXPECT_EQ(sick.node(0).stats().localRefs, 0u);
    // The directories now mirror the healthy board exactly.
    for (std::uint64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(sick.node(0).probeState(i * 128),
                  healthy.node(0).probeState(i * 128))
            << "line " << i;
    }
    // And the board emulates again.
    ASSERT_TRUE(sick.feedCommitted(readAt(0, 1000000)));
    sick.drainAll();
    EXPECT_EQ(sick.node(0).stats().localHits, 1u);
}

TEST(BoardFaultTest, ResyncRefusesASourceWithQueuedRetirements)
{
    MemoriesBoard healthy(boardWithBuffer(512));
    std::vector<bus::BusTransaction> txns;
    for (std::uint64_t i = 0; i < 32; ++i)
        txns.push_back(readAt(i * 128, i * 1000));
    healthy.admitBatch(txns.data(), txns.size());
    ASSERT_GT(healthy.queuedRetirements(), 0u);

    MemoriesBoard sick(degradingConfig());
    for (std::uint64_t i = 0; i < 8; ++i)
        sick.feedCommitted(readAt(i * 256, 0));
    ASSERT_EQ(sick.healthState(), fault::HealthState::Quarantined);

    // The source's directories lack what it has admitted: the resync
    // fails before the sick board is touched.
    EXPECT_THROW(sick.resyncFrom(healthy), FatalError);
    EXPECT_EQ(sick.healthState(), fault::HealthState::Quarantined);
    EXPECT_EQ(sick.tenuresLostInflight(), 0u);

    healthy.emulateQueued();
    sick.resyncFrom(healthy);
    EXPECT_EQ(sick.healthState(), fault::HealthState::Healthy);
}

TEST(BoardFaultTest, ResyncRejectsMismatchedGeometry)
{
    MemoriesBoard a(boardWithBuffer(512));
    MemoriesBoard b(makeUniformBoard(
        1, 4,
        cache::CacheConfig{4 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    EXPECT_THROW(a.resyncFrom(b), FatalError);
    EXPECT_THROW(a.resyncFrom(a), FatalError);

    MemoriesBoard c(makeUniformBoard(2, 2, smallCache()));
    EXPECT_THROW(a.resyncFrom(c), FatalError);
}

} // namespace
} // namespace memories::ies
