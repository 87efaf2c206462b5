#include "ies/txnbuffer.hh"

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"

namespace memories::ies
{
namespace
{

bus::BusTransaction
txnAt(Cycle cycle, Addr addr = 0x1000)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.cycle = cycle;
    txn.op = bus::BusOp::Read;
    return txn;
}

TEST(TxnBufferTest, RejectsBadParameters)
{
    EXPECT_THROW(TransactionBuffer(0, 42), FatalError);
    EXPECT_THROW(TransactionBuffer(512, 0), FatalError);
    EXPECT_THROW(TransactionBuffer(512, 101), FatalError);
}

TEST(TxnBufferTest, PushPopFifoOrder)
{
    TransactionBuffer buf(8, 100);
    buf.push(txnAt(0, 0x1000));
    buf.push(txnAt(1, 0x2000));
    const auto a = buf.drain(10);
    const auto b = buf.drain(10);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->addr, 0x1000u);
    EXPECT_EQ(b->addr, 0x2000u);
}

TEST(TxnBufferTest, RejectsWhenFull)
{
    TransactionBuffer buf(2, 42);
    EXPECT_TRUE(buf.push(txnAt(0)));
    EXPECT_TRUE(buf.push(txnAt(1)));
    EXPECT_FALSE(buf.push(txnAt(2)));
    EXPECT_EQ(buf.rejected(), 1u);
}

TEST(TxnBufferTest, DrainIsRateLimited)
{
    // 42% throughput: 100 elapsed cycles earn 42 retirements.
    TransactionBuffer buf(512, 42);
    for (int i = 0; i < 100; ++i)
        buf.push(txnAt(0));
    int drained = 0;
    while (buf.drain(100))
        ++drained;
    EXPECT_EQ(drained, 42);
    // Another 100 cycles drain the rest at the same rate.
    while (buf.drain(200))
        ++drained;
    EXPECT_EQ(drained, 84);
}

TEST(TxnBufferTest, CreditsDoNotDrainEmptyFutureWork)
{
    // Idle cycles bank credits, but the bank is capped so a long idle
    // stretch cannot buy unbounded instant throughput later.
    TransactionBuffer buf(4, 50);
    ASSERT_FALSE(buf.drain(1'000'000).has_value());
    for (int i = 0; i < 4; ++i)
        buf.push(txnAt(1'000'000));
    int drained = 0;
    while (buf.drain(1'000'000))
        ++drained;
    EXPECT_EQ(drained, 4); // at most capacity's worth of banked credits
}

TEST(TxnBufferTest, NoCreditsNoDrain)
{
    TransactionBuffer buf(8, 42);
    buf.push(txnAt(0));
    EXPECT_FALSE(buf.drain(0).has_value());
    EXPECT_FALSE(buf.drain(1).has_value()); // 42 credits < 100
    EXPECT_TRUE(buf.drain(3).has_value());  // 126 credits
}

TEST(TxnBufferTest, HighWaterTracksDeepestOccupancy)
{
    TransactionBuffer buf(8, 100);
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    buf.drain(100);
    buf.drain(100);
    buf.push(txnAt(100));
    EXPECT_EQ(buf.highWater(), 3u);
}

TEST(TxnBufferTest, DrainUnpacedIgnoresCredits)
{
    TransactionBuffer buf(8, 42);
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    int drained = 0;
    while (buf.drainUnpaced())
        ++drained;
    EXPECT_EQ(drained, 2);
    EXPECT_TRUE(buf.empty());
}

TEST(TxnBufferTest, BoardDefaultsSustainTypicalUtilization)
{
    // At 20% arrival (one txn per 5 cycles) and 42% drain, the buffer
    // must never fill: the paper's board never posted a retry.
    TransactionBuffer buf(512, 42);
    std::uint64_t rejected = 0;
    for (Cycle c = 0; c < 100'000; c += 5) {
        while (buf.drain(c)) {
        }
        rejected += !buf.push(txnAt(c));
    }
    EXPECT_EQ(rejected, 0u);
    EXPECT_LT(buf.highWater(), 16u);
}

/** @p n Read tenures, all stamped at bus cycle @p now. */
std::vector<bus::BusTransaction>
burstAt(Cycle now, std::size_t n = 64)
{
    return std::vector<bus::BusTransaction>(n, txnAt(now));
}

/**
 * Offer @p txns to @p buf as the board's admission does: skip filtered
 * ops, drain everything due at the tenure's cycle, then push.
 * @return how many were taken before the first rejection.
 */
std::size_t
offerLikeBoard(TransactionBuffer &buf,
               const std::vector<bus::BusTransaction> &txns)
{
    std::vector<bus::BusTransaction> retired;
    for (std::size_t i = 0; i < txns.size(); ++i) {
        if (bus::isFilteredOp(txns[i].op))
            continue;
        buf.drainInto(txns[i].cycle, retired);
        if (!buf.push(txns[i]))
            return i;
    }
    return txns.size();
}

TEST(TxnBufferTest, AdmissiblePrefixIsPure)
{
    TransactionBuffer buf(8, 42);
    for (int i = 0; i < 6; ++i)
        buf.push(txnAt(0));
    const auto line = burstAt(500);
    const std::size_t first = buf.admissiblePrefix(line.data(), line.size());
    for (int i = 0; i < 10; ++i) // probing never mutates
        EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), first);
    EXPECT_EQ(buf.size(), 6u);
    EXPECT_EQ(buf.retired(), 0u);
    EXPECT_EQ(buf.admissiblePrefix(line.data(), 0), 0u);
}

TEST(TxnBufferTest, AdmissibleMatchesDrainThenPush)
{
    // The probe must predict exactly how many same-cycle pushes the
    // board's drain-then-push sequence accepts. None of these leave
    // credits over once the backlog retires, so each equals the free
    // slots after draining at `now`.
    const std::size_t freeSlots[] = {0, 1, 4, 8, 8};
    std::size_t k = 0;
    for (Cycle now : {0ull, 3ull, 10ull, 250ull, 1'000'000ull}) {
        TransactionBuffer probe(8, 42);
        TransactionBuffer real(8, 42);
        for (int i = 0; i < 8; ++i) {
            probe.push(txnAt(0));
            real.push(txnAt(0));
        }
        const auto line = burstAt(now);
        const std::size_t predicted =
            probe.admissiblePrefix(line.data(), line.size());
        EXPECT_EQ(predicted, offerLikeBoard(real, line)) << "now=" << now;
        EXPECT_EQ(predicted, freeSlots[k++]) << "now=" << now;
    }
}

TEST(TxnBufferTest, AdmissibleSpendsCreditsLeftAfterTheBacklog)
{
    // 500 cycles at 42% bank the 800-credit cap; six retirements leave
    // 200, which retire two more same-cycle arrivals as they come in.
    // So the line takes 8 + 2, not just the 8 free slots.
    TransactionBuffer buf(8, 42);
    TransactionBuffer real(8, 42);
    for (int i = 0; i < 6; ++i) {
        buf.push(txnAt(0));
        real.push(txnAt(0));
    }
    const auto line = burstAt(500);
    EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), 10u);
    EXPECT_EQ(offerLikeBoard(real, line), 10u);
}

TEST(TxnBufferTest, AdmissibleHonoursStallAndSlotLoss)
{
    // A retirement stall suppresses the earned span; a slot-loss fault
    // shrinks the capacity the probe reports against.
    TransactionBuffer buf(8, 100);
    for (int i = 0; i < 8; ++i)
        buf.push(txnAt(0));
    buf.injectStall(1'000);
    auto prefixAt = [&](Cycle now) {
        const auto line = burstAt(now);
        return buf.admissiblePrefix(line.data(), line.size());
    };
    EXPECT_EQ(prefixAt(500), 0u); // no credits earned inside stall
    EXPECT_EQ(prefixAt(1'004), 4u);
    buf.injectSlotLoss(6, 2'000);
    // By cycle 1008 all 8 are retirable but only 2 slots exist.
    EXPECT_EQ(prefixAt(1'008), 2u);
    EXPECT_EQ(prefixAt(2'000), 8u); // fault expired

    // A line that crosses the expiry gets the slots back from its
    // first record past it: 2 records fill the 2 slots at 1008, then
    // all 8 at cycle 2000 fit (6 retire on the banked credits).
    std::vector<bus::BusTransaction> line = burstAt(1'008, 2);
    const auto later = burstAt(2'000, 8);
    line.insert(line.end(), later.begin(), later.end());
    EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), 10u);
    TransactionBuffer real = buf;
    EXPECT_EQ(offerLikeBoard(real, line), 10u);
    line.insert(line.begin() + 2, txnAt(1'008));
    EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), 2u);
}

TEST(TxnBufferTest, AdmissibleCapsBankedCredits)
{
    // A long idle stretch banks at most capacity*100 credits, so even a
    // million cycles buy only the 4 slots plus the 3 retirements the
    // capped credits still hold after the one entry retires.
    TransactionBuffer buf(4, 50);
    TransactionBuffer real(4, 50);
    buf.push(txnAt(0));
    real.push(txnAt(0));
    const auto line = burstAt(1'000'000);
    EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), 7u);
    EXPECT_EQ(offerLikeBoard(real, line), 7u);
}

TEST(TxnBufferTest, AdmissibleWalksTheLinesOwnCycles)
{
    // One record every 2 cycles at 50% drain: each arrival finds the
    // previous one's credit, so a full buffer keeps taking records
    // although it holds no free slot at the line's head cycle.
    TransactionBuffer buf(4, 50);
    for (int i = 0; i < 4; ++i)
        buf.push(txnAt(0));
    std::vector<bus::BusTransaction> line;
    for (Cycle c = 2; c <= 200; c += 2)
        line.push_back(txnAt(c));
    EXPECT_EQ(buf.admissiblePrefix(line.data(), line.size()), line.size());

    // Filtered ops never reach the buffer, so they never stop a line.
    std::vector<bus::BusTransaction> filtered = burstAt(0, 8);
    for (auto &txn : filtered)
        txn.op = bus::BusOp::Sync;
    EXPECT_EQ(buf.admissiblePrefix(filtered.data(), filtered.size()), 8u);
    filtered.push_back(txnAt(0));
    EXPECT_EQ(buf.admissiblePrefix(filtered.data(), filtered.size()), 8u);
}

TEST(TxnBufferTest, SustainedOverloadEventuallyRejects)
{
    // Above 42% sustained arrival the buffer must fill and reject.
    TransactionBuffer buf(64, 42);
    std::uint64_t rejected = 0;
    for (Cycle c = 0; c < 1'000; ++c) { // 100% arrival rate
        while (buf.drain(c)) {
        }
        rejected += !buf.push(txnAt(c));
    }
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace memories::ies
