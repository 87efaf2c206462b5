#include "trace/capture.hh"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.hh"
#include "testutil/temppath.hh"
#include "trace/tracefile.hh"

namespace memories::trace
{
namespace
{

bus::BusTransaction
txnAt(Addr addr, Cycle cycle)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.cycle = cycle;
    txn.op = bus::BusOp::Read;
    return txn;
}

TEST(CaptureBufferTest, RejectsZeroCapacity)
{
    EXPECT_THROW(CaptureBuffer(0), FatalError);
}

TEST(CaptureBufferTest, RecordsUpToCapacity)
{
    CaptureBuffer buf(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(buf.record(txnAt(0x1000u + 128u * i, i)));
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 4u);
}

TEST(CaptureBufferTest, DropsWhenFullWithoutStalling)
{
    // Capture never stalls the host: overflow drops, never blocks.
    CaptureBuffer buf(2);
    buf.record(txnAt(0x1000, 0));
    buf.record(txnAt(0x1080, 1));
    EXPECT_FALSE(buf.record(txnAt(0x1100, 2)));
    EXPECT_EQ(buf.dropped(), 1u);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(CaptureBufferTest, ResetClearsEverything)
{
    CaptureBuffer buf(2);
    buf.record(txnAt(0x1000, 0));
    buf.record(txnAt(0x1080, 1));
    buf.record(txnAt(0x1100, 2));
    buf.reset();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_FALSE(buf.full());
}

TEST(CaptureBufferTest, DumpToFileRoundTrips)
{
    const std::string path = test::uniqueTempPath("capture_dump.ies");
    CaptureBuffer buf(100);
    for (int i = 0; i < 50; ++i)
        buf.record(txnAt(0x4000u + 128u * i, 2u * i));
    buf.dumpToFile(path);

    TraceReader reader(path);
    EXPECT_EQ(reader.count(), 50u);
    bus::BusTransaction txn;
    int n = 0;
    while (reader.next(txn)) {
        EXPECT_EQ(txn.addr, 0x4000u + 128u * n);
        ++n;
    }
    EXPECT_EQ(n, 50);
    std::remove(path.c_str());
}

TEST(CaptureBufferTest, AtReturnsPackedRecords)
{
    CaptureBuffer buf(8);
    buf.record(txnAt(0x9000, 5));
    EXPECT_EQ(buf.at(0).addr(), 0x9000u);
}

TEST(CaptureBufferTest, BoardScaleCapacityIsAccepted)
{
    // The board can capture a billion 8-byte references; construction
    // must not preallocate that much memory.
    CaptureBuffer buf(1'000'000'000ull);
    EXPECT_EQ(buf.capacity(), 1'000'000'000ull);
    EXPECT_TRUE(buf.record(txnAt(0x1000, 0)));
}

} // namespace
} // namespace memories::trace
