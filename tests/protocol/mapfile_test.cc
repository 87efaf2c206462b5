#include "protocol/table.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "testutil/temppath.hh"

namespace memories::protocol
{
namespace
{

using bus::BusOp;
using bus::SnoopResponse;

TEST(MapFileTest, ParsesMinimalTable)
{
    const auto t = parseMapText(
        "protocol TEST\n"
        "requester READ I none -> E alloc\n"
        "snooper READ M -> S modified\n");
    EXPECT_EQ(t.name(), "TEST");
    EXPECT_EQ(t.requester(BusOp::Read, LineState::Invalid,
                          SnoopSummary::None).next,
              LineState::Exclusive);
    EXPECT_TRUE(t.requester(BusOp::Read, LineState::Invalid,
                            SnoopSummary::None).allocate);
    EXPECT_EQ(t.snooper(BusOp::Read, LineState::Modified).response,
              SnoopResponse::Modified);
}

TEST(MapFileTest, WildcardsExpand)
{
    const auto t = parseMapText(
        "requester RWITM * * -> M alloc\n");
    for (auto st : {LineState::Invalid, LineState::Shared,
                    LineState::Modified}) {
        for (auto sn : {SnoopSummary::None, SnoopSummary::Shared,
                        SnoopSummary::Modified}) {
            EXPECT_EQ(t.requester(BusOp::Rwitm, st, sn).next,
                      LineState::Modified);
        }
    }
}

TEST(MapFileTest, LaterLinesOverrideEarlier)
{
    const auto t = parseMapText(
        "requester READ * * -> S alloc\n"
        "requester READ I none -> E alloc\n");
    EXPECT_EQ(t.requester(BusOp::Read, LineState::Invalid,
                          SnoopSummary::None).next,
              LineState::Exclusive);
    EXPECT_EQ(t.requester(BusOp::Read, LineState::Invalid,
                          SnoopSummary::Shared).next,
              LineState::Shared);
}

TEST(MapFileTest, CommentsAndBlanksIgnored)
{
    const auto t = parseMapText(
        "# a comment line\n"
        "\n"
        "requester READ I none -> S alloc  # trailing comment\n");
    EXPECT_EQ(t.requester(BusOp::Read, LineState::Invalid,
                          SnoopSummary::None).next,
              LineState::Shared);
}

TEST(MapFileTest, SyntaxErrorsNameTheLine)
{
    try {
        parseMapText("requester READ I none E alloc\n");
        FAIL() << "expected FatalError";
    } catch (const memories::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 1"),
                  std::string::npos);
    }
}

TEST(MapFileTest, UnknownDirectiveIsFatal)
{
    EXPECT_THROW(parseMapText("observer READ I -> S none\n"),
                 memories::FatalError);
}

TEST(MapFileTest, UnknownOpIsFatal)
{
    EXPECT_THROW(parseMapText("requester LOAD I none -> S alloc\n"),
                 memories::FatalError);
}

TEST(MapFileTest, UnknownFlagIsFatal)
{
    EXPECT_THROW(
        parseMapText("requester READ I none -> S prefetch\n"),
        memories::FatalError);
}

TEST(MapFileTest, ParsedTablesAreValidated)
{
    // Allocating into Invalid is caught at parse time.
    EXPECT_THROW(parseMapText("requester READ I none -> I alloc\n"),
                 memories::FatalError);
}

TEST(MapFileTest, BuiltinsRoundTripThroughMapText)
{
    for (const auto &original :
         {makeMsiTable(), makeMesiTable(), makeMoesiTable()}) {
        const auto reparsed = parseMapText(original.toMapText());
        EXPECT_EQ(reparsed.name(), original.name());
        for (std::size_t op = 0; op < bus::numBusOps; ++op) {
            const auto bop = static_cast<BusOp>(op);
            if (!bus::isMemoryOp(bop))
                continue;
            for (std::size_t s = 0; s < numLineStates; ++s) {
                const auto st = static_cast<LineState>(s);
                const auto &sn_a = original.snooper(bop, st);
                const auto &sn_b = reparsed.snooper(bop, st);
                EXPECT_EQ(sn_a.next, sn_b.next);
                EXPECT_EQ(sn_a.response, sn_b.response);
                for (std::size_t r = 0; r < numSnoopSummaries; ++r) {
                    const auto sum = static_cast<SnoopSummary>(r);
                    const auto &rq_a = original.requester(bop, st, sum);
                    const auto &rq_b = reparsed.requester(bop, st, sum);
                    EXPECT_EQ(rq_a.next, rq_b.next);
                    EXPECT_EQ(rq_a.allocate, rq_b.allocate);
                }
            }
        }
    }
}

TEST(MapFileTest, LoadFromDisk)
{
    const std::string path = test::uniqueTempPath("proto.map");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string text =
            "protocol DISK\nrequester READ I none -> E alloc\n";
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    const auto t = loadMapFile(path);
    EXPECT_EQ(t.name(), "DISK");
    std::remove(path.c_str());
}

TEST(MapFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(loadMapFile("/nonexistent/proto.map"),
                 memories::FatalError);
}

} // namespace
} // namespace memories::protocol
