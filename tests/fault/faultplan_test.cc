/**
 * @file
 * FaultPlan text format: every mnemonic parses to the right spec, the
 * grammar rejects malformed plans with a helpful fatal(), and
 * describe() round-trips through parse() — the console's "fault
 * status" output is itself a loadable plan.
 */

#include "fault/faultplan.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "testutil/temppath.hh"

namespace memories::fault
{
namespace
{

TEST(FaultPlanTest, ParsesEveryKind)
{
    const FaultPlan plan = FaultPlan::parse(
        "retry prob 0.01\n"
        "dropreply prob 0.005\n"
        "delayreply prob 0.01 cycles 50\n"
        "addrflip prob 0.001 bit 7\n"
        "tagflip at 5000 node 2 bit 3\n"
        "slotloss at 2000 slots 128 cycles 5000\n"
        "stall at 3000 cycles 2000\n");
    ASSERT_EQ(plan.size(), 7u);

    EXPECT_EQ(plan.faults[0].kind, FaultKind::SpuriousRetry);
    EXPECT_DOUBLE_EQ(plan.faults[0].probability, 0.01);
    EXPECT_EQ(plan.faults[0].atTenure, 0u);

    EXPECT_EQ(plan.faults[1].kind, FaultKind::DropReply);
    EXPECT_EQ(plan.faults[2].kind, FaultKind::DelayReply);
    EXPECT_EQ(plan.faults[2].cycles, 50u);

    EXPECT_EQ(plan.faults[3].kind, FaultKind::AddressFlip);
    EXPECT_EQ(plan.faults[3].bit, 7u);

    EXPECT_EQ(plan.faults[4].kind, FaultKind::TagFlip);
    EXPECT_EQ(plan.faults[4].atTenure, 5000u);
    EXPECT_EQ(plan.faults[4].node, 2u);
    EXPECT_EQ(plan.faults[4].bit, 3u);

    EXPECT_EQ(plan.faults[5].kind, FaultKind::SlotLoss);
    EXPECT_EQ(plan.faults[5].slots, 128u);
    EXPECT_EQ(plan.faults[5].cycles, 5000u);

    EXPECT_EQ(plan.faults[6].kind, FaultKind::RetirementStall);
    EXPECT_EQ(plan.faults[6].atTenure, 3000u);
    EXPECT_EQ(plan.faults[6].cycles, 2000u);
}

TEST(FaultPlanTest, SkipsCommentsAndBlankLines)
{
    const FaultPlan plan = FaultPlan::parse(
        "# a full-line comment\n"
        "\n"
        "   \t  \n"
        "retry prob 0.5  # trailing comment\n");
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::SpuriousRetry);
}

TEST(FaultPlanTest, DescribeRoundTripsThroughParse)
{
    const std::string text =
        "retry prob 0.25\n"
        "delayreply at 10 cycles 50\n"
        "addrflip prob 0.5 bit 12\n"
        "tagflip at 7 node 1 bit 4\n"
        "slotloss at 3 slots 16 cycles 100\n"
        "stall prob 0.125 cycles 64\n";
    const FaultPlan plan = FaultPlan::parse(text);
    const FaultPlan again = FaultPlan::parse(plan.describe());
    EXPECT_EQ(plan.describe(), again.describe());
    ASSERT_EQ(again.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(again.faults[i].kind, plan.faults[i].kind) << i;
        EXPECT_EQ(again.faults[i].atTenure, plan.faults[i].atTenure)
            << i;
        EXPECT_DOUBLE_EQ(again.faults[i].probability,
                         plan.faults[i].probability)
            << i;
    }
}

TEST(FaultPlanTest, RejectsMalformedPlans)
{
    EXPECT_THROW(FaultPlan::parse("gremlin prob 0.1\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry prob\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry prob 1.5\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry prob -0.1\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry at 0\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry at 5 prob 0.5\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("retry prob 0.1 flavor 3\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("addrflip prob 0.1 bit 64\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("tagflip at 1 node 256\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("delayreply prob 0.1\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall at 1\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("slotloss at 1 slots 4\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("slotloss at 1 cycles 4\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("retry at 1x\n"), FatalError);
}

TEST(FaultPlanTest, RejectsSignedAndOutOfRangeIntegers)
{
    // A sign is not a digit: "-1" must not wrap to 2^64 - 1.
    EXPECT_THROW(FaultPlan::parse("tagflip at -1 node 0 bit 3\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("tagflip at 1 node 0 bit +3\n"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("stall at 99999999999999999999999 "
                                  "cycles 10\n"),
                 FatalError);
}

TEST(FaultPlanTest, EmptyTextIsAnEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("# only comments\n\n").empty());
}

TEST(FaultPlanTest, LoadsFromDisk)
{
    const std::string path =
        test::uniqueTempPath("faultplan_test.plan");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string text = "dropreply prob 0.25\nstall at 9 cycles 3\n";
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);

    const FaultPlan plan = FaultPlan::load(path);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::DropReply);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::RetirementStall);
    std::remove(path.c_str());

    EXPECT_THROW(FaultPlan::load("/nonexistent/no.plan"), FatalError);
}

TEST(FaultPlanTest, KindNamesAreStable)
{
    // Plan files are operator-facing artifacts: renaming a mnemonic
    // breaks saved plans, so pin them.
    EXPECT_EQ(faultKindName(FaultKind::SpuriousRetry), "retry");
    EXPECT_EQ(faultKindName(FaultKind::DropReply), "dropreply");
    EXPECT_EQ(faultKindName(FaultKind::DelayReply), "delayreply");
    EXPECT_EQ(faultKindName(FaultKind::AddressFlip), "addrflip");
    EXPECT_EQ(faultKindName(FaultKind::TagFlip), "tagflip");
    EXPECT_EQ(faultKindName(FaultKind::SlotLoss), "slotloss");
    EXPECT_EQ(faultKindName(FaultKind::RetirementStall), "stall");
}

} // namespace
} // namespace memories::fault
