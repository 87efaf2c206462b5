#include "common/counters.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace memories
{
namespace
{

TEST(Counter40Test, StartsAtZero)
{
    Counter40 c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter40Test, CountsIncrements)
{
    Counter40 c;
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter40Test, WrapsAt40Bits)
{
    // The board's counters are exactly 40 bits wide (paper section 3):
    // an increment past 2^40-1 must wrap, not saturate.
    Counter40 c;
    c.add(Counter40::mask);
    EXPECT_EQ(c.value(), Counter40::mask);
    c.add();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter40Test, LargeAddWrapsModulo)
{
    Counter40 c;
    c.add((std::uint64_t{1} << 40) + 7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(Counter40Test, ClearResets)
{
    Counter40 c;
    c.add(100);
    c.clear();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter40Test, HoldsThirtyHoursAtTypicalUtilization)
{
    // Sanity-check the paper's sizing claim: at 20% utilization of a
    // 100MHz bus, a single event-class counter (an event class sees at
    // most about half the transactions) holds more than 30 hours.
    const double events_per_second = 1e8 * 0.20 * 0.5;
    const double seconds_to_wrap =
        static_cast<double>(std::uint64_t{1} << 40) / events_per_second;
    EXPECT_GT(seconds_to_wrap, 30.0 * 3600.0);
}

TEST(CounterBankTest, AddAndBump)
{
    CounterBank bank;
    auto h = bank.add("reads");
    bank.bump(h);
    bank.bump(h, 9);
    EXPECT_EQ(bank.value(h), 10u);
    EXPECT_EQ(bank.valueByName("reads"), 10u);
}

TEST(CounterBankTest, DuplicateNameReturnsSameHandle)
{
    CounterBank bank;
    auto h1 = bank.add("x");
    auto h2 = bank.add("x");
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(bank.size(), 1u);
}

TEST(CounterBankTest, HasAndHandle)
{
    CounterBank bank;
    bank.add("a");
    EXPECT_TRUE(bank.has("a"));
    EXPECT_FALSE(bank.has("b"));
    EXPECT_THROW(bank.handle("b"), FatalError);
}

TEST(CounterBankTest, ClearAllZeroesEverything)
{
    CounterBank bank;
    auto a = bank.add("a");
    auto b = bank.add("b");
    bank.bump(a, 5);
    bank.bump(b, 7);
    bank.clearAll();
    EXPECT_EQ(bank.value(a), 0u);
    EXPECT_EQ(bank.value(b), 0u);
}

TEST(CounterBankTest, DumpContainsNamesAndValues)
{
    CounterBank bank;
    bank.bump(bank.add("hits"), 3);
    const std::string dump = bank.dump();
    EXPECT_NE(dump.find("hits 3"), std::string::npos);
}

TEST(CounterBankTest, NamePreserved)
{
    CounterBank bank;
    auto h = bank.add("node0.local.READ.hit");
    EXPECT_EQ(bank.name(h), "node0.local.READ.hit");
}

TEST(Counter40Test, DeltaIsExactAcrossWrap)
{
    // A sampler reading 40-bit values across a wrap must see the true
    // movement: old value near the top, new value past zero.
    const std::uint64_t older = Counter40::mask - 4;
    const std::uint64_t newer = 10;
    EXPECT_EQ(Counter40::delta(newer, older), 15u);
    EXPECT_EQ(Counter40::delta(older, older), 0u);
    EXPECT_EQ(Counter40::delta(Counter40::mask, 0), Counter40::mask);
}

TEST(CounterBankTest, SnapshotReturnsRegistrationOrder)
{
    CounterBank bank;
    auto a = bank.add("alpha");
    bank.add("beta");
    bank.bump(a, 7);

    const std::vector<CounterSample> samples = bank.snapshot();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].name, "alpha");
    EXPECT_EQ(samples[0].handle, a);
    EXPECT_EQ(samples[0].value, 7u);
    EXPECT_EQ(samples[1].name, "beta");
    EXPECT_EQ(samples[1].value, 0u);
}

TEST(CounterBankTest, SnapshotVisitorSeesEveryCounter)
{
    CounterBank bank;
    bank.bump(bank.add("x"), 1);
    bank.bump(bank.add("y"), 2);
    std::uint64_t sum = 0;
    std::size_t count = 0;
    bank.snapshot([&](const CounterSample &s) {
        sum += s.value;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 3u);
}

TEST(CounterBankTest, SnapshotValuesAreWrapped40Bit)
{
    CounterBank bank;
    auto h = bank.add("wrapping");
    bank.bump(h, Counter40::mask);
    bank.bump(h, 2);
    const auto samples = bank.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].value, 1u);
}

TEST(CounterBankTest, DumpMatchesSnapshotFormatting)
{
    // dump() is now a formatter over snapshot(); the legacy line shape
    // "name value\n" must be preserved for console users.
    CounterBank bank;
    bank.bump(bank.add("hits"), 3);
    bank.bump(bank.add("misses"), 4);
    EXPECT_EQ(bank.dump(), "hits 3\nmisses 4\n");
}

} // namespace
} // namespace memories
