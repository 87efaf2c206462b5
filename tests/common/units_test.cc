#include "common/units.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/types.hh"

namespace memories
{
namespace
{

TEST(UnitsTest, ParsesPlainBytes)
{
    EXPECT_EQ(parseByteSize("128"), 128u);
    EXPECT_EQ(parseByteSize("128B"), 128u);
}

TEST(UnitsTest, ParsesBinaryUnits)
{
    EXPECT_EQ(parseByteSize("2KB"), 2 * KiB);
    EXPECT_EQ(parseByteSize("64MB"), 64 * MiB);
    EXPECT_EQ(parseByteSize("8GB"), 8 * GiB);
    EXPECT_EQ(parseByteSize("16KiB"), 16 * KiB);
}

TEST(UnitsTest, RejectsGarbage)
{
    EXPECT_THROW(parseByteSize(""), FatalError);
    EXPECT_THROW(parseByteSize("MB"), FatalError);
    EXPECT_THROW(parseByteSize("12XB"), FatalError);
}

TEST(UnitsTest, ParseHexOrDecimalTakesA0xPrefixAndNothingElse)
{
    struct Case
    {
        const char *text;
        DecimalParse want;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"0", DecimalParse::Ok, 0},
        {"7", DecimalParse::Ok, 7},
        {"10", DecimalParse::Ok, 10},
        {"010", DecimalParse::Malformed, 0},
        {"00", DecimalParse::Malformed, 0},
        {"0x010", DecimalParse::Ok, 16},
        {"0x10", DecimalParse::Ok, 16},
        {"0XfF", DecimalParse::Ok, 255},
        {"0xffffffffffffffff", DecimalParse::Ok, ~std::uint64_t{0}},
        {"0x10000000000000000", DecimalParse::OutOfRange, 0},
        {"18446744073709551616", DecimalParse::OutOfRange, 0},
        {"0x", DecimalParse::Malformed, 0},
        {"x10", DecimalParse::Malformed, 0},
        {"0x-1", DecimalParse::Malformed, 0},
        {"-0x1", DecimalParse::Malformed, 0},
        {"0x1g", DecimalParse::Malformed, 0},
        {"0x 1", DecimalParse::Malformed, 0},
        {"ff", DecimalParse::Malformed, 0},
        {"", DecimalParse::Malformed, 0},
    };
    for (const Case &c : cases) {
        std::uint64_t value = 12345;
        EXPECT_EQ(parseHexOrDecimal(c.text, value), c.want) << c.text;
        EXPECT_EQ(value, c.want == DecimalParse::Ok ? c.value : 12345u)
            << c.text;
    }
}

TEST(UnitsTest, ParseDecimalAcceptsOnlyUnsignedDigits)
{
    struct Case
    {
        const char *text;
        DecimalParse want;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"0", DecimalParse::Ok, 0},
        {"7", DecimalParse::Ok, 7},
        {"0042", DecimalParse::Ok, 42},
        {"18446744073709551615", DecimalParse::Ok, ~std::uint64_t{0}},
        {"18446744073709551616", DecimalParse::OutOfRange, 0},
        {"99999999999999999999999", DecimalParse::OutOfRange, 0},
        {"", DecimalParse::Malformed, 0},
        {"-1", DecimalParse::Malformed, 0},
        {"+64", DecimalParse::Malformed, 0},
        {" 5", DecimalParse::Malformed, 0},
        {"5 ", DecimalParse::Malformed, 0},
        {"0x10", DecimalParse::Malformed, 0},
        {"12a", DecimalParse::Malformed, 0},
        {"1.5", DecimalParse::Malformed, 0},
        {"1e3", DecimalParse::Malformed, 0},
    };
    for (const Case &c : cases) {
        std::uint64_t value = 12345;
        EXPECT_EQ(parseDecimal(c.text, value), c.want) << c.text;
        // The output is written only on success.
        EXPECT_EQ(value, c.want == DecimalParse::Ok ? c.value : 12345u)
            << c.text;
    }
}

TEST(UnitsTest, RejectsSizesThatOverflow)
{
    // Neither the digits nor the scaled size may wrap: 2^64 + 128
    // is not 128 bytes, and 2^34 GB is not 0.
    EXPECT_THROW(parseByteSize("18446744073709551744"), FatalError);
    EXPECT_THROW(parseByteSize("17179869184GB"), FatalError);
    EXPECT_THROW(parseByteSize("18014398509481984KB"), FatalError);
    EXPECT_EQ(parseByteSize("18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseByteSize("17179869183GB"), 17179869183ull * GiB);
}

TEST(UnitsTest, FormatPicksLargestExactUnit)
{
    EXPECT_EQ(formatByteSize(8 * GiB), "8GB");
    EXPECT_EQ(formatByteSize(64 * MiB), "64MB");
    EXPECT_EQ(formatByteSize(2 * KiB), "2KB");
    EXPECT_EQ(formatByteSize(100), "100B");
    EXPECT_EQ(formatByteSize(1536), "1536B"); // not exactly 1.5KB
}

TEST(UnitsTest, RoundTrip)
{
    for (std::uint64_t v : {128ull, 2048ull, 64ull * MiB, 8ull * GiB})
        EXPECT_EQ(parseByteSize(formatByteSize(v)), v);
}

TEST(UnitsTest, FormatSecondsRanges)
{
    EXPECT_NE(formatSeconds(3.28e-3).find("ms"), std::string::npos);
    EXPECT_NE(formatSeconds(1.0).find("s"), std::string::npos);
    EXPECT_NE(formatSeconds(1000.0).find("min"), std::string::npos);
    EXPECT_NE(formatSeconds(13 * 3600.0).find("hours"),
              std::string::npos);
    EXPECT_NE(formatSeconds(3 * 86400.0).find("days"), std::string::npos);
}

} // namespace
} // namespace memories
