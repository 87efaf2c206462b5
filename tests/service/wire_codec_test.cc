/**
 * @file
 * The `feed` record codec: encodeRecordHex/appendRecordHex must print
 * exactly "%016llx", and decodeRecordHex must accept exactly the
 * 16-digit lower-case hex words a plain digit-by-digit parser accepts,
 * with the same value. Every feed token on the wire goes through it,
 * so the test walks every byte value through every digit position.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "service/wire.hh"

namespace memories::service
{
namespace
{

/** The digit-by-digit parser the decoder must agree with. */
std::optional<std::uint64_t>
referenceDecode(const std::string &token)
{
    if (token.size() != 16)
        return std::nullopt;
    std::uint64_t raw = 0;
    for (const char c : token) {
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return std::nullopt;
        raw = (raw << 4) | digit;
    }
    return raw;
}

std::string
printfHex(std::uint64_t raw)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, raw);
    return buf;
}

TEST(ServiceWireCodecTest, EncodeMatchesPrintfAndRoundTrips)
{
    std::mt19937_64 rng(5);
    std::vector<std::uint64_t> raws = {0, 1, 0xf, 0x10, ~std::uint64_t{0},
                                       0x0123456789abcdefULL,
                                       0xfedcba9876543210ULL};
    for (int i = 0; i < 10'000; ++i)
        raws.push_back(rng() >> (rng() % 64));
    for (const std::uint64_t raw : raws) {
        const std::string hex = encodeRecordHex(raw);
        EXPECT_EQ(hex, printfHex(raw));
        EXPECT_EQ(decodeRecordHex(hex), raw) << hex;
        std::string appended = "feed ";
        appendRecordHex(appended, raw);
        EXPECT_EQ(appended, "feed " + hex);
    }
}

TEST(ServiceWireCodecTest, DecodeAgreesWithTheReferenceOnEveryByte)
{
    std::mt19937_64 rng(9);
    for (int t = 0; t < 64; ++t) {
        const std::string good = encodeRecordHex(rng());
        ASSERT_EQ(decodeRecordHex(good), referenceDecode(good));
        for (std::size_t pos = 0; pos < good.size(); ++pos) {
            for (int c = 0; c < 256; ++c) {
                std::string token = good;
                token[pos] = static_cast<char>(c);
                ASSERT_EQ(decodeRecordHex(token), referenceDecode(token))
                    << "byte " << c << " at " << pos << " of " << good;
            }
        }
    }
}

TEST(ServiceWireCodecTest, DecodeRejectsWrongLengthsAndMixedGarbage)
{
    for (const std::string &bad : std::vector<std::string>{
             "", "0", "0123456789abcde", "0123456789abcdef0",
             "0123456789ABCDEF", "0x23456789abcdef", " 123456789abcdef",
             "0123456789abcde\n", std::string(16, '\0')})
        EXPECT_EQ(decodeRecordHex(bad), std::nullopt) << bad;

    // Several bad bytes at once, including ones at and above 0x80
    // next to digits, so no byte's check can spill into another's.
    const char alphabet[] = "0123456789abcdef/:@`gAF\x7f\x80\xb0\xff";
    std::mt19937_64 rng(17);
    for (int i = 0; i < 200'000; ++i) {
        std::string token(16, '0');
        for (char &c : token)
            c = alphabet[rng() % (sizeof alphabet - 1)];
        ASSERT_EQ(decodeRecordHex(token), referenceDecode(token)) << token;
    }
}

} // namespace
} // namespace memories::service
