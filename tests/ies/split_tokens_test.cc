/**
 * @file
 * ies::splitTokens must split exactly as the `std::istringstream >>`
 * loop it replaced: every console and IESSERV request goes through
 * it, so any difference would change which command a line means.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ies/console.hh"

namespace memories::ies
{
namespace
{

std::vector<std::string>
streamTokens(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

std::vector<std::string>
splitFresh(const std::string &line)
{
    std::vector<std::string> tokens;
    splitTokens(line, tokens);
    return tokens;
}

TEST(SplitTokensTest, MatchesStreamExtractionOnTheCorpus)
{
    const std::vector<std::string> corpus = {
        "",
        " ",
        "\t\r\n\v\f ",
        "stats",
        "  stats  ",
        "node 0 cache 2MB 4 128B LRU",
        "node\t0\tcpus\t0,1,2,3",
        "feed 0123456789abcdef fedcba9876543210\r",
        "feed\t\t0123456789abcdef \t fedcba9876543210\r\n",
        "a\vb\fc\rd\ne\tf g",
        "   leading and trailing   ",
        "runs    of     blanks",
        std::string("nul\0inside token", 16),
        "high \xa0 \xff bytes stay in tokens",
        "x",
    };
    for (const auto &line : corpus)
        EXPECT_EQ(splitFresh(line), streamTokens(line))
            << "line '" << line << "'";
}

TEST(SplitTokensTest, MatchesStreamExtractionOnANearMebibyteLine)
{
    // A feed line at the wire's 1 MiB bound: 16-digit tokens with
    // mixed separators and a CRLF ending.
    std::string line = "feed";
    const char seps[] = {' ', '\t', ' ', '\v', ' ', '\f'};
    for (std::size_t i = 0; line.size() + 17 < (std::size_t{1} << 20) - 2;
         ++i) {
        line += seps[i % sizeof seps];
        line += "0123456789abcdef";
    }
    line += "\r\n";
    const auto tokens = splitFresh(line);
    EXPECT_EQ(tokens, streamTokens(line));
    EXPECT_GT(tokens.size(), 60'000u);
}

TEST(SplitTokensTest, MatchesStreamExtractionOnRandomLines)
{
    // Lines drawn from an alphabet dense in separators, so runs,
    // leading/trailing blanks and single-char tokens all come up. It
    // also holds bytes just around the separators' range (0x00, 0x01,
    // 0x08, 0x0e, 0x1f, '!') and above 0x7f, which are token bytes;
    // every other line is mostly letters, so long tokens come up too.
    const char dense[] = " \t\n\v\f\rab0\xa0\x01\x08\x0e\x1f!\x80\xff";
    const char sparse[] = "abcdefghijklmnopqrstuvwxyz0123456789 \t\r";
    std::mt19937_64 rng(13);
    std::vector<std::string> reused;
    for (int i = 0; i < 4000; ++i) {
        const std::string alphabet =
            i % 2 == 0 ? std::string(dense, sizeof dense - 1) : sparse;
        std::string line(rng() % 80, ' ');
        for (char &c : line)
            c = rng() % 50 == 0 ? '\0' : alphabet[rng() % alphabet.size()];
        EXPECT_EQ(splitFresh(line), streamTokens(line))
            << "line " << i;
        // A vector reused across lines of every shape gives the same.
        splitTokens(line, reused);
        EXPECT_EQ(reused, streamTokens(line)) << "reused, line " << i;
    }
}

TEST(SplitTokensTest, ReusedVectorShrinksAndGrows)
{
    std::vector<std::string> tokens;
    splitTokens("feed 0123456789abcdef fedcba9876543210", tokens);
    EXPECT_EQ(tokens, (std::vector<std::string>{
                          "feed", "0123456789abcdef", "fedcba9876543210"}));
    splitTokens("stats", tokens);
    EXPECT_EQ(tokens, std::vector<std::string>{"stats"});
    splitTokens("", tokens);
    EXPECT_TRUE(tokens.empty());
    splitTokens("a bb ccc dddd", tokens);
    EXPECT_EQ(tokens,
              (std::vector<std::string>{"a", "bb", "ccc", "dddd"}));
}

} // namespace
} // namespace memories::ies
