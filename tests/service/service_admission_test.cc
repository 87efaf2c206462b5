/**
 * @file
 * Admission-control tier: paced sessions price every feed line with
 * the credit-paced buffer's admission probe, record by record. An
 * over-rate client is back-pressured — the daemon clamps or refuses
 * the line, nothing is dropped, lost_inflight stays 0 — while a
 * concurrent in-rate session is entirely unaffected (its board stays
 * byte-identical to its solo golden run).
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include <cstdio>
#include <thread>

#include "trace/record.hh"

namespace memories::service
{
namespace
{

using namespace testing;

std::vector<std::string>
tinyBufferScript()
{
    return {
        "node 0 cache 2MB 4 128B LRU",
        "node 0 cpus 0,1,2,3",
        "buffer 4",
        "throughput 42",
        "init",
    };
}

/** Hex tokens of records at the given cycles, chained from prev. */
std::vector<std::string>
recordTokens(const std::vector<Cycle> &cycles, Cycle &prev)
{
    std::vector<std::string> tokens;
    std::uint64_t addr = 0x10000;
    for (const Cycle c : cycles) {
        bus::BusTransaction txn;
        txn.addr = addr += 128;
        txn.cycle = c;
        txn.op = bus::BusOp::Read;
        txn.cpu = 0;
        tokens.push_back(
            encodeRecordHex(trace::BusRecord::pack(txn, prev).raw));
        prev = c;
    }
    return tokens;
}

/** "feed" and @p tokens, each preceded by @p sep. */
std::string
joinFeed(const std::vector<std::string> &tokens, const std::string &sep)
{
    std::string line = "feed";
    for (const auto &token : tokens)
        line += sep + token;
    return line;
}

/** One feed line of records at the given cycles, chained from prev. */
std::string
feedLine(const std::vector<Cycle> &cycles, Cycle &prev)
{
    return joinFeed(recordTokens(cycles, prev), " ");
}

/**
 * Upload @p txns in feed lines of up to @p batch records the way a bus
 * master answers a retry: the refused record is re-issued @p backoff
 * cycles later, and every record behind it slips by as much. A
 * verbatim re-send, as ServiceClient::feedAll makes, could never land
 * here: the refused record keeps its cycle, and the buffer drains only
 * as the stream's cycles advance.
 */
FeedTotals
feedWithBusRetries(ServiceClient &client,
                   std::vector<bus::BusTransaction> txns,
                   std::size_t batch, Cycle backoff)
{
    FeedTotals totals;
    totals.offered = txns.size();
    Cycle prev = 0;
    for (std::size_t next = 0; next < txns.size();) {
        const std::size_t n = std::min(batch, txns.size() - next);
        std::string line = "feed";
        Cycle chain = prev;
        for (std::size_t i = next; i < next + n; ++i) {
            line += ' ';
            appendRecordHex(line,
                            trace::BusRecord::pack(txns[i], chain).raw);
            chain = txns[i].cycle;
        }
        const Reply reply = client.exec(line);
        ++totals.feedLines;
        unsigned long long fed = 0, accepted = 0, of = 0;
        if (!reply.ok ||
            std::sscanf(reply.text().c_str(),
                        "fed %llu accepted %llu of %llu", &fed, &accepted,
                        &of) != 3) {
            ADD_FAILURE() << "feed failed: " << reply.text();
            break;
        }
        totals.accepted += accepted;
        if (fed > 0)
            prev = txns[next + fed - 1].cycle;
        next += fed;
        if (fed < n) {
            ++totals.resends;
            for (std::size_t i = next; i < txns.size(); ++i)
                txns[i].cycle += backoff;
        }
    }
    return totals;
}

/** A session's `stream status` text plus its board signature. */
struct SessionState
{
    std::string status;
    RunSignature board;
};

SessionState
sessionState(ServiceClient &client)
{
    const auto status = client.exec("stream status");
    EXPECT_TRUE(status.ok) << status.text();
    return {status.text(), sessionSignature(client)};
}

void
expectSameState(const SessionState &a, const SessionState &b,
                const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what << ": stream status";
    a.board.expectEqual(b.board, what);
}

TEST(ServiceAdmissionTest, CreditsExhaustThenRecoverWithoutDrops)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, tinyBufferScript());

    Cycle prev = 0;
    // Fill the 4-slot buffer with a same-cycle burst: all admitted.
    auto reply = client.exec(feedLine({0, 0, 0, 0}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 4 accepted 4 of 4");

    // Buffer full, no credits earned at cycle 0: the probe refuses the
    // line outright. Nothing was pushed, so nothing can be dropped.
    reply = client.exec(feedLine({0}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 0 accepted 0 of 1");

    // 240 cycles at 42% bank enough credit to retire the backlog; the
    // re-sent record is admitted on the next offer.
    reply = client.exec(feedLine({240}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 1 accepted 1 of 1");

    const auto status = client.exec("stream status");
    ASSERT_TRUE(status.ok);
    EXPECT_NE(status.text().find("offered 6 attempted 5 accepted 5"),
              std::string::npos)
        << status.text();
    EXPECT_NE(status.text().find(
                  "backpressure 1 overflow-drops 0 feed-lines 3"),
              std::string::npos)
        << status.text();

    // The board-side invariant behind "back-pressured, never dropped".
    const auto stats = client.exec("stats");
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.text().find("lost-inflight 0"), std::string::npos)
        << stats.text();
}

TEST(ServiceAdmissionTest, BadTokenPastTheAdmittedPrefixChangesNothing)
{
    // Session a sees the malformed lines, session b never does; both
    // share every good line. A feed is decoded in full before
    // admission, though only the admitted prefix is unpacked, so a bad
    // token the board would never have been offered still rejects the
    // whole line.
    TestDaemon daemon;
    ServiceClient a, b;
    ASSERT_TRUE(a.connect(daemon.socket()));
    ASSERT_TRUE(b.connect(daemon.socket()));
    configureSession(a, tinyBufferScript());
    configureSession(b, tinyBufferScript());

    // Two records in flight: at cycle 0 only 2 of the 4 slots admit.
    Cycle prevA = 0, prevB = 0;
    ASSERT_EQ(a.exec(feedLine({0, 0}, prevA)).text(),
              "fed 2 accepted 2 of 2");
    ASSERT_EQ(b.exec(feedLine({0, 0}, prevB)).text(),
              "fed 2 accepted 2 of 2");

    const SessionState before = sessionState(a);
    const std::vector<Cycle> line(8, 0);
    for (const std::string bad :
         {"0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0",
          "0123456789abcdeg", "zzzzzzzzzzzzzzzz"}) {
        Cycle prev = prevA;
        auto tokens = recordTokens(line, prev);
        tokens[5] = bad; // past the 2-record admissible prefix
        const auto reply = a.exec(joinFeed(tokens, " "));
        EXPECT_FALSE(reply.ok) << bad;
        EXPECT_NE(reply.text().find("bad record token '" + bad + "'"),
                  std::string::npos)
            << reply.text();
        expectSameState(before, sessionState(a), "after '" + bad + "'");
    }

    // The next good line lands exactly as on the session that never
    // saw a bad one, and is clamped to the admissible prefix.
    const auto ra = a.exec(feedLine(line, prevA));
    const auto rb = b.exec(feedLine(line, prevB));
    EXPECT_EQ(ra.text(), "fed 2 accepted 2 of 8");
    EXPECT_EQ(ra.text(), rb.text());
    expectSameState(sessionState(a), sessionState(b), "next good line");
}

TEST(ServiceAdmissionTest, TabSeparatedCrlfFeedLineGetsTheSpacedReply)
{
    TestDaemon daemon;
    ServiceClient a, b;
    ASSERT_TRUE(a.connect(daemon.socket()));
    ASSERT_TRUE(b.connect(daemon.socket()));
    configureSession(a, tinyBufferScript());
    configureSession(b, tinyBufferScript());

    Cycle prevA = 0, prevB = 0;
    for (const auto &cycles : std::vector<std::vector<Cycle>>{
             {0, 0, 0, 0, 0, 0}, {0}, {240, 241, 242}}) {
        // exec() appends the '\n', so the tabbed line ends in "\r\n".
        const auto ra =
            a.exec(joinFeed(recordTokens(cycles, prevA), "\t") + "\r");
        const auto rb = b.exec(feedLine(cycles, prevB));
        EXPECT_TRUE(rb.ok) << rb.text();
        EXPECT_EQ(ra.ok, rb.ok);
        EXPECT_EQ(ra.text(), rb.text());
    }
    expectSameState(sessionState(a), sessionState(b), "tabbed session");
}

TEST(ServiceAdmissionTest, OverRateClientDoesNotPerturbInRatePeer)
{
    // Session A's stream arrives four times as densely as the stimulus
    // generator's (about 0.8 tenures per cycle against a 42% drain),
    // so a 12-entry buffer takes only a short prefix of each line.
    auto overrate = stream(/*seed=*/21, /*count=*/8'000);
    for (auto &txn : overrate)
        txn.cycle /= 4;
    const auto inrate = stream(/*seed=*/22, /*count=*/8'000);
    const auto golden = goldenRun(configScript(), canonical(inrate));

    // Session A: a tiny buffer and huge offered batches.
    auto tight = configScript();
    tight[4] = "buffer 12";
    {
        // Over-rate in fact: the buffer cannot take the stream as is.
        bus::Bus6xx bus;
        ies::Console console(bus);
        for (const auto &line : tight)
            ASSERT_EQ(console.execute(line).rfind("error:", 0),
                      std::string::npos);
        const auto canon = canonical(overrate);
        EXPECT_LT(console.board()->admissiblePrefix(canon.data(),
                                                    canon.size()),
                  canon.size() / 100);
    }

    TestDaemon daemon;
    ServiceClient a;
    ASSERT_TRUE(a.connect(daemon.socket()));
    configureSession(a, tight);

    // Session B: the standard in-rate configuration.
    ServiceClient b;
    ASSERT_TRUE(b.connect(daemon.socket()));
    configureSession(b, configScript());

    FeedTotals ta, tb;
    std::thread feedA([&] {
        ta = feedWithBusRetries(a, overrate, /*batch=*/512,
                                /*backoff=*/32);
    });
    std::thread feedB([&] { tb = b.feedAll(inrate, /*batch=*/256); });
    feedA.join();
    feedB.join();

    // A was throttled hard (many more lines than offered/batch), yet
    // everything eventually landed and nothing was dropped.
    EXPECT_EQ(ta.accepted, ta.offered);
    EXPECT_GT(ta.feedLines, 4 * (overrate.size() / 512))
        << "expected heavy admission clamping";
    const auto status = a.exec("stream status");
    ASSERT_TRUE(status.ok);
    EXPECT_NE(status.text().find("overflow-drops 0"),
              std::string::npos)
        << status.text();
    const auto stats = a.exec("stats");
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.text().find("lost-inflight 0"), std::string::npos);

    // B never noticed: byte-identical to its solo golden run.
    EXPECT_EQ(tb.accepted, tb.offered);
    ASSERT_TRUE(b.exec("drain").ok);
    sessionSignature(b).expectEqual(golden, "in-rate peer");
}

} // namespace
} // namespace memories::service
