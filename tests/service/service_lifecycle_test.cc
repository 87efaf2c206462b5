/**
 * @file
 * Session-lifecycle conformance tier: a stream fed through a live
 * daemon session (connect / configure / feed / drain — and across
 * checkpoint-suspend-resume) must leave the board byte-identical to
 * the same stream pushed through feedBatch in-process. The signature
 * is counters text + stats text + IESCKPT container bytes, so any
 * divergence in counters, directories, buffer, or health state fails.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include "checkpoint/io.hh"
#include "service/session.hh"
#include "service/wire.hh"
#include "trace/record.hh"

namespace memories::service
{
namespace
{

using namespace testing;

TEST(ServiceLifecycleTest, PacedSessionMatchesGoldenFeedBatch)
{
    const auto raw = stream(/*seed=*/11, /*count=*/20'000);
    const auto canon = canonical(raw);
    const auto golden = goldenRun(configScript(), canon);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, configScript());

    const auto totals = client.feedAll(raw, /*batch=*/256);
    EXPECT_EQ(totals.accepted, totals.offered)
        << "paced sessions back-pressure, never drop";
    ASSERT_TRUE(client.exec("drain").ok);

    sessionSignature(client).expectEqual(golden, "paced session");
}

TEST(ServiceLifecycleTest, ConformanceIsBatchSizeInvariant)
{
    const auto raw = stream(/*seed=*/12, /*count=*/12'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    for (const std::size_t batch : {17, 256, 4096}) {
        TestDaemon daemon;
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        client.feedAll(raw, batch);
        ASSERT_TRUE(client.exec("drain").ok);
        sessionSignature(client).expectEqual(
            golden, "batch " + std::to_string(batch));
    }
}

TEST(ServiceLifecycleTest, RawModeMatchesGoldenIncludingOverflowDrops)
{
    // A bursty stream against a tiny buffer overflows in batch mode;
    // `stream pace off` must reproduce those drops exactly (raw mode
    // is the upload path for pre-paced trace files).
    oracle::StimulusParams p;
    p.seed = 13;
    p.count = 8'000;
    p.pBurst = 0.9;
    p.maxGap = 2;
    const auto raw = oracle::StimulusGen(p).generate();
    const auto canon = canonical(raw);

    auto script = configScript();
    script[4] = "buffer 8"; // replaces "buffer 64"
    const auto golden = goldenRun(script, canon);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, script);
    ASSERT_TRUE(client.exec("stream pace off").ok);

    const auto totals = client.feedAll(raw, /*batch=*/256);
    EXPECT_EQ(totals.offered, raw.size());
    EXPECT_LT(totals.accepted, totals.offered)
        << "expected overflow drops from this stream";
    ASSERT_TRUE(client.exec("drain").ok);

    sessionSignature(client).expectEqual(golden, "raw mode");
}

TEST(ServiceLifecycleTest, SuspendResumeMatchesStraightThroughRun)
{
    const auto raw = stream(/*seed=*/14, /*count=*/16'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 9'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 9'000,
                                                  raw.end());

    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name alpha").ok);
        const auto totals = client.feedAll(first, /*batch=*/256);
        ASSERT_EQ(totals.accepted, first.size());

        const auto reply = client.exec("session suspend");
        ASSERT_TRUE(reply.ok) << reply.text();
        EXPECT_NE(reply.text().find("suspended 'alpha'"),
                  std::string::npos)
            << reply.text();
        // The daemon closes a suspended session; the connection dies.
        EXPECT_FALSE(client.exec("session status").ok);
    }
    EXPECT_EQ(daemon.get().sessionsSuspended(), 1u);
    EXPECT_TRUE(ckpt::fileExists(
        Session::manifestPath(daemon.options.stateDir, "alpha")));

    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto reply = client.exec("session resume alpha");
        ASSERT_TRUE(reply.ok) << reply.text();
        EXPECT_NE(reply.text().find("resumed 'alpha'"),
                  std::string::npos)
            << reply.text();

        // The daemon's cycle chain resumed mid-stream; match it.
        client.setChainCycle(first.back().cycle);
        const auto totals = client.feedAll(second, /*batch=*/256);
        ASSERT_EQ(totals.accepted, second.size());
        ASSERT_TRUE(client.exec("drain").ok);

        sessionSignature(client).expectEqual(golden, "resumed session");
    }
}

TEST(ServiceLifecycleTest, ScriptConfiguredSessionSuspendsAndResumes)
{
    // Config delivered via `script <path>` must be captured line by
    // line, so a scripted session suspends AND resumes — replay may
    // not fall back to a default board (geometry mismatch).
    const auto raw = stream(/*seed=*/16, /*count=*/8'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    const std::string scriptPath = uniquePath("iesserv-script") + ".ies";
    {
        std::ofstream out(scriptPath);
        out << "# service config via script file\n";
        for (const auto &line : configScript())
            out << line << "\n";
    }

    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 4'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 4'000,
                                                  raw.end());

    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto scripted = client.exec("script " + scriptPath);
        ASSERT_TRUE(scripted.ok) << scripted.text();
        EXPECT_EQ(scripted.text().find("error:"), std::string::npos)
            << scripted.text();
        ASSERT_TRUE(client.exec("session name scripted").ok);
        const auto totals = client.feedAll(first, /*batch=*/256);
        ASSERT_EQ(totals.accepted, first.size());
        const auto reply = client.exec("session suspend");
        ASSERT_TRUE(reply.ok) << reply.text();
    }
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto reply = client.exec("session resume scripted");
        ASSERT_TRUE(reply.ok) << reply.text();

        client.setChainCycle(first.back().cycle);
        const auto totals = client.feedAll(second, /*batch=*/256);
        ASSERT_EQ(totals.accepted, second.size());
        ASSERT_TRUE(client.exec("drain").ok);
        sessionSignature(client).expectEqual(golden, "scripted resume");
    }
    std::remove(scriptPath.c_str());
}

TEST(ServiceLifecycleTest, TamperedManifestFailsClosedOnResume)
{
    // A manifest counter tampered to exceed uint64 must produce an
    // "error:" reply on resume — the fail-closed promise — not an
    // escaping std::out_of_range that kills the daemon.
    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name tamper").ok);
        client.feedAll(stream(/*seed=*/17, /*count=*/1'000),
                       /*batch=*/256);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    const auto path =
        Session::manifestPath(daemon.options.stateDir, "tamper");
    std::string manifest = readFileBytes(path);
    const auto pos = manifest.find("offered ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = manifest.find('\n', pos);
    manifest.replace(pos, eol - pos,
                     "offered 99999999999999999999999");
    std::ofstream(path, std::ios::binary) << manifest;

    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto reply = client.exec("session resume tamper");
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.text().find("out of range"), std::string::npos)
        << reply.text();
    // The daemon survived and the session is still usable.
    EXPECT_TRUE(client.exec("session status").ok);
}

TEST(ServiceLifecycleTest, TwinFleetTracksTheMainBoard)
{
    const auto raw = stream(/*seed=*/15, /*count=*/6'000);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, configScript());
    ASSERT_TRUE(client.exec("fleet add shadow 7").ok);

    client.feedAll(raw, /*batch=*/256);
    ASSERT_TRUE(client.exec("drain").ok);

    const auto list = client.exec("fleet list");
    ASSERT_TRUE(list.ok);
    EXPECT_NE(list.text().find("'shadow' seed 7 health healthy"),
              std::string::npos)
        << list.text();

    // Same config, same stream: the twin's stats must equal the main
    // board's (that equality is what makes it a valid resync donor).
    const auto main_stats = client.exec("stats");
    const auto twin_stats = client.exec("fleet stats 0");
    ASSERT_TRUE(main_stats.ok);
    ASSERT_TRUE(twin_stats.ok);
    EXPECT_EQ(main_stats.text(), twin_stats.text());
}

TEST(ServiceLifecycleTest, ResumeOfUnknownSessionFailsClosed)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto reply = client.exec("session resume never-saved");
    EXPECT_FALSE(reply.ok);
    // The session is still usable after the failed resume.
    configureSession(client, configScript());
    EXPECT_TRUE(client.exec("session status").ok);
}

TEST(ServiceLifecycleTest, FeedRepliesBeforeEmulatingButNoReaderSeesIt)
{
    // In process: a feed line leaves its retirements queued on the
    // board and on the twin; the next non-feed line emulates them.
    const auto raw = stream(/*seed=*/16, /*count=*/600);
    {
        SessionOptions options;
        options.stateDir = uniquePath("iesserv-defer");
        Session session(options, "defer");
        for (const auto &line : configScript())
            ASSERT_EQ(session.execute(line).rfind("error:", 0),
                      std::string::npos);
        ASSERT_EQ(session.execute("fleet add shadow 7").rfind("error:", 0),
                  std::string::npos);
        std::string line = "feed";
        Cycle prev = 0;
        for (const auto &txn : raw) {
            line += ' ' + encodeRecordHex(
                              trace::BusRecord::pack(txn, prev).raw);
            prev = txn.cycle;
        }
        EXPECT_EQ(session.execute(line), "fed 600 accepted 600 of 600");
        const ies::MemoriesBoard &board = *session.console().board();
        const ies::MemoriesBoard &twin = *session.ingest().twins()[0].board;
        EXPECT_GT(board.queuedRetirements(), 500u);
        EXPECT_GT(twin.queuedRetirements(), 500u);
        EXPECT_TRUE(session.emulateDeferred(64));
        EXPECT_GT(board.queuedRetirements(), 400u);
        EXPECT_GT(twin.queuedRetirements(), 400u);
        session.execute("stream status");
        EXPECT_EQ(board.queuedRetirements(), 0u);
        EXPECT_EQ(twin.queuedRetirements(), 0u);
        EXPECT_FALSE(session.emulateDeferred(64));
    }

    // Over the wire: feed lines interleaved with every read family, on
    // a session with a twin, reading right behind the last feed reply
    // (while the daemon is still emulating), each compared with an
    // in-process console fed the same records by feedBatch.
    const auto big = stream(/*seed=*/17, /*count=*/14'000);
    const auto canon = canonical(big);
    bus::Bus6xx goldenBus;
    ies::Console golden(goldenBus);
    for (const auto &line : configScript())
        ASSERT_EQ(golden.execute(line).rfind("error:", 0),
                  std::string::npos);

    TestDaemon daemon;
    auto client = std::make_unique<ServiceClient>();
    ASSERT_TRUE(client->connect(daemon.socket()));
    configureSession(*client, configScript());
    ASSERT_TRUE(client->exec("fleet add shadow 7").ok);
    ASSERT_TRUE(client->exec("session name interleave").ok);

    const std::vector<std::string> reads = {
        "stats", "counters", "stream status", "save-state",
        "fleet counters 0", "session suspend", "stats", "drain",
        "counters", "save-state"};
    const std::size_t segment = canon.size() / reads.size();
    std::size_t at = 0;
    for (const std::string &read : reads) {
        const std::vector<bus::BusTransaction> part(
            big.begin() + static_cast<std::ptrdiff_t>(at),
            big.begin() + static_cast<std::ptrdiff_t>(at + segment));
        const auto totals = client->feedAll(part, /*batch=*/256);
        ASSERT_EQ(totals.accepted, part.size()) << "before " << read;
        golden.board()->feedBatch(&canon[at], segment);
        at += segment;
        const std::string what = "'" + read + "' after " +
                                 std::to_string(at) + " records";

        if (read == "save-state") {
            const auto path = uniquePath("iesserv-defer") + ".ckpt";
            const auto goldenPath = uniquePath("iesserv-defer") + ".ckpt";
            ASSERT_TRUE(client->exec("save-state " + path).ok) << what;
            golden.execute("save-state " + goldenPath);
            EXPECT_TRUE(readFileBytes(path) == readFileBytes(goldenPath))
                << what << ": checkpoint bytes differ";
            std::remove(path.c_str());
            std::remove(goldenPath.c_str());
        } else if (read == "fleet counters 0") {
            EXPECT_EQ(client->exec(read).text(),
                      chomp(golden.board()->dumpStats()))
                << what;
        } else if (read == "stream status") {
            const std::string n = std::to_string(at);
            EXPECT_NE(client->exec(read).text().find(
                          "offered " + n + " attempted " + n +
                          " accepted " + n),
                      std::string::npos)
                << what;
        } else if (read == "session suspend") {
            ASSERT_TRUE(client->exec(read).ok) << what;
            client = std::make_unique<ServiceClient>();
            ASSERT_TRUE(client->connect(daemon.socket()));
            ASSERT_TRUE(client->exec("session resume interleave").ok);
            client->setChainCycle(big[at - 1].cycle);
            EXPECT_EQ(client->exec("counters").text(),
                      chomp(golden.execute("counters")))
                << what << ", resumed";
        } else if (read == "drain") {
            golden.board()->drainAll();
            EXPECT_EQ(client->exec(read).text(),
                      "drained buffer 0 retired " +
                          std::to_string(golden.board()->bufferRetired()))
                << what;
        } else {
            EXPECT_EQ(client->exec(read).text(), chomp(golden.execute(read)))
                << what;
        }
    }
    sessionSignature(*client).expectEqual(
        {chomp(golden.execute("counters")), chomp(golden.execute("stats")),
         [&] {
             const auto path = uniquePath("iesserv-defer") + ".ckpt";
             golden.execute("save-state " + path);
             const std::string bytes = readFileBytes(path);
             std::remove(path.c_str());
             return bytes;
         }()},
        "interleaved session");
    EXPECT_EQ(client->exec("fleet counters 0").text(),
              chomp(golden.board()->dumpStats()));
}

} // namespace
} // namespace memories::service
